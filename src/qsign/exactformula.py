"""Evaluation of the exact coefficient formulas, split into main and error
terms, with rigorous truncation tails and the closing threshold inequalities.

Index convention: the inner index is nn = 5n+3 (direct quotient) and
nn = 5n-3 (reciprocal). The source derivation displays 5n+8 / 5n-8, but
re-deriving the assembly and checking numerically against the integer
series shows 5n+-3 is the correct shift; with 5n+-8 the series converges
to wrong values. The closed-form threshold inequality (threshold_lhs) is
the one place the displayed 5n+-8 convention is kept, because its stated
crossovers n >= 2929 / n >= 2234 are exact for that form.

The partial sum of the formula is an integer loop: each summand
twist * (prefix / k) * I1(x_k) is formed from the twist's fixed-point
table totals, integer pi, square roots and prefix, and the Bessel value
read from one table per class d = gcd(k, 10) (every x_k of a class is
2 y_d / k), all in fixed point, and carries one integer error bound
(_term_plan). The totals decide the rounding and, with the tail bound's
integer form (tail_bound_op), the definitive flag; they are rounded only
into the reported ball. The tail bound and the error bound share one
integer form, _bound_form, with zeta(3/2) from zeta_3_2 at their width.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from math import gcd, isqrt
from operator import add
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_neg, round_ceiling, round_nearest, to_fixed

from .arithmetic import _GUARD_BITS, _roots, _twist_totals, divisor_count
from .numerics import ErrReal, _fixed_ball, _i1_series, _pi_fixed, bessel_i1, working_precision, zeta_3_2

__all__ = [
    "ExactEval",
    "MainErrorSplit",
    "shifted_index",
    "c_exact",
    "tail_bound_op",
    "main_term",
    "error_bound_total",
    "threshold_lhs",
    "main_error_split",
    "default_k_max",
]


def shifted_index(delta: int, n: int) -> int:
    """The inner index nn entering the prefactor and Bessel arguments."""
    if delta == 1:
        return 5 * n + 3
    if delta == -1:
        return 5 * n - 3
    raise ValueError("delta must be +1 or -1")


def _validate_n(delta: int, n: int) -> int:
    nn = shifted_index(delta, n)
    if delta == 1 and n < 1:
        raise ValueError("need n >= 1 for delta=+1")
    if delta == -1 and n < 2:
        raise ValueError("need n >= 2 for delta=-1 (positive inner index)")
    return nn


def _term_plan(delta: int, n: int, prec: int):
    """The summands of the exact formula in fixed point, as a function of k.
    Returns w = prec + _GUARD_BITS, the root tables' width, and term, where
    term(k) gives integers (value, err) at 2^-2w: the k-th summand
    twist * (prefix / k) * I1(x_k), which is real, within err units of the
    truth. term builds a class's table on its first k and keeps it; its
    result does not depend on which k were read before.

    Proof of the bounds. Per index, with u = w + 16 and, for d = 5, 10,
    R_d = sqrt(2 (d-4) nn) and y_d = pi R_d / 5:
    * Pi = _pi_fixed(u) is within 2 units of 2^u pi (Pi - 1 <= 2^u pi <=
      Pi + 2), and
      S_d = isqrt(2 (d-4) nn 2^2u) is 2^u R_d less [0, 1); so
      P_d = Pi S_d is within e_d = 2 S_d + Pi + 2 of 2^2u pi R_d.
    * The prefix sqrt2 pi sqrt(d-4) / sqrt(nn) is pi R_d / nn, kept at
      2^-u: pre = floor(P_d / (nn 2^u)) is within e_d / (nn 2^u) + 1 units
      of 2^u times it, and pre_err rounds that up. Each floor below loses
      less than one unit in the same way.
    * Every Bessel argument of the class d = gcd(k, 10) is x_k = 2 y_d / k.
      Y = floor(2 P_d / (5 2^w)) is within y_err = floor(2 e_d / (5 2^w)) + 2
      units of 2^(u+16) 2y_d (2u - w = u + 16), and z = Y
      2^-(u+16) is the point of the class's table: _i1_series(Y, u + 16, u,
      1, d) gives A_j, E_j and tail at 2^-u with 2^u a_j - A_j in [0, E_j),
      where H(z) = sum_j 2^u a_j k^-2j is k 2^u I1(z/k), and the entries past
      the last add at most tail <= 1 at every k of the class, as all are at
      least d, its smallest.
    * q = max_j ceil(2^u E_j / (A_j + A_0)), so E_j <= q (A_j + A_0) 2^-u for
      every j, and rest_j = sum_(i >= j) (A_i + E_i).
    Per k:
    * h = A_j + floor(h / k^2), from the top index J down to j = 0, is
      sum_(j <= J) A_j k^-2j less [0, 2): the floors lose less than
      sum_j k^-2j <= 25/24. J is the first index with rest_(J+1) < k^(2J+2),
      found in floats; only the charge below depends on it, in integers.
    * So H(z) - h is in [0, g], g = (q (h + 2 A_0 + 2) >> u) + 1 (the E_j,
      as sum_(j <= J) A_j k^-2j < h + 2), plus 2 (the floors), plus
      floor(rest_(J+1) / k^(2J+2)) + 1 (the entries past J), plus tail.
    * |x_k - z/k| <= y_err 2^-(u+16) / k, and over both points
      I1' <= I0 <= e^x < 2^t, log2 e < 1.4427; so |H(2 y_d) - H(z)| <=
      y_err 2^(t-16), and h is within h_err = g + that + 1 of
      H(2 y_d) = k 2^u I1(x_k).
    * f = floor(pre h / (k^2 2^(u+16))) is 2^w (prefix / k) I1(x_k) within
      f_err = floor((pre h_err + h pre_err + pre_err h_err) / (k^2 2^(u+16))) + 2.
    * The twist's real total t at 2^-w is within c units, two per table
      entry of the class it sums (_twist_totals); the summand t f is then
      within |t| f_err + c f + c f_err units of 2^2w times the truth.
    The twist is A_k(n) for delta = 1 and cal A_k(n) for delta = -1, the
    totals of _twist_totals.

    Precision. With x = x_10 = (2 pi/25) sqrt(3 nn), the largest x_k,
    L = 1.4428 x + 1/128, p = pi sqrt(12/nn) + 2^-10 above every prefix,
    m = k_max // 5 and Q = m (p 2^L + k_max), a pass at prec >= B =
    ceil(log2 Q) + 2 (_pass_bits) has err <= 1/4; there 2^w >= 2^10 Q.
    * c = phi(k)/2 <= k/2, two per entry of one class (the units mod k fall
      evenly on the 4 units mod d), and |t| <= c (2^w + 1).
    * As R_d/nn < 2: pre <= 2^u (p_d + 2^-w) for the prefix p_d and
      pre_err <= 5. With s = h / (k 2^16) and i1_err = h_err / (k 2^16),
      f and f_err are floor(pre s / (k 2^u)) and floor((pre i1_err +
      s pre_err + pre_err i1_err) / (k 2^u)) + 2, the forms of a per-k
      Bessel series at 2^-w, so what follows holds once i1_err stays within
      that series' bound 22 2^L + w, and s <= 2^(w+L).
    * y_err <= 2^17 (2 R_d + 3.2) / 5, so the larger point (Y + y_err)
      2^-(u+16) / k is below x_k + 2^-u (2 R_d + 3) / k: 2^t <= 2^(L+1),
      and as R_d / k <= 0.8 x the argument adds at most
      2^(L-14) (0.32 x + 0.2) to i1_err.
    * E_j <= 2 sum_(i <= j) a_j / a_i <= 2 (j+1) (a_j + a_0) / a_0 (the a_i
      rise, then fall), so q <= 1 + 4 (j_max + 1) / y_d <= w + L + 23
      (y_d >= 2x, y_d > 2.3; the table ends within 2x + (w+L)/4 + 9 entries,
      as the series did), and g, the floors, the skip (at most 2 units)
      and the tail add at most 2^(L-16) (w + L + 23) + 2^-16 (5x + w + L + 18)
      to i1_err: with the argument's share, far below 22 2^L + w for
      w, x < 2^16.
    * With c/k <= 1/2, the summands t f sum to at most 2^2w (1 + 2^-w) Q/2 and
      their bounds to 2^w (12 Q + m p w); m p w 2^-w <= 2^-7, as w 2^-w falls
      and m p (log2 Q + 11) <= 8 Q (p < 4.2, k_max >= 10, x > 1.1).
    Rounding to prec bits adds |value| 2^-prec, rounding up the radius a
    factor (1 + 2^(1-prec))^2: err <= (1/8 + 12/2^10 + 2^-7) 1.04 < 1/4,
    a margin far wider than B's float rounding.
    """
    nn = _validate_n(delta, n)
    w = prec + _GUARD_BITS
    u = w + 16
    pi = _pi_fixed(u)
    plan = {}

    def table(d: int) -> tuple:
        root = isqrt(2 * (d - 4) * nn << 2 * u)
        prod, err = pi * root, 2 * root + pi + 2
        y, y_err = 2 * prod // (5 << w), 2 * err // (5 << w) + 2  # 2 y_d at 2^-(u+16)
        terms, losts, tail = _i1_series(y, u + 16, u, 1, d)
        a0 = terms[0]
        q = max(-(-(lost << u) // (a + a0)) for a, lost in zip(terms, losts))
        rest = list(accumulate(map(add, reversed(terms), reversed(losts)), initial=0))[::-1]
        # tops[J] = -log2(rest_(J+1)) / (2J+2) is at most -log2 k while rest_(J+1) >= k^(2J+2)
        tops = [-math.log2(r) / (2 * j) if r else math.inf for j, r in enumerate(rest) if j]
        t_num = (y + y_err) * 14427 >> u + 16
        pre, pre_err = prod // (nn << u), err // (nn << u) + 2
        # tail + 5: the Horner floors' 2 and the roundings up of g, the skip and the argument
        return terms, tops, rest, q, 2 * a0 + 2, tail + 5, t_num, y_err, pre, pre_err

    def term(k: int) -> tuple[int, int]:
        d = gcd(k, 10)
        if d not in (5, 10):
            raise ValueError("term defined only for gcd(k,10) in {5,10}")
        if d not in plan:
            plan[d] = table(d)
        terms, tops, rest, q, lift, fixed_err, t_num, y_err, pre, pre_err = plan[d]
        k2 = k * k
        top = bisect_right(tops, -math.log2(k))
        h = 0
        for a in terms[top::-1]:
            h = a + h // k2
        t = t_num // (10000 * k) + 1
        h_err = (q * (h + lift) >> u) + rest[top + 1] // k2 ** (top + 1) + ((y_err << t) >> 16) + fixed_err
        den = k2 << u + 16
        f = pre * h // den
        f_err = (pre * h_err + h * pre_err + pre_err * h_err) // den + 2
        twist, c = _twist_totals(k, n, delta == -1, prec)
        return twist * f, abs(twist) * f_err + c * (f + f_err)

    return w, term


def _pass_bits(delta: int, n: int, k_max: int) -> int:
    """The bit count B of _term_plan's proof: err <= 1/4 at B bits or more."""
    nn = shifted_index(delta, n)
    big_l = 1.4428 * (2 * math.pi / 25) * math.sqrt(3 * nn) + 1 / 128
    p = math.pi * math.sqrt(12 / nn) + 2**-10
    return math.ceil(big_l + math.log2(k_max // 5 * (p + k_max * 2.0**-big_l))) + 2


def default_k_max(delta: int, n: int) -> int:
    """Smallest cutoff accepted by tail_bound_op, floored at 50."""
    nn = _validate_n(delta, n)
    return max(50, math.ceil(4 * math.pi / 5 * math.sqrt(3 * nn)) + 1)


# per width w, the integer partial sums S[c] = sum_{k <= c} d(k) floor(2^w k^(-3/2)),
# each from S[c-1]; extended in place up to the largest cutoff seen
_DIVISOR_PARTIALS: dict[int, list[int]] = {}
# per (K // 5, prec), the finished bound of tail_bound_op, which depends on
# nothing else: its second cutoff is K // 10 = (K // 5) // 2
_TAIL_BOUNDS: dict[tuple[int, int], mpf] = {}


def _pi_root_pairs(w: int, *squares: int) -> list[tuple[int, int]]:
    """Integer pairs (lo, hi) with lo <= 2^w x <= hi: first for pi, P - 1 and
    P + 2 with P = _pi_fixed(w); then for sqrt(x) of each x in squares,
    r = isqrt(x 2^2w), the floor of 2^w sqrt(x), and r + 1."""
    p = _pi_fixed(w)
    return [(p - 1, p + 2)] + [(r, r + 1) for r in (isqrt(x << 2 * w) for x in squares)]


def _bound_form(x: int, y: int, w: int, prec: int) -> mpf:
    """(pi^2/125) (32 X + 108 sqrt6 Y), the shape of the tail and the error
    bound, from above for nonnegative X and Y given as integers x >= 2^2w X
    and y >= 2^2w Y: ceil(P^2 (32 x 2^w + 108 R6 y) / 125) at 2^-5w, with P
    and R6 the upper ends of pi and sqrt6 (_pi_root_pairs), rounded up once
    to prec bits."""
    (_, pi), (_, r6) = _pi_root_pairs(w, 6)
    bound = -(-pi * pi * ((32 * x << w) + 108 * r6 * y) // 125)
    return mp.make_mpf(from_man_exp(bound, -5 * w, prec, round_ceiling))


def tail_bound_op(delta: int, n: int, K: int, prec: int = 128) -> mpf:
    """Rigorous upper bound on |sum of all terms with k > K|.

    Assembled from the aggregated twisted-sum bounds, I1(x) <= x on [0,1),
    and the divisor Dirichlet series: the two reindexed families k = 5k'
    and k = 10k' contribute (32 pi^2/125) R(K//5) and
    (108 sqrt6 pi^2/125) R(K//10) with R the divisor tail. Valid once every
    omitted Bessel argument is below 1, i.e. K >= (4 pi/5) sqrt(3 nn):
    25 K^2 >= 48 nn pi^2. Both are integers at 2^-w, w = max(prec, 96) + 32,
    with P >= 2^w pi the upper end of _pi_root_pairs' pi: the test is on
    25 K^2 2^2w, and the bound is _bound_form of X = R5 and Y = R10.
    R(c) = Z^2 - 2^w S[c] is at least 2^2w times the tail: Z, the upper end
    of zeta_3_2 at w bits, is at least 2^w zeta(3/2), and S[c] sums d(k)
    isqrt(floor(2^2w / k^3)) = d(k) floor(2^w k^(-3/2)) over k <= c (an
    integer m has m^2 <= y iff m^2 <= floor(y)).
    """
    nn = _validate_n(delta, n)
    w = max(prec, 96) + 32
    pi = _pi_root_pairs(w)[0][1]
    if K < 1 or (25 * K * K << 2 * w) < 48 * nn * pi * pi:
        raise ValueError(
            f"cutoff K={K} below the validity threshold ~{4 * math.pi / 5 * math.sqrt(3 * nn):.6g}"
        )
    key = (K // 5, prec)
    if key not in _TAIL_BOUNDS:
        z = zeta_3_2(w)[1]
        partials = _DIVISOR_PARTIALS.setdefault(w, [0])
        for k in range(len(partials), K // 5 + 1):
            partials.append(partials[-1] + divisor_count(k) * isqrt((1 << 2 * w) // k**3))
        r5, r10 = (z * z - (partials[c] << w) for c in (K // 5, K // 10))
        _TAIL_BOUNDS[key] = _bound_form(r5, r10, w, prec)
    return _TAIL_BOUNDS[key]


class ExactEval(NamedTuple):
    """Result of evaluating the exact formula at one index."""

    delta: int
    n: int
    k_max: int
    value: mpf
    err: mpf
    tail_bound: mpf
    rounded: int
    gap: mpf
    definitive: bool
    prec: int
    escalations: int  # doublings of the requested prec that reach _pass_bits

    def to_dict(self) -> dict:
        return _eval_dict(self._asdict())


def _eval_dict(row: dict) -> dict:
    """An ExactEval's fields, and any others row holds, with the value as a
    30-digit string and its gap / err / tail breakdown as 8-digit strings."""
    breakdown = {key: mp.nstr(row[key], 8) for key in ("gap", "err", "tail_bound")}
    return {**row, "value": mp.nstr(row["value"], 30), **breakdown}


def c_exact(
    delta: int,
    n: int,
    k_max: int | None = None,
    prec: int = 128,
) -> ExactEval:
    """Partial sum over k <= k_max (k a multiple of 5) plus the rigorous
    tail bound; Definitive iff gap + numeric error + tail bound < 1/2.

    One pass at prec 2^e bits, e >= 0 the least that reaches
    _pass_bits(delta, n, k_max), where the numeric error is at most 1/4
    (_term_plan); e is reported as escalations, and k_max stays as given.
    The summands are real integers at 2^-2w (_twist_totals); on their
    totals, rounded is the nearest integer, ties to even as mp.nint breaks
    them, and definitive is gap + err + ceil(2^2w tail) < 2^(2w-1).
    The Weil-type tail bound is far above 1/2 at any desk-scale cutoff, so
    definitive is not reachable in practice.
    """
    _validate_n(delta, n)
    if k_max is None:
        k_max = default_k_max(delta, n)
    if k_max < 10:
        raise ValueError("k_max must be at least 10")

    need = _pass_bits(delta, n, k_max)
    escalations = (-(-need // prec) - 1).bit_length()  # the least e >= 0 with prec 2^e >= need
    prec <<= escalations
    w, term = _term_plan(delta, n, prec)
    value, err = map(sum, zip(*(term(k) for k in range(5, k_max + 1, 5))))
    total = _fixed_ball(value, err, 2 * w, prec)
    tail = tail_bound_op(delta, n, k_max, prec)
    half = 1 << 2 * w - 1
    rounded, rest = divmod(value + half, 2 * half)
    rounded -= not rest and rounded & 1
    gap = abs(value - 2 * half * rounded)
    return ExactEval(
        delta=delta,
        n=n,
        k_max=k_max,
        value=total.value,
        err=total.err,
        tail_bound=tail,
        rounded=rounded,
        gap=mp.make_mpf(from_man_exp(gap, -2 * w, prec, round_nearest)),
        definitive=gap + err - to_fixed(mpf_neg(tail._mpf_), 2 * w) < half,
        prec=prec,
        escalations=escalations,
    )


def main_term(delta: int, n: int, prec: int = 128) -> ErrReal:
    """The k=10 summand of the exact formula,
    (2 sqrt3 pi / (5 sqrt(nn))) cos(...) I1((2pi/25) sqrt(3 nn)): term(10)
    of _term_plan, rounded once into a ball at prec bits."""
    w, term = _term_plan(delta, n, prec)
    return _fixed_ball(*term(10), 2 * w, prec)


def error_bound_total(delta: int, n: int, prec: int = 128) -> mpf:
    """Rigorous upper bound for the absolute value of all k != 10 terms:
    32 pi^2 z^2/125 + (64 pi^2/125) I1((2pi/25) sqrt(2 nn))
    + 108 sqrt6 pi^2 z^2/125 + (216 sqrt6 pi^2/125) I1((pi/25) sqrt(3 nn)),
    with z = zeta(3/2): _bound_form of X = z^2 + 2 I1a and Y = z^2 + 2 I1b at
    w = max(prec, 96) + 32, z^2 from above as Z^2 (zeta_3_2's upper end), and
    I1 as the ceiling at 2^-w of bessel_i1's upper end, to 2^(-prec/2), over
    the _ratio_ball arguments pi sqrt(8 nn)/25 and pi sqrt(3 nn)/25."""
    if delta == 1 and n < 9:
        raise ValueError("error bound needs n >= 9 for delta=+1")
    if delta == -1 and n < 12:
        raise ValueError("error bound needs n >= 12 for delta=-1")
    nn = shifted_index(delta, n)
    w = max(prec, 96) + 32
    pi, r8, r3 = _pi_root_pairs(w, 8 * nn, 3 * nn)
    target, z2 = mpf(2) ** (-prec // 2), zeta_3_2(w)[1] ** 2
    tops = (bessel_i1(_ratio_ball([pi, r], [(25 << w,) * 2], w, prec), target).hi for r in (r8, r3))
    x, y = (z2 - (to_fixed(mpf_neg(top._mpf_), w) << w + 1) for top in tops)  # z2 + 2^(w+1) ceil(2^w top)
    return _bound_form(x, y, w, prec)


class MainErrorSplit(NamedTuple):
    """Main term with a certified error-term bound at one index."""

    delta: int
    n: int
    main: ErrReal
    error_bound: mpf
    conclusive: bool


def main_error_split(delta: int, n: int, prec: int = 128) -> MainErrorSplit:
    m = main_term(delta, n, prec)
    bound = error_bound_total(delta, n, prec)
    conclusive = bool(bound < abs(m.value) - m.err)
    return MainErrorSplit(delta=delta, n=n, main=m, error_bound=bound, conclusive=conclusive)


def _ratio_ball(num: list, den: list, w: int, prec: int) -> ErrReal:
    """The ball at prec bits of prod(num) / prod(den), from integer pairs
    (lo, hi) with lo <= 2^w x <= hi for each positive factor x.

    The products of the low ends and of the high ends enclose the two
    products at 2^(-w len), so floor(low / high) and ceil(high / low), at
    2^-w, enclose the ratio: the ball with midpoint (lo + hi)/2 and radius
    (hi - lo)/2 units holds it, and _fixed_ball rounds it once."""
    n_lo, n_hi, d_lo, d_hi = (math.prod(pair[i] for pair in side) for side in (num, den) for i in (0, 1))
    gap = len(den) + 1 - len(num)  # the ratio at 2^-w is n 2^(gap w) / d
    up, down = w * max(gap, 0), w * max(-gap, 0)
    lo = (n_lo << up) // (d_hi << down)
    hi = -((-n_hi << up) // (d_lo << down))
    return _fixed_ball(lo + hi, hi - lo, w + 1, prec)


def threshold_lhs(delta: int, n: int) -> ErrReal:
    """Left-hand side of the closing closed-form inequality (< 1 suffices).

    This keeps the displayed 5n+8 / 5n-8 convention of the source
    inequality, whose crossovers are exactly n = 2929 and n = 2234. With
    z = zeta(3/2) and c = |cos((13 or 14) pi/25)|, the displayed form is
    pref (term1 + term2 + term3), where

        pref  = 2 sqrt2 nn^(3/4) e^(-(2 pi/25) sqrt(3 nn)) / (3^(1/4) sqrt(pi) c)
        term1 = (8 + 27 sqrt6) 4 pi^2 z^2 / 125
        term2 = 32 2^(3/4) pi e^((2 pi/25) sqrt(2 nn)) / (25 nn^(1/4))
        term3 = 432 3^(1/4) pi e^((pi/25) sqrt(3 nn)) / (25 nn^(1/4)).

    With s = sqrt(nn), a = 2 pi sqrt2/25 and b = 2 pi sqrt3/25 it is the
    sum of three monomials K s^p e^(q s):

        K1 = 8 sqrt2 (8 + 27 sqrt6) pi^(3/2) z^2 / (125 3^(1/4) c),  p = 3/2, q = -b
        K2 = 64 2^(5/4) sqrt(pi) / (25 3^(1/4) c),                    p = 1,   q = a - b
        K3 = 864 sqrt2 sqrt(pi) / (25 c),                             p = 1,   q = -b/2

    which is how it is evaluated. Each n-independent factor (K1, K2, K3,
    b, b - a and b/2) is a ratio of products of positive reals, each
    enclosed at 2^-w, w = prec + 32, by integers lo <= 2^w x <= hi:
    pi and sqrt(k) by _pi_root_pairs, pi by P - 1 and P + 2; z by
    zeta_3_2's pair at w bits; k^(1/4) by r = isqrt(isqrt(k 2^(4w))), the
    floor of 2^w k^(1/4), and r + 1; sqrt(pi) by isqrt((P - 1) 2^w) and
    isqrt((P + 2) 2^w) + 1; sqrt3 - sqrt2 by the differences of opposite
    ends; c by C - 1 and C + 1, where C = |m| for the entry m = 13 or 14 of
    the cos list of _roots(50, w - _GUARD_BITS), which is within one unit
    of 2^w cos((13 or 14) pi/25), whose sign it shares (|m| > 0.06 2^w);
    and an integer k by k 2^w at both ends. Every floor loses less than one
    unit. _ratio_ball encloses each constant by an integer pair, at most
    about 2^-(prec+26) of it wide (c's two units are the widest share), and
    rounds it into one ball, whose radius is then about 2^-prec of it, as
    for one ball operation.

    s, s^(1/2) and the exps stay balls: at n = 10^44 the value is about
    10^(-7.8e20), which no fixed point at these widths can hold. Runs once
    at max(96, bitlen(nn)//2 + 32) bits: the exp arguments are about
    sqrt(nn), so the relative error is about 2^(bitlen(nn)/2 + 3 - prec),
    and 96 bits serve every nn below 2^128. Raises RuntimeError if the
    error is not under 1e-7 of the value.
    """
    if delta == 1:
        if n < 8:
            raise ValueError("threshold form needs n >= 8 for delta=+1")
        nn = 5 * n + 8
    elif delta == -1:
        if n < 12:
            raise ValueError("threshold form needs n >= 12 for delta=-1")
        nn = 5 * n - 8
    else:
        raise ValueError("delta must be +1 or -1")

    prec = max(96, nn.bit_length() // 2 + 32)
    w = prec + 32
    cos = abs(_roots(50, w - _GUARD_BITS)[0][13 if delta == 1 else 14])
    pi, r2, r3, r6 = _pi_root_pairs(w, 2, 3, 6)
    root_pi, c, z = (isqrt(pi[0] << w), isqrt(pi[1] << w) + 1), (cos - 1, cos + 1), zeta_3_2(w)
    q3, q32 = ((r, r + 1) for r in (isqrt(isqrt(x << 4 * w)) for x in (3, 32)))  # 3^(1/4), 2^(5/4)
    r3_less_r2 = (r3[0] - r2[1], r3[1] - r2[0])
    r6_sum = ((8 << w) + 27 * r6[0], (8 << w) + 27 * r6[1])  # 8 + 27 sqrt6

    def exact(x: int) -> tuple[int, int]:
        return x << w, x << w

    k1 = _ratio_ball([exact(8), r2, r6_sum, pi, root_pi, z, z], [exact(125), q3, c], w, prec)
    k2 = _ratio_ball([exact(64), q32, root_pi], [exact(25), q3, c], w, prec)
    k3 = _ratio_ball([exact(864), r2, root_pi], [exact(25), c], w, prec)
    b = _ratio_ball([exact(2), pi, r3], [exact(25)], w, prec)
    b_less_a = _ratio_ball([exact(2), pi, r3_less_r2], [exact(25)], w, prec)
    half_b = _ratio_ball([pi, r3], [exact(25)], w, prec)
    with working_precision(prec):
        s = ErrReal(nn).sqrt()
        result = (
            k1 * (s * s.sqrt()) * (-(b * s)).exp()
            + k2 * s * (-(b_less_a * s)).exp()
            + k3 * s * (-(half_b * s)).exp()
        )
        if not result.err < mpf(10) ** -7 * abs(result.value):
            raise RuntimeError(f"threshold_lhs missed its 1e-7 relative error goal at {prec} bits")
    return result
