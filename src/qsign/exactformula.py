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
table totals, the fixed-point Bessel series and integer pi, square roots
and prefix, all at 2^-w, and carries one integer error bound
(_term_plan). The sum is rounded once per index into its ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt

from mpmath import mp, mpf
from mpmath.libmp import mpf_pi, to_fixed

from .arithmetic import _GUARD_BITS, _twist_totals, divisor_count
from .numerics import (
    ErrComplex,
    ErrReal,
    _fixed_ball,
    _i1_series,
    bessel_i1,
    pi_err,
    working_precision,
    zeta_3_2,
)
from .qseries import PAPER_THRESHOLD  # re-exported; it is defined next to ZERO_EXCEPTIONS

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
    """The summands of the exact formula in fixed point, as a function of k;
    call at the ambient precision prec. Returns w = prec + _GUARD_BITS, the
    root tables' width, and term, where term(k) gives integers (value, err)
    at 2^-2w: the k-th summand twist * (prefix / k) * I1(x_k), which is
    real, within err units of the truth.

    Proof of the bounds. Per index, with u = w + 16, v = 2u - w and, for
    d = 5, 10, R_d = sqrt(2 (d-4) nn):
    * Pi = floor(2^u mpf_pi) is within 2 units of 2^u pi (mpf_pi at u + 10
      bits is within pi 2^(-8-u), the trust pi_err takes), and
      S_d = isqrt(2 (d-4) nn 2^2u) is 2^u R_d less [0, 1); so
      P_d = Pi S_d is within e_d = 2 S_d + Pi + 2 of 2^2u pi R_d.
    * The prefix sqrt2 pi sqrt(d-4) / sqrt(nn) is pi R_d / nn, kept at
      2^-u: pre = floor(P_d / (nn 2^u)) is within e_d / (nn 2^u) + 1 units
      of 2^u times it, and pre_err rounds that up. Each floor below loses
      less than one unit in the same way.
    Per k, with d = gcd(k, 10):
    * x_k = 2 pi R_d / (5k): X = floor(2 P_d / (5k 2^v)) is within
      x_err = floor(2 e_d / (5k 2^v)) + 2 units of 2^w x_k.
    * _i1_series gives s <= 2^w I1(X 2^-w) <= s + bound. Over the argument's
      interval I1' <= I0 <= e^x < 2^t, log2 e < 1.4427, so
      |2^w I1(x_k) - s| <= bound + x_err 2^t =: i1_err.
    * f = floor(pre s / (k 2^u)) is 2^w (prefix / k) I1(x_k) within
      f_err = floor((pre i1_err + s pre_err + pre_err i1_err) / (k 2^u)) + 2.
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
    * As R_d/nn < 2: pre <= 2^u (p_d + 2^-w) for the prefix p_d, pre_err
      <= 5 and x_err <= 2 + x 2^-15; so x' = X 2^-w has e^x' <= 2^L, and
      x_err 2^t <= 2^(L+2).
    * In _i1_series at x', E_k <= 2 sum_{i<=k} t_k/t_i, and sum_{k>=i} t_k/t_i
      <= 2 I1(x')/x', or 16/15 once i >= a = ceil(2x') (r_i < 1/16): the E_k
      sum to at most 10 2^L + 32/15 per term. Past a, T_k + E_k <=
      2^(w+L+1) 16^(a-k) + 32/15 meets the tail test's 8 within (w+L)/4 + 1
      terms, so there are at most 2x' + (w+L)/4 + 3, and i1_err <= 22 2^L + w.
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
    v = 2 * u - w
    pi = to_fixed(mpf_pi(u + 10), u)
    plan = {}
    for d in (5, 10):
        root = isqrt(2 * (d - 4) * nn << 2 * u)
        prod, err = pi * root, 2 * root + pi + 2
        plan[d] = (2 * prod, 2 * err, prod // (nn << u), err // (nn << u) + 2)

    def term(k: int) -> tuple[int, int]:
        d = gcd(k, 10)
        if d not in (5, 10):
            raise ValueError("term defined only for gcd(k,10) in {5,10}")
        prod2, err2, pre, pre_err = plan[d]
        den = 5 * k << v
        x = prod2 // den
        x_err = err2 // den + 2
        s, bound = _i1_series(x, w, 1)
        t = ((x + x_err) * 14427 >> w) // 10000 + 1
        i1_err = bound + (x_err << t)
        f = pre * s // (k << u)
        f_err = (pre * i1_err + s * pre_err + pre_err * i1_err) // (k << u) + 2
        twist, c = _twist_totals(k, n, delta == -1)
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


# per precision, the ErrReal partial sums P[c] = sum_{k <= c} d(k) k^(-3/2),
# each formed from P[c-1]; extended in place up to the largest cutoff seen
_DIVISOR_PARTIALS: dict[int, list[ErrReal]] = {}
# per (K // 5, prec), the finished bound of tail_bound_op, which depends on
# nothing else: its second cutoff is K // 10 = (K // 5) // 2
_TAIL_BOUNDS: dict[tuple[int, int], mpf] = {}
# at least 2^128 pi: mpf_pi at 138 bits is within 2^-136 of pi, and the
# floor to 128 fractional bits loses less than one unit
_PI_UP = to_fixed(mpf_pi(138), 128) + 2


def _zeta_target(prec: int) -> mpf:
    """The error asked of zeta(3/2) at prec bits: 2^(-prec/2), but never below
    2^-128. zeta_3_2 sums about target^(-2/17) terms, 20k at 2^-128 and 7e8
    at 2^-256, so a finer target would stall every run above 256 bits."""
    return mpf(2) ** max(-prec // 2, -128)


def _divisor_tail(cutoff: int, prec: int) -> ErrReal:
    """Upper enclosure of sum_{k > cutoff} d(k) k^(-3/2) via zeta(3/2)^2, at
    the ambient precision, which must be prec."""
    z = zeta_3_2(_zeta_target(prec))
    partials = _DIVISOR_PARTIALS.setdefault(prec, [ErrReal(0)])
    for k in range(len(partials), cutoff + 1):
        term = ErrReal(1) / (ErrReal(k) * ErrReal(k).sqrt()) * divisor_count(k)
        partials.append(partials[-1] + term)
    return z * z - partials[cutoff]


def tail_bound_op(delta: int, n: int, K: int, prec: int = 128) -> mpf:
    """Rigorous upper bound on |sum of all terms with k > K|.

    Assembled from the aggregated twisted-sum bounds, I1(x) <= x on [0,1),
    and the divisor Dirichlet series: the two reindexed families k = 5k'
    and k = 10k' contribute (32 pi^2/125) R(K//5) and
    (108 sqrt6 pi^2/125) R(K//10) with R the divisor tail. Valid once every
    omitted Bessel argument is below 1, i.e. K >= (4 pi/5) sqrt(3 nn):
    25 K^2 >= 48 nn pi^2, decided in integers with _PI_UP for pi.
    """
    nn = _validate_n(delta, n)
    if K < 1 or (25 * K * K << 256) < 48 * nn * _PI_UP * _PI_UP:
        raise ValueError(
            f"cutoff K={K} below the validity threshold ~{4 * math.pi / 5 * math.sqrt(3 * nn):.6g}"
        )
    key = (K // 5, prec)
    if key not in _TAIL_BOUNDS:
        with working_precision(prec):
            pi2 = pi_err() * pi_err()
            r5, r10 = _divisor_tail(K // 5, prec), _divisor_tail(K // 10, prec)
            bound = pi2 * 32 / 125 * r5 + pi2 * ErrReal(6).sqrt() * 108 / 125 * r10
            _TAIL_BOUNDS[key] = bound.hi
    return _TAIL_BOUNDS[key]


@dataclass
class ExactEval:
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
        return _eval_dict(vars(self))


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
    The summands are real integers at 2^-2w (_twist_totals), their total
    rounded once to the working precision, charging that to the numeric error.
    Note: the certified tail bound is of Weil type and is orders of
    magnitude above 1/2 at any desk-scale cutoff, so the definitive flag is
    not reachable in practice; rounding is nevertheless reported, alongside
    the gap and both errors.
    """
    _validate_n(delta, n)
    if k_max is None:
        k_max = default_k_max(delta, n)
    if k_max < 10:
        raise ValueError("k_max must be at least 10")

    need = _pass_bits(delta, n, k_max)
    escalations = (-(-need // prec) - 1).bit_length()  # the least e >= 0 with prec 2^e >= need
    prec <<= escalations
    with working_precision(prec):
        w, term = _term_plan(delta, n, prec)
        value, err = map(sum, zip(*(term(k) for k in range(5, k_max + 1, 5))))
        total = _fixed_ball(value, err, 2 * w)
        tail = tail_bound_op(delta, n, k_max, prec)
        rounded = int(mp.nint(total.value))
        gap = abs(total.value - rounded)
        definitive = bool(gap + total.err + tail < mpf(1) / 2)
    return ExactEval(
        delta=delta,
        n=n,
        k_max=k_max,
        value=total.value,
        err=total.err,
        tail_bound=tail,
        rounded=rounded,
        gap=gap,
        definitive=definitive,
        prec=prec,
        escalations=escalations,
    )


def main_term(delta: int, n: int, prec: int = 128) -> ErrReal:
    """The k=10 contribution: (2 sqrt3 pi / (5 sqrt(nn))) cos(...) I1((2pi/25) sqrt(3 nn))."""
    nn = _validate_n(delta, n)
    with working_precision(prec):
        cosine = ErrComplex.unit_root(16 + 30 * n if delta == 1 else 12 - 10 * n, 100).re
        pi = pi_err()
        x = pi * 2 / 25 * ErrReal(3 * nn).sqrt()
        i1 = bessel_i1(x, mpf((1, 8 - prec)) * (mp.exp(x.value) + 1))
        return ErrReal(2) * ErrReal(3).sqrt() * pi / (ErrReal(5) * ErrReal(nn).sqrt()) * cosine * i1


def error_bound_total(delta: int, n: int, prec: int = 128) -> mpf:
    """Rigorous upper bound for the absolute value of all k != 10 terms:
    32 pi^2 z^2/125 + (64 pi^2/125) I1((2pi/25) sqrt(2 nn))
    + 108 sqrt6 pi^2 z^2/125 + (216 sqrt6 pi^2/125) I1((pi/25) sqrt(3 nn)),
    with z = zeta(3/2)."""
    if delta == 1 and n < 9:
        raise ValueError("error bound needs n >= 9 for delta=+1")
    if delta == -1 and n < 12:
        raise ValueError("error bound needs n >= 12 for delta=-1")
    nn = shifted_index(delta, n)
    with working_precision(prec):
        z2 = zeta_3_2(_zeta_target(prec))
        z2 = z2 * z2
        pi = pi_err()
        pi2 = pi * pi
        i1a = bessel_i1(pi * 2 / 25 * ErrReal(2 * nn).sqrt(), mpf(2) ** (-prec // 2))
        i1b = bessel_i1(pi / 25 * ErrReal(3 * nn).sqrt(), mpf(2) ** (-prec // 2))
        bound = (
            pi2 * 32 / 125 * z2
            + pi2 * 64 / 125 * i1a
            + pi2 * ErrReal(6).sqrt() * 108 / 125 * z2
            + pi2 * ErrReal(6).sqrt() * 216 / 125 * i1b
        )
        return bound.hi


@dataclass
class MainErrorSplit:
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


def threshold_lhs(delta: int, n: int) -> ErrReal:
    """Left-hand side of the closing closed-form inequality (< 1 suffices).

    This keeps the displayed 5n+8 / 5n-8 convention of the source
    inequality, whose crossovers are exactly n = 2929 and n = 2234.
    Runs once at max(96, bitlen(nn)//2 + 32) bits: the exp arguments are
    about sqrt(nn), so the relative error is about 2^(bitlen(nn)/2 + 3 - prec),
    and 96 bits serve every nn below 2^128. Raises RuntimeError if the error
    is not under 1e-7 of the value.
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
    with working_precision(prec):
        pi_ = pi_err()
        nn_ = ErrReal(nn)
        cc = ErrComplex.unit_root(13 if delta == 1 else 14, 50).re  # cos((13 or 14) pi/25)
        c = ErrReal(abs(cc.value), cc.err)
        root_nn = nn_.sqrt()
        nn34 = (nn_ * root_nn).sqrt()  # nn^(3/4)
        nn14 = root_nn.sqrt()
        z2 = zeta_3_2(mpf(10) ** -9)
        z2 = z2 * z2
        pref = (
            ErrReal(2)
            * ErrReal(2).sqrt()
            * nn34
            / (ErrReal(3).sqrt().sqrt() * pi_.sqrt() * c)
            * (-(pi_ * 2 / 25) * (nn_ * 3).sqrt()).exp()
        )
        term1 = (ErrReal(8) + ErrReal(6).sqrt() * 27) * pi_ * pi_ * 4 / 125 * z2
        term2 = (
            ErrReal(32)
            * (ErrReal(2).sqrt() * ErrReal(2).sqrt().sqrt())  # 2^(3/4)
            * pi_
            * ((pi_ * 2 / 25) * (nn_ * 2).sqrt()).exp()
            / (ErrReal(25) * nn14)
        )
        term3 = (
            ErrReal(432)
            * ErrReal(3).sqrt().sqrt()  # 3^(1/4)
            * pi_
            * ((pi_ / 25) * (nn_ * 3).sqrt()).exp()
            / (ErrReal(25) * nn14)
        )
        result = pref * (term1 + term2 + term3)
        if not result.err < mpf(10) ** -7 * abs(result.value):
            raise RuntimeError(f"threshold_lhs missed its 1e-7 relative error goal at {prec} bits")
    return result
