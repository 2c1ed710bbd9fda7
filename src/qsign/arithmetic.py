"""Cusp decompositions, Kloosterman sums, and the twisted sums driving the
exact formulas, together with all their bound checks and reduction identities.

Every summand of the twisted sums is +- a 10k-th root of unity, so sums are
evaluated by exact integer exponent arithmetic modulo 10k followed by table
lookups of fixed-point roots: integers within 1 of 2^w times the true parts,
w = prec + 8, added exactly and rounded once, so a sum of count terms is
within count * 2^-w plus that one rounding of its true value. A table is
two lists, cos and sin; it costs two cos/sin evaluations and about
modulus/8 integer products (modulus/4 for an even modulus not divisible by
4, modulus/2 for an odd one), the rest copied by symmetries of the circle.

A Kloosterman sum is real: the pair (-h, -h') is a term of it whenever
(h, h') is, with the opposite exponent, and the table's cos[-e] equals
cos[e] exactly. So K_q(n, m) is summed over the pairs with 2h < q only, as
twice their fixed-point cosines; the exact formula's twist is real in the
same way and sums one class (_twist_totals). K_k of every k >= 2 is the
product of such sums over the prime powers q of k (twisted
multiplicativity), each at 16 more bits, with the product's error bound
formed exactly (_product) and rounded once. The reduced forms of the
twisted sums, sum_l ζ_5^(t l) K_M(n + l M/5, m), are one such product: the
factors prime to 5 do not depend on l, and the 5-part collapses to one sum
over a class of residues mod 5 (_fifth_root_sum).

Everything here stays in fixed point up to the public return, which forms
the one ball, and every check is decided on the totals, in integers. Each
bound is the square root of an integer B: the box of values the totals admit
is compared with the circle of radius sqrt(B). A reduction identity D A = S
fails only when the boxes of both sides, at one scale, are disjoint.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import neg
from typing import NamedTuple

from mpmath.libmp import from_int, mpf_cos_sin_pi, mpf_div, round_nearest, to_fixed

from .numerics import ErrComplex, ErrReal, _fixed_ball, _fixed_complex

__all__ = [
    "CuspData",
    "divisor_count",
    "alpha_of",
    "decompose",
    "neg_inverse",
    "select_hprime",
    "kloosterman",
    "weil_bound_check",
    "unit_root",
    "a_kj",
    "a_kj_rewrite",
    "a_kj_reduced_d5",
    "a_kj_reduced_d10_abs",
    "a_k",
    "cal_a_k",
    "bound_check_d5",
    "bound_check_d10",
    "aggregated_bound_check",
    "clear_caches",
]


def _factorization(n: int) -> tuple:
    """The prime powers of n >= 1 as (p, e) pairs, by trial division; cached."""
    factors = _FACTORS.get(n)
    if factors is None:
        found = []
        rest, p = n, 2
        while p * p <= rest:
            if rest % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                found.append((p, e))
            p += 1 if p == 2 else 2
        if rest > 1:
            found.append((rest, 1))
        factors = _FACTORS[n] = tuple(found)
    return factors


def divisor_count(n: int) -> int:
    """Number of positive divisors, from the prime factorization."""
    if n < 1:
        raise ValueError("divisor_count needs n >= 1")
    count = 1
    for _, e in _factorization(n):
        count *= e + 1
    return count


def alpha_of(j: int, d: int) -> int:
    """The unique representative of 3j mod d in [1, d)."""
    if gcd(j, d) != 1:
        raise ValueError("j must be coprime to d")
    a = (3 * j) % d
    assert a != 0  # impossible for gcd(j,d)=1 and d in {5,10}
    return a


def neg_inverse(h: int, k: int) -> int:
    """The residue x in [0, k) with h*x == -1 (mod k); 0 when k = 1."""
    return (-pow(h, -1, k)) % k


def select_hprime(h: int, k: int, d: int) -> int:
    """Smallest nonnegative x with h*x == -1 (mod k) and (10/d) | x, for
    d = gcd(k, 10): x0 + t*k over the base inverse x0, with the t in
    [0, 10/d) that k*t == -x0 (mod 10/d) picks out (10/d is prime to k).
    """
    x0 = neg_inverse(h, k)
    s = 10 // d
    return x0 + (-x0 * pow(k, -1, s)) % s * k


class CuspData(NamedTuple):
    """Arithmetic data attached to a fraction h/k with gcd(k,10) in {5,10}.

    3h = h1*k + h2 with 0 <= h2 < k; h = d*nu1 + nu2 and h2 = d*mu1 + mu2
    with 0 <= nu2, mu2 < d; alpha == 3*(h mod d) (mod d) in [1, d).
    """

    k: int
    h: int
    hprime: int
    d: int
    h1: int
    h2: int
    nu1: int
    nu2: int
    mu1: int
    mu2: int
    alpha: int


def decompose(h: int, k: int) -> CuspData:
    if k < 1:
        raise ValueError("k must be positive")
    d = gcd(k, 10)
    if d not in (5, 10):
        raise ValueError("gcd(k,10) must be 5 or 10")
    if gcd(h, k) != 1:
        raise ValueError("h must be coprime to k")
    h %= k
    h1, h2 = divmod(3 * h, k)
    nu1, nu2 = divmod(h, d)
    mu1, mu2 = divmod(h2, d)
    return CuspData(
        k=k,
        h=h,
        hprime=select_hprime(h, k, d),
        d=d,
        h1=h1,
        h2=h2,
        nu1=nu1,
        nu2=nu2,
        mu1=mu1,
        mu2=mu2,
        alpha=alpha_of(nu2, d),
    )


# ---------------------------------------------------------------------------
# root-of-unity tables and exact-exponent summation
# ---------------------------------------------------------------------------

_GUARD_BITS = 8  # the tables of precision prec carry prec + _GUARD_BITS fractional bits
_SPLIT_BITS = 16  # the factor tables of a split Kloosterman sum carry 16 more
_ENTRY_ERR = 1  # each table part is within this many units of 2^-w (see _roots)
_ROOT_TABLES: dict[tuple[int, int], tuple[list, list]] = {}  # (cos, sin) per (modulus, prec)
_INVERSE_PAIRS: dict[int, list] = {}
_CLASS_PAIRS: dict[tuple[int, int], list] = {}  # per (power of 5, class mod 5)
_AKJ_TERMS: dict[tuple[int, int, int, int], list] = {}
_FACTORS: dict[int, tuple] = {}


def clear_caches() -> None:
    _ROOT_TABLES.clear()
    _INVERSE_PAIRS.clear()
    _CLASS_PAIRS.clear()
    _AKJ_TERMS.clear()
    _FACTORS.clear()


def _fixed_powers(root: tuple[int, int], count: int, bits: int) -> list:
    """root^0, ..., root^(count-1) for a fixed-point complex root at 2^-bits,
    each the componentwise floor of the previous power times root."""
    rc, rs = root
    c, s = 1 << bits, 0
    powers = [(c, s)]
    for _ in range(count - 1):
        c, s = (c * rc - s * rs) >> bits, (c * rs + s * rc) >> bits
        powers.append((c, s))
    return powers


def _roots(modulus: int, prec: int) -> tuple[list, list]:
    """Fixed-point table of e^(2*pi*i*t/modulus) as two lists (cos, sin):
    cos[t] and sin[t] within _ENTRY_ERR = 1 of 2^w cos and 2^w sin of
    2 pi t/modulus, w = prec + _GUARD_BITS.

    With M = modulus, only the entries t <= span are evaluated, span =
    floor(M/8) when 4 | M, floor(M/4) when 2 | M and floor(M/2) otherwise.
    Baby-step/giant-step: with B = isqrt(span) + 1 and W = w + 2 bitlen(B) +
    6, the only evaluations are Z = ζ_M and Y = ζ_M^B: the angle 2e/M
    (e = 1 or B, reduced mod M) rounded to nearest at W + 4 bits, its cos
    and sin of pi times it by mpf_cos_sin_pi there, each floored to W
    fractional bits. Entry t = gB + b (b, g < B) is the product of the baby
    power Z^b and the giant power Y^g, both kept at 2^-W, rounded to
    nearest at 2^-w.

    Proof of the bound, in units u = 2^-W and complex moduli. The angle is
    below 2, so its rounding moves it by under 2^-(W+3), and pi times that
    moves each part by under pi u/8 < 0.4 u; mpf_cos_sin_pi is trusted to
    within 4 ulp of the parts, at most 1 in modulus, so within u/4. Each
    part of Z and Y is thus within u of the truth before the floor and
    under 2u after it, so |Z - ζ| and |Y - ζ^B| are under 2√2 u.
    A baby power P_(j+1) = ⌊P_j Z⌋ inherits P_j's error e_j scaled by
    |Z| <= 1 + 2√2 u, adds |Z - ζ| and the floors' √2 u:
    e_(j+1) <= e_j (1 + 2√2 u) + 3√2 u, so e_j <= 4.25 j u for j < B, as
    B <= 2^(W/2) keeps the growth factor below 1.0001; the same holds for
    the giant powers Q_g of Y. The product P_b Q_g is then within
    e_b |Q_g| + e_g <= 4.3 (b + g) u < 8.6 B u of ζ^t; in units of 2^-w
    that is 8.6 B 2^(w-W) < 8.6 B / (64 B^2) < 0.14, and the rounding adds
    at most 1/2, so each part is within 0.64 < 1 unit. As 0.14 < 1/2, a
    value on the 2^-w grid comes out exact; entry 0 is (2^w, 0) exactly, the
    product of two exact powers.

    The other entries are copies, by three symmetries that are exact on the
    true values, so each keeps the bound: entry M/4 - t is (s_t, c_t) when
    4 | M, entry M/2 - t is (-c_t, s_t) when 2 | M, and entry M - t is
    (c_t, -s_t). The one evaluated entry that is its own quarter-turn
    image, t = M/8 when 8 | M, has equal true parts and takes c_t for both.
    So entries M/4, M/2 and 3M/4 are (0, 2^w), (-2^w, 0) and (0, -2^w)
    exactly."""
    key = (modulus, prec)
    table = _ROOT_TABLES.get(key)
    if table is None:
        w = prec + _GUARD_BITS
        span = modulus // 8 if modulus % 4 == 0 else modulus // 4 if modulus % 2 == 0 else modulus // 2
        step = isqrt(span) + 1
        bits = w + 2 * step.bit_length() + 6
        angles = (mpf_div(from_int(2 * (e % modulus)), from_int(modulus), bits + 4, round_nearest) for e in (1, step))
        z, y = (tuple(to_fixed(p, bits) for p in mpf_cos_sin_pi(a, bits + 4, round_nearest)) for a in angles)
        babies = _fixed_powers(z, step, bits)
        giants = _fixed_powers(y, span // step + 1, bits)
        shift = 2 * bits - w
        half_unit = 1 << (shift - 1)
        cos = [(gc * bc - gs * bs + half_unit) >> shift for gc, gs in giants for bc, bs in babies][: span + 1]
        sin = [(gc * bs + gs * bc + half_unit) >> shift for gc, gs in giants for bc, bs in babies][: span + 1]
        if modulus % 4 == 0:  # entry M/4 - t is (s_t, c_t)
            i = modulus // 4 - len(cos)
            cos, sin = cos + sin[i::-1], sin[: i + 1] + cos[::-1]
        if modulus % 2 == 0:  # entry M/2 - t is (-c_t, s_t)
            i = modulus // 2 - len(cos)
            cos += map(neg, cos[i::-1])
            sin += sin[i::-1]
        i = (modulus - 1) // 2  # entry M - t is (c_t, -s_t)
        cos += cos[i:0:-1]
        sin += map(neg, sin[i:0:-1])
        table = _ROOT_TABLES[key] = cos, sin
    return table


def unit_root(num: int, den: int, prec: int) -> ErrComplex:
    """e^(2 pi i num/den), the ball at prec bits of entry num mod den of the
    table of precision prec: each part within _ENTRY_ERR units of 2^-w,
    w = prec + _GUARD_BITS, rounded once (_fixed_complex)."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    cos, sin = _roots(den, prec)
    t = num % den
    return _fixed_complex(cos[t], sin[t], _ENTRY_ERR, prec + _GUARD_BITS, prec)


def _root_sum(modulus: int, rows, a: int, b: int, prec: int) -> tuple[int, int, int]:
    """Sum of ζ_modulus^(a x + b y) over the pairs (x, y) of rows as exact
    fixed-point totals: (re, im, err), the cos and sin entries of the table
    of precision prec at 2^-w added exactly, so each part is within err =
    count * _ENTRY_ERR units of the truth over count entries."""
    cos, sin = _roots(modulus, prec)
    exponents = [(a * x + b * y) % modulus for x, y in rows]
    return sum(map(cos.__getitem__, exponents)), sum(map(sin.__getitem__, exponents)), len(exponents) * _ENTRY_ERR


def _inverse_pairs(modulus: int) -> list:
    """Pairs (h, h') with h h' == -1 (mod modulus), modulus >= 2, over h
    coprime to it with 2h <= modulus: one of each pair (h, h'), (-h, -h'),
    as 2h == modulus only for the self-paired h = 1 of modulus 2."""
    pairs = _INVERSE_PAIRS.get(modulus)
    if pairs is None:
        pairs = [(h, neg_inverse(h, modulus)) for h in range(1, modulus // 2 + 1) if gcd(h, modulus) == 1]
        _INVERSE_PAIRS[modulus] = pairs
    return pairs


def _class_pairs(q: int, c: int) -> list:
    """Pairs (h, h') with h h' == -1 (mod q) over the h == c (mod 5) in
    [0, q), for q a power of 5 and 5 ∤ c: q/5 = phi(q)/4 pairs."""
    pairs = _CLASS_PAIRS.get((q, c))
    if pairs is None:
        pairs = _CLASS_PAIRS[q, c] = [(h, neg_inverse(h, q)) for h in range(c, q, 5)]
    return pairs


# ---------------------------------------------------------------------------
# classical Kloosterman sums
# ---------------------------------------------------------------------------


def _half_pair_total(q: int, n: int, m: int, prec: int) -> tuple[int, int]:
    """K_q(n, m) for a prime power q, over h coprime to q with h h' == -1
    (mod q), from the root table of precision prec: (total, err), a real
    total at 2^-w within err units of 2^w K_q(n, m), w = prec + _GUARD_BITS.

    The term of (-h, -h') is the conjugate of the term of (h, h'), and the
    table's cos[-e] and sin[-e] are cos[e] and -sin[e] exactly: the sum is
    twice the cosine total over 2h < q, with imaginary part 0. For q = 2
    the one term is self-paired and counted once. The error charges all
    phi(q) entries."""
    pairs = _inverse_pairs(q)
    cos = _roots(q, prec)[0]
    re = sum([cos[(n * h + m * hp) % q] for h, hp in pairs])
    return (re, _ENTRY_ERR) if q == 2 else (2 * re, 2 * len(pairs) * _ENTRY_ERR)


def _product(factors) -> tuple[int, int]:
    """(P, E) for fixed-point factors (T, c), each total T within c units
    of its true value at its own scale: the exact product P, and E =
    prod(|T| + c) - |P|, so that the product of the true values is within E
    units of P at the product of the scales. Writing each true value as
    T + δ with |δ| <= c, the product minus P is a sum of products each
    holding some δ, and each is bounded by its term in prod(|T| + c)."""
    product = bound = 1
    for total, err in factors:
        product *= total
        bound *= abs(total) + err
    return product, bound - abs(product)


def _cofactor_args(k: int, q: int, n: int, m: int) -> tuple[int, int]:
    """(n r', m r') mod q for a prime power q of k, r = k/q, r r' == 1
    (mod q): the arguments of the factor K_q of K_k(n, m)."""
    r_inv = pow(k // q, -1, q)
    return n * r_inv % q, m * r_inv % q


def _kloosterman_total(k: int, n: int, m: int, prec: int) -> tuple[int, int]:
    """K_k(n, m) over h coprime to k with h h' == -1 (mod k): (total, err),
    a real total at 2^-w within err units of the truth, w = prec +
    _GUARD_BITS. K_1 is 1 exactly, err = 0.

    Every k >= 2 splits by twisted multiplicativity over its s >= 1 prime
    powers q, with r = k/q and r r' == 1 (mod q): K_k(n, m) = prod_q
    K_q(n r', m r'). Each factor is a total T_q at 2^-W, W = w +
    _SPLIT_BITS, within c_q = phi(q) units; their product P at 2^-(sW) is
    within E = prod(|T_q| + c_q) - prod |T_q| units of 2^(sW) K (_product),
    and P rounded to nearest at 2^-w is within err = ceil(1/2 + E 2^(w-sW))
    units. With |T_q| <= (2^W + 1) phi(q), E <= s phi(k) (2^W + 2)^(s-1),
    and so E 2^(w-sW) <= s phi(k) 2^-16 (1 + 2^(1-W))^(s-1): for a prime
    power E = phi(k), and err is 1 whenever phi(k) <= 2^15."""
    if k < 1:
        raise ValueError("k must be positive")
    w = prec + _GUARD_BITS
    if k == 1:
        return 1 << w, 0
    factors = _factorization(k)
    product, bound = _product(
        _half_pair_total(q, *_cofactor_args(k, q, n, m), prec + _SPLIT_BITS) for q in (p**e for p, e in factors)
    )
    shift = len(factors) * (w + _SPLIT_BITS) - w
    half = 1 << (shift - 1)
    return (product + half) >> shift, ((bound + half - 1) >> shift) + 1


def kloosterman(k: int, n: int, m: int, prec: int = 128) -> ErrComplex:
    """K_k(n, m), the ball of _kloosterman_total with imaginary part 0."""
    total, err = _kloosterman_total(k, n, m, prec)
    return _fixed_complex(total, 0, err, prec + _GUARD_BITS, prec)


def _exceeds(re: int, im: int, err: int, square: int, prec: int) -> bool:
    """Whether totals re, im at 2^-w, w = prec + _GUARD_BITS, each part
    within err units of the truth, place it beyond sqrt(square): whether the
    box's point nearest 0, ((|re| - err)+, (|im| - err)+), is, decided in
    integers."""
    x, y = max(abs(re) - err, 0), max(abs(im) - err, 0)
    return x * x + y * y > square << 2 * (prec + _GUARD_BITS)


def _weil_square(k: int, n: int, m: int) -> int:
    """The Weil bound squared: gcd(n, m, k) d(k)^2 k."""
    return gcd(gcd(abs(n), abs(m)), k) * divisor_count(k) ** 2 * k


def weil_bound_check(k: int, n: int, m: int, prec: int = 128) -> bool:
    """|K_k(n,m)| <= sqrt(gcd(n,m,k)) d(k) sqrt(k), within error bars.

    The inequality can be attained exactly (k=1), so a failure is reported
    only when every value the totals admit exceeds the bound (_exceeds).
    """
    total, err = _kloosterman_total(k, n, m, prec)
    return not _exceeds(total, 0, err, _weil_square(k, n, m), prec)


# ---------------------------------------------------------------------------
# twisted sums A_{k,j}(n) and friends
# ---------------------------------------------------------------------------


def _term_exponent_parts(h: int, hprime: int, k: int) -> int:
    """Exact ζ_{10k} exponent of one summand, without the -10(n+1)h part.

    The summand is (-1)^(h1+nu1+mu1) ζ_{10k}^(3 mu2 - nu2 - d)
    e^{(2 pi i/k)(d^2/20)(nu1^2 - mu1^2 + nu1 - mu1) h'};  nu1(nu1+1) -
    mu1(mu1+1) is always even, so for d=5 the numerator 25/2 * poly * h'
    is an integer without conditions on h'.
    """
    d = gcd(k, 10)
    h1, h2 = divmod(3 * h, k)
    nu1, nu2 = divmod(h, d)
    mu1, mu2 = divmod(h2, d)
    poly = nu1 * (nu1 + 1) - mu1 * (mu1 + 1)
    if d == 10:
        quad = 50 * poly * hprime
    else:
        quad = 25 * (poly // 2) * hprime
    return 5 * k * ((h1 + nu1 + mu1) % 2) + (3 * mu2 - nu2 - d) + quad


def _akj_exponent_table(k: int, j: int, h_shift: int = 0, hp_shift: int = 0) -> list:
    """Per-h (base, step) with summand exponent base + n*step (mod 10k).

    h_shift/hp_shift evaluate the sum with shifted representatives
    h + h_shift*k and h' + hp_shift * (10/d) * k, exercising the mod-k
    well-definedness of the summands. A table's domain is checked when it is
    built, so the sums that read a cached table check nothing.
    """
    d = gcd(k, 10)
    key = (k, j % d, h_shift, hp_shift)
    table = _AKJ_TERMS.get(key)
    if table is not None:
        return table
    if d not in (5, 10):
        raise ValueError("gcd(k,10) must be 5 or 10")
    if gcd(j, d) != 1:
        raise ValueError("j must be coprime to gcd(k,10)")
    mod = 10 * k
    table = []
    for h in range(j % d, k, d):
        if gcd(h, k) != 1:
            continue
        hp = select_hprime(h, k, d) + hp_shift * (10 // d) * k
        hh = h + h_shift * k
        base = _term_exponent_parts(hh, hp, k) - 10 * hh  # n = 0 part
        step = (-10 * hh) % mod
        table.append((base % mod, step))
    _AKJ_TERMS[key] = table
    return table


def _akj_totals(k: int, j: int, n: int, prec: int) -> tuple[int, int, int]:
    """A_{k,j}(n) as _root_sum's fixed-point totals over 1 <= h < k."""
    return _root_sum(10 * k, _akj_exponent_table(k, j), 1, n, prec)


def a_kj(k: int, j: int, n: int, prec: int = 128) -> ErrComplex:
    """Direct summation of the twisted sum A_{k,j}(n) over 1 <= h < k."""
    return _fixed_complex(*_akj_totals(k, j, n, prec), prec + _GUARD_BITS, prec)


def a_kj_rewrite(
    k: int,
    j: int,
    n: int,
    prec: int = 128,
    h_shift: int = 1,
    hp_shift: int = 2,
) -> ErrComplex:
    """A_{k,j}(n) summed over shifted representatives: with the defaults
    each h runs through h + k and each h' through h' + 2*(10/d)*k, so
    agreement with a_kj checks only that the summands are well defined mod
    k. Each shifted exponent carries its own ζ_{10k}^(3 mu2 - nu2 - d), so
    the pulled-out prefactor ζ_{10k}^(3 alpha_j - j - d) is not checked here.
    """
    rows = _akj_exponent_table(k, j, h_shift, hp_shift)
    return _fixed_complex(*_root_sum(10 * k, rows, 1, n, prec), prec + _GUARD_BITS, prec)


def _fifth_root_sum(t: int, modulus: int, first: int, second: int, prec: int) -> tuple:
    """S = sum_l ζ_5^(t l) K_M(first + l M/5, second), l = 0..4, for
    M = modulus with 25 | M and 5 ∤ t: (((re, err_re), (im, err_im)), w),
    each part of S a total at 2^-w within its err units of the truth.

    Write M = Q R with Q = 5^a and 5 ∤ R. Twisted multiplicativity splits
    each K_M(n, m) into K_Q(n R', m R'), R R' == 1 (mod Q), times a factor
    K_q for each prime power q of R; the step M/5 is 0 mod q, so those
    factors, with product K_R, are the same for all five l and are summed
    once. In the 5-part, n R' == u + l 5^(a-1) (mod Q) with u = first R',
    and summing over l first, sum_l ζ_5^((t + h) l) is 5 when h == -t
    (mod 5) and 0 otherwise: with v = second R',

        S = 5 K_R F,   F = sum over h in (Z/Q)^x, h == -t (mod 5), of
                           e((u h + v h')/Q),  h h' == -1 (mod Q),

    a sum of phi(Q)/4 terms. Every factor is a total at 2^-W, W = prec +
    _GUARD_BITS + _SPLIT_BITS, within its table charge, and the parts of S
    are the exact products at 2^-w, w = (s + 1) W over the s prime powers
    of R, with _product's error bounds."""
    split = prec + _SPLIT_BITS
    factors = []
    for p, e in _factorization(modulus):
        q = p**e
        if p == 5:
            five, (u, v) = q, _cofactor_args(modulus, q, first, second)
        else:
            factors.append(_half_pair_total(q, *_cofactor_args(modulus, q, first, second), split))
    k_r = _product(factors)
    pairs = _class_pairs(five, -t % 5)
    re, im, err = _root_sum(five, pairs, u, v, split)
    parts = tuple(_product((k_r, (5 * x, 5 * err))) for x in (re, im))
    return parts, (len(factors) + 1) * (split + _GUARD_BITS)


def _fixed_quotient(total: int, err: int, den: int, w: int, prec: int) -> ErrReal:
    """The ball of total/den, at prec bits, for a fixed-point total at 2^-w
    within err units of the truth: the floor division moves the quotient by
    under one unit, and err/den < err // den + 1."""
    return _fixed_ball(total // den, err // den + 2, w, prec)


def _reduced_totals(k: int, j: int, n: int, prec: int, alpha_shift: int = 0) -> tuple:
    """(D, parts, w) with D A_{k,j}(n) = S, a sum of Kloosterman sums, for
    gcd(k,10) in {5, 10} (every caller checks it): S and its parts at 2^-w
    from _fifth_root_sum. For gcd(k,10) = 5, D = -25 and S =
    sum_l e^(2 pi i j l/5) K_{5k}((5n+3)(k^2-1)/4 + l k, j^2-5j-alpha^2+5alpha),
    where (1-k^2)/4 == 4^-1 (mod 5k): k is odd, so 8 | k^2 - 1, and 5k | k^2.
    For gcd(k,10) = 10, D = 50 and S =
    sum_l e^(-2 pi i j l/5) K_{10k}(2(k l - 5n - 3), (j^2-10j-alpha^2+10alpha)/2).
    alpha_shift corrupts alpha_j: nonzero values are the sweep's negative controls."""
    d = gcd(k, 10)
    jr = j % d
    if gcd(jr, d) != 1:
        raise ValueError(f"j must be coprime to {d}")
    al = alpha_of(jr, d) + alpha_shift
    num = jr * jr - d * jr - al * al + d * al
    if d == 5:
        return (-25, *_fifth_root_sum(jr, 5 * k, (5 * n + 3) * (k * k - 1) // 4, num, prec))
    if num % 2:
        raise ValueError("corrupted alpha made the twist parameter a half-integer")
    return (50, *_fifth_root_sum(-jr, 10 * k, -2 * (5 * n + 3), num // 2, prec))


def _reduced_identity_holds(k: int, j: int, n: int, prec: int, alpha_shift: int = 0) -> bool:
    """Whether D A_{k,j}(n) = S (_reduced_totals) can hold, on the totals
    of precision prec. A's totals a at 2^-v, v = prec + _GUARD_BITS, are within
    err units, so D a 2^(w-v) is within |D| err 2^(w-v) units of 2^w D A, and
    each part s of S within its e units: the identity is refuted only when
    some part's |D a 2^(w-v) - s| exceeds the sum of the two (w - v >= 16).
    For d = 10 this decides the value A = S/50, not only its modulus."""
    re, im, err = _akj_totals(k, j, n, prec)
    den, parts, w = _reduced_totals(k, j, n, prec, alpha_shift)
    shift = w - prec - _GUARD_BITS
    slack = abs(den) * err << shift
    return all(abs((den * a << shift) - s) <= slack + e for a, (s, e) in zip((re, im), parts))


def a_kj_reduced_d5(
    k: int, j: int, n: int, prec: int = 128, alpha_shift: int = 0
) -> ErrComplex:
    """A_{k,j}(n) = -S/25 for gcd(k,10)=5, S the Kloosterman form of
    _reduced_totals: -1/25 is folded into its totals, each part rounded once."""
    if gcd(k, 10) != 5:
        raise ValueError("k must have gcd(k,10) = 5")
    _, parts, w = _reduced_totals(k, j, n, prec, alpha_shift)
    return ErrComplex(*(_fixed_quotient(-total, err, 25, w, prec) for total, err in parts))


def a_kj_reduced_d10_abs(
    k: int, j: int, n: int, prec: int = 128, alpha_shift: int = 0
) -> ErrReal:
    """|A_{k,j}(n)| = |S|/50 for gcd(k,10)=10, S the Kloosterman form of
    _reduced_totals, its modulus taken on the totals: isqrt(re^2 + im^2) is
    under one unit below |re + i im|, which is within sqrt(err_re^2 +
    err_im^2) of |S|; then 1/50 is folded in and the one part rounded once."""
    if gcd(k, 10) != 10:
        raise ValueError("k must have gcd(k,10) = 10")
    _, ((re, err_re), (im, err_im)), w = _reduced_totals(k, j, n, prec, alpha_shift)
    return _fixed_quotient(isqrt(re * re + im * im), isqrt(err_re * err_re + err_im * err_im) + 2, 50, w, prec)


def _twist_totals(k: int, n: int, twisted: bool, prec: int) -> tuple[int, int]:
    """The twist of the exact formula, A_k(n) = A_{k,3}(n) + A_{k,-3}(n) or,
    when twisted, cal A_k(n) = conj(A_{k,1}(-n) + A_{k,-1}(-n)): (2 re,
    2 err) of class j = 3 at n, or j = 1 at -n, a real total at 2^-w within
    err units, w = prec + _GUARD_BITS.

    Proof. With g = k - h: g1 = 2 - h1, g2 = k - h2, g nu1 = k/d - 1 - nu1,
    g nu2 = d - nu2, g mu1 = k/d - 1 - mu1 and g mu2 = d - mu2, as h2, nu2
    and mu2 are nonzero when gcd(h, k) = 1. So 3 mu2 - nu2 - d changes sign,
    h1 + nu1 + mu1 keeps its parity, poly(h) - poly(g) = 2 (nu1 - mu1) k/d
    and g' == -h' (mod (10/d) k); the two quadratic terms then sum to
    10 h' (nu1 - mu1) k (d = 10) or 5 h' (nu1 - mu1) k with h' even (d = 5),
    0 mod 10k; and -10g == 10h. So class -j's (base, step) are class j's
    negated, entry by entry, and _roots' cos[-e] and sin[-e] are cos[e] and
    -sin[e] exactly: class -j's totals are exactly (re, -im, err).
    Only the cosines of class j's entries are summed."""
    rows, m = (_akj_exponent_table(k, 1), -n) if twisted else (_akj_exponent_table(k, 3), n)
    mod = 10 * k
    cos = _roots(mod, prec)[0]
    re = sum([cos[(base + m * step) % mod] for base, step in rows])
    return 2 * re, 2 * len(rows) * _ENTRY_ERR


def a_k(k: int, n: int, prec: int = 128) -> ErrComplex:
    """A_k(n) = A_{k,3}(n) + A_{k,-3}(n), which is real (_twist_totals)."""
    total, err = _twist_totals(k, n, False, prec)
    return _fixed_complex(total, 0, err, prec + _GUARD_BITS, prec)


def cal_a_k(k: int, n: int, prec: int = 128) -> ErrComplex:
    """The conjugated twist entering the reciprocal's formula, which is real
    (_twist_totals): conj(A_{k,1}(-n)) + conj(A_{k,-1}(-n))."""
    total, err = _twist_totals(k, n, True, prec)
    return _fixed_complex(total, 0, err, prec + _GUARD_BITS, prec)


# ---------------------------------------------------------------------------
# bound checks
# ---------------------------------------------------------------------------


def _twisted_square(k: int) -> int:
    """The twisted-sum bound squared, an integer as 5 | k: 4 d(k)^2 k/5 for
    gcd(k,10)=5, 3k d(10k)^2/5 for gcd(k,10)=10."""
    d = gcd(k, 10)
    if d == 5:
        return 4 * divisor_count(k) ** 2 * k // 5
    if d == 10:
        return 3 * k * divisor_count(10 * k) ** 2 // 5
    raise ValueError("gcd(k,10) must be 5 or 10")


def _twisted_check(d: int, k: int, j: int, n: int, prec: int) -> bool:
    if gcd(k, 10) != d:
        raise ValueError(f"k must have gcd(k,10) = {d}")
    return not _exceeds(*_akj_totals(k, j, n, prec), _twisted_square(k), prec)


def bound_check_d5(k: int, j: int, n: int, prec: int = 128) -> bool:
    """|A_{k,j}(n)| <= sqrt(_twisted_square(k)) for gcd(k,10)=5, within error bars,
    decided on the totals as in weil_bound_check."""
    return _twisted_check(5, k, j, n, prec)


def bound_check_d10(k: int, j: int, n: int, prec: int = 128) -> bool:
    """|A_{k,j}(n)| <= sqrt(_twisted_square(k)) for gcd(k,10)=10, within error bars,
    decided on the totals as in weil_bound_check."""
    return _twisted_check(10, k, j, n, prec)


def aggregated_bound_check(k: int, n: int, prec: int = 128, twisted: bool = False) -> bool:
    """|A_k(n)| (or |cal A_k(n)| when twisted) against the aggregated bound
    2 sqrt(_twisted_square(k)), decided on the totals as in weil_bound_check."""
    total, err = _twist_totals(k, n, twisted, prec)
    return not _exceeds(total, 0, err, 4 * _twisted_square(k), prec)
