"""Cusp decompositions, Kloosterman sums, and the twisted sums driving the
exact formulas, together with all their bound checks and reduction identities.

Every summand of the twisted sums is +- a 10k-th root of unity, so sums are
evaluated by exact integer exponent arithmetic modulo 10k followed by table
lookups of fixed-point roots: integers within 1 of 2^w times the true parts,
w = prec + 8, added exactly and rounded once, so a sum of count terms is
within count * 2^-w plus that one rounding of its true value. Each table
costs two cos/sin evaluations and about modulus/2 integer products.

A Kloosterman sum is real: the pair (-h, -h') is a term of it whenever
(h, h') is, with the opposite exponent, and the table holds the entry at -e
as the exact conjugate of the entry at e. So K_k(n, m) is summed over the
pairs with 2h < k only, as twice their fixed-point cosines.

Every bound checked here is the square root of an integer B, and an
enclosure's lower end lo is a dyadic, so |x| <= sqrt(B) is decided without
rounding by comparing lo^2 with B in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from .numerics import ErrComplex, ErrReal, _fixed_ball, unit_root_parts, working_precision

__all__ = [
    "CuspData",
    "divisor_count",
    "alpha_of",
    "decompose",
    "neg_inverse",
    "select_hprime",
    "kloosterman",
    "weil_bound_check",
    "a_kj",
    "a_kj_rewrite",
    "a_kj_reduced_d5",
    "a_kj_reduced_d10_abs",
    "a_k",
    "cal_a_k",
    "twisted_bound",
    "bound_check_d5",
    "bound_check_d10",
    "aggregated_bound_check",
    "clear_caches",
]


def divisor_count(n: int) -> int:
    """Number of positive divisors, by trial-division factorization."""
    if n < 1:
        raise ValueError("divisor_count needs n >= 1")
    count = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            count *= e + 1
        p += 1 if p == 2 else 2
    if n > 1:
        count *= 2
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
    """Smallest nonnegative x with h*x == -1 (mod k) and (10/d) | x.

    Scans x0 + t*k for t = 0..(10/d)-1 over the base inverse x0.
    """
    x0 = neg_inverse(h, k)
    step = 10 // d
    for t in range(step):
        cand = x0 + t * k
        if cand % step == 0:
            return cand
    raise AssertionError("no admissible modular inverse found")  # unreachable


@dataclass(frozen=True)
class CuspData:
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

_GUARD_BITS = 8  # root tables carry mp.prec + _GUARD_BITS fractional bits
_ENTRY_ERR = 1  # each table part is within this many units of 2^-w (see _roots)
_ROOT_TABLES: dict[tuple[int, int], list] = {}
_INVERSE_PAIRS: dict[int, list] = {}
_AKJ_TERMS: dict[tuple[int, int, int, int], list] = {}


def clear_caches() -> None:
    _ROOT_TABLES.clear()
    _INVERSE_PAIRS.clear()
    _AKJ_TERMS.clear()


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


def _roots(modulus: int) -> list:
    """Fixed-point table of e^(2*pi*i*t/modulus): (c_t, s_t) with c_t, s_t
    within _ENTRY_ERR = 1 of 2^w cos and 2^w sin, w = mp.prec + _GUARD_BITS.

    Baby-step/giant-step: with M = modulus, B = isqrt(M // 2) + 1 and
    W = w + 2 bitlen(B) + 6, the only evaluations are Z = ζ_M and Y = ζ_M^B
    by unit_root_parts at W + 4 bits, floored to W fractional bits. Entry
    t = gB + b (b, g < B) is the product of the baby power Z^b and the giant
    power Y^g, both kept at 2^-W, rounded to nearest at 2^-w.

    Proof of the bound, in units u = 2^-W and complex moduli. Each part of Z
    and Y is within u of the truth before the floor (unit_root_err at W + 4
    bits) and under 2u after it, so |Z - ζ| and |Y - ζ^B| are under 2√2 u.
    A baby power P_(j+1) = ⌊P_j Z⌋ inherits P_j's error e_j scaled by
    |Z| <= 1 + 2√2 u, adds |Z - ζ| and the floors' √2 u:
    e_(j+1) <= e_j (1 + 2√2 u) + 3√2 u, so e_j <= 4.25 j u for j < B, as
    B <= 2^(W/2) keeps the growth factor below 1.0001; the same holds for
    the giant powers Q_g of Y. The product P_b Q_g is then within
    e_b |Q_g| + e_g <= 4.3 (b + g) u < 8.6 B u of ζ^t; in units of 2^-w
    that is 8.6 B 2^(w-W) < 8.6 B / (64 B^2) < 0.14, and the rounding adds
    at most 1/2, so each part is within 0.64 < 1 unit. As 0.14 < 1/2, a
    value on the 2^-w grid comes out exact: entries 0, M/4 and M/2 are
    (2^w, 0), (0, 2^w) and (-2^w, 0).

    Only t <= M/2 is evaluated; entry M - t is (c_t, -s_t), which keeps
    the same bound."""
    key = (modulus, mp.prec)
    table = _ROOT_TABLES.get(key)
    if table is None:
        w = mp.prec + _GUARD_BITS
        size = modulus // 2 + 1
        step = isqrt(modulus // 2) + 1
        bits = w + 2 * step.bit_length() + 6
        with working_precision(bits + 4):
            z, y = (tuple(to_fixed(p._mpf_, bits) for p in unit_root_parts(e, modulus)) for e in (1, step))
        babies = _fixed_powers(z, step, bits)
        giants = _fixed_powers(y, -(-size // step), bits)
        shift = 2 * bits - w
        half_unit = 1 << (shift - 1)
        half = [
            ((gc * bc - gs * bs + half_unit) >> shift, (gc * bs + gs * bc + half_unit) >> shift)
            for gc, gs in giants
            for bc, bs in babies
        ][:size]
        table = half + [(c, -s) for c, s in reversed(half[1 : (modulus + 1) // 2])]
        _ROOT_TABLES[key] = table
    return table


def _fixed_sum(re: int, im: int, count: int) -> ErrComplex:
    """The ball of fixed-point totals re, im at 2^-w over count table entries:
    each part rounded once to mp.prec, with count * 2^-w for the entries."""
    w = mp.prec + _GUARD_BITS
    err = count * _ENTRY_ERR
    return ErrComplex(_fixed_ball(re, err, w), _fixed_ball(im, err, w))


def _root_sum(modulus: int, exponents) -> tuple[int, int, int]:
    """Sum of ζ_modulus^e over e in exponents as exact fixed-point totals:
    (re, im, count), the table integers at 2^-w added exactly over count
    entries, so each part is within count * _ENTRY_ERR units of the truth."""
    table = _roots(modulus)
    re = im = count = 0
    for e in exponents:
        c, s = table[e % modulus]
        re += c
        im += s
        count += 1
    return re, im, count


def _inverse_pairs(modulus: int) -> list:
    """Pairs (h, h') with h h' == -1 (mod modulus) over h coprime to modulus
    with 2h <= modulus: one of each pair (h, h'), (-h, -h'), as 2h == modulus
    only for the self-paired h of modulus 1 and 2."""
    pairs = _INVERSE_PAIRS.get(modulus)
    if pairs is None:
        # h = 0 is coprime to the modulus only when it is 1
        pairs = [(h, neg_inverse(h, modulus)) for h in range(modulus // 2 + 1) if gcd(h, modulus) == 1]
        _INVERSE_PAIRS[modulus] = pairs
    return pairs


# ---------------------------------------------------------------------------
# classical Kloosterman sums
# ---------------------------------------------------------------------------


def kloosterman(k: int, n: int, m: int, prec: int = 128) -> ErrComplex:
    """K_k(n, m) over residues h coprime to k with h h' == -1 (mod k).

    The term of (-h, -h') is the conjugate of the term of (h, h'), and so
    are their table entries, exactly: the sum is twice the cosine total over
    2h < k, with imaginary part 0. For k <= 2 the one term is self-paired
    and counted once. The radius charges all phi(k) entries."""
    if k < 1:
        raise ValueError("k must be positive")
    pairs = _inverse_pairs(k)
    with working_precision(prec):
        table = _roots(k)
        re = sum(table[(n * h + m * hp) % k][0] for h, hp in pairs)
        if k <= 2:
            return _fixed_sum(re, 0, 1)
        return _fixed_sum(2 * re, 0, 2 * len(pairs))


def _exceeds(x: tuple, square: int) -> bool:
    """Whether the dyadic libmp value x exceeds sqrt(square): x > 0 and
    x^2 > square, decided exactly in integers."""
    sign, man, exp, _ = x
    if sign:
        return False
    if exp >= 0:
        return (man * man) << (2 * exp) > square
    return man * man > square << (-2 * exp)


def _weil_square(k: int, n: int, m: int) -> int:
    """The Weil bound squared: gcd(n, m, k) d(k)^2 k."""
    return gcd(gcd(abs(n), abs(m)), k) * divisor_count(k) ** 2 * k


def weil_bound_check(k: int, n: int, m: int, prec: int = 128) -> bool:
    """|K_k(n,m)| <= sqrt(gcd(n,m,k)) d(k) sqrt(k), within error bars.

    The inequality can be attained exactly (k=1), so a failure is reported
    only when the lower end of |K|'s enclosure exceeds the bound. Both sides
    are compared squared, in integers: the bound's square is an integer and
    the lower end a dyadic, so the comparison itself rounds nothing.
    """
    kv = kloosterman(k, n, m, prec)
    with working_precision(prec):
        return not _exceeds(kv.abs().lo._mpf_, _weil_square(k, n, m))


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
    well-definedness of the summands.
    """
    d = gcd(k, 10)
    key = (k, j % d, h_shift, hp_shift)
    table = _AKJ_TERMS.get(key)
    if table is not None:
        return table
    mod = 10 * k
    table = []
    for h in range(1, k):
        if h % d != j % d or gcd(h, k) != 1:
            continue
        hp = select_hprime(h, k, d) + hp_shift * (10 // d) * k
        hh = h + h_shift * k
        base = _term_exponent_parts(hh, hp, k) - 10 * hh  # n = 0 part
        step = (-10 * hh) % mod
        table.append((base % mod, step))
    _AKJ_TERMS[key] = table
    return table


def _akj_totals(k: int, j: int, n: int, h_shift: int = 0, hp_shift: int = 0) -> tuple[int, int, int]:
    """A_{k,j}(n) as _root_sum's fixed-point totals over 1 <= h < k, at the
    ambient precision, with the representatives of _akj_exponent_table."""
    d = gcd(k, 10)
    if d not in (5, 10):
        raise ValueError("gcd(k,10) must be 5 or 10")
    if gcd(j, d) != 1:
        raise ValueError("j must be coprime to gcd(k,10)")
    table = _akj_exponent_table(k, j, h_shift, hp_shift)
    mod = 10 * k
    return _root_sum(mod, ((base + n * step) % mod for base, step in table))


def a_kj(k: int, j: int, n: int, prec: int = 128) -> ErrComplex:
    """Direct summation of the twisted sum A_{k,j}(n) over 1 <= h < k."""
    with working_precision(prec):
        return _fixed_sum(*_akj_totals(k, j, n))


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
    with working_precision(prec):
        return _fixed_sum(*_akj_totals(k, j, n, h_shift, hp_shift))


@lru_cache(maxsize=None)
def _fifth_roots(prec: int) -> tuple:
    """ErrComplex.unit_root(t, 5) for t = 0..4 at prec bits.

    The reduced forms multiply each root by the real ball of a Kloosterman
    sum only: the sum is exactly real (see kloosterman), so its imaginary
    ball, 0 plus the table error, adds nothing true. Midpoints are those of
    the full complex product, as every product with that ball's zero
    midpoint is 0."""
    with working_precision(prec):
        return tuple(ErrComplex.unit_root(t, 5) for t in range(5))


def a_kj_reduced_d5(
    k: int, j: int, n: int, prec: int = 128, alpha_shift: int = 0
) -> ErrComplex:
    """A_{k,j}(n) for gcd(k,10)=5 rewritten through classical Kloosterman sums:
    -(1/25) sum_l e^(2 pi i j l / 5) K_{5k}((5n+3)(k^2-1)/4 + l k, j^2-5j-alpha^2+5alpha).

    alpha_shift deliberately corrupts alpha_j; nonzero values are the
    negative control used by the sweep suite.
    """
    if gcd(k, 10) != 5:
        raise ValueError("k must have gcd(k,10) = 5")
    jr = j % 5
    if gcd(jr, 5) != 1:
        raise ValueError("j must be coprime to 5")
    # (1-k^2)/4 is the inverse of 4 modulo 5k
    inv4 = (1 - k * k) // 4
    assert (4 * inv4) % (5 * k) == 1 % (5 * k)
    al = alpha_of(jr, 5) + alpha_shift
    cj = jr * jr - 5 * jr - al * al + 5 * al
    roots = _fifth_roots(prec)
    with working_precision(prec):
        total = ErrComplex(0)
        for ell in range(5):
            kv = kloosterman(5 * k, (5 * n + 3) * (k * k - 1) // 4 + ell * k, cj, prec)
            total = total + roots[jr * ell % 5] * kv.re
        return total * ErrReal(mpf(-1)) / ErrReal(25)


def a_kj_reduced_d10_abs(
    k: int, j: int, n: int, prec: int = 128, alpha_shift: int = 0
) -> ErrReal:
    """|A_{k,j}(n)| for gcd(k,10)=10 through classical Kloosterman sums:
    (1/50) |sum_l e^(-2 pi i j l / 5) K_{10k}(2(k l - 5n - 3), (j^2-10j-alpha^2+10alpha)/2)|.
    """
    if gcd(k, 10) != 10:
        raise ValueError("k must have gcd(k,10) = 10")
    jr = j % 10
    if gcd(jr, 10) != 1:
        raise ValueError("j must be coprime to 10")
    al = alpha_of(jr, 10) + alpha_shift
    num = jr * jr - 10 * jr - al * al + 10 * al
    if num % 2:
        raise ValueError("corrupted alpha made the twist parameter a half-integer")
    roots = _fifth_roots(prec)
    with working_precision(prec):
        total = ErrComplex(0)
        for ell in range(5):
            kv = kloosterman(10 * k, 2 * (k * ell - 5 * n - 3), num // 2, prec)
            total = total + roots[-jr * ell % 5] * kv.re
        return total.abs() / ErrReal(50)


def a_k(k: int, n: int, prec: int = 128) -> ErrComplex:
    """A_k(n) = A_{k,3}(n) + A_{k,-3}(n)."""
    return a_kj(k, 3, n, prec) + a_kj(k, -3, n, prec)


def cal_a_k(k: int, n: int, prec: int = 128) -> ErrComplex:
    """The conjugated twist entering the reciprocal's formula:
    conj(A_{k,1}(-n)) + conj(A_{k,-1}(-n))."""
    return a_kj(k, 1, -n, prec).conjugate() + a_kj(k, -1, -n, prec).conjugate()


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


def twisted_bound(k: int) -> ErrReal:
    """The bound on |A_{k,j}(n)|, sqrt(_twisted_square(k)), at the ambient
    precision."""
    return ErrReal(_twisted_square(k)).sqrt()


def bound_check_d5(k: int, j: int, n: int, prec: int = 128) -> bool:
    """|A_{k,j}(n)| <= twisted_bound(k) for gcd(k,10)=5, within error bars,
    compared squared in integers as in weil_bound_check."""
    if gcd(k, 10) != 5:
        raise ValueError("k must have gcd(k,10) = 5")
    val = a_kj(k, j, n, prec)
    with working_precision(prec):
        return not _exceeds(val.abs().lo._mpf_, _twisted_square(k))


def bound_check_d10(k: int, j: int, n: int, prec: int = 128) -> bool:
    """|A_{k,j}(n)| <= twisted_bound(k) for gcd(k,10)=10, within error bars,
    compared squared in integers as in weil_bound_check."""
    if gcd(k, 10) != 10:
        raise ValueError("k must have gcd(k,10) = 10")
    val = a_kj(k, j, n, prec)
    with working_precision(prec):
        return not _exceeds(val.abs().lo._mpf_, _twisted_square(k))


def aggregated_bound_check(k: int, n: int, prec: int = 128, twisted: bool = False) -> bool:
    """|A_k(n)| (or |cal A_k(n)| when twisted) against the aggregated bound
    2 twisted_bound(k), compared squared in integers as in weil_bound_check."""
    val = cal_a_k(k, n, prec) if twisted else a_k(k, n, prec)
    with working_precision(prec):
        return not _exceeds(val.abs().lo._mpf_, 4 * _twisted_square(k))
