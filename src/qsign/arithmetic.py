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
as the exact conjugate of the entry at e. So K_q(n, m) is summed over the
pairs with 2h < q only, as twice their fixed-point cosines. K_k of a k with
two or more prime factors is the product of such sums over the prime
powers q of k (twisted multiplicativity), each at 16 more bits, with the
product's error bound formed exactly (_kloosterman_total).

Everything here stays in fixed point up to the public return, which forms
the one ball. Every bound checked here is the square root of an integer B,
so |x| <= sqrt(B) is decided on the totals themselves: the box of values
they admit is compared with the circle of radius sqrt(B) in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from mpmath import mp
from mpmath.libmp import to_fixed

from .numerics import ErrComplex, ErrReal, _fixed_ball, _fixed_complex, unit_root_parts, working_precision

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
_SPLIT_BITS = 16  # the factor tables of a split Kloosterman sum carry 16 more
_ENTRY_ERR = 1  # each table part is within this many units of 2^-w (see _roots)
_ROOT_TABLES: dict[tuple[int, int], list] = {}  # per (modulus, prec)
_INVERSE_PAIRS: dict[int, list] = {}
_AKJ_TERMS: dict[tuple[int, int, int, int], list] = {}
_FACTORS: dict[int, tuple] = {}


def clear_caches() -> None:
    _ROOT_TABLES.clear()
    _INVERSE_PAIRS.clear()
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


def _roots(modulus: int, prec: int | None = None) -> list:
    """Fixed-point table of e^(2*pi*i*t/modulus): (c_t, s_t) with c_t, s_t
    within _ENTRY_ERR = 1 of 2^w cos and 2^w sin, w = prec + _GUARD_BITS,
    prec = mp.prec unless given.

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
    prec = mp.prec if prec is None else prec
    key = (modulus, prec)
    table = _ROOT_TABLES.get(key)
    if table is None:
        w = prec + _GUARD_BITS
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


def _root_sum(modulus: int, exponents) -> tuple[int, int, int]:
    """Sum of ζ_modulus^e over e in exponents as exact fixed-point totals:
    (re, im, err), the table integers at 2^-w added exactly, so each part is
    within err = count * _ENTRY_ERR units of the truth over count entries."""
    table = _roots(modulus)
    re = im = count = 0
    for e in exponents:
        c, s = table[e % modulus]
        re += c
        im += s
        count += 1
    return re, im, count * _ENTRY_ERR


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


def _half_pair_total(q: int, n: int, m: int, prec: int) -> tuple[int, int]:
    """K_q(n, m) over h coprime to q with h h' == -1 (mod q), from the root
    table of precision prec: (total, err), a real total at 2^-w within err
    units of 2^w K_q(n, m), w = prec + _GUARD_BITS.

    The term of (-h, -h') is the conjugate of the term of (h, h'), and so
    are their table entries, exactly: the sum is twice the cosine total over
    2h < q, with imaginary part 0. For q <= 2 the one term is self-paired
    and counted once. The error charges all phi(q) entries."""
    pairs = _inverse_pairs(q)
    table = _roots(q, prec)
    re = sum(table[(n * h + m * hp) % q][0] for h, hp in pairs)
    return (re, _ENTRY_ERR) if q <= 2 else (2 * re, 2 * len(pairs) * _ENTRY_ERR)


def _kloosterman_total(k: int, n: int, m: int) -> tuple[int, int]:
    """K_k(n, m) over h coprime to k with h h' == -1 (mod k), at the ambient
    precision: (total, err), a real total at 2^-w within err units of the
    truth, w = mp.prec + _GUARD_BITS.

    A prime power or k <= 2 is _half_pair_total's sum at w, err = phi(k).
    Any other k splits by twisted multiplicativity over its prime powers q,
    with r = k/q and r r' == 1 (mod q): K_k(n, m) = prod_q K_q(n r', m r').
    Each factor is a total T_q at 2^-W, W = w + _SPLIT_BITS, within c_q =
    phi(q) units; their product P at 2^-(sW), s factors, is within
    E = prod(|T_q| + c_q) - prod |T_q| units of 2^(sW) K, and P rounded to
    nearest at 2^-w is within err = ceil(1/2 + E 2^(w-sW)) units. With
    |T_q| <= (2^W + 1) phi(q), E <= s phi(k) (2^W + 2)^(s-1), and so
    E 2^(w-sW) <= s phi(k) 2^-16 (1 + 2^(1-W))^(s-1) < phi(k) - 1/2 as
    phi(k) >= 2: err never exceeds the phi(k) of the unsplit sum."""
    if k < 1:
        raise ValueError("k must be positive")
    factors = _factorization(k)
    if len(factors) < 2:
        return _half_pair_total(k, n, m, mp.prec)
    product = bound = 1
    for p, e in factors:
        q = p**e
        r_inv = pow(k // q, -1, q)
        total, err = _half_pair_total(q, n * r_inv % q, m * r_inv % q, mp.prec + _SPLIT_BITS)
        product *= total
        bound *= abs(total) + err
    w = mp.prec + _GUARD_BITS
    shift = len(factors) * (w + _SPLIT_BITS) - w
    half = 1 << (shift - 1)
    return (product + half) >> shift, ((bound - abs(product) + half - 1) >> shift) + 1


def kloosterman(k: int, n: int, m: int, prec: int = 128) -> ErrComplex:
    """K_k(n, m), the ball of _kloosterman_total with imaginary part 0."""
    with working_precision(prec):
        total, err = _kloosterman_total(k, n, m)
        return _fixed_complex(total, 0, err, prec + _GUARD_BITS)


def _exceeds(re: int, im: int, err: int, square: int) -> bool:
    """Whether totals re, im at 2^-w, each part within err units of the
    truth, place it beyond sqrt(square): whether the box's point nearest 0,
    ((|re| - err)+, (|im| - err)+), is, decided in integers."""
    x, y = max(abs(re) - err, 0), max(abs(im) - err, 0)
    return x * x + y * y > square << 2 * (mp.prec + _GUARD_BITS)


def _weil_square(k: int, n: int, m: int) -> int:
    """The Weil bound squared: gcd(n, m, k) d(k)^2 k."""
    return gcd(gcd(abs(n), abs(m)), k) * divisor_count(k) ** 2 * k


def weil_bound_check(k: int, n: int, m: int, prec: int = 128) -> bool:
    """|K_k(n,m)| <= sqrt(gcd(n,m,k)) d(k) sqrt(k), within error bars.

    The inequality can be attained exactly (k=1), so a failure is reported
    only when every value the totals admit exceeds the bound (_exceeds).
    """
    with working_precision(prec):
        total, err = _kloosterman_total(k, n, m)
        return not _exceeds(total, 0, err, _weil_square(k, n, m))


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
        return _fixed_complex(*_akj_totals(k, j, n), prec + _GUARD_BITS)


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
        return _fixed_complex(*_akj_totals(k, j, n, h_shift, hp_shift), prec + _GUARD_BITS)


def _fifth_root_sum(t: int, modulus: int, first: int, step: int, second: int) -> ErrComplex:
    """sum_l ζ_5^(t l) K_modulus(first + l step, second), l = 0..4, at the
    ambient precision: each real Kloosterman total T times the table entry
    (a, b) of ζ_5^(t l), summed exactly at 2^-2w and rounded once per part.

    With T within c units and a, b within E = _ENTRY_ERR, the product a T is
    within |a| c + (|T| + c) E units of 2^2w times the truth, and so is b T
    with |b|."""
    roots = _roots(5)
    re = im = re_err = im_err = 0
    for ell in range(5):
        total, err = _kloosterman_total(modulus, first + ell * step, second)
        a, b = roots[t * ell % 5]
        re, im = re + a * total, im + b * total
        re_err += abs(a) * err + (abs(total) + err) * _ENTRY_ERR
        im_err += abs(b) * err + (abs(total) + err) * _ENTRY_ERR
    w2 = 2 * (mp.prec + _GUARD_BITS)
    return ErrComplex(_fixed_ball(re, re_err, w2), _fixed_ball(im, im_err, w2))


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
    with working_precision(prec):
        return -_fifth_root_sum(jr, 5 * k, (5 * n + 3) * (k * k - 1) // 4, k, cj) / 25


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
    with working_precision(prec):
        return _fifth_root_sum(-jr, 10 * k, -2 * (5 * n + 3), 2 * k, num // 2).abs() / 50


def _twist_totals(k: int, n: int, twisted: bool) -> tuple[int, int, int]:
    """The twist of the exact formula as _root_sum's totals (re, im, err):
    A_k(n) = A_{k,3}(n) + A_{k,-3}(n), or, when twisted, the reciprocal's
    cal A_k(n) = conj(A_{k,1}(-n) + A_{k,-1}(-n))."""
    js, m = ((1, -1), -n) if twisted else ((3, -3), n)
    (re1, im1, e1), (re2, im2, e2) = (_akj_totals(k, j, m) for j in js)
    return re1 + re2, -(im1 + im2) if twisted else im1 + im2, e1 + e2


def a_k(k: int, n: int, prec: int = 128) -> ErrComplex:
    """A_k(n) = A_{k,3}(n) + A_{k,-3}(n)."""
    with working_precision(prec):
        return _fixed_complex(*_twist_totals(k, n, False), prec + _GUARD_BITS)


def cal_a_k(k: int, n: int, prec: int = 128) -> ErrComplex:
    """The conjugated twist entering the reciprocal's formula:
    conj(A_{k,1}(-n)) + conj(A_{k,-1}(-n))."""
    with working_precision(prec):
        return _fixed_complex(*_twist_totals(k, n, True), prec + _GUARD_BITS)


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
    with working_precision(prec):
        return not _exceeds(*_akj_totals(k, j, n), _twisted_square(k))


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
    with working_precision(prec):
        return not _exceeds(*_twist_totals(k, n, twisted), 4 * _twisted_square(k))
