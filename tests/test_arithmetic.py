"""Tests for the cusp decomposition and Kloosterman-type sums.

Hand-derived expectations:
  * decompose(3,10): 3h=9=0*10+9 so h1=0, h2=9; nu=(0,3); mu=(0,9); alpha=9.
  * decompose(2,5):  3h=6=1*5+1 so h1=1, h2=1; nu=(0,2); mu=(0,1); alpha=1.
  * The k=10 twisted sum collapses to 2 cos(2 pi (4/25 + 3n/10)); the
    conjugated variant to 2 cos(2 pi (3/25 - n/10)).
  * The k=5 sum has single terms at h=2,3 giving 2 cos(2 pi (1-20n)/50).
"""

import ast
import inspect
import math
import sys
import types
from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import lshift, neg, sub

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf
from mpmath.libmp import to_fixed

from qsign import arithmetic
from qsign.arithmetic import (
    a_k,
    a_kj,
    a_kj_reduced_d5,
    a_kj_reduced_d10_abs,
    a_kj_rewrite,
    aggregated_bound_check,
    alpha_of,
    bound_check_d5,
    bound_check_d10,
    cal_a_k,
    decompose,
    divisor_count,
    kloosterman,
    select_hprime,
    weil_bound_check,
)
from qsign.numerics import ErrComplex, _fixed_ball, _fixed_complex, working_precision

TOL = mpf("1e-30")


def phi(k):
    return sum(1 for h in range(1, k + 1) if math.gcd(h, k) == 1)


# -- divisor count ------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 1), (6, 4), (100, 9), (97, 2), (5040, 60)])
def test_divisor_count(n, expected):
    assert divisor_count(n) == expected


def test_divisor_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisor_count(0)


def test_divisor_count_submultiplicative_at_100():
    for k in (3, 8, 30, 49, 110):
        assert divisor_count(100 * k) <= 9 * divisor_count(k)


# -- cusp decomposition --------------------------------------------------------


def test_decompose_3_over_10():
    c = decompose(3, 10)
    assert (c.d, c.h1, c.h2) == (10, 0, 9)
    assert (c.nu1, c.nu2, c.mu1, c.mu2) == (0, 3, 0, 9)
    assert c.alpha == 9
    assert c.hprime == 3


def test_decompose_2_over_5():
    c = decompose(2, 5)
    assert (c.d, c.h1, c.h2) == (5, 1, 1)
    assert (c.nu1, c.nu2, c.mu1, c.mu2) == (0, 2, 0, 1)
    assert c.alpha == 1
    assert c.hprime == 2


def test_decompose_reduces_modulo_k():
    assert decompose(13, 10) == decompose(3, 10)
    assert decompose(7, 5) == decompose(2, 5)


@pytest.mark.parametrize("h,k", [(1, 5), (4, 15), (9, 20), (7, 30), (11, 25)])
def test_decompose_invariants(h, k):
    c = decompose(h, k)
    assert 3 * c.h == c.h1 * k + c.h2 and 0 <= c.h2 < k
    assert c.h == c.d * c.nu1 + c.nu2 and 0 <= c.nu2 < c.d
    assert c.h2 == c.d * c.mu1 + c.mu2 and 0 <= c.mu2 < c.d
    assert c.alpha % c.d == (3 * c.h) % c.d and 1 <= c.alpha < c.d
    assert c.nu2 == c.h % c.d
    assert c.mu2 == c.alpha
    # companion inverse conditions
    assert (c.h * c.hprime) % k == (-1) % k
    assert c.hprime % (10 // c.d) == 0


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose(2, 10)  # gcd(h,k) != 1
    with pytest.raises(ValueError):
        decompose(1, 3)  # gcd(k,10) not in {5,10}


def test_select_hprime_parity_for_odd_k():
    for h, k in ((2, 5), (4, 15), (8, 25)):
        hp = select_hprime(h, k, 5)
        assert hp % 2 == 0
        assert (h * hp) % k == (-1) % k


# -- classical Kloosterman sums --------------------------------------------------


def test_kloosterman_k1_is_one():
    # exactly 1 with radius 0 at 2^-w: the ball's radius is the charge for
    # rounding its midpoint to prec bits alone
    w = 128 + arithmetic._GUARD_BITS
    for n, m in ((0, 0), (5, 7), (-3, 11)):
        assert arithmetic._kloosterman_total(1, n, m, 128) == (1 << w, 0)
        v = kloosterman(1, n, m)
        assert abs(v.re.value - 1) < TOL and abs(v.im.value) < TOL
        assert v.re.err == mpf(2) ** -128 and v.im.err == 0


def test_kloosterman_small_values():
    # K_2(0,0): single term h=1, h'=1, e^0 = 1
    v = kloosterman(2, 0, 0)
    assert abs(v.re.value - 1) < TOL
    # K_3(1,1): h=1->h'=2 and h=2->h'=1, both phases e^(2 pi i) = 1
    v = kloosterman(3, 1, 1)
    assert abs(v.re.value - 2) < TOL and abs(v.im.value) < TOL


def test_kloosterman_trivial_bound():
    with working_precision(128):
        for k in (4, 7, 12, 30):
            for n, m in ((1, 2), (0, 5), (-4, 9)):
                v = kloosterman(k, n, m).abs()
                assert v.value <= phi(k) + float(v.err)


def test_weil_bound_examples():
    assert weil_bound_check(1, 3, 4)
    assert weil_bound_check(3, 1, 1)  # |K| = 2 <= 2 sqrt(3)
    for k in (5, 10, 15, 28, 45):
        for n in (0, 1, 7):
            for m in (0, 2, 9):
                assert weil_bound_check(k, n, m)


def _full_pair_totals(k, n, m, prec):
    """K_k(n, m) summed over every h coprime to k, not only 2h < k: all
    phi(k) pairs (h, h') through the module's table summation at (n, m)."""
    rows = [(h, (-pow(h, -1, k)) % k) for h in range(k) if math.gcd(h, k) == 1]
    return arithmetic._root_sum(k, rows, n, m, prec)


def _check_against_full_pairs(k, n, m, prec):
    totals = _full_pair_totals(k, n, m, prec)
    if len(_prime_powers(k)) == 1:
        # the prime-power kernel: the full-pair totals, bit for bit
        re, im, err = totals
        assert im == 0 and arithmetic._half_pair_total(k, n, m, prec) == (re, err), (k, n, m)
    # the product over the prime powers: each part's ball meets the
    # full-pair ball, which holds the true value, and is no wider than it
    got = kloosterman(k, n, m, prec)
    with working_precision(prec):
        ref = _fixed_complex(*totals, prec + arithmetic._GUARD_BITS, prec)
    for part, ref_part in ((got.re, ref.re), (got.im, ref.im)):
        with mpmath.workprec(512):
            assert abs(part.value - ref_part.value) <= part.err + ref_part.err, (k, n, m)
        assert part.err <= ref_part.err, (k, n, m)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_half_pair_kloosterman_is_the_full_pair_sum(prec):
    pairs = ((0, 0), (1, 3), (0, -7), (-4, 9), (11, 0), (-2, -5))
    for k in range(1, 61):
        for n, m in pairs:
            _check_against_full_pairs(k, n, m, prec)
    # the reduced forms' moduli 5k and 10k, every 7th grid modulus up to 2000
    for k in range(65, 2001, 35):
        for n, m in pairs[:4]:
            _check_against_full_pairs(k, n, m, prec)


def _direct_kloosterman(k, n, m):
    """K_k(n, m) term by term at 512 bits: each e^(2 pi i t/k) a power of
    one 600-bit root, within k 2^-590 of the truth."""
    counts = Counter((n * h + m * ((-pow(h, -1, k)) % k)) % k for h in range(k) if math.gcd(h, k) == 1)
    with mpmath.workprec(600):
        root, power, total = mpmath.expjpi(mpf(2) / k), mpmath.mpc(1), mpf(0)
        for t in range(k):
            total += counts[t] * power.real
            power *= root
    return total


def _prime_powers(k):
    """The prime-power factors of k, by trial division."""
    found, p = [], 2
    while p * p <= k:
        q = 1
        while k % p == 0:
            k //= p
            q *= p
        if q > 1:
            found.append(q)
        p += 1
    return found + [k] if k > 1 else found


# composite k <= 5000 with 2 to 5 distinct prime factors
_SPLIT_MODULI = [k for k in range(6, 5001) if 2 <= len(_prime_powers(k)) <= 5]


@st.composite
def _split_arguments(draw):
    """(k, n, m): free arguments of either sign, or degenerate ones: n = m
    = 0, or n == m == 0 modulo one prime-power factor of k."""
    k = draw(st.sampled_from(_SPLIT_MODULI))
    n, m = (draw(st.integers(-(10**6), 10**6)) for _ in range(2))
    mode = draw(st.sampled_from(["free", "zero", "factor"]))
    if mode == "zero":
        n = m = 0
    elif mode == "factor":
        q = draw(st.sampled_from(_prime_powers(k)))
        n, m = n * q, m * q
    return k, n, m


@settings(max_examples=80, deadline=None)
@given(args=_split_arguments(), prec=st.sampled_from([64, 128, 256]))
@example(args=(210, 0, 0), prec=128)
@example(args=(1700, 3, -5), prec=128)
@example(args=(1700, 0, 17 * 11), prec=64)
@example(args=(2310, -7, 12), prec=256)
@example(args=(4850, 97 * 3, 97 * -8), prec=128)
@example(args=(3125, 3, 7), prec=128)  # a prime power
@example(args=(2, 1, 0), prec=64)
@example(args=(1, 5, 7), prec=256)
def test_split_kloosterman_encloses_the_direct_sum(args, prec):
    # the product over the prime powers of k (1 at k = 1) holds the
    # 600-bit direct sum, its totals within their err units of 2^-w, and
    # its radius is at most phi(k) 2^-w, a direct sum's table charge, plus
    # the rounding of the midpoint to prec bits (and of the radius, up)
    k, n, m = args
    got = kloosterman(k, n, m, prec)
    total, err = arithmetic._kloosterman_total(k, n, m, prec)
    unit = mpf(2) ** -(prec + arithmetic._GUARD_BITS)
    with mpmath.workprec(600):
        true = _direct_kloosterman(k, n, m)
        assert abs(total * unit - true) <= err * unit, args
        assert abs(got.re.value - true) <= got.re.err, args
        assert got.im.value == 0
        limit = (phi(k) * unit + abs(got.re.value) * mpf(2) ** -prec) * (1 + mpf(2) ** (1 - prec))
        assert got.re.err <= limit, args


def test_split_error_bound_covers_the_worst_tables(monkeypatch):
    # every table entry pushed d - 1 units up, within an entry error of d
    # units: at n = m = 0 every factor total of K_k = phi(k) moves by nearly
    # its whole charge, in one direction, so the product moves by nearly
    # the whole product bound, about 16 phi(k) units of 2^-w
    d = 1 << 20
    roots = arithmetic._roots

    def pushed_up(q, prec):
        cos, sin = roots(q, prec)
        return [c + d - 1 for c in cos], sin

    monkeypatch.setattr(arithmetic, "_ENTRY_ERR", d)
    monkeypatch.setattr(arithmetic, "_roots", pushed_up)
    for k in (6, 210, 1700, 2310, 4620):
        with working_precision(128):
            total, err = arithmetic._kloosterman_total(k, 0, 0, 128)
        assert abs(total - (phi(k) << 128 + arithmetic._GUARD_BITS)) <= err, k


def test_root_table_entry_at_minus_t_is_the_exact_conjugate():
    for den in (1, 2, 3, 4, 5, 10, 51, 1000, 4950, 20000):
        for prec in (64, 128, 256, 512):
            with working_precision(prec):
                cos, sin = arithmetic._roots(den, prec)
            for t in range(den):
                assert (cos[-t % den], sin[-t % den]) == (cos[t], -sin[t]), (den, prec, t)


_REF_BITS = 360


def _power_reference(modulus):
    """(cos, sin) of e^(2 pi i t/modulus), t <= modulus/2, as integers at
    2^-360, within 2^17 units of the truth for modulus <= 20000: mpmath's
    root at 380 bits floored, and its powers by floored products, each of
    which adds under 4.3 units to the error of the last (|z - ζ| < 2√2 and
    the floors √2, with |P_t| <= 1 + error). A second route to the table:
    no baby or giant steps and no symmetry."""
    with mpmath.workprec(_REF_BITS + 20):
        zc, zs = (to_fixed(f(mpf(2) / modulus)._mpf_, _REF_BITS) for f in (mpmath.cospi, mpmath.sinpi))
    c, s = 1 << _REF_BITS, 0
    cos, sin = [c], [s]
    for _ in range(modulus // 2):
        c, s = (c * zc - s * zs) >> _REF_BITS, (c * zs + s * zc) >> _REF_BITS
        cos.append(c)
        sin.append(s)
    return cos, sin


def _table_faults(roots, modulus, prec, ref):
    """The properties of the table roots(modulus, prec) that fail, by name:
    the exact symmetries of the circle, the exact entries 0, M/4, M/2 and
    3M/4, and every entry within one unit of 2^-w of the reference ref. The
    entries t <= M/2 are compared with ref; the others are the exact
    conjugates of those, as the first check asserts, and so are the true
    values."""
    cos, sin = roots(modulus, prec)
    m, w = modulus, prec + arithmetic._GUARD_BITS
    one, faults = 1 << w, []

    def image(part, shift):
        """part[(shift - t) % m] for t = 0, ..., m - 1."""
        rev = part[::-1]
        r = (m - 1 - shift) % m
        return rev[r:] + rev[:r]

    if len(cos) != m or len(sin) != m:
        return ["length"]
    if image(cos, 0) != cos or image(sin, 0) != list(map(neg, sin)):
        faults.append("conjugate")
    if m % 2 == 0 and (image(cos, m // 2) != list(map(neg, cos)) or image(sin, m // 2) != sin):
        faults.append("half turn")
    if m % 4 == 0 and (image(cos, m // 4) != sin or image(sin, m // 4) != cos):
        faults.append("quarter turn")
    exact = [(0, one, 0)]
    exact += [(m // 2, -one, 0)] if m % 2 == 0 else []
    exact += [(m // 4, 0, one), (3 * m // 4, 0, -one)] if m % 4 == 0 else []
    if any((cos[t], sin[t]) != (c, s) for t, c, s in exact):
        faults.append("grid")
    shift = _REF_BITS - w
    limit = (arithmetic._ENTRY_ERR << shift) + (1 << 17)
    for part, true in zip((cos, sin), ref):
        if max(map(abs, map(sub, map(lshift, part[: m // 2 + 1], repeat(shift)), true))) > limit:
            faults.append("accuracy")
    return faults


_TABLE_MODULI = [*range(1, 401), *range(410, 5001, 10)]  # with 1..400, every 10k, k <= 500


def test_root_tables_are_exact_on_their_symmetries_and_accurate():
    # every modulus to 400 and every 10k to 5000, at four precisions: the
    # symmetries exact at every t, the grid entries exact, and every entry
    # within one unit of the power reference
    for modulus in _TABLE_MODULI:
        ref = _power_reference(modulus)
        for prec in (16, 64, 128, 256):
            assert _table_faults(arithmetic._roots, modulus, prec, ref) == [], (modulus, prec)
        arithmetic.clear_caches()


@settings(max_examples=40, deadline=None)
@given(modulus=st.integers(1, 3000), prec=st.integers(8, 320))
def test_root_table_entries_are_mpmath_values(modulus, prec):
    # every entry within one unit of 2^-w of mpmath's cos and sin at w + 40 bits
    w = prec + arithmetic._GUARD_BITS
    cos, sin = arithmetic._roots(modulus, prec)
    with mpmath.workprec(w + 40):
        for t in range(modulus):
            x = mpf(2 * t) / modulus
            for fixed, f in ((cos[t], mpmath.cospi), (sin[t], mpmath.sinpi)):
                assert abs(fixed - mpmath.ldexp(f(x), w)) <= arithmetic._ENTRY_ERR, (modulus, prec, t)


@pytest.mark.parametrize(
    "old, new",
    [
        # the quarter turn copied without its reversal
        ("cos, sin = cos + sin[i::-1], sin[: i + 1] + cos[::-1]", "cos, sin = cos + sin[: i + 1], sin[: i + 1] + cos"),
        ("cos += map(neg, cos[i::-1])", "cos += cos[i::-1]"),  # the half turn without its minus
    ],
    ids=["quarter-turn-unreversed", "half-turn-without-minus"],
)
def test_root_table_mutants_are_caught(old, new, monkeypatch):
    module = _mutant(old, new, monkeypatch)
    for modulus in (8, 12, 40, 100, 1000):  # 4 | M: both fills run
        assert _table_faults(module._roots, modulus, 64, _power_reference(modulus)), modulus


def _plain_root_sum(modulus, exponents, prec):
    """The root table's entries at each exponent added one by one."""
    cos, sin = arithmetic._roots(modulus, prec)
    re = im = count = 0
    for e in exponents:
        re += cos[e % modulus]
        im += sin[e % modulus]
        count += 1
    return re, im, count * arithmetic._ENTRY_ERR


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_linear_form_kernel_is_the_plain_sum(prec):
    from qsign.arithmetic import _akj_exponent_table, _class_pairs, _root_sum

    # the sweep grid: A_{k,j}(n) for k <= 200, n < 20, every j, both d
    for k in range(5, 201, 5):
        for j in (1, 2, 3, 4) if math.gcd(k, 10) == 5 else (1, 3, 7, 9):
            rows = _akj_exponent_table(k, j)
            for n in range(20):
                plain = _plain_root_sum(10 * k, [base + n * step for base, step in rows], prec)
                assert arithmetic._akj_totals(k, j, n, prec) == plain, (k, j, n)
    # _fifth_root_sum's class pairs: its 5-part at modulus 75 and 100 is 25
    for modulus in (75, 100):
        for t in (1, 2, 3, 4):
            pairs = _class_pairs(25, -t % 5)
            for first in range(-3, 30, 4):
                for second in (0, 1, 6, 11, -7):
                    u, v = arithmetic._cofactor_args(modulus, 25, first, second)
                    plain = _plain_root_sum(25, [u * h + v * hp for h, hp in pairs], prec)
                    assert _root_sum(25, pairs, u, v, prec) == plain, (modulus, t, first, second)

def _corner_square(re, im, count, w):
    """The exact squared length of the point nearest 0 of the box that
    totals re, im at 2^-w, each part within count units, admit."""

    def nearest_square(t):
        lo, hi = Fraction(t - count, 2**w), Fraction(t + count, 2**w)
        return 0 if lo <= 0 <= hi else min(lo * lo, hi * hi)

    return nearest_square(re) + nearest_square(im)


@st.composite
def _boxes(draw):
    """(prec, re, im, count): totals drawn freely, or with the box's corner
    nearest 0 on integer coordinates, so that its squared length is an
    integer; a coordinate 0 there is a box that straddles the axis."""
    prec = draw(st.sampled_from([64, 128, 256]))
    w = prec + arithmetic._GUARD_BITS
    count = draw(st.integers(0, 2**12))
    if draw(st.booleans()):
        parts = [draw(st.integers(-(2 ** (w + 7)), 2 ** (w + 7))) for _ in range(2)]
    else:
        parts = []
        for _ in range(2):
            x, sign = draw(st.integers(0, 60)), draw(st.sampled_from([1, -1]))
            parts.append(sign * ((x << w) + count if x else draw(st.integers(0, count))))
    return prec, parts[0], parts[1], count


@settings(max_examples=500, deadline=None)
@given(box=_boxes(), square=st.integers(0, 2**16), offset=st.one_of(st.none(), st.integers(-1, 1)))
def test_exceeds_is_the_box_beyond_the_circle(box, square, offset):
    prec, re, im, count = box
    corner = _corner_square(re, im, count * arithmetic._ENTRY_ERR, prec + arithmetic._GUARD_BITS)
    if offset is not None:  # a square at the corner's squared length or next to it
        square = max(0, math.floor(corner) + offset)
    with working_precision(prec):
        assert arithmetic._exceeds(re, im, count, square, prec) == (corner > square)


@settings(max_examples=400, deadline=None)
@given(
    prec=st.sampled_from([64, 128, 256]),
    re=st.integers(-(2**300), 2**300),
    im=st.integers(-(2**300), 2**300),
    offset=st.one_of(st.none(), st.integers(-2, 2)),
    square=st.integers(0, 2**60),
)
def test_exceeds_is_the_exact_square_comparison(prec, re, im, offset, square):
    # with no error bars the box is the point z = (re + i im) 2^-w itself
    w = prec + arithmetic._GUARD_BITS
    z_square = Fraction(re * re + im * im, 4**w)
    if offset is not None:  # a square at |z|^2 itself or next to it
        square = max(0, math.floor(z_square) + offset)
    with working_precision(prec):
        assert arithmetic._exceeds(re, im, 0, square, prec) == (z_square > square)


def test_exceeds_at_zero_negative_and_equality():
    prec = 64
    w = prec + arithmetic._GUARD_BITS
    c = arithmetic._ENTRY_ERR
    with working_precision(prec):
        assert not arithmetic._exceeds(0, 0, 0, 0, prec)
        assert not arithmetic._exceeds(0, 0, 5, 0, prec)
        # a negative part lies as far from 0 as its absolute value
        assert arithmetic._exceeds(-5 << w, 0, 0, 24, prec)
        assert arithmetic._exceeds(0, -5 << w, 0, 24, prec)
        assert not arithmetic._exceeds(-5 << w, 0, 0, 25, prec)
        for r in (1, 3, 12345):
            for sign in (1, -1):
                t = sign * (r << w)
                assert not arithmetic._exceeds(t, 0, 0, r * r, prec)  # |z|^2 == square
                assert arithmetic._exceeds(t, 0, 0, r * r - 1, prec)
                # error bars pull the nearest point in by c units per count
                assert not arithmetic._exceeds(t + sign * 3 * c, 0, 3, r * r, prec)
                assert arithmetic._exceeds(t + sign * (3 * c + 1), 0, 3, r * r, prec)
        # 3/2 squared is 9/4: above 2, not above 3
        assert arithmetic._exceeds(3 << (w - 1), 0, 0, 2, prec)
        assert not arithmetic._exceeds(3 << (w - 1), 0, 0, 3, prec)
        # 3 + 4i has squared length 25 exactly
        assert not arithmetic._exceeds(3 << w, -4 << w, 0, 25, prec)
        assert arithmetic._exceeds(3 << w, -4 << w, 0, 24, prec)
        # a box straddling an axis counts that coordinate as 0
        assert not arithmetic._exceeds(c - 1, 2 << w, 1, 4, prec)
        assert arithmetic._exceeds(c - 1, 2 << w, 1, 3, prec)


def _direct_root_sum(modulus, exponents):
    """Reference sum of e^(2 pi i e / modulus), term by term at 512 bits."""
    with mpmath.workprec(512):
        return mpmath.fsum(mpmath.expjpi(mpf(2 * e) / modulus) for e in exponents)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_integer_kernel_encloses_direct_sums(prec):
    from qsign.arithmetic import _akj_exponent_table

    def check(value, ref, count):
        # the bound of summing mpf table entries: per-entry error plus count^2 ulp
        mpf_sum_err = (count + 1) * mpf(2) ** (4 - prec) + count * count * mpf(2) ** -prec
        for part, true in ((value.re, ref.real), (value.im, ref.imag)):
            with mpmath.workprec(512):
                assert abs(part.value - true) <= part.err
            assert part.err <= mpf_sum_err

    for k in (5, 10, 35, 200, 495):
        for n, m in ((1, 3), (-4, 9)):
            exps = [n * h + m * ((-pow(h, -1, k)) % k) for h in range(k) if math.gcd(h, k) == 1]
            check(kloosterman(k, n, m, prec), _direct_root_sum(k, exps), len(exps))
        js = (1, 2, 3, 4) if math.gcd(k, 10) == 5 else (1, 3, 7, 9)
        for j in js:
            for n in (0, 13):
                exps = [base + n * step for base, step in _akj_exponent_table(k, j)]
                check(a_kj(k, j, n, prec), _direct_root_sum(10 * k, exps), len(exps))


# -- twisted sums ----------------------------------------------------------------


def _twice_cos(num, den):
    """2 cos(2 pi num/den) by mpmath's cospi at 256 bits, independent of
    the root tables."""
    with mpmath.workprec(256):
        return 2 * mpmath.cospi(mpf(2 * num) / den)


def test_k10_sum_is_the_cosine():
    with working_precision(128):
        for n in range(10):
            got = a_k(10, n)
            assert abs(got.re.value - _twice_cos(16 + 30 * n, 100)) < TOL
            assert abs(got.im.value) < TOL


def test_k10_conjugated_sum_is_the_cosine():
    with working_precision(128):
        for n in range(10):
            got = cal_a_k(10, n)
            assert abs(got.re.value - _twice_cos(12 - 10 * n, 100)) < TOL
            assert abs(got.im.value) < TOL


def test_k5_sum_hand_derived():
    # single terms at h=2 and h=3 with exponents 1-20n and -(1+30n) mod 50
    with working_precision(128):
        for n in range(7):
            got = a_k(5, n)
            assert abs(got.re.value - _twice_cos(1 - 20 * n, 50)) < TOL


def test_periodicity_in_n():
    with working_precision(128):
        for k, j in ((15, 2), (20, 9), (35, 3)):
            a = a_kj(k, j, 4)
            b = a_kj(k, j, 4 + k)
            assert (a - b).abs().value < TOL


def _bits(z):
    return tuple(x._mpf_ for x in (z.re.value, z.re.err, z.im.value, z.im.err))


def test_rewrite_matches_direct_on_grid():
    # both forms sum the same multiset of exponents mod 10k, and the
    # fixed-point kernel adds them exactly, so value and error agree bit for bit
    for k in range(5, 201, 5):
        js = (1, 2, 3, 4) if math.gcd(k, 10) == 5 else (1, 3, 7, 9)
        for j in js:
            for n in (0, 3, 11, -7):
                assert _bits(a_kj(k, j, n)) == _bits(a_kj_rewrite(k, j, n)), (k, j, n)


def test_rewrite_under_larger_shifts():
    for h_shift, hp_shift in ((2, 1), (3, 4), (0, 2)):
        shifted = a_kj_rewrite(15, 4, 6, h_shift=h_shift, hp_shift=hp_shift)
        assert _bits(a_kj(15, 4, 6)) == _bits(shifted)


def test_per_term_shift_invariance_is_exact():
    # each summand's root-of-unity exponent is invariant (mod 10k) under
    # h -> h + k with recomputed h1, nu1, and under the h' shifts, so the
    # shifted exponent tables agree entry by entry
    from qsign.arithmetic import _akj_exponent_table

    for k, j in ((15, 2), (20, 7), (35, 1), (30, 9)):
        base = _akj_exponent_table(k, j)
        for h_shift, hp_shift in ((1, 0), (0, 1), (2, 3)):
            shifted = _akj_exponent_table(k, j, h_shift=h_shift, hp_shift=hp_shift)
            assert shifted == base, (k, j, h_shift, hp_shift)


def _valid_js(k):
    return (1, 2, 3, 4) if math.gcd(k, 10) == 5 else (1, 3, 7, 9)


def test_class_minus_j_table_is_the_negated_class_j_table():
    # h -> k - h maps class j onto class -j, negating each (base, step)
    # mod 10k; h runs up as k - h runs down
    from qsign.arithmetic import _akj_exponent_table

    for k in range(5, 1001, 5):
        mod = 10 * k
        for j in _valid_js(k):
            negated = [(-b % mod, -s % mod) for b, s in reversed(_akj_exponent_table(k, j))]
            assert _akj_exponent_table(k, -j) == negated, (k, j)
    arithmetic.clear_caches()


def _search_hprime(h, k, d):
    """select_hprime's search form: the first of x0 + t*k, t = 0..10/d - 1,
    that 10/d divides."""
    x0 = (-pow(h, -1, k)) % k
    step = 10 // d
    return next(x for x in range(x0, x0 + step * k, k) if x % step == 0)


def _filtered_exponent_table(k, j, h_shift, hp_shift):
    """_akj_exponent_table's filter form: every h in [1, k), kept when it is
    in class j and prime to k, with the searched h'."""
    d, mod = math.gcd(k, 10), 10 * k
    table = []
    for h in range(1, k):
        if h % d != j % d or math.gcd(h, k) != 1:
            continue
        hp = _search_hprime(h, k, d) + hp_shift * (10 // d) * k
        hh = h + h_shift * k
        table.append(((arithmetic._term_exponent_parts(hh, hp, k) - 10 * hh) % mod, (-10 * hh) % mod))
    return table


def test_closed_form_hprime_and_class_step_match_the_search_forms():
    from qsign.arithmetic import _akj_exponent_table

    for k in range(5, 1001, 5):
        d = math.gcd(k, 10)
        for h in range(1, k):
            if math.gcd(h, k) == 1:
                assert select_hprime(h, k, d) == _search_hprime(h, k, d), (h, k)
        for j in _valid_js(k):
            for shifts in ((0, 0), (1, 2)):
                assert _akj_exponent_table(k, j, *shifts) == _filtered_exponent_table(k, j, *shifts), (k, j, shifts)
    arithmetic.clear_caches()


def _two_class_twist(k, n, twisted, prec):
    """A_k(n) = A_{k,3}(n) + A_{k,-3}(n), or cal A_k(n) = conj(A_{k,1}(-n) +
    A_{k,-1}(-n)) when twisted, as the sum of both classes' totals:
    (re, im, err)."""
    js, m = ((1, -1), -n) if twisted else ((3, -3), n)
    (re1, im1, e1), (re2, im2, e2) = (arithmetic._akj_totals(k, j, m, prec) for j in js)
    return re1 + re2, -(im1 + im2) if twisted else im1 + im2, e1 + e2


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_twist_totals_are_the_two_class_sum_bit_for_bit(prec):
    with working_precision(prec):
        for k in range(5, 501, 5):
            for n in (0, 1, 7, 300, 2929, -5):
                for twisted in (False, True):
                    re, im, err = _two_class_twist(k, n, twisted, prec)
                    assert im == 0, (k, n, twisted)
                    assert arithmetic._twist_totals(k, n, twisted, prec) == (re, err), (k, n, twisted)


def test_class_minus_j_sum_is_the_exact_conjugate_ball():
    for k in _SWEEP_K:
        for j in _valid_js(k):
            for n in range(20):
                z, w = a_kj(k, j, n), a_kj(k, -j, n)
                assert _bits(w) == _bits(ErrComplex(z.re, -z.im)), (k, j, n)


@pytest.mark.parametrize(
    "old, new",
    [
        ("return 2 * re, 2 * len(rows)", "return re, len(rows)"),  # the factor 2 dropped
        # class -j summed at the index un-negated: right for A_k, not for cal A_k
        (
            "(_akj_exponent_table(k, 1), -n) if twisted else (_akj_exponent_table(k, 3), n)",
            "(_akj_exponent_table(k, -1), n) if twisted else (_akj_exponent_table(k, -3), n)",
        ),
    ],
    ids=["factor-2-dropped", "class-minus-j-at-unnegated-n"],
)
def test_twist_mutants_fail_the_exact_formula_oracle(old, new, monkeypatch):
    # the indices of test_c_exact_rounds_to_oracle: some row rounds away
    # from the brute-force integer, or its gap and error reach 1/2
    from qsign import exactformula
    from qsign.qseries import q10_series

    monkeypatch.setattr(exactformula, "_twist_totals", _mutant(old, new, monkeypatch)._twist_totals)
    failed = []
    for delta, n in ((1, 30), (1, 47), (-1, 25), (-1, 12)):
        ev = exactformula.c_exact(delta, n)
        if ev.rounded != q10_series(delta, n).coefficient(n) or ev.gap + ev.err >= mpf("0.5"):
            failed.append((delta, n))
    assert failed


def test_twist_constants_d5():
    # j^2 - 5j - alpha^2 + 5 alpha = +2 for j in {1,4}, -2 for j in {2,3}
    for j, expected in ((1, 2), (4, 2), (2, -2), (3, -2)):
        al = alpha_of(j, 5)
        assert j * j - 5 * j - al * al + 5 * al == expected


def test_twist_constants_d10():
    for j, expected in ((1, 12), (9, 12), (3, -12), (7, -12)):
        al = alpha_of(j, 10)
        assert j * j - 10 * j - al * al + 10 * al == expected


def _identity_holds_at_every_precision(k, j, n, alpha_shift=0):
    """_reduced_identity_holds at 64, 128 and 256 bits, as a set of results."""
    results = set()
    for prec in (64, 128, 256):
        with working_precision(prec):
            results.add(arithmetic._reduced_identity_holds(k, j, n, prec, alpha_shift))
    return results


def test_reduced_identity_d5():
    with working_precision(128):
        for k, j, n in ((5, 3, 0), (15, 1, 7), (25, 2, 3), (45, 4, 12)):
            diff = (a_kj(k, j, n) - a_kj_reduced_d5(k, j, n)).abs()
            assert diff.value < TOL
            assert _identity_holds_at_every_precision(k, j, n) == {True}, (k, j, n)


def test_reduced_identity_d10():
    with working_precision(128):
        for k, j, n in ((10, 3, 0), (20, 9, 5), (30, 7, 2), (40, 1, 9)):
            direct = a_kj(k, j, n).abs()
            reduced = a_kj_reduced_d10_abs(k, j, n)
            assert abs(direct.value - reduced.value) < TOL
            # the value A = S/50, not only its modulus
            assert _identity_holds_at_every_precision(k, j, n) == {True}, (k, j, n)


def test_reduced_identity_negative_controls():
    with working_precision(128):
        bad5 = a_kj_reduced_d5(15, 2, 1, alpha_shift=1)
        assert (a_kj(15, 2, 1) - bad5).abs().value > mpf("1e-6")
        bad10 = a_kj_reduced_d10_abs(20, 3, 1, alpha_shift=2)
        assert abs(a_kj(20, 3, 1).abs().value - bad10.value) > mpf("1e-6")
    assert _identity_holds_at_every_precision(15, 2, 1, alpha_shift=1) == {False}
    assert _identity_holds_at_every_precision(20, 3, 1, alpha_shift=2) == {False}


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_reduced_forms_enclose_the_direct_sum(prec):
    # the reduced forms against A_{k,j}(n) summed term by term at 512 bits;
    # each radius is the table charge, at most (sum of the five sums'
    # counts + 2) 2^-w times the scale (1/25 per part for d = 5; 1/50 for
    # each of the two parts the modulus adds for d = 10), plus the rounding
    # of the midpoint, under 8 |value| 2^-prec
    from qsign.arithmetic import _akj_exponent_table

    unit = mpf(2) ** -(prec + arithmetic._GUARD_BITS)
    for k in (5, 10, 15, 20, 35, 100, 135, 200):
        d = math.gcd(k, 10)
        counts = 5 * phi(d * k)
        for j in (1, 2, 3, 4) if d == 5 else (1, 3, 7, 9):
            for n in (0, 7, 13):
                ref = _direct_root_sum(10 * k, [base + n * step for base, step in _akj_exponent_table(k, j)])
                if d == 5:
                    got = a_kj_reduced_d5(k, j, n, prec)
                    parts = ((got.re, ref.real), (got.im, ref.imag))
                else:
                    with mpmath.workprec(512):
                        parts = ((a_kj_reduced_d10_abs(k, j, n, prec), abs(ref)),)
                for ball, true in parts:
                    with mpmath.workprec(512):
                        assert abs(ball.value - true) <= ball.err, (k, j, n)
                        rounding = 8 * abs(ball.value) * mpf(2) ** -prec
                        assert ball.err <= (counts + 2) * unit / 25 + rounding, (k, j, n)


def _five_sum_reference(t, modulus, first, step, second, prec):
    """sum_l ζ_5^(t l) K_modulus(first + l step, second), l = 0..4, as
    five Kloosterman sums, each one split over every prime power of the
    modulus: the unfactored form, on the tables of precision prec. Each real
    total T within c units times the table entry (a, b) of ζ_5^(t l) is
    within |a| c + (|T| + c) E units of 2^2w times the truth, E =
    _ENTRY_ERR, and so is b T with |b|."""
    cos, sin = arithmetic._roots(5, prec)
    re = im = re_err = im_err = 0
    for ell in range(5):
        total, err = arithmetic._kloosterman_total(modulus, first + ell * step, second, prec)
        a, b = cos[t * ell % 5], sin[t * ell % 5]
        re, im = re + a * total, im + b * total
        re_err += abs(a) * err + (abs(total) + err) * arithmetic._ENTRY_ERR
        im_err += abs(b) * err + (abs(total) + err) * arithmetic._ENTRY_ERR
    w2 = 2 * (prec + arithmetic._GUARD_BITS)
    return ErrComplex(_fixed_ball(re, re_err, w2, prec), _fixed_ball(im, im_err, w2, prec))


def _reference_reduced(k, j, n, prec, step_factor=1):
    """The reduced form of A_{k,j}(n) (d = 5) or |A_{k,j}(n)| (d = 10)
    from _five_sum_reference with step step_factor * modulus/5, scaled as
    balls: its parts as a tuple of ErrReal."""
    d = math.gcd(k, 10)
    jr = j % d
    al = alpha_of(jr, d)
    with working_precision(prec):
        if d == 5:
            cj = jr * jr - 5 * jr - al * al + 5 * al
            first = (5 * n + 3) * (k * k - 1) // 4
            value = -_five_sum_reference(jr, 5 * k, first, step_factor * k, cj, prec) / 25
            return value.re, value.im
        num = (jr * jr - 10 * jr - al * al + 10 * al) // 2
        return (_five_sum_reference(-jr, 10 * k, -2 * (5 * n + 3), step_factor * 2 * k, num, prec).abs() / 50,)


def _reduced_parts(module, k, j, n, prec):
    if math.gcd(k, 10) == 5:
        value = module.a_kj_reduced_d5(k, j, n, prec)
        return value.re, value.im
    return (module.a_kj_reduced_d10_abs(k, j, n, prec),)


def _reduced_mismatches(module, ks, ns, prec, step_factor=1):
    """Over the grid, the numbers of reduced-form balls of module that are
    disjoint from the unfactored reference's and that are wider than it."""
    disjoint = wider = 0
    for k in ks:
        for j in (1, 2, 3, 4) if math.gcd(k, 10) == 5 else (1, 3, 7, 9):
            for n in ns:
                got = _reduced_parts(module, k, j, n, prec)
                for ball, ref in zip(got, _reference_reduced(k, j, n, prec, step_factor)):
                    with mpmath.workprec(1024):
                        disjoint += abs(ball.value - ref.value) > ball.err + ref.err
                    wider += ball.err > ref.err
    return disjoint, wider


_SWEEP_K = range(5, 201, 5)  # run_bound_sweeps' identity moduli


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_factored_reduced_forms_meet_the_five_sum_form_on_the_sweep_grid(prec):
    # every k <= 200, 4 j and 20 n, both d: each factored ball meets the
    # ball of the five-sum form, and its radius is no wider
    assert _reduced_mismatches(arithmetic, _SWEEP_K, range(20), prec) == (0, 0)


def _mutant(old, new, monkeypatch):
    """A fresh copy of qsign.arithmetic with its source's one occurrence of
    old replaced by new."""
    source = inspect.getsource(arithmetic)
    assert source.count(old) == 1, old
    module = types.ModuleType("qsign._arithmetic_mutant")
    module.__package__ = "qsign"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), module.__dict__)
    return module


@pytest.mark.parametrize(
    "old, new",
    [
        ("_class_pairs(five, -t % 5)", "_class_pairs(five, t % 5)"),  # h == +t (mod 5)
        ("(5 * x, 5 * err)", "(x, err)"),  # the factor 5 of orthogonality dropped
    ],
)
def test_factored_kernel_mutants_are_caught(old, new, monkeypatch):
    disjoint, _ = _reduced_mismatches(_mutant(old, new, monkeypatch), _SWEEP_K[:10], range(3), 128)
    assert disjoint > 0


def test_factored_kernel_differs_from_five_sums_at_another_step():
    # the class h == -t (mod 5) is that of the step modulus/5: against five
    # sums stepped by twice that, the factored forms must disagree
    disjoint, _ = _reduced_mismatches(arithmetic, _SWEEP_K[:10], range(3), 128, step_factor=2)
    assert disjoint > 0


def test_quarter_is_the_inverse_of_4_mod_5k():
    # the d = 5 reduced form's first argument is -(5n+3) 4^-1 mod 5k
    for k in range(5, 5001, 10):
        assert (1 - k * k) % 4 == 0
        assert 4 * ((1 - k * k) // 4) % (5 * k) == 1, k


def test_arithmetic_names_no_global_precision():
    # integers carry their width: the module names neither mpmath's context
    # mp nor working_precision, so no kernel here reads or sets mp.prec
    tree = ast.parse(inspect.getsource(arithmetic))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
    assert not names & {"mp", "working_precision"}


def test_clear_caches_empties_every_module_cache():
    kloosterman(210, 3, 5)
    weil_bound_check(15, 1, 2)
    a_kj(15, 2, 1)
    a_kj_reduced_d5(15, 2, 1)
    a_kj_reduced_d10_abs(20, 3, 1)
    caches = {name: v for name, v in vars(arithmetic).items() if isinstance(v, dict) and name.strip("_").isupper()}
    assert "_CLASS_PAIRS" in caches
    assert all(caches.values()), [name for name, v in caches.items() if not v]
    arithmetic.clear_caches()
    assert not any(caches.values()), [name for name, v in caches.items() if v]


def test_domain_errors():
    with pytest.raises(ValueError):
        a_kj(12, 1, 0)  # gcd(k,10) = 2
    with pytest.raises(ValueError):
        a_kj(15, 5, 0)  # j shares a factor with d
    for k, j in ((12, 1), (15, 5)):
        with pytest.raises(ValueError):
            a_kj_rewrite(k, j, 0)
    with pytest.raises(ValueError):
        a_kj_reduced_d5(10, 1, 0)
    with pytest.raises(ValueError):
        a_kj_reduced_d10_abs(15, 1, 0)
    with pytest.raises(ValueError):
        kloosterman(0, 1, 1)


# -- bounds ----------------------------------------------------------------------


def test_bound_checks_examples():
    assert bound_check_d5(5, 2, 0)
    assert bound_check_d10(10, 3, 0)


def test_bound_checks_small_grid():
    for k in (5, 15, 25):
        for j in (1, 2, 3, 4):
            for n in (0, 5):
                assert bound_check_d5(k, j, n)
    for k in (10, 20, 30):
        for j in (1, 3, 7, 9):
            for n in (0, 5):
                assert bound_check_d10(k, j, n)


def test_aggregated_bounds():
    for k in (5, 10, 15, 20):
        for n in (0, 7):
            assert aggregated_bound_check(k, n)
            assert aggregated_bound_check(k, n, twisted=True)


def test_bound_check_domain():
    with pytest.raises(ValueError):
        bound_check_d5(10, 1, 0)
    with pytest.raises(ValueError):
        bound_check_d10(5, 1, 0)


def test_bound_checks_fail_with_the_square_just_below(monkeypatch):
    # negative controls: each check fails once its squared bound is the
    # largest integer below the squared length of the nearest point its
    # totals admit, and passes at the next integer
    with working_precision(128):
        totals = [
            arithmetic._kloosterman_total(7, 1, 1, 128),
            arithmetic._akj_totals(15, 2, 3, 128),
            arithmetic._akj_totals(20, 3, 0, 128),
            arithmetic._twist_totals(25, 4, False, 128),
            arithmetic._twist_totals(30, 2, True, 128),
        ]
        # K and the twists are real: their (total, err) is (total, 0, err)
        totals = [(t[0], 0, t[1]) if len(t) == 2 else t for t in totals]
    cases = [
        (weil_bound_check, (7, 1, 1), "_weil_square", 1),
        (bound_check_d5, (15, 2, 3), "_twisted_square", 1),
        (bound_check_d10, (20, 3, 0), "_twisted_square", 1),
        (aggregated_bound_check, (25, 4), "_twisted_square", 4),
        (aggregated_bound_check, (30, 2, 128, True), "_twisted_square", 4),
    ]
    for (check, args, name, scale), (re, im, count) in zip(cases, totals):
        corner = _corner_square(re, im, count * arithmetic._ENTRY_ERR, 128 + arithmetic._GUARD_BITS)
        assert corner > 0
        top = math.ceil(corner / scale)
        monkeypatch.setattr(arithmetic, name, lambda *a, b=top - 1: b)
        assert not check(*args), check
        monkeypatch.setattr(arithmetic, name, lambda *a, b=top: b)
        assert check(*args), check


def test_fixed_point_kernels_give_the_same_integers_at_every_ambient_precision():
    # integers carry their width: at prec = 128 every kernel's totals, and
    # the exact formula's summands, are the same whatever mpmath's global
    # precision is, with every table built afresh under it
    from qsign.exactformula import _class_sum

    prec = 128
    results = []
    for ambient in (53, 64, 256):
        arithmetic.clear_caches()
        with working_precision(ambient):
            results.append(
                (
                    [_class_sum(1, 300, math.gcd(k, 10), (k,), prec) for k in (5, 10, 45, 170)],
                    _class_sum(-1, 211, 10, (30,), prec),
                    arithmetic._akj_totals(15, 2, 3, prec),
                    arithmetic._akj_totals(20, 3, 7, prec),
                    arithmetic._twist_totals(25, 4, False, prec),
                    arithmetic._twist_totals(30, 2, True, prec),
                    arithmetic._kloosterman_total(125, 3, 7, prec),  # a prime power
                    arithmetic._kloosterman_total(210, 3, 7, prec),  # split over 2, 3, 5, 7
                    arithmetic._fifth_root_sum(2, 75, 11, 2, prec),
                    arithmetic._fifth_root_sum(-3, 100, 11, 6, prec),
                    [
                        arithmetic._reduced_identity_holds(k, j, 1, prec, shift)
                        for k, j, shift in ((15, 2, 0), (20, 3, 0), (15, 2, 1), (20, 3, 2))
                    ],
                )
            )
    assert {w for w, _, _ in results[0][0]} == {prec + arithmetic._GUARD_BITS}
    assert results[0][-1] == [True, True, False, False]
    assert results[0] == results[1] == results[2]
