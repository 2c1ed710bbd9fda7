"""Tests for the cusp decomposition and Kloosterman-type sums.

Hand-derived expectations:
  * decompose(3,10): 3h=9=0*10+9 so h1=0, h2=9; nu=(0,3); mu=(0,9); alpha=9.
  * decompose(2,5):  3h=6=1*5+1 so h1=1, h2=1; nu=(0,2); mu=(0,1); alpha=1.
  * The k=10 twisted sum collapses to 2 cos(2 pi (4/25 + 3n/10)); the
    conjugated variant to 2 cos(2 pi (3/25 - n/10)).
  * The k=5 sum has single terms at h=2,3 giving 2 cos(2 pi (1-20n)/50).
"""

import math
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

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
from qsign.numerics import ErrComplex, _fixed_complex, working_precision

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
    for n, m in ((0, 0), (5, 7), (-3, 11)):
        v = kloosterman(1, n, m)
        assert abs(v.re.value - 1) < TOL and abs(v.im.value) < TOL


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


def _full_pair_kloosterman(k, n, m, prec):
    """K_k(n, m) summed over every h coprime to k, not only 2h < k: the
    exponents of all phi(k) pairs through the module's table summation."""
    exps = [n * h + m * ((-pow(h, -1, k)) % k) for h in range(k) if math.gcd(h, k) == 1]
    with working_precision(prec):
        return _fixed_complex(*arithmetic._root_sum(k, exps), prec + arithmetic._GUARD_BITS)


def _parts(v):
    return (v.re._v, v.re._e, v.im._v, v.im._e)


def _check_against_full_pairs(k, n, m, prec):
    got, ref = kloosterman(k, n, m, prec), _full_pair_kloosterman(k, n, m, prec)
    if len(_prime_powers(k)) < 2:
        # prime powers and k <= 2: midpoints and radii of both parts, bit for bit
        assert _parts(got) == _parts(ref), (k, n, m)
        return
    # split over the prime powers: each part's ball meets the reference
    # ball, which holds the true value, and is no wider than it
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
def test_split_kloosterman_encloses_the_direct_sum(args, prec):
    # the product over the prime powers of k holds the 512-bit direct sum,
    # and its radius is at most phi(k) 2^-w, the unsplit sum's charge, plus
    # the rounding of the midpoint to prec bits (and of the radius, up)
    k, n, m = args
    got = kloosterman(k, n, m, prec)
    unit = mpf(2) ** -(prec + arithmetic._GUARD_BITS)
    with mpmath.workprec(600):
        true = _direct_kloosterman(k, n, m)
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
    monkeypatch.setattr(arithmetic, "_ENTRY_ERR", d)
    monkeypatch.setattr(arithmetic, "_roots", lambda q, prec=None: [(c + d - 1, s) for c, s in roots(q, prec)])
    for k in (6, 210, 1700, 2310, 4620):
        with working_precision(128):
            total, err = arithmetic._kloosterman_total(k, 0, 0)
        assert abs(total - (phi(k) << 128 + arithmetic._GUARD_BITS)) <= err, k


def test_root_table_entry_at_minus_t_is_the_exact_conjugate():
    for den in (1, 2, 3, 4, 5, 10, 51, 1000, 4950, 20000):
        for prec in (64, 128, 256, 512):
            with working_precision(prec):
                table = arithmetic._roots(den)
            for t in range(den):
                c, s = table[t]
                assert table[-t % den] == (c, -s), (den, prec, t)


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
        assert arithmetic._exceeds(re, im, count, square) == (corner > square)


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
        assert arithmetic._exceeds(re, im, 0, square) == (z_square > square)


def test_exceeds_at_zero_negative_and_equality():
    prec = 64
    w = prec + arithmetic._GUARD_BITS
    c = arithmetic._ENTRY_ERR
    with working_precision(prec):
        assert not arithmetic._exceeds(0, 0, 0, 0)
        assert not arithmetic._exceeds(0, 0, 5, 0)
        # a negative part lies as far from 0 as its absolute value
        assert arithmetic._exceeds(-5 << w, 0, 0, 24)
        assert arithmetic._exceeds(0, -5 << w, 0, 24)
        assert not arithmetic._exceeds(-5 << w, 0, 0, 25)
        for r in (1, 3, 12345):
            for sign in (1, -1):
                t = sign * (r << w)
                assert not arithmetic._exceeds(t, 0, 0, r * r)  # |z|^2 == square
                assert arithmetic._exceeds(t, 0, 0, r * r - 1)
                # error bars pull the nearest point in by c units per count
                assert not arithmetic._exceeds(t + sign * 3 * c, 0, 3, r * r)
                assert arithmetic._exceeds(t + sign * (3 * c + 1), 0, 3, r * r)
        # 3/2 squared is 9/4: above 2, not above 3
        assert arithmetic._exceeds(3 << (w - 1), 0, 0, 2)
        assert not arithmetic._exceeds(3 << (w - 1), 0, 0, 3)
        # 3 + 4i has squared length 25 exactly
        assert not arithmetic._exceeds(3 << w, -4 << w, 0, 25)
        assert arithmetic._exceeds(3 << w, -4 << w, 0, 24)
        # a box straddling an axis counts that coordinate as 0
        assert not arithmetic._exceeds(c - 1, 2 << w, 1, 4)
        assert arithmetic._exceeds(c - 1, 2 << w, 1, 3)


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


def test_k10_sum_is_the_cosine():
    with working_precision(128):
        for n in range(10):
            got = a_k(10, n)
            expect = ErrComplex.unit_root(16 + 30 * n, 100).re * 2
            assert abs(got.re.value - expect.value) < TOL
            assert abs(got.im.value) < TOL


def test_k10_conjugated_sum_is_the_cosine():
    with working_precision(128):
        for n in range(10):
            got = cal_a_k(10, n)
            expect = ErrComplex.unit_root(12 - 10 * n, 100).re * 2
            assert abs(got.re.value - expect.value) < TOL
            assert abs(got.im.value) < TOL


def test_k5_sum_hand_derived():
    # single terms at h=2 and h=3 with exponents 1-20n and -(1+30n) mod 50
    with working_precision(128):
        for n in range(7):
            got = a_k(5, n)
            expect = ErrComplex.unit_root(1 - 20 * n, 50).re * 2
            assert abs(got.re.value - expect.value) < TOL


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


def test_twist_constants_d5():
    # j^2 - 5j - alpha^2 + 5 alpha = +2 for j in {1,4}, -2 for j in {2,3}
    for j, expected in ((1, 2), (4, 2), (2, -2), (3, -2)):
        al = alpha_of(j, 5)
        assert j * j - 5 * j - al * al + 5 * al == expected


def test_twist_constants_d10():
    for j, expected in ((1, 12), (9, 12), (3, -12), (7, -12)):
        al = alpha_of(j, 10)
        assert j * j - 10 * j - al * al + 10 * al == expected


def test_reduced_identity_d5():
    with working_precision(128):
        for k, j, n in ((5, 3, 0), (15, 1, 7), (25, 2, 3), (45, 4, 12)):
            diff = (a_kj(k, j, n) - a_kj_reduced_d5(k, j, n)).abs()
            assert diff.value < TOL


def test_reduced_identity_d10():
    with working_precision(128):
        for k, j, n in ((10, 3, 0), (20, 9, 5), (30, 7, 2), (40, 1, 9)):
            direct = a_kj(k, j, n).abs()
            reduced = a_kj_reduced_d10_abs(k, j, n)
            assert abs(direct.value - reduced.value) < TOL


def test_reduced_identity_negative_controls():
    with working_precision(128):
        bad5 = a_kj_reduced_d5(15, 2, 1, alpha_shift=1)
        assert (a_kj(15, 2, 1) - bad5).abs().value > mpf("1e-6")
        bad10 = a_kj_reduced_d10_abs(20, 3, 1, alpha_shift=2)
        assert abs(a_kj(20, 3, 1).abs().value - bad10.value) > mpf("1e-6")


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
        total, count = arithmetic._kloosterman_total(7, 1, 1)
        totals = [
            (total, 0, count),  # K is real
            arithmetic._akj_totals(15, 2, 3),
            arithmetic._akj_totals(20, 3, 0),
            arithmetic._twist_totals(25, 4, False),
            arithmetic._twist_totals(30, 2, True),
        ]
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
