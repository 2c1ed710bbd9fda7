"""Tests for the error-tracked arithmetic layer.

Reference values come from mpmath's own besseli / zeta / gamma, which the
implementation never calls, so the two routes are independent.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp, to_fixed

from qsign.numerics import (
    ErrComplex,
    ErrReal,
    _fixed_complex,
    _i1_series,
    bessel_bound_checks,
    bessel_i1,
    pi_err,
    unit_root_parts,
    working_precision,
    zeta_3_2,
)

# frozen independent references (mpmath at 40 digits); parsed inside the
# working-precision context so no digits are lost at import time
I1_HALF = "0.257894305390896316362479659523"
I1_ONE = "0.56515910399248502720769602761"
I1_TWO = "1.590636854637329063382254425"
I1_THREE = "3.95337021740260939647863574058"
ZETA_3_2 = "2.61237534868548834334856756792"


def test_errreal_addition_propagates():
    with working_precision(128):
        a = ErrReal(1, mpf("1e-30"))
        b = ErrReal(2, mpf("2e-30"))
        c = a + b
        assert c.value == 3
        assert mpf("3e-30") <= c.err < mpf("4e-30")


def test_errreal_multiplication_propagates():
    with working_precision(128):
        a = ErrReal(3, mpf("1e-20"))
        b = ErrReal(-4, mpf("1e-22"))
        c = a * b
        assert c.value == -12
        # |a| err_b + |b| err_a + err_a err_b
        assert c.err >= 3 * mpf("1e-22") + 4 * mpf("1e-20")
        assert c.err < mpf("5e-20")


def test_errreal_division_guards_zero():
    with working_precision(64):
        with pytest.raises(ZeroDivisionError):
            ErrReal(1) / ErrReal(0, mpf("1e-10"))
        with pytest.raises(ZeroDivisionError):
            ErrReal(1) / ErrReal(mpf("1e-12"), mpf("1e-10"))


def test_sign_three_valued():
    assert ErrReal(1, mpf("0.5")).lo > 0
    assert ErrReal(-1, mpf("0.5")).hi < 0
    undecided = ErrReal(mpf("1e-12"), mpf("1e-6"))
    assert undecided.lo < 0 < undecided.hi


def test_big_int_conversion_is_tracked():
    with working_precision(64):
        big = 10**40  # does not fit in 64 bits
        x = ErrReal(big)
        assert x.err > 0
        assert x.contains(mpf(10) ** 40)


def test_sqrt_and_exp_endpoints():
    with working_precision(128):
        x = ErrReal(4, mpf("1e-20"))
        r = x.sqrt()
        assert r.contains(2)
        assert r.err < mpf("1e-19")
        e = ErrReal(0, mpf("1e-25")).exp()
        assert e.contains(1)
        with pytest.raises(ValueError):
            ErrReal(-1).sqrt()


def test_fraction_and_string_inputs():
    with working_precision(128):
        x = ErrReal(Fraction(1, 3))
        assert x.err > 0
        assert x.contains(mpf(1) / 3)
        with pytest.raises(TypeError):
            ErrReal("0.1")


# interval soundness: the low-precision enclosure must contain the
# high-precision value of the same composite expression
def _pipeline(x: ErrReal, y: ErrReal) -> ErrReal:
    return (x * x + y).sqrt().exp() / (ErrReal(1) + x * x) + (x * y).cos()


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3)),
    st.fractions(min_value=Fraction(0), max_value=Fraction(4)),
)
def test_interval_soundness_across_precisions(fx, fy):
    if fx * fx + fy < 0:
        return
    with working_precision(64):
        low = _pipeline(ErrReal(Fraction(fx)), ErrReal(Fraction(fy)))
    with working_precision(256):
        high = _pipeline(ErrReal(Fraction(fx)), ErrReal(Fraction(fy)))
    assert low.contains(high.value)


# -- ball arithmetic, one operation at a time ------------------------------------


def _dyadic(prec: int, signed: bool):
    """(man, exp) of a prec-bit dyadic man 2^exp with |exp| <= 200; 0 included,
    negatives only when signed."""
    man = st.integers(-(2**prec) + 1 if signed else 0, 2**prec - 1)
    return st.one_of(st.just((0, 0)), st.tuples(man, st.integers(-200, 200)))


def _draw_ball(data, prec: int) -> ErrReal:
    v, e = (mpmath.mp.make_mpf(from_man_exp(*data.draw(_dyadic(prec, signed)))) for signed in (True, False))
    return ErrReal(v, e)


def _q(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _ends(x: ErrReal) -> tuple:
    return _q(x.lo), _q(x.hi)


def _padded(raw: mpf, v: mpf, shift: int, prec: int) -> mpf:
    # the radius as it was formed before upward rounding: every step rounded
    # to nearest, the midpoint charged |v| 2^(shift-prec), then a 2^(6-prec) pad
    err = raw + abs(v) * mpf(2) ** (shift - prec)
    return err + err * mpf(2) ** (6 - prec)


_BALL_OPS = {
    "+": (lambda x, y: x + y, lambda a, ea, b, eb: ea + eb),
    "-": (lambda x, y: x - y, lambda a, ea, b, eb: ea + eb),
    "*": (lambda x, y: x * y, lambda a, ea, b, eb: abs(a) * eb + abs(b) * ea + ea * eb),
    "/": (lambda x, y: x / y, lambda a, ea, b, eb: (ea * abs(b) + abs(a) * eb) / (abs(b) * (abs(b) - eb))),
}


@pytest.mark.parametrize("prec", [64, 128, 256])
@pytest.mark.parametrize("op", sorted(_BALL_OPS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_ball_operation_is_sound_and_tight(op, prec, data):
    apply, raw = _BALL_OPS[op]
    with working_precision(prec):
        x, y = _draw_ball(data, prec), _draw_ball(data, prec)
        if op == "/" and not abs(y.value) > y.err:
            with pytest.raises(ZeroDivisionError):
                x / y
            return
        z = apply(x, y)
        # (a) the midpoint is mpmath's own operation, bit for bit
        assert z.value._mpf_ == apply(x.value, y.value)._mpf_
        # (b) the ball holds the exact result at every pair of endpoints
        lo, hi = _ends(z)
        for p in _ends(x):
            for q in _ends(y):
                assert lo <= apply(p, q) <= hi
        # (c) the radius is no wider than the padded nearest-rounded one
        assert z.err <= _padded(raw(x.value, x.err, y.value, y.err), z.value, 1, prec)


@pytest.mark.parametrize("prec", [64, 128, 256])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fixed_complex_is_sound_and_tight(prec, data):
    # totals of either sign and 0 at 2^-w, up to 64 bits wider than prec so
    # that the midpoints round, each part within err units of the truth
    w = data.draw(st.integers(0, prec + 64))
    totals = st.one_of(st.just(0), st.integers(-(2 ** (prec + 64)), 2 ** (prec + 64)))
    re, im = data.draw(totals), data.draw(totals)
    err = data.draw(st.one_of(st.just(0), st.integers(0, 2 ** (prec + 64))))
    with working_precision(prec):
        z = _fixed_complex(re, im, err, w)
    unit = Fraction(1, 2**w)
    for part, t in ((z.re, re), (z.im, im)):
        lo, hi = _ends(part)
        assert lo <= (t - err) * unit and (t + err) * unit <= hi
        # err 2^-w plus the midpoint's rounding |v| 2^-prec, rounded up twice
        exact = err * unit + abs(_q(part.value)) / 2**prec
        assert _q(part.err) <= exact * (1 + Fraction(2, 2**prec)) ** 2


@pytest.mark.parametrize("prec", [64, 128, 256])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_complex_abs_ball_is_sound_and_tight(prec, data):
    with working_precision(prec):
        z = ErrComplex(_draw_ball(data, prec), _draw_ball(data, prec))
        r = z.abs()
        assert r.value._mpf_ == mpmath.hypot(z.re.value, z.im.value)._mpf_
        lo, hi = _ends(r)
        for p in _ends(z.re):
            for q in _ends(z.im):
                square = p * p + q * q  # |p + iq|^2, compared in squares
                assert square <= hi * hi and (lo <= 0 or lo * lo <= square)
        assert r.err <= _padded(z.re.err + z.im.err, r.value, 2, prec)


def test_complex_arithmetic_and_abs():
    with working_precision(128):
        z = ErrComplex(ErrReal(3), ErrReal(4))
        assert z.abs().contains(5)
        w = z * z.conjugate()
        assert w.re.contains(25)
        assert abs(w.im.value) <= w.im.err
        with pytest.raises(ZeroDivisionError):
            ErrComplex(1) / ErrComplex(ErrReal(0, mpf("1e-10")), ErrReal(0))


def test_unit_roots():
    with working_precision(128):
        r = ErrComplex.unit_root(1, 3)
        assert r.re.contains(mpf(-1) / 2)
        assert r.im.contains(mpmath.sqrt(mpf(3)) / 2)
        i = ErrComplex.unit_root(2, 8)
        assert abs(i.re.value) < mpf("1e-30")
        assert i.im.contains(1)


def test_unit_root_is_the_root_table_entry():
    from qsign.arithmetic import _ENTRY_ERR, _GUARD_BITS, _roots

    # every entry within _ENTRY_ERR units of 2^-w of a 640-bit cospi/sinpi,
    # held as integers at 2^-600; the values on the grid come out exact
    ref_bits = 600
    for den in (1, 2, 3, 4, 5, 10, 51, 1000, 4950, 20000):
        with mpmath.workprec(640):
            half = [
                [to_fixed(f(mpf(2 * t) / den)._mpf_, ref_bits) for f in (mpmath.cospi, mpmath.sinpi)]
                for t in range(den // 2 + 1)
            ]
        ref = half + [(c, -s) for c, s in reversed(half[1 : (den + 1) // 2])]
        for prec in (64, 128, 256, 512):
            w = prec + _GUARD_BITS
            with working_precision(prec):
                table = _roots(den)
            assert len(table) == den
            slack = _ENTRY_ERR << (ref_bits - w)
            for entry, true in zip(table, ref):
                for fixed, exact in zip(entry, true):
                    # the reference's own floor is under one unit of 2^-600
                    assert abs((fixed << (ref_bits - w)) - exact) <= slack + 1
            one = 1 << w
            assert table[0] == (one, 0)
            if den % 2 == 0:
                assert table[den // 2] == (-one, 0)
            if den % 4 == 0:
                assert table[den // 4] == (0, one)
                assert table[3 * den // 4] == (0, -one)

    prec = 128
    w = prec + _GUARD_BITS
    with working_precision(prec):
        for den in (1, 2, 3, 4, 5, 10, 51):
            table = _roots(den)
            assert len(table) == den
            for t in range(1, den):
                assert table[den - t] == (table[t][0], -table[t][1])
        for num, den in ((0, 1), (1, 3), (-1, 3), (7, 5), (-13, 10), (123, 50), (-250, 100), (41, 40)):
            entry = _roots(den)[num % den]
            with working_precision(w):
                parts = unit_root_parts(num, den)
            with working_precision(512):
                exact = (mpmath.cospi(mpf(2 * num) / den), mpmath.sinpi(mpf(2 * num) / den))
            # the w-bit part is within 2^(4-w), the entry within _ENTRY_ERR units: 17 units hold
            for fixed, part, true in zip(entry, parts, exact):
                assert isinstance(fixed, int)
                assert abs(fixed - mpmath.ldexp(part, w)) <= 17
                assert abs(fixed - mpmath.ldexp(true, w)) <= 17
            root = ErrComplex.unit_root(num, den)
            shifted = ErrComplex.unit_root(num + 7 * den, den)
            for a, b in ((shifted.re, root.re), (shifted.im, root.im)):
                assert (a.value._mpf_, a.err._mpf_) == (b.value._mpf_, b.err._mpf_)
        for den in (0, -3):
            with pytest.raises(ValueError):
                ErrComplex.unit_root(1, den)


def test_unit_root_parts_are_cospi_and_sinpi():
    for prec in (64, 128, 136, 256):
        with working_precision(prec):
            for den in (1, 2, 3, 4, 5, 7, 10, 12, 50, 51, 195, 1000, 4950):
                for num in range(-den, 2 * den, max(1, den // 40)):
                    frac = mpf(2 * (num % den)) / den
                    c, s = unit_root_parts(num, den)
                    assert (c._mpf_, s._mpf_) == (mpmath.cospi(frac)._mpf_, mpmath.sinpi(frac)._mpf_)


def test_cos_two_pi_rational_quarter_turns():
    with working_precision(128):
        assert ErrComplex.unit_root(1, 4).re.contains(0)
        assert ErrComplex.unit_root(1, 2).re.contains(-1)
        assert ErrComplex.unit_root(5, 5).re.contains(1)


# -- Bessel I1 ------------------------------------------------------------------


def test_bessel_at_zero():
    with working_precision(128):
        v = bessel_i1(ErrReal(0), mpf("1e-30"))
        assert v.value == 0
        assert v.err == 0


@pytest.mark.parametrize(
    "x,expected",
    [(mpf("0.5"), I1_HALF), (mpf(1), I1_ONE), (mpf(2), I1_TWO), (mpf(3), I1_THREE)],
)
def test_bessel_reference_values(x, expected):
    with working_precision(160):
        v = bessel_i1(ErrReal(x), mpf("1e-40"))
        assert abs(v.value - mpf(expected)) < mpf("1e-29")
        assert v.err <= mpf("1e-40") + abs(v.value) * mpf("1e-35")


def test_bessel_against_mpmath_oracle_grid():
    with working_precision(160):
        for x in (mpf("0.1"), mpf("2.7"), mpf(10), mpf("37.5"), mpf(60)):
            ours = bessel_i1(ErrReal(x), mpf("1e-35"))
            with mpmath.workdps(60):
                ref = mpmath.besseli(1, x)
            assert abs(ours.value - ref) <= ours.err + abs(ref) * mpf("1e-45")


def test_bessel_monotone_on_grid():
    with working_precision(128):
        prev = mpf(-1)
        for i in range(0, 40):
            x = mpf(i) / 4
            v = bessel_i1(ErrReal(x), mpf("1e-30")).value
            assert v > prev or (v == prev == 0)
            prev = v


def test_bessel_argument_uncertainty_propagates():
    with working_precision(128):
        wide = bessel_i1(ErrReal(2, mpf("1e-3")), mpf("1e-30"))
        with mpmath.workdps(40):
            lo = mpmath.besseli(1, mpf(2) - mpf("1e-3"))
            hi = mpmath.besseli(1, mpf(2) + mpf("1e-3"))
        assert wide.lo <= lo <= hi <= wide.hi


def test_bessel_domain_errors():
    with working_precision(64):
        with pytest.raises(ValueError):
            bessel_i1(ErrReal(1), 0)
        with pytest.raises(ValueError):
            bessel_i1(ErrReal(-2), mpf("1e-10"))


# the fixed-point kernel across the argument range of the exact formula
# (x up to ~60 at n = 300) and beyond, at c_exact's relative target
I1_GRID = ("1e-3", "0.5", "5.3", "23", "33.7", "60", "150")


def _besseli_fine(x, prec):
    # reference well below the enclosure's radius; x is passed exactly
    with mpmath.workprec(prec + 2 * x.bc + 80):
        return mpmath.besseli(1, x)


@pytest.mark.parametrize("prec", [128, 192, 256])
def test_bessel_encloses_fine_reference_at_exact_arguments(prec):
    with working_precision(prec):
        for s in I1_GRID:
            x = mpf(s)
            target = mpf(2) ** (8 - prec) * (mpmath.exp(x) + 1)
            v = bessel_i1(ErrReal(x), target)
            ref = _besseli_fine(x, prec)
            assert v.lo <= ref <= v.hi, s
            assert v.err <= target + abs(v.value) * mpf(2) ** (2 - prec), s


@pytest.mark.parametrize("prec", [128, 192, 256])
def test_bessel_endpoints_bracket_the_argument_interval(prec):
    with working_precision(prec):
        for s in I1_GRID:
            target = mpf(2) ** (8 - prec) * (mpmath.exp(mpf(s)) + 1)
            for width in (mpf(0), mpf(2) ** -100):
                x = ErrReal(mpf(s), width)
                v = bessel_i1(x, target)
                assert v.lo <= _besseli_fine(x.lo, prec), (s, width)
                assert _besseli_fine(x.hi, prec) <= v.hi, (s, width)


def test_i1_series_bound_covers_the_floors_at_narrow_widths():
    # at w = 20..40 bits the floor errors, amplified by the terms' growth,
    # dwarf the truncated tail: the enclosure holds only through the E_k
    # (argument and results are integers at 2^-w; the tail goal is 2^-10)
    for s in ("0.75", "5.3", "33.7", "60"):
        for w in (20, 40):
            x = to_fixed(mpf(s)._mpf_, w)
            lo, bound = _i1_series(x, w, 1 << (w - 10))
            with mpmath.workprec(400):
                ref = mpmath.besseli(1, mpmath.ldexp(x, -w)) * 2**w
                assert lo <= ref <= lo + bound, (s, w)


def _i1_target(x, prec):
    # the relative target c_exact's term loop used before its integer form
    return mpf((1, 8 - prec)) * (mpmath.exp(x) + 1)


@settings(max_examples=60, deadline=None)
@given(
    prec=st.sampled_from([64, 128, 256]),
    units=st.integers(1 << 20, 40 << 40),
    width=st.one_of(st.just(0), st.integers(20, 300)),
    relative=st.booleans(),
)
def test_bessel_encloses_the_reference_at_both_ends(prec, units, width, relative):
    # x in (0, 40] on the 2^-40 grid, as a point or with radius 2^-width
    with working_precision(prec):
        x = ErrReal(mpf((units, -40)), mpf((1, -width)) if width else 0)
        target = _i1_target(x.value, prec) if relative else mpf((1, -(prec // 2)))
        v = bessel_i1(x, target)
    with mpmath.workprec(prec + 100):
        assert v.lo <= mpmath.besseli(1, x.lo)
        assert mpmath.besseli(1, x.hi) <= v.hi


# bessel_i1's radius when each end was summed at its exact dyadic and the
# ball assembled from mpf endpoints at a raised precision, at _i1_target:
# (prec, x = man 2^exp, width: radius 2^-width, 0 for a point) -> (man, exp)
ASSEMBLED_I1_RADII = {
    (64, 1, -10, 0): (477218591, -112),
    (64, 1, -10, 32): (5070604214301771127154699927553, -135),
    (64, 3, 0, 0): (54584500466823, -111),
    (64, 3, 0, 32): (18066569099349948582087535628817, -134),
    (64, 5, 3, 0): (95569553677352110466098420040825, -117),
    (64, 5, 3, 32): (130848393247055902181910701564959, -85),
    (128, 1, -10, 0): (1667999861999, -177),
    (128, 1, -10, 64): (93536138240297799941055186376557781263410559713451, -231),
    (128, 3, 0, 0): (33844614255495, -178),
    (128, 3, 0, 64): (166634688228625616567772376338759462134079983469443, -229),
    (128, 5, 3, 0): (26652403793199215087016879256911, -180),
    (128, 5, 3, 64): (1206863411137038634899743214772343435100982224012777, -180),
    (256, 1, -10, 0): (130407017, -304),
    (256, 1, -10, 128): (
        31828698513052639337844346425161771043677226921076940653508604971245061195798020908576495,
        -423,
    ),
    (256, 3, 0, 0): (885380738198025, -306),
    (256, 3, 0, 128): (
        113405692243138734941666802753149883033188246454419676977953984177000470478786023245794009,
        -422,
    ),
    (256, 5, 3, 0): (3852360584154340481872412142563, -307),
    (256, 5, 3, 128): (
        821348676183978384741473506047728752462032059442731654078699646617557827410384778397785265,
        -373,
    ),
}


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_bessel_radius_at_most_the_assembled_one(prec):
    for (p, man, exp, width), (r_man, r_exp) in ASSEMBLED_I1_RADII.items():
        if p != prec:
            continue
        with working_precision(prec):
            x = mpf((man, exp))
            r = bessel_i1(ErrReal(x, mpf((1, -width)) if width else 0), _i1_target(x, prec)).err
        assert Fraction(int(r.man)) * Fraction(2) ** int(r.exp) <= Fraction(r_man) * Fraction(2) ** r_exp, (man, exp, width)


def test_bessel_bound_checks_examples():
    with working_precision(128):
        # I1(0.5) ~ 0.2579 <= 0.5
        r = bessel_bound_checks(ErrReal(mpf("0.5")))
        assert r.small_applicable and r.small_ok
        # I1(1) ~ 0.5652 <= sqrt(2/pi) e ~ 2.1689
        r = bessel_bound_checks(ErrReal(1))
        assert r.large_applicable and r.large_ok
        # I1(3) ~ 3.9534 >= e^3/(4 sqrt 3) ~ 2.8991
        r = bessel_bound_checks(ErrReal(3))
        assert r.lower_applicable and r.lower_ok
        assert r.all_ok()


def test_bessel_bound_checks_vacuous_flags():
    with working_precision(128):
        r = bessel_bound_checks(ErrReal(mpf("0.5")))
        assert not r.large_applicable and r.large_ok
        assert not r.lower_applicable and r.lower_ok


# -- zeta(3/2) -------------------------------------------------------------------


def test_zeta_reference_value():
    with working_precision(160):
        z = zeta_3_2(mpf("1e-25"))
        assert abs(z.value - mpf(ZETA_3_2)) <= z.err
        assert z.err <= mpf("1e-25") * 2


def test_zeta_bracket_width_meets_target():
    with working_precision(96):
        # coarse targets take the same Euler-Maclaurin tail as fine ones
        for target in (mpf("1e-3"), mpf("1e-6"), mpf("1e-10"), mpf("1e-20")):
            z = zeta_3_2(target)
            assert z.err <= 2 * target
            assert z.contains(mpf(ZETA_3_2))


def test_zeta_square():
    with working_precision(128):
        z = zeta_3_2(mpf("1e-20"))
        sq = z * z
        assert abs(sq.value - mpf("6.82450496241962680348020964")) < mpf("1e-18")


def test_zeta_rejects_bad_target():
    with pytest.raises(ValueError):
        zeta_3_2(0)


def test_pi_contains_pi():
    with working_precision(128):
        p = pi_err()
        with mpmath.workdps(60):
            assert p.contains(+mpmath.pi)
