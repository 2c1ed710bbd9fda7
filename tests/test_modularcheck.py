"""Tests for the modular backbone at 256-bit working precision.

References: eta(i) = Gamma(1/4) / (2 pi^(3/4)); the classical value of the
(1,5) multiplier is e^(i pi / 5) (Dedekind sum 1/5); the multiplier's
exponent is checked exactly against the Dedekind sum's definition and
reciprocity law, and numerically against a two-point solve from eta;
everything else is checked by comparing two independently evaluated sides.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import exp, mpc, mpf, pi, sqrt

from qsign import modularcheck
from qsign.arithmetic import neg_inverse
from qsign.modularcheck import (
    _GUARD_BITS,
    _MULTIPLIER_TUPLES,
    _exp_ball,
    _fixed_exp,
    _multiplier_records,
    _qpochhammer,
    _theta_terms,
    _triple_product_record,
    eta,
    f_eval,
    f_series_agreement,
    growth_classifier,
    omega_hk,
    theta,
    transformation_check_detail,
)
from qsign.numerics import ErrComplex, ErrReal, working_precision
from qsign.qseries import TruncatedSeries

PREC = 256
TARGET = mpf(10) ** -40


def as_mpc(ec):
    return mpc(ec.re.value, ec.im.value)


def test_theta_odd_vanishes_at_origin():
    with working_precision(PREC):
        for tau in (mpc("0.2", "0.9"), mpc("-0.3", "0.55")):
            v = theta(0, tau, TARGET, PREC)
            assert abs(as_mpc(v)) <= v.re.err + v.im.err + TARGET


def test_theta_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        theta(0, mpc(0, -1), TARGET, PREC)
    with pytest.raises(ValueError):
        theta(0, mpc(1, 0), TARGET, PREC)
    with pytest.raises(ValueError):
        theta(0, mpc(0, 1), 0, PREC)


def searched_theta_terms(w, tau, target):
    """The least M, tried in turn, whose first omitted n0 = M + 1/2 has
    term ratio below 1/2 and four times its term below target."""
    t, beta = tau.imag, abs(w.imag)
    M = 1
    while True:
        n0 = mpf(2 * M + 1) / 2
        ratio = exp(-pi * t * (2 * n0 + 1) + 2 * pi * beta)
        bound = exp(-pi * t * n0 * n0 + 2 * pi * beta * n0)
        if ratio < 0.5 and 4 * bound < target:
            return M, 2 * bound
        M += 1


def test_theta_terms_is_the_least_index():
    # Im tau from 0.02 to 20, |Im w| up to 1.5 Im tau, targets 2^-64 to
    # 2^-200; below Im tau ~ 1e-3 the term-ratio condition binds instead
    rng = random.Random(1618)
    with working_precision(PREC):
        for i in range(320):
            lo, hi = (0.02, 20) if i < 300 else (1e-4, 1e-3)
            t = mpf(10) ** rng.uniform(math.log10(lo), math.log10(hi))
            tau = mpc(rng.uniform(-0.5, 0.5), t)
            w = mpc(rng.uniform(-0.5, 0.5), rng.uniform(-1.5, 1.5) * t)
            target = mpf(2) ** -rng.randint(64, 200)
            assert _theta_terms(w, tau, target) == searched_theta_terms(w, tau, target), (w, tau, target)


def test_theta_terms_cap():
    # a term ratio below 1/2 needs n0 > log 2 / (2 pi Im tau), about 110,000
    # at Im tau = 1e-6 and 120,000 for eta at 3e-7 (theta at 3 tau)
    with working_precision(PREC):
        with pytest.raises(RuntimeError):
            _theta_terms(mpc(0), mpc(0, "1e-6"), mpf(2) ** -PREC)
    with pytest.raises(RuntimeError):
        eta(mpc(0, "3e-7"), mpf(2) ** -PREC, PREC)


def direct_theta(w, tau, target, prec):
    """theta at 2 prec bits term by term, far past theta's own truncation,
    with the sum of the term moduli over theta's 2M terms and the old
    bound 2 tail + absum (2M+8) 2^(4-prec) on theta's radius."""
    with working_precision(prec):
        M, tail = _theta_terms(w, tau, target)
        far, _ = _theta_terms(w, tau, target * mpf(2) ** -prec)
    with working_precision(2 * prec):

        def term(m):
            return exp(pi * 1j * (tau * (2 * m + 1) ** 2 / mpf(4) + (2 * m + 1) * (w + mpf(1) / 2)))

        total = sum(term(m) for m in range(-far, far))
        absum = sum(abs(term(m)) for m in range(-M, M))
        return total, 2 * tail + absum * (2 * M + 8) * mpf(2) ** (4 - prec)


def assert_theta_encloses(w, tau, target, prec):
    v = theta(w, tau, target, prec)
    total, old_radius = direct_theta(w, tau, target, prec)
    with working_precision(2 * prec):
        assert abs(v.re.value - total.real) <= v.re.err, (w, tau, target)
        assert abs(v.im.value - total.imag) <= v.im.err, (w, tau, target)
        assert v.re.err <= old_radius and v.im.err <= old_radius, (w, tau, target)


@pytest.fixture(scope="module")
def suite_with_theta_calls():
    """validation_suite's records and the arguments of its theta calls."""
    calls = []
    real = modularcheck.theta

    def recording(w, tau, target_err, prec=PREC):
        calls.append((mpc(w), mpc(tau), mpf(target_err), prec))
        return real(w, tau, target_err, prec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modularcheck, "theta", recording)
        records = modularcheck.validation_suite(PREC)
    return records, calls


def test_suite_record_mix(suite_with_theta_calls):
    records, _ = suite_with_theta_calls
    assert Counter(r.check for r in records) == {
        "triple-product": 20,
        "quasi-periodicity": 4,
        "eta-transformation": 10,
        "theta-transformation": 10,
        "leading-asymptotic": 2,
        "cusp-transformation": 11,
        "series-agreement": 2,
        "conjugation-symmetry": 2,
        "growth-classification": 2,
        "eta-at-i": 1,
    }
    assert len(records) == 64
    assert all(r.passed for r in records)


def test_theta_encloses_the_direct_sum_on_the_suite_calls(suite_with_theta_calls):
    _, calls = suite_with_theta_calls
    assert len(calls) == 130
    for w, tau, target, prec in calls:
        assert_theta_encloses(w, tau, target, prec)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.5, 0.5),
    st.floats(math.log10(0.005), math.log10(5)),
    st.floats(-0.5, 0.5),
    st.floats(-1.5, 1.5),
    st.integers(64, PREC + 32),
    st.sampled_from([128, PREC]),
)
@example(0.0, 0.6875, 0.0, 1.5, 64, 128)  # growing terms with |q| ~ 2^-44
def test_theta_encloses_the_direct_sum(tau_re, log_t, w_re, w_im_ratio, target_bits, prec):
    # |Im w| up to 1.5 Im tau: the terms grow by up to e^(2.25 pi Im tau)
    # before they decay; targets below 2^-prec leave theta's own error
    # as the larger part of the radius. The example needs the guard's
    # allowance for the relative error of a small q
    t = mpf(10) ** log_t
    with working_precision(prec):
        tau = mpc(tau_re, t)
        w = mpc(w_re, w_im_ratio * t)
    assert_theta_encloses(w, tau, mpf(2) ** -target_bits, prec)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.5, 0.5),
    st.floats(0.3, 2),
    st.floats(-0.5, 0.5),
    st.floats(-0.3, 0.3),
    st.integers(64, PREC),
)
def test_qpochhammer_encloses_the_direct_product(tau_re, tau_im, w_re, w_im, target_bits):
    # a = e^(2 pi i w) and q = e^(2 pi i tau) rounded to exact points of the
    # 2^-W grid; the direct product at 2 PREC bits runs until a q^j < 2^-2PREC
    W = PREC + _GUARD_BITS
    with working_precision(2 * PREC):
        a, q = (exp(2j * pi * mpc(x, y)) for x, y in ((w_re, w_im), (tau_re, tau_im)))
        a_fix, q_fix = ((int(z.real * 2**W), int(z.imag * 2**W), 0) for z in (a, q))
    with working_precision(PREC):
        re, im, err = _qpochhammer(a_fix, q_fix, mpf(2) ** -target_bits, W)
    with working_precision(2 * PREC):
        a, q = (mpc(x, y) / 2**W for x, y, _ in (a_fix, q_fix))
        direct = mpc(1)
        while abs(a) > mpf(2) ** (-2 * PREC):
            direct *= 1 - a
            a *= q
        assert abs(direct - mpc(re, im) / 2**W) <= mpf(err) / 2**W


def test_fixed_exp_needs_w_plus_8_bits():
    with working_precision(PREC + 7):
        with pytest.raises(ValueError):
            _fixed_exp(mpc(0, 1), 1, PREC)
    with working_precision(PREC + 8):
        assert _fixed_exp(mpc(0), 1, PREC)[:2] == (1 << PREC, 0)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_exp_ball_encloses_mpmaths_exp(prec):
    # x exact and uniform in the disc |x| <= size, so size bounds all it is
    # formed from; at |e^x| >= e^-4 the radius is within the old 2^(4-prec) pad
    rng = random.Random(prec)
    for _ in range(60):
        size = rng.choice([1, 2, 4])
        r, angle = size * rng.random() ** 0.5, 2 * math.pi * rng.random()
        x = mpc(r * math.cos(angle), r * math.sin(angle))
        with working_precision(prec):
            ball = _exp_ball(lambda: x, size)
        with working_precision(2 * prec):
            ref = exp(x)
            assert abs(ball.re.value - ref.real) <= ball.re.err, x
            assert abs(ball.im.value - ref.imag) <= ball.im.err, x
            assert max(ball.re.err, ball.im.err) <= abs(ref) * mpf(2) ** (4 - prec), x


@pytest.fixture(scope="module")
def triple_product_points():
    """The (w, tau) of validation_suite's triple-product records."""
    points = []
    real = modularcheck._triple_product_record

    def recording(w, tau, prec):
        points.append((w, tau))
        return real(w, tau, prec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modularcheck, "_triple_product_record", recording)
        modularcheck.validation_suite(PREC)
    return points


def exp_balls(monkeypatch, run):
    """run()'s result and the balls its _exp_ball calls returned, in order."""
    balls = []
    real = modularcheck._exp_ball

    def recording(x, size):
        balls.append(real(x, size))
        return balls[-1]

    monkeypatch.setattr(modularcheck, "_exp_ball", recording)
    result = run()
    monkeypatch.setattr(modularcheck, "_exp_ball", real)
    return result, balls


def assert_encloses(ball, z):
    with working_precision(512):
        assert abs(ball.re.value - z.real) <= ball.re.err, z
        assert abs(ball.im.value - z.imag) <= ball.im.err, z
        assert max(ball.re.err, ball.im.err) <= abs(z) * mpf(2) ** (4 - PREC), z


def test_prefactor_balls_enclose_the_mpmath_expressions(monkeypatch, triple_product_points):
    # each _exp_ball prefactor against the mpmath expression it replaced, at
    # 512 bits on the same arguments; radii within the narrowest old pad
    assert len(triple_product_points) == 20
    for w, tau in triple_product_points:
        record, balls = exp_balls(monkeypatch, lambda: _triple_product_record(w, tau, PREC))
        assert record.passed and len(balls) == 1
        with working_precision(512):
            assert_encloses(balls[0], -1j * exp(pi * 1j * tau / 4) / sqrt(exp(2j * pi * w)))
    for h, k, z, w in _MULTIPLIER_TUPLES:
        records, balls = exp_balls(monkeypatch, lambda: _multiplier_records(h, k, z, w, PREC))
        assert all(r.passed for r in records) and len(balls) == 4
        with working_precision(PREC):
            zc, wc = mpc(*z), mpc(*w)
            taus = ((h + 1j * zc) / k, (neg_inverse(h, k) + 1j / zc) / k)
        with working_precision(512):
            assert_encloses(balls[0], 1j * exp(pi * 1j * taus[0] / 3))
            assert_encloses(balls[1], 1 / sqrt(zc))
            assert_encloses(balls[2], 1j * exp(pi * 1j * taus[1] / 3))
            assert_encloses(balls[3], sqrt(1j / zc) * exp(-pi * k * wc * wc / zc))


def test_triple_product_records_fail_on_the_other_branch(monkeypatch, triple_product_points):
    # the prefactor's exponent turned by a half-turn: zeta^(1/2) on the
    # wrong branch negates the right side
    real = modularcheck._exp_ball
    monkeypatch.setattr(modularcheck, "_exp_ball", lambda x, size: real(lambda: x() + pi * 1j, size + 4))
    records = [_triple_product_record(w, tau, PREC) for w, tau in triple_product_points]
    assert len(records) == 20 and not any(r.passed for r in records)


@pytest.mark.parametrize("w_re", ["0.7", "-0.9", "1.3", "-1.45"])
def test_triple_product_holds_beyond_the_principal_strip(w_re):
    # theta(w + 1) = -theta(w) while the products have period 1, so the
    # prefactor's zeta^(-1/2) is e^(-pi i w), not the principal root of zeta
    record = _triple_product_record(mpc(w_re, "0.1"), mpc("0.2", "0.9"), PREC)
    assert record.passed, record


def test_triple_product_at_spec_point():
    # theta = -i q^(1/8) zeta^(-1/2) (q;q)(zeta;q)(q/zeta;q) to 1e-20
    with working_precision(PREC):
        w = mpc("0.3", "0.1")
        tau = mpc("0.2", "0.9")
        lhs = as_mpc(theta(w, tau, TARGET, PREC))
        q = exp(2j * pi * tau)
        zeta = exp(2j * pi * w)

        def poch(a, terms=200):
            prod = mpc(1)
            x = mpc(a)
            for _ in range(terms):
                prod *= 1 - x
                x *= q
            return prod

        rhs = -1j * exp(pi * 1j * tau / 4) / sqrt(zeta) * poch(q) * poch(zeta) * poch(q / zeta)
        assert abs(lhs - rhs) < mpf(10) ** -20


def test_quasi_periodicity():
    with working_precision(PREC):
        w = mpc("0.17", "0.21")
        tau = mpc("0.31", "0.77")
        q = exp(2j * pi * tau)
        zeta = exp(2j * pi * w)
        base = theta(w, tau, TARGET, PREC)
        basec = as_mpc(base)
        for lam, mu in ((1, 0), (0, 1), (1, 1), (2, 1)):
            lhs = as_mpc(theta(w + lam * tau + mu, tau, TARGET, PREC))
            fac = (-1) ** (lam + mu) * q ** (-mpf(lam * lam) / 2) * zeta ** (-lam)
            rhs = fac * basec
            # the prefactor amplifies the base error bound
            budget = 4 * abs(fac) * (base.re.err + base.im.err) + mpf(10) ** -38
            assert abs(lhs - rhs) < budget


def test_eta_at_i():
    with working_precision(PREC):
        v = eta(mpc(0, 1), TARGET, PREC)
        with mpmath.workdps(60):
            ref = mpmath.gamma(mpf(1) / 4) / (2 * mpmath.pi ** mpf("0.75"))
        assert abs(v.re.value - ref) <= v.re.err + mpf(10) ** -55
        assert abs(v.im.value) <= v.im.err


@pytest.mark.parametrize("prec", [128, 256])
def test_eta_encloses_reference(prec):
    # the last tau has |q| = e^(-2 pi 0.0168) ~ 0.9: theta(tau; 3 tau) sums
    # 68 terms at 256 bits
    for tau in (mpc(0, 1), mpc("0.2", "0.8"), mpc("-0.45", "0.3"), mpc("0.1", "0.0168")):
        with working_precision(prec):
            v = eta(tau, mpf(2) ** -prec, prec)
        with mpmath.workprec(prec + 100):
            ref = exp(pi * 1j * tau / 12) * mpmath.qp(exp(2j * pi * tau))
            assert abs(v.re.value - ref.real) <= v.re.err
            assert abs(v.im.value - ref.imag) <= v.im.err


def test_eta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eta(mpc(0, -1), TARGET, PREC)
    with pytest.raises(ValueError):
        eta(mpc(1, 0), TARGET, PREC)
    with pytest.raises(ValueError):
        eta(mpc(0, 1), 0, PREC)


def test_eta_shift_by_one():
    with working_precision(PREC):
        tau = mpc("0.2", "0.8")
        lhs = as_mpc(eta(tau + 1, TARGET, PREC))
        rhs = exp(pi * 1j / 12) * as_mpc(eta(tau, TARGET, PREC))
        assert abs(lhs - rhs) < mpf(10) ** -40


def test_eta_inversion_at_2i():
    with working_precision(PREC):
        tau = mpc(0, 2)
        lhs = as_mpc(eta(-1 / tau, TARGET, PREC))
        rhs = sqrt(-1j * tau) * as_mpc(eta(tau, TARGET, PREC))
        assert abs(lhs - rhs) < mpf(10) ** -40


def dedekind_sum(h, k):
    """s(h, k) = sum_{r mod k} ((r/k)) ((hr/k)), by its definition in Fractions."""

    def saw(x):
        return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)

    return sum(saw(Fraction(r, k)) * saw(Fraction(h * r, k)) for r in range(k))


COPRIME_GRID = [(h, k) for k in range(1, 61) for h in range(k) if math.gcd(h, k) == 1]


def test_omega_is_6k_times_the_dedekind_sum():
    for h, k in COPRIME_GRID:
        assert omega_hk(h, k) == 6 * k * dedekind_sum(h, k), (h, k)


def test_dedekind_reciprocity():
    for h, k in COPRIME_GRID:
        if h == 0:
            continue
        lhs = Fraction(omega_hk(h, k), 6 * k) + Fraction(omega_hk(k, h), 6 * h)
        assert lhs == (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12 - Fraction(1, 4), (h, k)


def test_omega_trivial_level():
    # omega_{0,1} = omega_{1,1} = 1
    assert omega_hk(0, 1) == 0
    assert omega_hk(1, 1) == 0


def test_omega_1_5_is_tenth_root():
    # D = 6k s(1, 5) = 6, so omega = zeta_60^6 = e^(i pi/5), a tenth root of unity
    assert omega_hk(1, 5) == 6
    with working_precision(PREC):
        omega = ErrComplex.unit_root(omega_hk(1, 5), 60)
        with mpmath.workdps(80):
            ref = mpmath.exp(1j * mpmath.pi / 5)
        assert abs(as_mpc(omega) - ref) < mpf(10) ** -70


def solved_omega(h, k, z):
    """omega solved from eta((h+iz)/k) = e^(pi i (h-h')/12k) omega^-1 z^(-1/2) eta((h'+i/z)/k)."""
    hp = neg_inverse(h, k)
    num = eta((hp + 1j / z) / k, TARGET, PREC)
    den = eta((h + 1j * z) / k, TARGET, PREC)
    phase = exp(pi * 1j * (h - hp) / (12 * k)) / sqrt(z)
    pad = abs(phase) * mpf(2) ** (4 - PREC)
    return ErrComplex(ErrReal(phase.real, pad), ErrReal(phase.imag, pad)) * num / den


def test_omega_sample_point_independence():
    # the multiplier solved at z and at z + 1/4 encloses the closed form
    # zeta_{12k}^D each time, at the suite's tuples and two more levels
    tuples = [(h, k, z) for h, k, z, _ in _MULTIPLIER_TUPLES] + [(1, 1, ("0.9",)), (5, 12, ("0.8",))]
    with working_precision(PREC):
        for h, k, z in tuples:
            closed = ErrComplex.unit_root(omega_hk(h, k), 12 * k)
            for zz in (mpc(*z), mpc(*z) + mpf(1) / 4):
                solved = solved_omega(h, k, zz)
                assert max(solved.re.err, solved.im.err) < mpf(10) ** -35, (h, k, zz)
                diff = (solved - closed).abs()
                assert diff.value <= max(solved.re.err, solved.im.err) + max(closed.re.err, closed.im.err) + diff.err, (h, k, zz)


def test_omega_multiplier_unit_circle_various():
    # the multiplier solved from eta lies on the unit circle and is a
    # 24k-th root of unity; the closed form's exponent agrees, as D is
    # an integer with zeta_{12k}^(24k D) = 1
    with working_precision(PREC):
        for h, k in ((2, 5), (3, 10), (7, 10), (4, 15)):
            m = as_mpc(solved_omega(h, k, mpc("0.8")))
            assert abs(abs(m) - 1) < mpf(10) ** -40, (h, k)
            assert abs(m ** (24 * k) - 1) < mpf(10) ** -30, (h, k)
            assert isinstance(omega_hk(h, k), int)
            closed = as_mpc(ErrComplex.unit_root(omega_hk(h, k), 12 * k))
            assert abs(m - closed) < mpf(10) ** -35, (h, k)


def test_multiplier_records_fail_with_the_conjugate_multiplier(monkeypatch):
    with working_precision(PREC):
        good = _multiplier_records(1, 5, ("1",), ("0.3", "0.1"), PREC)
    assert [r.check for r in good] == ["eta-transformation", "theta-transformation"]
    assert all(r.passed for r in good)
    real = modularcheck.omega_hk
    monkeypatch.setattr(modularcheck, "omega_hk", lambda h, k: -real(h, k))
    with working_precision(PREC):
        bad = _multiplier_records(1, 5, ("1",), ("0.3", "0.1"), PREC)
    assert [r.passed for r in bad] == [False, False]


def test_suite_checks_eta_at_i_against_its_closed_form(monkeypatch):
    # the transformation records compare eta with itself; only the eta-at-i
    # record sees eta without its factor i, a constant that cancels there
    records = modularcheck.validation_suite(PREC)
    assert [r.check for r in records].count("eta-at-i") == 1
    assert records[-1].check == "eta-at-i" and records[-1].passed
    real = modularcheck.eta

    def eta_without_i(tau, target_err, prec=PREC):
        v = real(tau, target_err, prec)
        return ErrComplex(v.im, -v.re)  # v / i

    monkeypatch.setattr(modularcheck, "eta", eta_without_i)
    failed = [r.check for r in modularcheck.validation_suite(PREC) if not r.passed]
    assert failed == ["eta-at-i"]


# the records that evaluate no _exp_ball: f_eval or theta alone, or integers
_NO_EXP_BALL = {"conjugation-symmetry", "leading-asymptotic", "growth-classification"}


@pytest.mark.parametrize("prec", [256, 384, 512])
def test_suite_passes_within_its_reported_tolerance(prec):
    # a passing record's two enclosures meet, so its midpoint gap lies
    # within the hypot of the difference's radii, which no fixed slack widens
    records = modularcheck.validation_suite(prec)
    assert len(records) == 64 and all(r.passed for r in records)
    assert all(r.abs_diff <= r.tolerance for r in records)
    balls = [r for r in records if r.check not in ("leading-asymptotic", "growth-classification")]
    assert len(balls) == 60 and all(r.tolerance < 1e-35 for r in balls)


def test_every_record_using_a_shifted_exp_ball_fails(monkeypatch):
    # a 1e-30 shift on every _exp_ball value is far outside radii near 1e-40
    real = modularcheck._exp_ball
    monkeypatch.setattr(modularcheck, "_exp_ball", lambda x, size: real(x, size) + ErrReal(mpf(10) ** -30))
    records = modularcheck.validation_suite(PREC)
    assert sum(not r.passed for r in records) == 58
    assert all(r.passed == (r.check in _NO_EXP_BALL) for r in records)


def test_series_records_fail_with_a_corrupted_coefficient(monkeypatch):
    # c_1(10) off by one moves the right side by |q|^10, 1.5e-22 at the
    # larger Im tau, far outside the series records' radii (below 1e-50)
    real = modularcheck.q10_series_product

    def corrupted(delta, order):
        coeffs = list(real(delta, order).coeffs)
        coeffs[10] += 1
        return TruncatedSeries(coeffs, order)

    monkeypatch.setattr(modularcheck, "q10_series_product", corrupted)
    failed = [r.check for r in modularcheck.validation_suite(PREC) if not r.passed]
    assert failed == ["series-agreement", "series-agreement"]


def test_omega_rejects_bad_inverse():
    with pytest.raises(ValueError):
        omega_hk(2, 10)  # gcd(h,k) != 1
    with pytest.raises(ValueError):
        omega_hk(1, 0)  # k < 1


def test_f_eval_matches_series():
    for tau in (mpc("0.1", "0.5"), mpc("0.37", "0.8")):
        assert f_series_agreement(tau, PREC).passed


def test_f_conjugation_symmetry():
    with working_precision(PREC):
        tau = mpc("0.21", "0.64")
        a = as_mpc(f_eval(-mpc(tau).conjugate(), TARGET, PREC))
        b = mpc(as_mpc(f_eval(tau, TARGET, PREC))).conjugate()
        assert abs(a - b) < mpf(10) ** -40


@pytest.mark.parametrize(
    "h,k,z",
    [
        (2, 5, mpc(1)),
        (3, 10, mpc("0.8")),
        (7, 10, mpc("1.2", "0.3")),
        (1, 5, mpc("0.9", "-0.2")),
        (4, 15, mpc("1.05")),
    ],
)
def test_transformation_check(h, k, z):
    record = transformation_check_detail(h, k, z, PREC)
    assert record.passed
    assert record.abs_diff < 1e-15


def test_transformation_rejects_bad_z():
    with pytest.raises(ValueError):
        transformation_check_detail(2, 5, mpc("-1"), PREC)


def test_growth_classification_exhaustive():
    import math

    # growth exactly on (5, {2,3}) and (10, {3,7})
    got = {
        (d, nu2)
        for d in (5, 10)
        for nu2 in range(d)
        if math.gcd(nu2, d) == 1 and growth_classifier(d, nu2)
    }
    assert got == {(5, 2), (5, 3), (10, 3), (10, 7)}


def test_growth_classification_reciprocal_exhaustive():
    import math

    got = {
        (d, nu2)
        for d in (5, 10)
        for nu2 in range(d)
        if math.gcd(nu2, d) == 1 and growth_classifier(d, nu2, -1)
    }
    assert got == {(5, 1), (5, 4), (10, 1), (10, 9)}


def test_growth_classifier_complement_identity():
    import math

    # the two criteria are sign-flips of each other (the quantity never vanishes)
    for d in (5, 10):
        for nu2 in range(d):
            if math.gcd(nu2, d) != 1:
                continue
            assert growth_classifier(d, nu2) != growth_classifier(d, nu2, -1)


def test_growth_classifier_domain():
    with pytest.raises(ValueError):
        growth_classifier(7, 1)
    with pytest.raises(ValueError):
        growth_classifier(5, 5)
    with pytest.raises(ValueError):
        growth_classifier(10, 4)  # shares a factor with 10
    with pytest.raises(ValueError):
        growth_classifier(5, 2, 0)  # delta is +1 or -1
