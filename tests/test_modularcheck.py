"""Tests for the modular backbone at 256-bit working precision.

References: eta(i) = Gamma(1/4) / (2 pi^(3/4)); the classical value of the
(1,5) multiplier is e^(i pi / 5) (Dedekind sum 1/5); everything else is
checked by comparing two independently evaluated sides.
"""

import mpmath
import pytest
from mpmath import exp, mpc, mpf, pi, sqrt

from qsign.modularcheck import (
    eta,
    f_eval,
    f_series_agreement,
    growth_classifier,
    omega_hk,
    theta,
    transformation_check_detail,
)
from qsign.numerics import working_precision

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
    # the last tau has |q| = e^(-2 pi 0.0168) ~ 0.9, about 1700 factors at 256 bits
    for tau in (mpc(0, 1), mpc("0.2", "0.8"), mpc("-0.45", "0.3"), mpc("0.1", "0.0168")):
        with working_precision(prec):
            v = eta(tau, mpf(2) ** -prec, prec)
        with mpmath.workprec(prec + 100):
            ref = exp(pi * 1j * tau / 12) * mpmath.qp(exp(2j * pi * tau))
            assert abs(v.re.value - ref.real) <= v.re.err
            assert abs(v.im.value - ref.imag) <= v.im.err


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


def test_omega_trivial_level():
    with working_precision(PREC):
        m = omega_hk(1, 1, 0, mpc("0.9"), TARGET, PREC)
        assert abs(as_mpc(m.omega) - 1) < mpf(10) ** -40


def test_omega_1_5_is_tenth_root():
    with working_precision(PREC):
        m = omega_hk(1, 5, 4, mpc("0.7"), TARGET, PREC)
        assert abs(m.unit_modulus_defect().value) < mpf(10) ** -40
        assert m.root_of_unity_defect().value < mpf(10) ** -40
        with mpmath.workdps(80):
            ref = mpmath.exp(1j * mpmath.pi / 5)
        assert abs(as_mpc(m.omega) - ref) < mpf(10) ** -40


def test_omega_sample_point_independence():
    with working_precision(PREC):
        a = omega_hk(1, 5, 4, mpc("0.7"), TARGET, PREC)
        b = omega_hk(1, 5, 4, mpc("1.3"), TARGET, PREC)
        assert abs(as_mpc(a.omega) - as_mpc(b.omega)) < mpf(10) ** -40


def test_omega_multiplier_unit_circle_various():
    with working_precision(PREC):
        for h, k in ((2, 5), (3, 10), (7, 10), (4, 15)):
            hp = (-pow(h, -1, k)) % k
            m = omega_hk(h, k, hp, mpc("0.8"), TARGET, PREC)
            assert abs(m.unit_modulus_defect().value) < mpf(10) ** -40
            assert m.root_of_unity_defect().value < mpf(10) ** -30


def test_omega_rejects_bad_inverse():
    with pytest.raises(ValueError):
        omega_hk(2, 5, 1, mpc("0.8"), TARGET, PREC)  # 2*1 != -1 mod 5
    with pytest.raises(ValueError):
        omega_hk(2, 10, 1, mpc("0.8"), TARGET, PREC)  # gcd(h,k) != 1
    with pytest.raises(ValueError):
        omega_hk(1, 5, 4, mpc("-0.5"), TARGET, PREC)  # Re z <= 0


def test_f_eval_matches_series():
    for tau in (mpc("0.1", "0.5"), mpc("0.37", "0.8")):
        assert f_series_agreement(tau, order=60, prec=PREC) < mpf(10) ** -15


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
    record = transformation_check_detail(h, k, z, 1e-15, PREC)
    assert record.passed
    assert record.abs_diff < 1e-15


def test_transformation_rejects_bad_z():
    with pytest.raises(ValueError):
        transformation_check_detail(2, 5, mpc("-1"), 1e-15, PREC)


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
