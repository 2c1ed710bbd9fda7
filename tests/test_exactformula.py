"""Tests for the exact-formula evaluation, its tail machinery, and the
closing threshold inequalities.

The brute-force integer series is the oracle for every coefficient value.
The certified Weil-type tail bound is far above 1/2 at desk-scale cutoffs
(the analysis, with measured values, is in the module docstring of
tests/test_acceptance.py and in the README section "Criterion 3 and the
tail bound"), so `definitive` is expected False; rounding correctness is
asserted against the oracle.
"""

import json
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from mpmath import mpf

from qsign.exactformula import (
    _DIVISOR_PARTIALS,
    _TAIL_BOUNDS,
    ImaginaryResidueError,
    _imag_guard,
    _pass_bits,
    _term_plan,
    c_exact,
    default_k_max,
    error_bound_total,
    main_error_split,
    main_term,
    shifted_index,
    tail_bound_op,
    threshold_lhs,
)
from qsign.arithmetic import _GUARD_BITS, _ROOT_TABLES, _akj_exponent_table, clear_caches
from qsign.numerics import ErrComplex, ErrReal, _fixed_ball, working_precision, zeta_3_2
from qsign.qseries import POSITIVE_RESIDUES, q10_series


def test_shifted_index():
    assert shifted_index(1, 10) == 53
    assert shifted_index(-1, 10) == 47
    with pytest.raises(ValueError):
        shifted_index(0, 10)


def term(delta, n, k, prec=128):
    """The k-th summand of the exact formula, as c_exact forms it, with each
    fixed-point part rounded into a ball."""
    with working_precision(prec):
        w, plan = _term_plan(delta, n, prec)
        re, im, re_err, im_err = plan(k)
        return ErrComplex(_fixed_ball(re, re_err, 2 * w), _fixed_ball(im, im_err, 2 * w))


def test_term_k10_equals_main_term():
    for delta, n in ((1, 10), (1, 17), (1, 100), (-1, 25)):
        t = term(delta, n, 10)
        _imag_guard(t.im)
        m = main_term(delta, n)
        assert abs(t.re.value - m.value) <= 4 * (t.re.err + m.err) + mpf("1e-30")


def test_term_k_domain():
    with pytest.raises(ValueError):
        term(1, 10, 12)  # gcd(k,10)=2
    with pytest.raises(ValueError):
        term(-1, 1, 10)  # inner index not positive
    with pytest.raises(ValueError):
        term(1, 0, 10)


def test_imaginary_guard():
    _imag_guard(ErrReal(mpf("1e-40"), mpf("1e-30")))
    with pytest.raises(ImaginaryResidueError):
        _imag_guard(ErrReal(mpf("0.5"), mpf("1e-30")))
    # exactly when 0 lies outside the ball, however small the residue
    _imag_guard(ErrReal(mpf("1e-13"), mpf("1e-13")))
    with pytest.raises(ImaginaryResidueError):
        _imag_guard(ErrReal(mpf("1e-13"), 0))


@pytest.mark.parametrize("delta,n", [(1, 30), (1, 47), (-1, 25), (-1, 12)])
def test_c_exact_rounds_to_oracle(delta, n):
    ev = c_exact(delta, n)
    oracle = q10_series(delta, n).coefficient(n)
    assert ev.rounded == oracle
    assert ev.gap + ev.err < mpf("0.5")
    assert not ev.definitive  # Weil-type tail certificate is O(100) here
    assert (ev.prec, ev.escalations) == (128, 0)
    assert ev.tail_bound > 1


def test_c_exact_escalates_precision_only():
    # at 16 bits the numeric error exceeds 1/4 and one doubling cures it;
    # the cutoff stays at its default
    ev = c_exact(1, 300, prec=16)
    assert ev.prec == 32
    assert ev.escalations == 1
    assert ev.to_dict()["prec"] == 32 and ev.to_dict()["escalations"] == 1
    assert ev.k_max == default_k_max(1, 300) == 170
    assert ev.err <= mpf(1) / 4
    assert ev.rounded == 65561 == q10_series(1, 300).coefficient(300)


def test_c_exact_runs_one_pass_at_the_precision_it_reports():
    # _pass_bits(1, 1000, 309) = 50, so 16 bits double twice, to 64, before
    # any table is built: none is left at 16 or 32 bits
    clear_caches()
    ev = c_exact(1, 1000, prec=16)
    assert (ev.prec, ev.escalations) == (64, 2)
    assert {prec for _, prec in _ROOT_TABLES} == {ev.prec}


@pytest.mark.parametrize("delta", [1, -1])
def test_c_exact_reaches_a_quarter_from_any_requested_floor(delta):
    # 16 bits double three times, to 128: the bit count of _term_plan's
    # proof, not a capped search, sets the precision
    series = q10_series(delta, 6000)
    for n in (3000, 6000):
        ev = c_exact(delta, n, prec=16)
        assert (ev.prec, ev.escalations) == (128, 3)
        assert ev.err <= mpf(1) / 4
        assert ev.rounded == series.coefficient(n)


def test_pass_bits_keep_the_criterion_3_indices_at_128():
    for delta in (1, -1):
        for n in range(10, 301):
            assert _pass_bits(delta, n, default_k_max(delta, n)) <= 128
    assert 128 < _pass_bits(1, 20000, default_k_max(1, 20000)) <= 256


def test_c_exact_at_512_bits_asks_zeta_no_finer_than_2_to_minus_128(monkeypatch):
    # zeta_3_2's term count grows as target^(-2/17): 2^-256 would be 7e8 terms
    import qsign.exactformula as ef

    targets = []

    def spy(target):
        targets.append(target)
        return zeta_3_2(target)

    monkeypatch.setattr(ef, "zeta_3_2", spy)
    ev = c_exact(1, 10, prec=512)
    assert ev.rounded == q10_series(1, 10).coefficient(10)
    assert ev.gap + ev.err < mpf("0.5")
    assert ev.prec == 512
    main_error_split(1, 10, prec=512)
    assert targets and min(targets) == mpf(2) ** -128
    # at 256 bits and below the target is 2^(-prec/2), as before
    for prec in (64, 127, 256):
        targets.clear()
        tail_bound_op(1, 10, 50, prec)
        error_bound_total(1, 10, prec)
        assert set(targets) == {mpf(2) ** (-prec // 2)}


# -- the integer term loop ------------------------------------------------------


def _q(x):
    return Fraction(int(x.man)) * Fraction(2) ** int(x.exp) if x else Fraction(0)


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("n", [10, 11, 29, 47, 64, 103, 117, 181, 256, 300])
def test_c_exact_agrees_across_precisions(delta, n):
    # the 128- and 512-bit enclosures overlap: |v128 - v512| <= err128 + err512
    low, high = c_exact(delta, n), c_exact(delta, n, prec=512)
    assert (low.prec, high.prec) == (128, 512)
    assert low.rounded == high.rounded
    assert abs(_q(low.value) - _q(high.value)) <= _q(low.err) + _q(high.err)
    assert high.err < low.err


def _reference_factor(delta, n, k):
    """(prefix / k) I1(x_k) at the ambient mpmath precision."""
    nn = shifted_index(delta, n)
    root = mpmath.sqrt(2 * (gcd(k, 10) - 4) * nn)
    return mpmath.pi * root / nn / k * mpmath.besseli(1, 2 * mpmath.pi * root / (5 * k))


def _reference_twist(delta, n, k):
    """A_k(n) or cal A_k(n), term by term at the ambient mpmath precision."""
    js, m = ((3, -3), n) if delta == 1 else ((1, -1), -n)
    exps = [base + m * step for j in js for base, step in _akj_exponent_table(k, j)]
    total = mpmath.fsum(mpmath.expjpi(mpf(2 * e) / (10 * k)) for e in exps)
    return total if delta == 1 else mpmath.conj(total)


TERM_INDICES = [(1, 10), (1, 83), (1, 300), (-1, 12), (-1, 47), (-1, 211)]


@pytest.mark.parametrize("prec", [16, 64, 128])
def test_term_parts_enclose_the_reference(prec):
    for delta, n in TERM_INDICES:
        with working_precision(prec):
            w, plan = _term_plan(delta, n, prec)
            parts = {k: plan(k) for k in range(5, default_k_max(delta, n) + 1, 5)}
        with mpmath.workprec(2 * w + 200):
            for k, (re, im, re_err, im_err) in parts.items():
                ref = _reference_twist(delta, n, k) * _reference_factor(delta, n, k) * 2 ** (2 * w)
                assert abs(ref.real - re) <= re_err, (delta, n, k)
                assert abs(ref.imag - im) <= im_err, (delta, n, k)


@pytest.mark.parametrize("prec", [16, 64, 128])
def test_term_factor_encloses_the_reference(prec, monkeypatch):
    # with an exact twist of 2 only the factor's own error is left: the
    # prefix, the Bessel argument's floor and its charge, and the floors
    import qsign.exactformula as ef

    monkeypatch.setattr(ef, "_twist_totals", lambda k, n, twisted: (2 << (mpmath.mp.prec + _GUARD_BITS), 0, 0))
    for delta, n in TERM_INDICES + [(1, 29), (1, 160), (-1, 103), (-1, 256)]:
        with working_precision(prec):
            w, plan = _term_plan(delta, n, prec)
            parts = {k: plan(k) for k in range(5, default_k_max(delta, n) + 1, 5)}
        with mpmath.workprec(2 * w + 200):
            for k, (re, im, re_err, im_err) in parts.items():
                ref = 2 * _reference_factor(delta, n, k) * 2 ** (2 * w)
                assert abs(ref - re) <= re_err, (delta, n, k)
                assert im == im_err == 0


def test_c_exact_domain():
    with pytest.raises(ValueError):
        c_exact(-1, 1)
    with pytest.raises(ValueError):
        c_exact(1, 30, k_max=9)
    with pytest.raises(ValueError):
        c_exact(1, 30, k_max=20)  # below tail-bound validity threshold


def test_c_exact_json_schema():
    import jsonschema
    from pathlib import Path

    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "src/qsign/schemas/exact.schema.json").read_text()
    )
    payload = c_exact(1, 20).to_dict()
    jsonschema.validate(payload, schema)


# -- tail bound -------------------------------------------------------------------


# c_exact at its defaults with every radius rounded up: rounded, tail_bound as
# (man, exp), and err rounded up at five digits. Error bars may only shrink;
# the tail bound is the same sum in the same order, so it stays bit-identical.
PINNED_ROWS = {
    (1, 10): (1, (2349783457054247324208964364651153122134759585137641987949, -184), "3.2102e-37"),
    (1, 29): (2, (2349783457054247324208964364651153122134759585137641987949, -184), "1.3278e-36"),
    (1, 117): (-16, (7596687482809915961475965161437159431500194443366164919143, -186), "1.4814e-35"),
    (1, 300): (65561, (1621807851244383513715652995506114101205059827855923463679, -184), "5.4283e-32"),
    (-1, 10): (1, (2349783457054247324208964364651153122134759585137641987949, -184), "3.048e-37"),
    (-1, 103): (63, (1901746946174174371162319055120150529223051978551496479389, -184), "5.3475e-35"),
    (-1, 300): (83312, (1621807851244383513715652995506114101205059827855923463679, -184), "6.9296e-32"),
}

# the tail bound's bits when each ErrReal operation rounded its radius to
# nearest and padded it by 2^(6-prec) relative; the pinned bits may only be lower
PADDED_TAILS = {
    (1, 10): (9399133828216989296835857458604612488659676352748413324549, -186),
    (1, 29): (9399133828216989296835857458604612488659676352748413324549, -186),
    (1, 117): (237396483837809873796123911294911232238247957071804946703, -181),
    (1, 300): (3243615702488767027431305991012228202473315366807820174515, -185),
    (-1, 10): (9399133828216989296835857458604612488659676352748413324549, -186),
    (-1, 103): (7606987784696697484649276220480602117015879861082373109583, -186),
    (-1, 300): (3243615702488767027431305991012228202473315366807820174515, -185),
}


def _assert_pinned_tail(bound, delta, n):
    man, exp = bound.man, bound.exp
    assert (man, exp) == PINNED_ROWS[(delta, n)][1]
    padded_man, padded_exp = PADDED_TAILS[(delta, n)]
    assert Fraction(man) * Fraction(2) ** exp <= Fraction(padded_man) * Fraction(2) ** padded_exp


@pytest.mark.parametrize("delta,n", sorted(PINNED_ROWS))
def test_c_exact_error_bars_only_shrink(delta, n):
    rounded, _, err = PINNED_ROWS[(delta, n)]
    ev = c_exact(delta, n)
    assert ev.rounded == rounded
    _assert_pinned_tail(ev.tail_bound, delta, n)
    assert ev.err <= mpf(err)


@pytest.mark.parametrize("delta,n", [(1, 10), (1, 117), (1, 300)])
def test_tail_bound_op_is_pinned(delta, n):
    # at K = 50, 107, 170, bit-identical whether the divisor-tail prefix
    # sums and the finished bounds start empty or were already extended
    # past K//5
    K = default_k_max(delta, n)
    _DIVISOR_PARTIALS.clear()
    _TAIL_BOUNDS.clear()
    first = tail_bound_op(delta, n, K)
    tail_bound_op(delta, n, 500)
    again = tail_bound_op(-delta, 10, K)
    for bound in (first, again):
        _assert_pinned_tail(bound, delta, n)


def test_tail_bound_validity_threshold():
    # (4 pi/5) sqrt(3 * 53) ~ 31.7 at n = 10
    with pytest.raises(ValueError):
        tail_bound_op(1, 10, 31)
    assert tail_bound_op(1, 10, 32) > 0


def test_tail_bound_validity_test_is_the_ball_test_on_either_side_of_the_threshold():
    # for every n <= 20000 of both signs: K = ceil(t) passes and K = ceil(t)
    # - 1 raises, t = (4 pi/5) sqrt(3 nn) at 256 bits, and t is far enough
    # from an integer for any 128-bit test to decide the same; on every
    # 25th n, the 128-bit ball test K < hi of pi_err() 4/5 sqrt(3 nn)
    # rejects exactly the same one of the two cutoffs
    from qsign.exactformula import _PI_UP
    from qsign.numerics import pi_err

    with mpmath.workprec(300):
        assert 0 <= _PI_UP - mpmath.pi * 2**128 < 3
    for delta, first in ((1, 1), (-1, 2)):
        for n in range(first, 20001):
            nn = shifted_index(delta, n)
            with mpmath.workprec(256):
                t = 4 * mpmath.pi / 5 * mpmath.sqrt(3 * nn)
                top = int(mpmath.ceil(t))
                assert min(top - t, t - (top - 1)) > mpf(2) ** -100, (delta, n)
            assert tail_bound_op(delta, n, top) > 0
            with pytest.raises(ValueError):
                tail_bound_op(delta, n, top - 1)
            if n % 25 == 0:
                with working_precision(128):
                    hi = (pi_err() * 4 / 5 * ErrReal(3 * nn).sqrt()).hi
                assert [mpf(K) < hi for K in (top - 1, top)] == [True, False], (delta, n)


def test_tail_bound_decreases_and_vanishes():
    n = 30
    k0 = default_k_max(1, n)
    prev = None
    ratios = []
    for mult in (1, 2, 4, 8):
        bound = tail_bound_op(1, n, k0 * mult)
        if prev is not None:
            ratios.append(float(prev / bound))
        assert prev is None or bound < prev
        prev = bound
    # the divisor-weighted tail halves slower than sqrt(2) per doubling
    assert all(1.15 <= r < 1.5 for r in ratios)


def test_tail_bound_below_full_constant_form():
    # full-constant form: (32 pi^2/125 + 108 sqrt6 pi^2/125) zeta(3/2)^2
    with working_precision(128):
        import qsign.numerics as nm

        z2 = nm.zeta_3_2(mpf("1e-20"))
        z2 = z2 * z2
        pi2 = nm.pi_err() * nm.pi_err()
        full = (pi2 * 32 / 125 + pi2 * ErrReal(6).sqrt() * 108 / 125) * z2
        assert tail_bound_op(1, 30, default_k_max(1, 30)) < full.lo


def test_tail_bound_is_a_valid_truncation_bound():
    # |partial(K2) - partial(K1)| <= tail_bound(K1)
    for delta, n in ((1, 40), (-1, 33)):
        k1 = default_k_max(delta, n)
        e1 = c_exact(delta, n, k_max=k1)
        e2 = c_exact(delta, n, k_max=2 * k1)
        assert abs(e2.value - e1.value) <= e1.tail_bound


# -- main term and sign soundness ---------------------------------------------------


def test_main_term_sign_follows_positive_residues():
    # For n >= 50 the main term dominates nothing yet, but its sign is the
    # cosine's sign, which matches the claimed pattern class by class.
    for delta in (1, -1):
        for n in range(50, 70):
            m = main_term(delta, n)
            assert m.lo > 0 or m.hi < 0
            expected_positive = n % 10 in POSITIVE_RESIDUES[delta]
            assert (m.lo > 0) == expected_positive


def test_cosine_lower_bound_over_classes():
    # |cos(2 pi (4/25 + 3n/10))| >= |cos(13 pi/25)| for every class n mod 10
    from qsign.numerics import ErrComplex

    with working_precision(128):
        floor = abs(ErrComplex.unit_root(13, 50).re.value)
        worst = min(
            abs(ErrComplex.unit_root(16 + 30 * n, 100).re.value) for n in range(10)
        )
        assert worst >= floor - mpf("1e-30")
        # and the delta=-1 analogue with |cos(14 pi/25)|
        floor_m = abs(ErrComplex.unit_root(14, 50).re.value)
        worst_m = min(
            abs(ErrComplex.unit_root(12 - 10 * n, 100).re.value) for n in range(10)
        )
        assert worst_m >= floor_m - mpf("1e-30")


def test_error_bound_total_conclusive_at_thresholds():
    s1 = main_error_split(1, 2929)
    assert s1.conclusive
    assert s1.error_bound / abs(s1.main.value) < 1
    s2 = main_error_split(-1, 2234)
    assert s2.conclusive


def test_error_bound_ratio_decreasing_on_sample():
    prev = None
    for n in (3000, 5000, 10000):
        s = main_error_split(1, n)
        ratio = s.error_bound / abs(s.main.value)
        assert prev is None or ratio < prev
        prev = ratio


def test_sign_soundness_where_conclusive():
    series = {d: q10_series(d, 2935) for d in (1, -1)}
    for delta in (1, -1):
        for n in (2929, 2930, 2934):
            split = main_error_split(delta, n)
            if not split.conclusive:
                continue
            coeff = series[delta].coefficient(n)
            main = split.main
            assert main.lo > 0 or main.hi < 0
            assert (coeff > 0) == (main.lo > 0)


def test_error_bound_domain():
    with pytest.raises(ValueError):
        error_bound_total(1, 8)  # corrected index needs n >= 9
    with pytest.raises(ValueError):
        error_bound_total(-1, 11)


# -- threshold inequality --------------------------------------------------------------


def test_threshold_values_at_paper_cutoffs():
    v1 = threshold_lhs(1, 2929)
    assert v1.hi < 1
    assert v1.value > mpf("0.99")  # the inequality is sharp there
    assert v1.err < mpf("1e-6") * v1.value
    v2 = threshold_lhs(-1, 2234)
    assert v2.hi < 1
    assert v2.value > mpf("0.99")


def test_threshold_fails_just_below_cutoffs():
    assert threshold_lhs(1, 2928).lo > 1
    assert threshold_lhs(-1, 2233).lo > 1


def test_threshold_not_yet_effective_at_small_n():
    assert threshold_lhs(1, 100).lo > 1


def test_threshold_decreasing_sample():
    prev = None
    for n in (2929, 3000, 4000, 10000, 100000):
        v = threshold_lhs(1, n)
        assert v.hi < 1
        assert prev is None or v.value < prev
        prev = v.value


def test_threshold_reciprocal_sample_points():
    for n in (2234, 2500, 10000):
        assert threshold_lhs(-1, n).hi < 1


def test_threshold_lhs_meets_its_goal_in_one_pass(monkeypatch):
    # nn = 5 10^44 + 8 has 149 bits: one pass at 106 bits, where a search
    # from 96 bits needed a second pass at 192
    import qsign.exactformula as ef

    calls = []

    def spy(target):
        calls.append(target)
        return zeta_3_2(target)

    monkeypatch.setattr(ef, "zeta_3_2", spy)
    v = threshold_lhs(1, 10**44)
    assert len(calls) == 1
    assert v.hi < 1
    assert v.err < mpf(10) ** -7 * v.value


def test_threshold_domain():
    with pytest.raises(ValueError):
        threshold_lhs(1, 7)
    with pytest.raises(ValueError):
        threshold_lhs(-1, 11)
    with pytest.raises(ValueError):
        threshold_lhs(2, 100)


def test_default_k_max_monotone():
    assert default_k_max(1, 10) == 50  # floor applies
    assert default_k_max(1, 300) > default_k_max(1, 100) > 50
