"""The mutant ledger: small wrong edits to the program that the tests must catch.

Each entry names a file (relative to the repository root), a text that
occurs in it exactly once, the text that replaces it, and the tests that
must fail once the edit is made. An entry that no test can catch says why
in ``not_pinnable`` instead. ``tests/test_mutants.py`` checks in tier 1
that every entry's old text still occurs exactly once and that every test
it names is defined in its file, so an edit that moves the code or the
tests out from under a mutant shows at once.

Run the mutants from the repository root with

    python -m tests.mutants [name ...]

Each one is applied to a copy of ``src/``, ``tests/`` and
``pyproject.toml`` in a temporary directory, and its tests run there with
pytest. A mutant survives when one of its tests passes; a parametrized
test named without its parameters fails when any of its instances does.
The runner prints one line per mutant with its verdict and time, and
exits 1 if any survive.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killed_by: tuple[str, ...] = ()
    not_pinnable: str = ""


_QSERIES = "src/qsign/qseries.py"
_NUMERICS = "src/qsign/numerics.py"
_MODULAR = "src/qsign/modularcheck.py"
_MODULAR_TESTS = "tests/test_modularcheck.py"
_VERIFIER = "src/qsign/verifier.py"
_EXACT = "src/qsign/exactformula.py"
_EXACT_TESTS = "tests/test_exactformula.py"
_ARITHMETIC = "src/qsign/arithmetic.py"
_ARITHMETIC_TESTS = "tests/test_arithmetic.py"
_CLI_TESTS = "tests/test_verifier_cli.py"
_FLAGGED = f"{_CLI_TESTS}::test_verify_flags_a_flipped_sign_and_an_extra_zero"
_ORACLE = f"{_EXACT_TESTS}::test_c_exact_rounds_to_oracle"
_CRITERION_3 = "tests/test_acceptance.py::test_criterion_3_exact_formula_definitive_rounding"
# the Bessel charges' common reason, when a test cannot drive their error source to its bound
_BESSEL_SLACK = (
    "the true errors sit far below the worst-case bounds, and pre_err's share of "
    "f_err covers them: without this charge every term and c_exact test still encloses its reference"
)

MUTANTS = (
    Mutant(
        "divide-pads-with-block",
        _QSERIES,
        "near + [start] * (6 - cut)",
        "near + [_BLOCK] * (6 - cut)",
        (
            "tests/test_qseries.py::test_sparse_divide_runs_full_blocks_across_the_machine_word_edge[1]",
            "tests/test_qseries.py::test_sparse_divide_runs_full_blocks_across_the_machine_word_edge[-1]",
        ),
    ),
    Mutant(
        "divide-drops-sixth-near-term",
        _QSERIES,
        "buf[i - e5] - buf[i - e6]",
        "buf[i - e5]",
        (
            "tests/test_qseries.py::test_theta_division_matches_both_oracles_at_every_small_order[1]",
            "tests/test_qseries.py::test_theta_division_matches_both_oracles_at_every_small_order[-1]",
            "tests/test_qseries.py::test_q10_matches_factorwise_route",
        ),
    ),
    Mutant(
        "divide-block-from-eighth-exponent",
        _QSERIES,
        "min(_BLOCK, den[6]) if",
        "min(_BLOCK, den[7]) if",
        (
            "tests/test_qseries.py::test_sparse_divide_with_seven_or_more_short_exponents[den1]",
        ),
    ),
    Mutant(
        "series-hands-over-a-list",
        _QSERIES,
        "coeffs = tuple(coeffs)",
        "coeffs = list(coeffs)",
        (
            "tests/test_qseries.py::test_q10_series_hands_over_a_tuple_of_ints[1]",
            "tests/test_qseries.py::test_q10_series_hands_over_a_tuple_of_ints[-1]",
            "tests/test_qseries.py::test_q10_constant_term",
        ),
    ),
    Mutant(
        "zeta-flips-bernoulli-signs",
        _NUMERICS,
        "total += (p * num << u) // (q * den)",
        "total -= (p * num << u) // (q * den)",
        (
            "tests/test_numerics.py::test_zeta_reference_value",
            "tests/test_numerics.py::test_zeta_bracket_width_meets_target",
            "tests/test_numerics.py::test_zeta_square",
        ),
    ),
    Mutant(
        "zeta-stops-early",
        _NUMERICS,
        "if abs(p) * num << u + 4 < q * den:",
        "if abs(p) * num << u - 8 < q * den:",
        not_pinnable=(
            "the omitted term is charged as computed, so stopping at 2^-(u-8) "
            "stays sound and only widens the unrounded interval: hi - lo moves "
            "from 1 to 2 at one width in 1..1000, w = 10, and at none of the tested widths"
        ),
    ),
    Mutant(
        "zeta-drops-remainder-charge",
        _NUMERICS,
        "rest = (abs(p) * num << u) // (q * den) + 1",
        "rest = 0",
        not_pinnable=(
            "the omitted term is below 2^-(u+4) and the true remainder below it; "
            "without its one-unit charge at 2^-u both ends still enclose "
            "2^w zeta(3/2) at every w in 1..1099"
        ),
    ),
    Mutant(
        "zeta-drops-floor-charge",
        _NUMERICS,
        "((partial + a - 1) << u)",
        "((partial) << u)",
        ("tests/test_numerics.py::test_zeta_reference_value",),
    ),
    Mutant(
        "theta-drops-its-tail",
        _MODULAR,
        "err + tail, W, prec)",
        "err, W, prec)",
        (
            f"{_MODULAR_TESTS}::test_suite_record_mix",
            f"{_MODULAR_TESTS}::test_theta_encloses_the_direct_sum_on_the_suite_calls",
            f"{_MODULAR_TESTS}::test_theta_encloses_the_direct_sum",
        ),
    ),
    Mutant(
        "theta-ratio-test-at-one",
        _MODULAR,
        "2 * (nr + r[2]) <= one",
        "nr + r[2] <= one",
        (
            f"{_MODULAR_TESTS}::test_theta_terms_cap",
            f"{_MODULAR_TESTS}::test_theta_encloses_the_direct_sum",
        ),
    ),
    Mutant(
        "theta-stops-on-one-side",
        _MODULAR,
        "for (nt, nr), (_, r) in zip(norms, walk)",
        "for (nt, nr), (_, r) in zip(norms[:1], walk)",
        (
            f"{_MODULAR_TESTS}::test_theta_encloses_the_direct_sum",
            f"{_MODULAR_TESTS}::test_theta_encloses_the_direct_sum_on_the_suite_calls",
            f"{_MODULAR_TESTS}::test_suite_error_bars_only_shrink",
        ),
    ),
    Mutant(
        "theta-goal-without-its-factor-4",
        _MODULAR,
        "4 * nt <= goal",
        "nt <= goal",
        (
            f"{_MODULAR_TESTS}::test_theta_encloses_the_direct_sum_on_the_suite_calls",
            f"{_MODULAR_TESTS}::test_suite_error_bars_only_shrink",
        ),
    ),
    Mutant(
        "theta-guard-drops-its-lost-bits",
        _MODULAR,
        "max(-top, lost)",
        "-top",
        (f"{_MODULAR_TESTS}::test_theta_guard_keeps_growing_terms_to_the_value_s_last_place",),
    ),
    Mutant(
        "theta-guard-drops-its-cap-bits",
        _MODULAR,
        "2 * _THETA_TERMS.bit_length()",
        "0",
        not_pinnable=(
            "the carried bounds hold at any W, which only sets their size; the carried errors grow "
            "far more slowly than the M^3 units the guard allows for, so without it every radius still "
            "sits within its tested limit: every test of test_modularcheck.py, test_acceptance.py "
            "and test_verifier_cli.py still passes"
        ),
    ),
    Mutant(
        "bessel-pi-lo-from-upper-end",
        _NUMERICS,
        "_pi_fixed(prec + 10) - 1, -(prec + 10)",
        "_pi_fixed(prec + 10) + 2, -(prec + 10)",
        not_pinnable=(
            "pi_lo rises by about 2^-(prec+10) relative; the large-x check refutes "
            "only where its slack, about 3/(4x), falls below bessel_i1's 2^(-prec/2) "
            "relative width (x near 2^(prec/2), where I1 cannot be evaluated), and "
            "the rise flips a verdict only within 2^-(prec+10) of that edge"
        ),
    ),
    Mutant(
        "sweep-control-at-shift-0",
        _VERIFIER,
        "(15, 2, 1, 1)",
        "(15, 2, 1, 0)",
        (
            "tests/test_acceptance.py::test_criterion_4_kloosterman_suite",
            f"{_CLI_TESTS}::test_small_sweep_passes",
            f"{_CLI_TESTS}::test_cli_sweeps",
        ),
    ),
    Mutant(
        "sweep-control-d10-at-shift-0",
        _VERIFIER,
        "(20, 3, 1, 2)",
        "(20, 3, 1, 0)",
        (
            f"{_CLI_TESTS}::test_small_sweep_passes",
            f"{_CLI_TESTS}::test_cli_sweeps",
        ),
    ),
    Mutant(
        "sign-report-positive-class-with-a-zero",
        _VERIFIER,
        "min(tail) > 0",
        "min(tail) >= 0",
        (
            f"{_FLAGGED}[zeros-past-50]",
            f"{_FLAGGED}[zeros-past-the-last-exception-minus]",
            f"{_FLAGGED}[n-max-3-mod-10-minus]",
        ),
    ),
    Mutant(
        "sign-report-negative-class-with-a-zero",
        _VERIFIER,
        "max(tail) < 0",
        "max(tail) <= 0",
        (
            f"{_FLAGGED}[flipped-sign-and-extra-zero]",
            f"{_FLAGGED}[zero-just-past-the-last-exception]",
            f"{_FLAGGED}[n-max-50]",
        ),
    ),
    Mutant(
        "sign-report-skips-a-class",
        _VERIFIER,
        "head + 10",
        "head + 9",
        (
            f"{_FLAGGED}[wrong-sign-in-a-negative-class]",
            f"{_CLI_TESTS}::test_verdict_string_is_the_per_index_verdicts",
        ),
    ),
    Mutant(
        "sign-report-lists-unsorted",
        _VERIFIER,
        "found.sort()",
        "found",
        (f"{_FLAGGED}[zeros-past-50]",),
    ),
    Mutant(
        "threshold-k3-halved",
        _EXACT,
        "exact(864)",
        "exact(432)",
        (
            f"{_EXACT_TESTS}::test_threshold_lhs_encloses_the_displayed_form[1-8-2929]",
            f"{_EXACT_TESTS}::test_threshold_lhs_encloses_the_displayed_form[-1-12-2234]",
            f"{_CLI_TESTS}::test_cli_threshold",
        ),
    ),
    Mutant(
        "threshold-first-power-of-s",
        _EXACT,
        "s * s.sqrt()",
        "s",
        (
            f"{_EXACT_TESTS}::test_threshold_lhs_encloses_the_displayed_form[1-8-2929]",
            f"{_EXACT_TESTS}::test_threshold_lhs_encloses_the_displayed_form[-1-12-2234]",
            f"{_EXACT_TESTS}::test_threshold_lhs_keeps_its_digits_and_narrows_its_error",
        ),
    ),
    Mutant(
        "threshold-cosine-of-class-11",
        _EXACT,
        "[13 if delta == 1 else 14]",
        "[11 if delta == 1 else 14]",
        (
            f"{_EXACT_TESTS}::test_threshold_values_at_paper_cutoffs",
            f"{_EXACT_TESTS}::test_threshold_fails_just_below_cutoffs",
            f"{_EXACT_TESTS}::test_threshold_lhs_encloses_the_displayed_form[1-8-2929]",
        ),
    ),
    Mutant(
        "threshold-term-2-at-exponent-b",
        _EXACT,
        "(-(b_less_a * s)).exp()",
        "(-(b * s)).exp()",
        (
            f"{_EXACT_TESTS}::test_threshold_lhs_encloses_the_displayed_form[1-8-2929]",
            f"{_EXACT_TESTS}::test_threshold_lhs_encloses_the_displayed_form[-1-12-2234]",
        ),
    ),
    Mutant(
        "eta-drops-its-factor-i",
        _MODULAR,
        "tau / 3 + mpf(1) / 2",
        "tau / 3",
        (
            f"{_MODULAR_TESTS}::test_suite_checks_eta_at_i_against_its_closed_form",
            f"{_MODULAR_TESTS}::test_eta_at_i",
        ),
    ),
    Mutant(
        "arithmetic-binds-mp",
        _ARITHMETIC,
        "from mpmath.libmp import from_int,",
        "from mpmath import mp\nfrom mpmath.libmp import from_int,",
        (f"{_ARITHMETIC_TESTS}::test_arithmetic_names_no_global_precision",),
    ),
    Mutant(
        "fixed-mul-reads-mp-prec",
        _MODULAR,
        "na = na or isqrt(ar * ar + ai * ai) + 1",
        "na = na or isqrt(ar * ar + ai * ai) + 1 + (mp.prec < 0)",
        (f"{_MODULAR_TESTS}::test_fixed_point_kernels_name_no_global_precision",),
    ),
    Mutant(
        "hprime-of-the-wrong-parity",
        _ARITHMETIC,
        "x0 + (-x0 * pow(k, -1, s)) % s * k",
        "x0 + (1 - x0 * pow(k, -1, s)) % s * k",
        (
            f"{_ARITHMETIC_TESTS}::test_select_hprime_parity_for_odd_k",
            f"{_ARITHMETIC_TESTS}::test_decompose_2_over_5",
            f"{_ARITHMETIC_TESTS}::test_closed_form_hprime_and_class_step_match_the_search_forms",
        ),
    ),
    Mutant(
        "class-step-skips-its-first-h",
        _ARITHMETIC,
        "range(j % d, k, d)",
        "range(j % d + d, k, d)",
        (
            f"{_ARITHMETIC_TESTS}::test_k5_sum_hand_derived",
            f"{_ARITHMETIC_TESTS}::test_k10_sum_is_the_cosine",
            f"{_ARITHMETIC_TESTS}::test_closed_form_hprime_and_class_step_match_the_search_forms",
        ),
    ),
    Mutant(
        "quarter-turn-unreversed",
        _ARITHMETIC,
        "cos, sin = cos + sin[i::-1], sin[: i + 1] + cos[::-1]",
        "cos, sin = cos + sin[: i + 1], sin[: i + 1] + cos",
        (f"{_ARITHMETIC_TESTS}::test_root_tables_are_exact_on_their_symmetries_and_accurate",),
    ),
    Mutant(
        "half-turn-without-minus",
        _ARITHMETIC,
        "cos += map(neg, cos[i::-1])",
        "cos += cos[i::-1]",
        (f"{_ARITHMETIC_TESTS}::test_root_tables_are_exact_on_their_symmetries_and_accurate",),
    ),
    Mutant(
        "factor-2-dropped",
        _ARITHMETIC,
        "return 2 * re, 2 * len(rows)",
        "return re, len(rows)",
        (f"{_ARITHMETIC_TESTS}::test_twist_totals_are_the_two_class_sum_bit_for_bit[128]",),
    ),
    Mutant(
        "class-minus-j-at-unnegated-n",
        _ARITHMETIC,
        "(_akj_exponent_table(k, 1), -n) if twisted else (_akj_exponent_table(k, 3), n)",
        "(_akj_exponent_table(k, -1), n) if twisted else (_akj_exponent_table(k, -3), n)",
        (f"{_ARITHMETIC_TESTS}::test_twist_totals_are_the_two_class_sum_bit_for_bit[128]",),
    ),
    Mutant(
        "kloosterman-k1-is-two",
        _ARITHMETIC,
        "1 << w, 0",
        "2 << w, 0",
        (
            f"{_ARITHMETIC_TESTS}::test_kloosterman_k1_is_one",
            f"{_ARITHMETIC_TESTS}::test_weil_bound_examples",
        ),
    ),
    Mutant(
        "kloosterman-drops-its-rounding-unit",
        _ARITHMETIC,
        "((bound + half - 1) >> shift) + 1",
        "(bound + half - 1) >> shift",
        (f"{_ARITHMETIC_TESTS}::test_split_kloosterman_encloses_the_direct_sum",),
    ),
    Mutant(
        "exponent-table-skips-the-j-check",
        _ARITHMETIC,
        'if gcd(j, d) != 1:\n        raise ValueError("j must be coprime to gcd(k,10)")',
        "pass",
        (f"{_ARITHMETIC_TESTS}::test_domain_errors",),
    ),
    Mutant(
        "f-eval-divides-by-a-pole",
        _MODULAR,
        'raise PoleError("theta denominator indistinguishable from zero")',
        "pass",
        (f"{_MODULAR_TESTS}::test_f_eval_refuses_a_denominator_it_cannot_tell_from_zero",),
    ),
    Mutant(
        "oracle-checks-no-sign",
        _VERIFIER,
        "if not deltas:\n        raise",
        "if False:\n        raise",
        (f"{_CLI_TESTS}::test_exact_oracle_refuses_an_empty_range",),
    ),
    Mutant(
        "class-sum-drops-class-5",
        _EXACT,
        "for d in (5, 10)",
        "for d in (10,)",
        (
            _CRITERION_3,
            f"{_ORACLE}[1-30]",
            f"{_ORACLE}[1-47]",
            f"{_ORACLE}[-1-25]",
        ),
    ),
    Mutant(
        "class-sum-skips-its-first-k",
        _EXACT,
        "range(d, k_max + 1, 10)",
        "range(d + 10, k_max + 1, 10)",
        (
            _CRITERION_3,
            f"{_ORACLE}[1-30]",
            f"{_ORACLE}[-1-25]",
            f"{_ORACLE}[-1-12]",
        ),
    ),
    Mutant(
        "bessel-drops-argument-charge",
        _EXACT,
        "((y_err << t) >> 16)",
        "0",
        (
            f"{_EXACT_TESTS}::test_term_factor_encloses_the_reference_at_a_displaced_bessel_point[16]",
            f"{_EXACT_TESTS}::test_term_factor_encloses_the_reference_at_a_displaced_bessel_point[128]",
        ),
    ),
    Mutant(
        "bessel-horner-skips-the-first-entry",
        _EXACT,
        "terms[top::-1]",
        "terms[top:0:-1]",
        (
            f"{_EXACT_TESTS}::test_term_factor_encloses_the_reference",
            f"{_EXACT_TESTS}::test_term_parts_enclose_the_reference",
            _CRITERION_3,
        ),
    ),
    Mutant(
        "bessel-horner-skips-the-last-entry",
        _EXACT,
        "terms[top::-1]",
        "terms[top - 1::-1] if top else ()",
        not_pinnable=(
            "the entry at the cut adds at most 58,081 units of 2^-u to h over the tested indices and widths "
            "((-1, 211) at 512 bits, k = 515), but h sits 16 bits and a factor k^2 above f's unit, so f moves "
            "by far less than the unit its own +2 covers; the cut is at least 6 at every tested k, and 0, where "
            "the mutant reads nothing, needs k^2 above rest_1 > 2^(u+2), k > 2^21 even at 16 bits: every test "
            "of test_exactformula.py and test_acceptance.py still passes"
        ),
    ),
    Mutant(
        "bessel-drops-floor-and-tail-charge",
        _EXACT,
        "fixed_err = tail + 5",
        "fixed_err = 0",
        not_pinnable=_BESSEL_SLACK,
    ),
    Mutant(
        "bessel-drops-skip-charge",
        _EXACT,
        "fixed_err = tail + 5",
        "fixed_err = tail + 4",
        not_pinnable=_BESSEL_SLACK,
    ),
    Mutant(
        "class-sum-cut-only-falls",
        _EXACT,
        "top += 1",
        "break",
        (f"{_EXACT_TESTS}::test_term_does_not_depend_on_the_order_of_the_k",),
    ),
    Mutant(
        "class-sum-cut-one-bit-loose",
        _EXACT,
        "k2.bit_length() - 1",
        "k2.bit_length()",
        (f"{_EXACT_TESTS}::test_term_factor_encloses_the_reference[512]",),
    ),
    Mutant(
        "bessel-drops-table-error-charge",
        _EXACT,
        "(q * (h + lift) >> u)",
        "0",
        not_pinnable=_BESSEL_SLACK,
    ),
)


def run(mutant: Mutant) -> list[str]:
    """Apply the mutant to a scratch copy, run its tests and return those
    that passed: the mutant is killed when none did."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp, mutant.path)
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.killed_by],
            cwd=tmp,
            capture_output=True,
            text=True,
        )
    # a failed test, or an error in its setup or in collecting its file; a
    # failed instance t[param] of a parametrized test also fails a bare t
    failed = set()
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            test = line.split()[1]
            failed |= {test, test.split("[")[0]}
    return [t for t in mutant.killed_by if t not in failed and t.split("::")[0] not in failed]


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    survivors = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        if mutant.not_pinnable:
            print(f"{mutant.name}: not pinnable: {mutant.not_pinnable}")
            continue
        t0 = time.perf_counter()
        passed = run(mutant)
        took = time.perf_counter() - t0
        print(f"{mutant.name}: {'SURVIVED' if passed else 'killed'} ({took:.1f} s)")
        for test in passed:
            print(f"    passed: {test}")
        survivors += bool(passed)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
