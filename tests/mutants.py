"""The mutant ledger: small wrong edits to the program that the tests must catch.

Each entry names a file (relative to the repository root), a text that
occurs in it exactly once, the text that replaces it, and the tests that
must fail once the edit is made. An entry that no test can catch says why
in ``not_pinnable`` instead. ``tests/test_mutants.py`` checks in tier 1
that every entry's old text still occurs exactly once, so an edit that
moves the code out from under a mutant shows at once.

Run the mutants from the repository root with

    python -m tests.mutants [name ...]

Each one is applied to a copy of ``src/``, ``tests/`` and
``pyproject.toml`` in a temporary directory, and its tests run there with
pytest. A mutant survives when one of its tests passes. The runner prints
one line per mutant with its verdict and time, and exits 1 if any survive.
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
    # a failed test, or an error in its setup or in collecting its file
    failed = {
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
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
