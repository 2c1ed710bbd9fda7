"""Orchestration of the full verification pipeline: brute-force sign
verdicts, bound sweeps over the Kloosterman grids, the modular validation
suite, and oracle comparison of the exact formula, with JSON/CSV artifacts.

Only the integer series is imported up front; each function imports the
analytic modules it runs, so a sign check below the paper's threshold
never loads mpmath.
"""

from __future__ import annotations

import errno
import json
import os
import time
from math import gcd, sqrt
from pathlib import Path
from typing import NamedTuple

from .qseries import PAPER_THRESHOLD, POSITIVE_RESIDUES, ZERO_EXCEPTIONS, q10_series, sign_pattern_verdict

__all__ = [
    "SignReport",
    "SweepReport",
    "ExactOracleReport",
    "PipelineResult",
    "verify_conjecture",
    "run_bound_sweeps",
    "run_exact_oracle",
    "full_pipeline",
]

class SignReport(NamedTuple):
    delta: int
    n_hi: int
    verdicts: list[str]
    zero_set_found: list[int]
    mismatches: list[int]
    unexpected_zeros: list[int]
    thresholds: dict | None
    timing: dict
    passed: bool

    def to_dict(self) -> dict:
        report = {**self._asdict(), "range": [0, self.n_hi], "verdicts": "".join(self.verdicts), "pass": self.passed}
        del report["n_hi"], report["passed"]
        return report


def verify_conjecture(delta: int, n_max: int) -> SignReport:
    """Expand the series once, classify every index, and (when the range
    reaches the closed-form threshold) evaluate the threshold inequality."""
    if n_max < 50:
        raise ValueError("n_max must be at least 50")
    timing: dict[str, float] = {}
    t0 = time.perf_counter()
    series = q10_series(delta, n_max)
    timing["series"] = round(time.perf_counter() - t0, 6)

    t0 = time.perf_counter()
    coeffs = series.coeffs
    # a nonzero coefficient's verdict depends on n only through n mod 10
    pos, neg = ([sign_pattern_verdict(delta, r, sign).value for r in range(10)] for sign in (1, -1))
    verdicts: list[str] = [""] * len(coeffs)
    zero_set: list[int] = []
    mismatches: list[int] = []
    unexpected: list[int] = []

    def classify(indices) -> None:
        for n in indices:
            c = coeffs[n]
            if c:
                code = pos[n % 10] if c > 0 else neg[n % 10]
            else:
                code = sign_pattern_verdict(delta, n, 0).value
                zero_set.append(n)
            verdicts[n] = code
            if code == "X":
                mismatches.append(n)
                if not c:
                    unexpected.append(n)

    # past the last zero exception a verdict depends on the sign alone, so a
    # residue class whose coefficients all have the pattern's sign (min or
    # max taken in C) is filled at once; any other class goes index by index
    head = max(ZERO_EXCEPTIONS[delta]) + 1
    classify(range(head))
    for r in range(head, min(head + 10, len(coeffs))):
        tail = coeffs[r::10]
        if r % 10 in POSITIVE_RESIDUES[delta]:
            uniform, code = min(tail) > 0, pos[r % 10]
        else:
            uniform, code = max(tail) < 0, neg[r % 10]
        if uniform:
            verdicts[r::10] = [code] * len(tail)
        else:
            classify(range(r, len(coeffs), 10))
    for found in (zero_set, mismatches, unexpected):
        found.sort()
    timing["verdicts"] = round(time.perf_counter() - t0, 6)

    thresholds = None
    paper_threshold = PAPER_THRESHOLD[delta]
    if n_max >= paper_threshold:
        from mpmath import mp

        from . import exactformula

        t0 = time.perf_counter()
        lhs = exactformula.threshold_lhs(delta, paper_threshold)
        thresholds = {
            "paper_threshold": paper_threshold,
            "lhs_at_threshold": mp.nstr(lhs.value, 15),
            "lhs_below_one": bool(lhs.hi < 1),
        }
        timing["threshold"] = round(time.perf_counter() - t0, 6)

    passed = not mismatches and not unexpected
    if thresholds is not None:
        passed = passed and thresholds["lhs_below_one"]
    return SignReport(
        delta=delta,
        n_hi=n_max,
        verdicts=verdicts,
        zero_set_found=zero_set,
        mismatches=mismatches,
        unexpected_zeros=unexpected,
        thresholds=thresholds,
        timing=timing,
        passed=passed,
    )


class SweepReport(NamedTuple):
    identity_k_max: int
    bound_k_max: int
    n_samples: int
    identity_checks: int
    identity_failures: list
    weil_checks: int
    weil_failures: list
    bound_checks: int
    bound_failures: list
    bessel_checks: int
    bessel_failures: list
    negative_control_detected: bool
    rows: list
    timing: dict

    @property
    def passed(self) -> bool:
        return (
            not self.identity_failures
            and not self.weil_failures
            and not self.bound_failures
            and not self.bessel_failures
            and self.negative_control_detected
        )

    def to_dict(self) -> dict:
        report = {name: value for name, value in self._asdict().items() if name != "rows"}
        return {**report, "pass": self.passed}

    def csv_text(self) -> str:
        """The rows under their header line, one line each, no final newline."""
        rows = [("k", "j", "n", "abs_akj", "bound", "ok")] + self.rows
        return "\n".join(",".join(str(x) for x in row) for row in rows)


def _valid_j(d: int) -> tuple[int, ...]:
    return (1, 2, 3, 4) if d == 5 else (1, 3, 7, 9)


def run_bound_sweeps(
    k_max: int = 500,
    n_samples: int = 20,
    identity_k_max: int = 200,
    prec: int = 128,
) -> SweepReport:
    """The Kloosterman identity and bound grids.

    Identities run for k <= identity_k_max, on the fixed-point totals: the
    rewrite on the exponent tables, and each reduced form's value (d = 5 and
    d = 10 alike) against direct summation, failing only on disjoint
    enclosures; the Weil bound and the per-j / aggregated / conjugated bounds
    run for k <= k_max; the Bessel inequality grids run over their stated
    ranges. A deliberately corrupted reduction (alpha off by one class) must
    fail, as a negative control. Raises ValueError unless both grids reach
    k = 5 and n_samples >= 1: no check is vacuous.
    """
    if min(k_max, identity_k_max) < 5 or n_samples < 1:
        raise ValueError("sweeps need k_max and identity_k_max >= 5 and n_samples >= 1")
    from mpmath import mpf

    from . import arithmetic
    from .numerics import ErrReal, _fixed_complex, bessel_bound_checks, working_precision

    timing: dict[str, float] = {}

    identity_checks = 0
    identity_failures: list = []
    t0 = time.perf_counter()
    for k in range(5, identity_k_max + 1, 5):
        for j in _valid_j(gcd(k, 10)):
            # A_{k,j}(n) depends on n and the table alone: equal tables, every n
            rewrite_ok = arithmetic._akj_exponent_table(k, j, 1, 2) == arithmetic._akj_exponent_table(k, j)
            for n in range(n_samples):
                identity_checks += 2
                if not rewrite_ok:
                    identity_failures.append({"kind": "rewrite", "k": k, "j": j, "n": n})
                if not arithmetic._reduced_identity_holds(k, j, n, prec):
                    identity_failures.append({"kind": "reduced", "k": k, "j": j, "n": n})
    timing["identities"] = round(time.perf_counter() - t0, 3)

    weil_checks = 0
    weil_failures: list = []
    t0 = time.perf_counter()
    for k in range(5, k_max + 1, 5):
        for n in range(0, n_samples, 2):
            for m in (0, 1, 3, 10):
                weil_checks += 1
                if not arithmetic.weil_bound_check(k, n, m, prec):
                    weil_failures.append({"k": k, "n": n, "m": m})
    timing["weil"] = round(time.perf_counter() - t0, 3)

    bound_checks = 0
    bound_failures: list = []
    rows: list = []
    w = prec + arithmetic._GUARD_BITS
    t0 = time.perf_counter()
    for k in range(5, k_max + 1, 5):
        d = gcd(k, 10)
        square = arithmetic._twisted_square(k)
        bound = sqrt(square)
        for j in _valid_j(d):
            for n in range(n_samples):
                # bound_check_d5 / bound_check_d10 on totals summed once,
                # which the CSV row's |A_{k,j}(n)| reuses
                totals = arithmetic._akj_totals(k, j, n, prec)
                ok = not arithmetic._exceeds(*totals, square, prec)
                if n < 3:
                    with working_precision(prec):
                        rows.append((k, j, n, float(_fixed_complex(*totals, w, prec).abs().value), bound, ok))
                bound_checks += 1
                if not ok:
                    bound_failures.append({"kind": f"d{d}", "k": k, "j": j, "n": n})
        for n in range(0, n_samples, 4):
            for twisted in (False, True):
                bound_checks += 1
                if not arithmetic.aggregated_bound_check(k, n, prec, twisted=twisted):
                    bound_failures.append({"kind": "aggregated" + ("-twisted" if twisted else ""), "k": k, "n": n})
    timing["bounds"] = round(time.perf_counter() - t0, 3)

    bessel_checks = 0
    bessel_failures: list = []
    t0 = time.perf_counter()
    with working_precision(192):
        grids = (
            [mpf(i) / 100 for i in range(1, 100)],
            [1 + mpf(i) / 2 for i in range(0, 99)],
            [3 + mpf(i) / 2 for i in range(0, 115)],
        )
        for grid in grids:
            for x in grid:
                checks = bessel_bound_checks(ErrReal(x))
                bessel_checks += 1
                if not checks.all_ok():
                    bessel_failures.append({"x": float(x)})
    timing["bessel"] = round(time.perf_counter() - t0, 3)

    # negative control: corrupting alpha must break both reduction identities
    controls = ((15, 2, 1, 1), (20, 3, 1, 2))  # (k, j, n, alpha_shift), d = 5 and d = 10
    control = not any(arithmetic._reduced_identity_holds(k, j, n, prec, shift) for k, j, n, shift in controls)

    return SweepReport(
        identity_k_max=identity_k_max,
        bound_k_max=k_max,
        n_samples=n_samples,
        identity_checks=identity_checks,
        identity_failures=identity_failures,
        weil_checks=weil_checks,
        weil_failures=weil_failures,
        bound_checks=bound_checks,
        bound_failures=bound_failures,
        bessel_checks=bessel_checks,
        bessel_failures=bessel_failures,
        negative_control_detected=control,
        rows=rows,
        timing=timing,
    )


class ExactOracleReport(NamedTuple):
    n_lo: int
    n_hi: int
    deltas: tuple
    total: int
    rounding_matches: int
    definitive_count: int
    mismatches: list
    max_gap_plus_err: float
    timing: dict
    rows: list

    @property
    def oracle_passed(self) -> bool:
        return not self.mismatches and self.max_gap_plus_err < 0.5

    def to_dict(self) -> dict:
        from .exactformula import _eval_dict

        report = {**self._asdict(), "range": [self.n_lo, self.n_hi], "deltas": list(self.deltas),
                  "rows": [_eval_dict(row) for row in self.rows], "pass": self.oracle_passed}
        del report["n_lo"], report["n_hi"]
        return report


def run_exact_oracle(
    n_lo: int = 10,
    n_hi: int = 300,
    deltas: tuple = (1, -1),
    prec: int = 128,
) -> ExactOracleReport:
    """Evaluate the exact formula across a range and compare the rounded
    values against the brute-force integers.

    One row per index holds c_exact's ExactEval fields, its uncertainty
    breakdown included, next to the brute-force integer `true`. Raises
    ValueError for n_lo > n_hi or no deltas: a run checking nothing cannot pass."""
    from . import exactformula

    if n_lo > n_hi:
        raise ValueError("invalid exact-formula range")
    if not deltas:
        raise ValueError("deltas must be +1 / -1")
    t0 = time.perf_counter()
    rows: list = []
    for delta in deltas:
        series = q10_series(delta, n_hi)
        for n in range(n_lo, n_hi + 1):
            ev = exactformula.c_exact(delta, n, prec=prec)
            rows.append({**ev._asdict(), "true": series.coefficient(n)})
    mismatches = [
        {key: r[key] for key in ("delta", "n", "rounded", "true")}
        for r in rows
        if r["rounded"] != r["true"]
    ]
    return ExactOracleReport(
        n_lo=n_lo,
        n_hi=n_hi,
        deltas=tuple(deltas),
        total=len(rows),
        rounding_matches=len(rows) - len(mismatches),
        definitive_count=sum(r["definitive"] for r in rows),
        mismatches=mismatches,
        max_gap_plus_err=max((float(r["gap"] + r["err"]) for r in rows), default=0.0),
        timing={"total": round(time.perf_counter() - t0, 3)},
        rows=rows,
    )


class PipelineResult(NamedTuple):
    exit_status: int
    phases: dict


def _refuse_unusable_dir(path: Path, first_file: Path) -> None:
    """Raise what path.mkdir(parents=True, exist_ok=True), or then writing
    first_file into path, raises when path exists and is not a directory or
    cannot be written into and searched, or when its nearest existing
    ancestor is not a directory or cannot be written into and searched,
    without creating anything."""
    usable = os.W_OK | os.X_OK
    if path.exists():
        if not path.is_dir():
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(path))
        if not os.access(path, usable):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(first_file))
        return
    ancestor = next((parent for parent in path.parents if parent.exists()), None)
    if ancestor is None:
        return
    if not ancestor.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
    if not os.access(ancestor, usable):
        # mkdir fails on the first missing directory, or on path itself
        # when the ancestor cannot be searched
        first_missing = ancestor / path.relative_to(ancestor).parts[0]
        denied = first_missing if os.access(ancestor, os.X_OK) else path
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(denied))


def full_pipeline(
    *,
    deltas: tuple = (1, -1),
    n_max: int | None = None,
    sweep_k_max: int = 500,
    identity_k_max: int = 200,
    sweep_n_samples: int = 20,
    exact_range: tuple = (10, 300),
    precision_bits: int = 128,
    output_dir: str | Path = "qsign_artifacts",
) -> PipelineResult:
    """Run every phase, then write the artifacts, and report per-phase success.

    The sign reports run to n_max, or to PAPER_THRESHOLD[delta] for each
    delta when n_max is None; the sweeps take sweep_k_max, identity_k_max
    and sweep_n_samples, and the oracle exact_range = (n_lo, n_hi).
    Each phase checks its own input, and nothing is written unless every
    phase ran: a refused input or a phase that raises leaves no artifact.
    An output_dir that mkdir or the first write would refuse is refused
    before the first phase.
    Exit status 0 iff all phases pass; 3 otherwise. The exact-formula
    phase passes on oracle equality (rounded == brute force with
    gap + numeric error < 1/2); the fraction of certified-definitive
    roundings is reported separately since the Weil-type tail certificate
    sits far above 1/2 at desk-scale cutoffs.
    """
    from . import modularcheck

    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    if not deltas or any(delta not in (1, -1) for delta in deltas):
        raise ValueError("deltas must be +1 / -1")
    outdir = Path(output_dir)
    _refuse_unusable_dir(outdir, outdir / f"sign_delta_{deltas[0]}.json")
    signs = {delta: verify_conjecture(delta, PAPER_THRESHOLD[delta] if n_max is None else n_max) for delta in deltas}
    sweeps = run_bound_sweeps(sweep_k_max, sweep_n_samples, identity_k_max, precision_bits)
    modular = modularcheck.validation_suite(prec=precision_bits)
    oracle = run_exact_oracle(*exact_range, deltas, precision_bits)

    phases = {
        **{f"verify_delta_{delta}": report.passed for delta, report in signs.items()},
        "bound_sweeps": sweeps.passed,
        "modular": all(r.passed for r in modular),
        "exact_oracle": oracle.oracle_passed,
    }
    artifacts = {
        **{f"sign_delta_{delta}.json": report.to_dict() for delta, report in signs.items()},
        "sweeps.json": sweeps.to_dict(),
        "sweeps.csv": sweeps.csv_text(),
        "modular.json": [r.to_dict() for r in modular],
        "exact_oracle.json": oracle.to_dict(),
    }
    failed = sorted(name for name, ok in phases.items() if not ok)
    artifacts["summary.json"] = {
        "phases": phases,
        "failed_phases": failed,
        "artifacts": sorted(artifacts),
        "exact_definitive_fraction": oracle.definitive_count / oracle.total,
    }

    outdir.mkdir(parents=True, exist_ok=True)
    for name, payload in artifacts.items():
        text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True, indent=2)
        (outdir / name).write_text(text + "\n", encoding="utf-8")
    return PipelineResult(exit_status=0 if not failed else 3, phases=phases)
