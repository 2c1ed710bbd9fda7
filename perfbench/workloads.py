"""The four benchmark workloads: seeded op sequences, set-up, and the
per-op correctness checks.

Each workload yields its ops in rounds. A round is a stratified draw (one
op from each cost band), so that any whole number of rounds has the same
mix of cheap and expensive ops whatever the seed. A run measures a fixed
op set, the first MIN_OPS ops (whole rounds), and adds whole rounds only
while the run's `--seconds` have not passed; at the seed commit MIN_OPS
ops take longer than that, so the ops measured do not depend on how fast
the host happens to be. TAIL_P is the fixed latency tail percentile, with
at least ten of the MIN_OPS ops beyond it. The same seed gives the same op
sequence.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 120


def _rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{name}/{index}")


def _shuffled_rows(rng: random.Random, values: list, count: int):
    """Split `values` into `count` bands, shuffle each, and yield rows of
    one value per band: one pass is a permutation of `values`."""
    size = len(values)
    bands = [values[i * size // count : (i + 1) * size // count] for i in range(count)]
    for band in bands:
        rng.shuffle(band)
    for row in itertools.zip_longest(*bands):
        yield [v for v in row if v is not None]


def _strata(rng: random.Random, count: int, cycle: int):
    """Per round, one point in each of `count` equal slices of [0, 1).
    Over every `cycle` consecutive rounds each slice is cut `cycle` ways
    and each piece gets exactly one point, so that a few rounds cover the
    range evenly whatever the seed."""
    while True:
        slots = [rng.sample(range(cycle), cycle) for _ in range(count)]
        for r in range(cycle):
            yield [(s + (slots[s][r] + rng.random()) / cycle) / count for s in range(count)]


class ExactOracle:
    """Criterion 3's exact-formula evaluations in their warm steady state."""

    name = "exact-oracle"
    in_process = True
    why = "exact-formula route, warm: c_exact at its defaults over the 582 criterion-3 indices, checked against brute-force integers"
    MIN_OPS = 200  # 10 rounds
    TAIL_P = 95
    BANDS = 10

    def __init__(self, n_lo: int = 10, n_hi: int = 300):
        self.n_lo = n_lo
        self.n_hi = n_hi

    def setup(self) -> None:
        from qsign import exactformula, qseries

        self.exactformula = exactformula
        refs = reference.checked_references(self.n_hi, qseries.ZERO_EXCEPTIONS)
        self.ref = {}
        for delta in (1, -1):
            series = list(qseries.q10_series(delta, self.n_hi).coeffs)
            if series != refs[delta]:
                raise ValueError(f"q10_series({delta}) disagrees with the theta-quotient reference")
            self.ref[delta] = series
        for delta in (1, -1):  # warm the root tables and zeta cache at the largest index
            if not self.run_op((delta, self.n_hi))[0]:
                raise ValueError(f"warm-up c_exact({delta}, {self.n_hi}) failed its check")

    def rounds(self, seed: int):
        """Per pass, a permutation of the indices; each round takes one n
        from each band of the range, for both signs."""
        ns = list(range(self.n_lo, self.n_hi + 1))
        for p in itertools.count():
            rng = _rng(seed, self.name, p)
            for row in _shuffled_rows(rng, ns, self.BANDS):
                ops = [(d, n) for n in row for d in (1, -1)]
                rng.shuffle(ops)
                yield ops

    def run_op(self, op, op_id=None, tracer=None):
        delta, n = op
        ev = self.exactformula.c_exact(delta, n)
        # definitive == False is the known-red criterion 3, not a failure
        ok = ev.rounded == self.ref[delta][n] and ev.gap + ev.err < 0.5
        return ok, {"definitive": bool(ev.definitive)}


class KloostermanGrid:
    """Criterion 4: the calls run_bound_sweeps makes, one grid modulus per op."""

    name = "kloosterman-grid"
    in_process = True
    why = "Kloosterman and twisted root-of-unity sums: criterion 4's identity, Weil and bound checks, one grid modulus per op"
    BANDS = 10
    RUN_ROUNDS = 4
    MIN_OPS = 2 + RUN_ROUNDS * BANDS  # the Bessel grid, the negative control and 4 rounds
    TAIL_P = 75
    # run_bound_sweeps' defaults
    N_SAMPLES = 20
    PREC = 128
    IDENTITY_TOL = 1e-20

    def __init__(self, k_max: int = 500, identity_k_max: int = 200):
        self.grid = list(range(5, k_max + 1, 5))
        self.identity_k_max = identity_k_max

    def setup(self) -> None:
        from mpmath import mpf

        from qsign import arithmetic, numerics

        self.arithmetic = arithmetic
        self.numerics = numerics
        self.tol = mpf(self.IDENTITY_TOL)
        if not self.run_op(("k", self.grid[0]))[0]:
            raise ValueError("warm-up modulus failed its checks")
        arithmetic.clear_caches()

    def rounds(self, seed: int):
        """Per pass: the Bessel grid and the negative control, then rounds
        of one modulus from each band of the grid, in seeded order. The
        first RUN_ROUNDS rounds, the ones a run measures, take the same
        moduli whatever the seed: the midpoints of RUN_ROUNDS equal slices
        of each band. A modulus's cost climbs steeply with k, so a seeded
        choice of moduli would move the latency tail by up to 40%."""
        size = len(self.grid)
        bands = [self.grid[i * size // self.BANDS : (i + 1) * size // self.BANDS] for i in range(self.BANDS)]
        head = self.RUN_ROUNDS
        for p in itertools.count():
            rng = _rng(seed, self.name, p)
            yield [("bessel",), ("control",)]
            columns = []
            for band in bands:
                first = list(dict.fromkeys(band[(2 * i + 1) * len(band) // (2 * head)] for i in range(head)))
                rest = [k for k in band if k not in first]
                rng.shuffle(first)
                rng.shuffle(rest)
                columns.append(first + rest)
            for row in itertools.zip_longest(*columns):
                ops = [("k", k) for k in row if k is not None]
                rng.shuffle(ops)
                yield ops

    def run_op(self, op, op_id=None, tracer=None):
        self.arithmetic.clear_caches()  # each op pays its own table builds, as one sweep pass does
        kind = op[0]
        if kind == "k":
            counts = self._modulus(op[1])
        elif kind == "bessel":
            counts = self._bessel()
        else:
            counts = self._control()
        return not counts.pop("failures"), counts

    @staticmethod
    def _valid_j(d: int) -> tuple:
        return (1, 2, 3, 4) if d == 5 else (1, 3, 7, 9)

    def _modulus(self, k: int) -> dict:
        a = self.arithmetic
        ErrReal = self.numerics.ErrReal
        working_precision = self.numerics.working_precision
        prec, ns, tol = self.PREC, self.N_SAMPLES, self.tol
        d = gcd(k, 10)
        counts = {"identity_checks": 0, "weil_checks": 0, "bound_checks": 0, "failures": 0}
        if k <= self.identity_k_max:
            for j in self._valid_j(d):
                for n in range(ns):
                    direct = a.a_kj(k, j, n, prec)
                    rewrite = a.a_kj_rewrite(k, j, n, prec)
                    with working_precision(prec):
                        rw_diff = (direct - rewrite).abs()
                        if d == 5:
                            red_diff = (direct - a.a_kj_reduced_d5(k, j, n, prec)).abs()
                        else:
                            reduced_abs = a.a_kj_reduced_d10_abs(k, j, n, prec)
                            red_diff = ErrReal(
                                abs(direct.abs().value - reduced_abs.value), direct.abs().err + reduced_abs.err
                            )
                    counts["identity_checks"] += 2
                    counts["failures"] += (not rw_diff.value <= tol) + (not red_diff.value <= tol)
        for n in range(0, ns, 2):
            for m in (0, 1, 3, 10):
                counts["weil_checks"] += 1
                counts["failures"] += not a.weil_bound_check(k, n, m, prec)
        for j in self._valid_j(d):
            for n in range(ns):
                ok = a.bound_check_d5(k, j, n, prec) if d == 5 else a.bound_check_d10(k, j, n, prec)
                counts["bound_checks"] += 1
                counts["failures"] += not ok
                if n < 3:  # the sweep re-evaluates A_{k,j}(n) for its CSV row
                    val = a.a_kj(k, j, n, prec)
                    with working_precision(prec):
                        val.abs()
        for n in range(0, ns, 4):
            for twisted in (False, True):
                counts["bound_checks"] += 1
                counts["failures"] += not a.aggregated_bound_check(k, n, prec, twisted=twisted)
        return counts

    def _bessel(self) -> dict:
        from mpmath import mpf

        ErrReal = self.numerics.ErrReal
        checks = failures = 0
        with self.numerics.working_precision(192):
            grids = (
                [mpf(i) / 100 for i in range(1, 100)],
                [1 + mpf(i) / 2 for i in range(0, 99)],
                [3 + mpf(i) / 2 for i in range(0, 115)],
            )
            for grid in grids:
                for x in grid:
                    checks += 1
                    failures += not self.numerics.bessel_bound_checks(ErrReal(x)).all_ok()
        return {"bessel_checks": checks, "failures": failures}

    def _control(self) -> dict:
        """Corrupting alpha must break both reduction identities."""
        from mpmath import mpf

        a = self.arithmetic
        prec = self.PREC
        with self.numerics.working_precision(prec):
            direct = a.a_kj(15, 2, 1, prec)
            corrupted = a.a_kj_reduced_d5(15, 2, 1, prec, alpha_shift=1)
            control_d5 = (direct - corrupted).abs().value > mpf("1e-6")
            direct10 = a.a_kj(20, 3, 1, prec).abs()
            corrupted10 = a.a_kj_reduced_d10_abs(20, 3, 1, prec, alpha_shift=2)
            control_d10 = abs(direct10.value - corrupted10.value) > mpf("1e-6")
        detected = bool(control_d5 and control_d10)
        return {"control_detected": detected, "failures": int(not detected)}


class SeriesVerify:
    """The brute-force route: verify_conjecture over log-uniform N."""

    name = "series-verify"
    in_process = True
    why = "brute-force route: verify_conjecture with N log-uniform from the acceptance n_max to 6000, q10_series is >=95% of each op"
    MIN_OPS = 40  # 5 rounds, one CYCLE
    TAIL_P = 75
    BANDS = 4
    CYCLE = 5
    N_MAX = {1: 2928, -1: 2233}

    def __init__(self, n_top: int = 6000):
        self.n_top = n_top

    def setup(self) -> None:
        from qsign import qseries, verifier

        self.verifier = verifier
        refs = reference.checked_references(self.n_top, qseries.ZERO_EXCEPTIONS)
        self.verdicts = {d: reference.verdict_string(d, refs[d]) for d in (1, -1)}
        for delta, n_max in self.N_MAX.items():
            if not self.run_op((delta, n_max))[0]:
                raise ValueError(f"warm-up verify_conjecture({delta}, {n_max}) failed its check")

    def rounds(self, seed: int):
        """One N per sign from each of BANDS equal slices of log N."""
        rng = _rng(seed, self.name, 0)
        draws = {delta: _strata(rng, self.BANDS, self.CYCLE) for delta in self.N_MAX}
        while True:
            ops = []
            for delta, n_max in self.N_MAX.items():
                lo, hi = math.log(n_max), math.log(self.n_top)
                for u in next(draws[delta]):
                    ops.append((delta, min(self.n_top, max(n_max, round(math.exp(lo + u * (hi - lo)))))))
            rng.shuffle(ops)
            yield ops

    def run_op(self, op, op_id=None, tracer=None):
        delta, n_max = op
        report = self.verifier.verify_conjecture(delta, n_max)
        ok = (
            report.passed
            and report.zero_set_found == sorted(reference.PAPER_ZEROS[delta])
            and "".join(report.verdicts) == self.verdicts[delta][: n_max + 1]
            and (report.thresholds is None or report.thresholds["lhs_below_one"])
        )
        return ok, {}


class ColdCli:
    """One fresh `python -m qsign` child per op, run one at a time."""

    name = "cold-cli"
    in_process = False  # each op is a child process, which installs its own tracer
    MIN_OPS = 45  # 5 rounds, one CYCLE
    TAIL_P = 75
    why = "fresh qsign CLI processes at their defaults: import and cold table builds on every op; the only workload running cli and modularcheck"
    EXPAND_MAX = 2000
    CYCLE = 5

    def __init__(self, out_dir: Path | None = None):
        self.out_dir = out_dir
        self.import_ns: list[int] = []

    def setup(self) -> None:
        from qsign import qseries

        self.ref = reference.checked_references(self.EXPAND_MAX, qseries.ZERO_EXCEPTIONS)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("QSIGN_PRECISION_BITS", None)
        if not self.run_op(("threshold", 1, 2929))[0]:
            raise ValueError("warm-up `qsign threshold` failed its check")

    def _midpoints(self, rng: random.Random, lo: int, hi: int) -> list[int]:
        """The midpoints of CYCLE equal slices of [lo, hi], in seeded order."""
        points = [lo + (2 * i + 1) * (hi - lo + 1) // (2 * self.CYCLE) for i in range(self.CYCLE)]
        rng.shuffle(points)
        return points

    def rounds(self, seed: int):
        """Every command for both signs, plus modular. Over each CYCLE of
        rounds the exact indices in [10, 300] and the expand orders in
        [50, EXPAND_MAX] are the midpoints of CYCLE equal slices of their
        ranges, in seeded order, not draws: a cold exact's cost climbs
        steeply with n, and drawn indices moved the latency tail by up to
        25% from seed to seed."""
        rng = _rng(seed, self.name, 0)
        while True:
            exact = {d: self._midpoints(rng, 10, 300) for d in (1, -1)}
            expand = {d: self._midpoints(rng, 50, self.EXPAND_MAX) for d in (1, -1)}
            for r in range(self.CYCLE):
                ops = [("modular",)]
                for d, n_max in ((1, 2928), (-1, 2233)):
                    ops += [
                        ("exact", d, exact[d][r]),
                        ("verify", d, n_max),
                        ("threshold", d, n_max + 1),
                        ("expand", d, expand[d][r]),
                    ]
                rng.shuffle(ops)
                yield ops

    @staticmethod
    def argv(op) -> list[str]:
        kind = op[0]
        if kind == "modular":
            return ["modular"]
        flag = {"exact": "--n", "verify": "--n-max", "threshold": "--n", "expand": "--order"}[kind]
        return [kind, "--delta", str(op[1]), flag, str(op[2])]

    def run_op(self, op, op_id=None, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "qsign", *self.argv(op)]
        else:
            span_file = self.out_dir / f"cli-op{op_id}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(span_file), str(op_id), *self.argv(op)]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if tracer is not None:
            child = json.loads(span_file.read_text(encoding="utf-8"))
            span_file.unlink()
            tracer.spans.extend(tuple(s) for s in child["spans"])
            tracer.counts.update(child["counts"])
            self.import_ns.append(child["import_ns"])
        return self.check(op, proc.returncode, proc.stdout), {"exit": proc.returncode}

    def check(self, op, code: int, stdout: str) -> bool:
        kind = op[0]
        if kind == "exact":
            payload = json.loads(stdout)
            # exit 2 with definitive == false is the known-red criterion 3
            expected_code = 0 if payload["definitive"] else 2
            return code == expected_code and payload["rounded"] == self.ref[op[1]][op[2]]
        if code != 0:
            return False
        if kind == "verify":
            payload = json.loads(stdout)
            return payload["pass"] is True and payload["zero_set_found"] == sorted(reference.PAPER_ZEROS[op[1]])
        if kind == "threshold":
            return stdout.rstrip().endswith("PASS")
        if kind == "modular":
            records = json.loads(stdout)
            return bool(records) and all(r["pass"] is True for r in records)
        payload = json.loads(stdout)
        order = op[2]
        return payload["order"] == order and [int(c) for c in payload["coeffs"]] == self.ref[op[1]][: order + 1]


WORKLOADS = {w.name: w for w in (ExactOracle, KloostermanGrid, SeriesVerify, ColdCli)}
