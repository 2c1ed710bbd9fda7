"""Checks that keep the benchmark tied to the verifier it measures.

Run with: PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_totals, per_layer_metrics  # noqa: E402

from qsign import qseries, verifier  # noqa: E402


def test_reference_matches_series():
    for delta in (1, -1):
        assert reference.quotient_coeffs(delta, 400) == list(qseries.q10_series(delta, 400).coeffs)
    refs = reference.checked_references(400, qseries.ZERO_EXCEPTIONS)
    assert set(refs) == {1, -1}


def test_reference_refuses_disagreeing_zero_sets():
    wrong = {1: qseries.ZERO_EXCEPTIONS[1] | {3}, -1: qseries.ZERO_EXCEPTIONS[-1]}
    with pytest.raises(ValueError):
        reference.checked_references(100, wrong)


def test_kloosterman_pass_issues_the_sweep_checks():
    wl = workloads.KloostermanGrid(k_max=50, identity_k_max=25)
    wl.setup()
    totals = {"identity_checks": 0, "weil_checks": 0, "bound_checks": 0, "bessel_checks": 0}
    seen, detected, all_ok = set(), None, True
    for ops in wl.rounds(seed=3):
        if set(ops) <= seen:
            break
        for op in ops:
            seen.add(op)
            ok, counts = wl.run_op(op)
            all_ok &= ok
            detected = counts.pop("control_detected", detected)
            for key, value in counts.items():
                totals[key] += value
    assert seen == {("bessel",), ("control",)} | {("k", k) for k in range(5, 51, 5)}
    report = verifier.run_bound_sweeps(k_max=50, identity_k_max=25)
    assert totals == {
        "identity_checks": report.identity_checks,
        "weil_checks": report.weil_checks,
        "bound_checks": report.bound_checks,
        "bessel_checks": report.bessel_checks,
    }
    assert detected is True and report.negative_control_detected is True
    assert all_ok == report.passed


def test_exact_oracle_ops_agree_with_run_exact_oracle():
    wl = workloads.ExactOracle(n_lo=10, n_hi=16)
    wl.setup()
    failing = {(d, n) for d in (1, -1) for n in range(10, 17) if not wl.run_op((d, n))[0]}
    report = verifier.run_exact_oracle(10, 16)
    assert failing == {(m["delta"], m["n"]) for m in report.mismatches}
    assert report.rounding_matches == report.total - len(failing)


def _traced(workload, seed, ops):
    tracer = Tracer()
    if workload.in_process:
        tracer.install()
    try:
        records, _ = worker.run_phase(workload, seed, 0, ops, tracer)
    finally:
        tracer.uninstall()
    return records, tracer


@pytest.mark.parametrize(
    "make",
    [
        lambda out: workloads.ExactOracle(n_hi=60),
        lambda out: workloads.KloostermanGrid(),
        lambda out: workloads.SeriesVerify(n_top=3000),
        lambda out: workloads.ColdCli(out),
    ],
    ids=["exact-oracle", "kloosterman-grid", "series-verify", "cold-cli"],
)
def test_work_counts_repeat_and_self_times_fit(make, tmp_path):
    wl = make(tmp_path)
    wl.setup()
    first, tracer = _traced(wl, 5, 2)
    second, _ = _traced(wl, 5, 2)
    assert all(r["ok"] for r in first + second)
    assert [r["op"] for r in first] == [r["op"] for r in second]
    assert [r["counts"] for r in first] == [r["counts"] for r in second]
    assert any(any(r["counts"].values()) for r in first)
    _, self_by_op = layer_totals(tracer.spans)
    assert self_by_op
    for op_id, own in self_by_op.items():
        assert own <= first[op_id]["end_ns"] - first[op_id]["start_ns"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_fixed_op_set_is_whole_rounds_with_ten_beyond_the_tail(name):
    cls = workloads.WORKLOADS[name]
    assert cls.MIN_OPS * (100 - cls.TAIL_P) / 100 >= 10
    for seed in (1, 2):
        done = 0
        for ops in cls().rounds(seed):
            done += len(ops)
            if done >= cls.MIN_OPS:
                break
        assert done == cls.MIN_OPS


def test_times_scale_to_the_reference_speed():
    at_ref = [{"start_ns": 0, "end_ns": 5_000_000, "cal_ns": run.CAL_REF_NS}] * 3
    assert run.op_ns_at_ref(at_ref) == [5_000_000] * 3
    slow = [dict(r, end_ns=10_000_000, cal_ns=2 * run.CAL_REF_NS) for r in at_ref]
    assert run.op_ns_at_ref(slow) == pytest.approx([10_000_000 * 0.5**run.CAL_EXPONENT] * 3)


def test_harrell_davis_quantiles():
    assert run.harrell_davis([7.0] * 9, 75) == pytest.approx(7.0)
    assert run.harrell_davis([float(v) for v in range(1, 42)], 50) == pytest.approx(21.0)
    assert 30 < run.harrell_davis([float(v) for v in range(1, 42)], 75) < 32


def test_benchmark_json_lists_what_the_runs_emit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    emitted = {k: v["unit"] for k, v in per_layer_metrics([], [], []).items()} | run.TRACE_METRICS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == emitted
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "exact-oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
