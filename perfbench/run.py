"""qsign benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload exact-oracle --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6

Run from anywhere inside a checkout of the repository: the benchmark
imports qsign from the checkout's own `src/`. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
The line before it holds the run's metadata. Spans and per-run results
are written under `.perfbench_out/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
RUN_TIMEOUT_S = 170
END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics of the traced run besides the tracer's own.
TRACE_METRICS = {"trace.ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s", "trace.overhead": "ratio"}
# Times are reported at the host speed where worker.calibration_ns takes
# CAL_REF_NS: each op's time is multiplied by the ratio of CAL_REF_NS to
# the median of the calibration samples taken right after the ops within
# CAL_WINDOW of it, and a set-up's time by the ratio of CAL_REF_NS to the
# median of the samples taken right after it, each ratio raised to the
# power CAL_EXPONENT. The speed one process gets from the shared host
# swings by up to 1.7x within seconds and over minutes, and the kernel's
# time follows it on the CPU the worker is pinned to, somewhat more
# strongly than the workloads' times do: over runs of each fixed op set,
# log run time against log calibration time has slopes of 0.6-1.0, and
# 0.8 steadied every workload. The kernel is independent of qsign, so a
# change to qsign moves the scaled times by its full effect; the
# wall-clock figures are kept in the run's metadata.
CAL_REF_NS = 6_000_000
CAL_WINDOW = 3
CAL_EXPONENT = 0.8


def machine_probe() -> float:
    """Seconds for a fixed pure-Python integer loop; recorded, never used to rescale."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def harrell_davis(sorted_values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a Beta-weighted mean
    of all the order statistics, centred on the p-th. On a few dozen ops of
    uneven cost a single order statistic jumps with one op's noise."""
    from mpmath import betainc

    n = len(sorted_values)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    return sum(float(betainc(a, b, i / n, (i + 1) / n, regularized=True)) * x for i, x in enumerate(sorted_values))


def op_ns_at_ref(records: list) -> list:
    """Each op's time in ns at the reference host speed (see CAL_REF_NS)."""
    cal = [r["cal_ns"] for r in records]
    return [
        (r["end_ns"] - r["start_ns"])
        * (CAL_REF_NS / statistics.median(cal[max(0, i - CAL_WINDOW) : i + CAL_WINDOW + 1])) ** CAL_EXPONENT
        for i, r in enumerate(records)
    ]


def run_metadata(seed: int) -> dict:
    import mpmath

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def _worker(config: dict, deadline: float) -> dict:
    """Run worker.py in its own process group, so that a timeout also
    stops the CLI children of a cold-cli worker."""
    config = dict(config, out_dir=str(OUT_DIR))
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {config['workload']} failed (exit {proc.returncode}):\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload; returns (result line, metadata)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    meta = run_metadata(seed)
    meta["workload"] = name
    meta["probe_before_s"] = machine_probe()
    base = {"workload": name, "seed": seed}
    setup_runs = [_worker(dict(base, setup_only=True), deadline) for _ in range(SETUP_SAMPLES - 1)]
    res = _worker(dict(base, seconds=seconds, trace=trace), deadline)
    setup_runs.append(res)
    meta["probe_after_s"] = machine_probe()
    setups = [s["setup_s"] for s in setup_runs]
    setups_at_ref = [s["setup_s"] * (CAL_REF_NS / s["setup_cal_ns"]) ** CAL_EXPONENT for s in setup_runs]

    records = res["records"] + res.get("traced_records", [])
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    tail_p = workloads.WORKLOADS[name].TAIL_P

    def timings(op_ns: list, setup_s: list) -> dict:
        lat_ms = sorted(ns / 1e6 for ns in op_ns)
        return {
            "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "latency_p50_ms": harrell_davis(lat_ms, 50),
            "latency_tail_ms": harrell_davis(lat_ms, tail_p),
            "setup_s": statistics.median(setup_s),
        }

    raw = timings([r["end_ns"] - r["start_ns"] for r in res["records"]], setups)
    at_ref = timings(op_ns_at_ref(res["records"]), setups_at_ref)
    meta.update(
        ops_per_run=len(res["records"]),
        run_elapsed_s=res["elapsed_ns"] / 1e9,
        calibration_ms=statistics.median(r["cal_ns"] for r in res["records"]) / 1e6,
        setup_calibration_ms=[s["setup_cal_ns"] / 1e6 for s in setup_runs],
        wall_metrics=raw,
        failed_ratio=failed / attempted,
        failures=[{k: v for k, v in r.items() if k != "counts"} for r in records if not r["ok"]][:20],
        latency_tail_percentile=tail_p,
        latency_samples=len(res["records"]),
        setup_samples_s=setups,
        definitive=sum(bool(r.get("definitive")) for r in records),
    )
    if trace:
        traced = res["traced_records"]
        common = min(len(traced), len(res["records"]))
        untraced_ns = sum(r["end_ns"] - r["start_ns"] for r in res["records"][:common])
        traced_ns = sum(r["end_ns"] - r["start_ns"] for r in traced[:common])
        values = {
            "trace.ops_per_s": len(traced) / (sum(r["end_ns"] - r["start_ns"] for r in traced) / 1e9),
            "trace.untraced_ops_per_s": raw["ops_per_s"],
            "trace.overhead": traced_ns / untraced_ns - 1 if untraced_ns else 0.0,
        }
        metrics = dict(res["layers"])
        metrics.update({k: {"value": v, "unit": TRACE_METRICS[k]} for k, v in values.items()})
        meta.update(trace_file=res["trace_file"], ops_self_over_wall=res["ops_self_over_wall"])
        correct = failed == 0 and not res["ops_self_over_wall"]
    else:
        values = dict(at_ref, peak_rss_mb=res["peak_rss_mb"])
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"meta": meta, "result": result, "records": records}) + "\n", encoding="utf-8"
    )
    return result, meta


def _print_table(name: str, result: dict, meta: dict) -> None:
    print(f"== {name}: {result['attempted']} ops, {result['failed']} failed, failed_ratio {meta['failed_ratio']:.4g}")
    for key, m in result["metrics"].items():
        print(f"   {key:<40} {m['value']:>14.6g} {m['unit']}")
    if "latency_tail_ms" in result["metrics"]:
        print(f"   latency_tail is p{meta['latency_tail_percentile']:g} of {meta['latency_samples']} ops")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qsign" / "__init__.py").is_file():
        print(f"error: no qsign sources under {ROOT / 'src'}; run inside a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        try:
            runs[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if args.workload != "all":
        result, meta = runs[args.workload]
    else:
        meta = {"workloads": list(names), "seed": args.seed}
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name, (res, res_meta) in runs.items():
            _print_table(name, res, res_meta)
            result["correct"] &= res["correct"]
            result["attempted"] += res["attempted"]
            result["failed"] += res["failed"]
            result["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
