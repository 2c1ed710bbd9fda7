"""One benchmark process: set up a workload, then run its ops closed-loop
(one client; the next op starts when the previous one returns).

Usage: python3 perfbench/worker.py '{"workload": ..., "seed": ..., ...}'
Config keys: workload, seed, seconds, trace (0/1), setup_only, out_dir.
Prints one JSON object as its last line of standard output.

The worker pins itself, and so the CLI children it starts, to one CPU,
and times a fixed calibration kernel (`calibration_ns`) right after its
set-up and after every untraced op, on that CPU, so that the harness can
express the times at a fixed host speed; see run.py.

A run is the workload's fixed op set (its first MIN_OPS ops, whole
rounds), extended by whole rounds only while `seconds` have not passed.
With trace 1 the run is made twice over the same op sequence, untraced and
then traced, each for half of `seconds`, so that the tracing overhead is
measured on the same ops.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = workloads.ROOT
# Operands of the calibration kernel's big-integer product (about 100k bits each).
_CAL_A, _CAL_B = 7**24_000, 11**20_000


def calibration_ns() -> int:
    """Nanoseconds for a fixed kernel independent of qsign: about 2 ms
    each of interpreter loop, 128-bit mpmath arithmetic and a big-integer
    product, the three kinds of work qsign does. Its time tracks the speed
    the shared host gives this CPU."""
    from mpmath import exp, mp, mpf, sqrt

    start = time.perf_counter_ns()
    acc = 0
    for i in range(16_000):
        acc = (acc * 31 + i) % 1_000_003
    with mp.workprec(128):
        x, total = mpf(1) / 3, mpf(0)
        for i in range(1, 60):
            total += exp(x * i / 60) * sqrt(mpf(i))
    _CAL_A * _CAL_B
    return time.perf_counter_ns() - start


def _load_qsign():
    sys.path.insert(0, str(ROOT / "src"))
    import qsign

    if Path(qsign.__file__).resolve().parent != (ROOT / "src" / "qsign").resolve():
        raise RuntimeError(f"imported qsign from {qsign.__file__}, not from this checkout")


def run_phase(workload, seed: int, seconds: float, max_ops=None, tracer=None) -> tuple[list, int]:
    """Run the workload's fixed op set (its first MIN_OPS ops), then whole
    rounds until `seconds` have passed; or exactly `max_ops` ops. Returns
    the per-op records and the elapsed nanoseconds. An untraced op's
    record holds the calibration time measured right after it."""
    records: list[dict] = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    for ops in workload.rounds(seed):
        for op in ops:
            if max_ops is not None and len(records) >= max_ops:
                break
            op_id = len(records)
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = time.perf_counter_ns()
            try:
                ok, info = workload.run_op(op, op_id, tracer)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                ok, info = False, {"error": repr(exc)}
            t1 = time.perf_counter_ns()
            record = {"op": list(op), "start_ns": t0, "end_ns": t1, "ok": bool(ok), **info}
            if tracer is not None:
                record["counts"] = dict(tracer.end_op())
            else:
                record["cal_ns"] = calibration_ns()
            records.append(record)
        if max_ops is not None:
            if len(records) >= max_ops:
                break
        elif time.perf_counter_ns() >= deadline and len(records) >= workload.MIN_OPS:
            break
    return records, time.perf_counter_ns() - start


def main(config: dict) -> dict:
    if hasattr(os, "sched_setaffinity"):  # the calibration must run where the ops run
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cls = workloads.WORKLOADS[config["workload"]]
    t_setup = time.perf_counter()
    _load_qsign()
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = cls() if cls.in_process else cls(out_dir)
    workload.setup()
    result = {"setup_s": time.perf_counter() - t_setup}
    result["setup_cal_ns"] = statistics.median(calibration_ns() for _ in range(5))
    if config.get("setup_only"):
        return result

    seed, seconds = config["seed"], config["seconds"]
    traced = bool(config.get("trace"))
    phase_seconds = seconds / 2 if traced else seconds
    records, elapsed = run_phase(workload, seed, phase_seconds)
    result.update(records=records, elapsed_ns=elapsed)
    if traced:
        from tracer import Tracer, layer_totals, per_layer_metrics

        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        try:
            traced_records, _ = run_phase(workload, seed, phase_seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        _, self_by_op = layer_totals(tracer.spans)
        wall = {i: r["end_ns"] - r["start_ns"] for i, r in enumerate(traced_records)}
        over = [i for i, s in self_by_op.items() if s > wall.get(i, 0)]
        trace_file = out_dir / f"trace-{workload.name}-seed{seed}.json"
        trace_file.write_text(
            json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"], "spans": tracer.spans}),
            encoding="utf-8",
        )
        result.update(
            traced_records=traced_records,
            layers=per_layer_metrics(tracer.spans, [r["counts"] for r in traced_records], getattr(workload, "import_ns", [])),
            ops_self_over_wall=over,
            trace_file=str(trace_file.relative_to(ROOT)),
        )
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
