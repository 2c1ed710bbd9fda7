"""Span and work-count recorder wrapped around qsign's public functions.

The package itself is not modified: `Tracer.install` replaces each traced
function, in every qsign module that binds it, with a wrapper that records
a span (id, name, start_ns, end_ns, parent id, op id). Spans stay in memory
until the benchmark writes them out. Work counts are computed from the
arguments and results of the calls, so they repeat exactly for the same
op sequence.

Verdict classification (`sign_pattern_verdict`), which runs once per index
and inside verify's thread pool, is deliberately not traced: its time is
the self time of `verifier.verify_conjecture`.
"""

from __future__ import annotations

import functools
import itertools
import threading
from math import gcd, log2
from time import perf_counter_ns

# The layers are the package modules; each maps to its traced public functions.
TRACED = {
    "qseries": ("q10_series",),
    "verifier": ("verify_conjecture",),
    "exactformula": ("c_exact", "tail_bound_op", "threshold_lhs"),
    "numerics": ("bessel_i1", "zeta_3_2", "bessel_bound_checks"),
    "arithmetic": (
        "a_kj",
        "a_kj_rewrite",
        "a_kj_reduced_d5",
        "a_kj_reduced_d10_abs",
        "kloosterman",
        "weil_bound_check",
        "bound_check_d5",
        "bound_check_d10",
        "aggregated_bound_check",
        "a_k",
        "cal_a_k",
    ),
    "modularcheck": ("validation_suite", "theta", "eta", "omega_hk", "f_eval", "transformation_check_detail"),
    "cli": ("main",),
}

# Computed work counts: name -> unit. Counts that are maxima are sampled
# at the end of each op.
COUNTS = {
    "qseries.coeff_updates": "count",
    "qseries.coeff_bits_max": "bits",
    "exactformula.terms": "count",
    "exactformula.escalations": "count",
    "exactformula.definitive": "count",
    "arithmetic.root_terms": "count",
    "arithmetic.cache_entries": "count",
    "numerics.zeta_cache_entries": "count",
}
MAX_COUNTS = ("qseries.coeff_bits_max", "arithmetic.cache_entries", "numerics.zeta_cache_entries")

# Leaf functions whose summands are the root-of-unity terms counted in
# arithmetic.root_terms; none of them calls another traced function.
ROOT_SUM_FUNCTIONS = ("arithmetic.a_kj", "arithmetic.a_kj_rewrite", "arithmetic.kloosterman")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


@functools.lru_cache(maxsize=None)
def _twisted_terms(k: int, j_class: int) -> int:
    """Summands of A_{k,j}: 1 <= h < k with h == j (mod gcd(k,10)) and gcd(h,k) = 1."""
    d = gcd(k, 10)
    return sum(1 for h in range(1, k) if h % d == j_class and gcd(h, k) == 1)


@functools.lru_cache(maxsize=None)
def _kloosterman_terms(k: int) -> int:
    """Summands of K_k: residues coprime to k (one term for k = 1)."""
    return 1 if k == 1 else sum(1 for h in range(1, k) if gcd(h, k) == 1)


def _count_series(counts, modules, args, kwargs, result):
    order = _arg(args, kwargs, 1, "order")
    counts["qseries.coeff_updates"] += sum(order - a + 1 for a in range(1, order + 1) if a % 10 in (1, 3, 7, 9))
    bits = max(abs(c).bit_length() for c in result.coeffs)
    counts["qseries.coeff_bits_max"] = max(counts["qseries.coeff_bits_max"], bits)


def _count_exact(counts, modules, args, kwargs, result):
    delta, n = _arg(args, kwargs, 0, "delta"), _arg(args, kwargs, 1, "n")
    k0 = _arg(args, kwargs, 2, "k_max") or modules["exactformula"].default_k_max(delta, n)
    prec0 = _arg(args, kwargs, 3, "prec", 128)
    counts["exactformula.terms"] += result.k_max // 5
    counts["exactformula.escalations"] += round(log2(result.k_max / k0) + log2(result.prec / prec0))
    counts["exactformula.definitive"] += bool(result.definitive)


def _count_twisted(counts, modules, args, kwargs, result):
    k, j = _arg(args, kwargs, 0, "k"), _arg(args, kwargs, 1, "j")
    counts["arithmetic.root_terms"] += _twisted_terms(k, j % gcd(k, 10))


def _count_kloosterman(counts, modules, args, kwargs, result):
    counts["arithmetic.root_terms"] += _kloosterman_terms(_arg(args, kwargs, 0, "k"))


COUNTERS = {
    "qseries.q10_series": _count_series,
    "exactformula.c_exact": _count_exact,
    "arithmetic.a_kj": _count_twisted,
    "arithmetic.a_kj_rewrite": _count_twisted,
    "arithmetic.kloosterman": _count_kloosterman,
}


def qsign_modules() -> dict:
    """The package and its layer modules, by short name."""
    import importlib

    mods = {layer: importlib.import_module(f"qsign.{layer}") for layer in TRACED}
    mods["qsign"] = importlib.import_module("qsign")
    return mods


class Tracer:
    """Records spans and work counts while installed; one op at a time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._modules: dict = {}

    def install(self) -> None:
        self._modules = qsign_modules()
        for layer, names in TRACED.items():
            home = self._modules[layer]
            for fn_name in names:
                original = getattr(home, fn_name)
                full = f"{layer}.{fn_name}"
                wrapper = self._wrap(full, original, COUNTERS.get(full))
                for mod in self._modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.counts = dict.fromkeys(COUNTS, 0)

    def end_op(self) -> dict:
        """Sample the cache sizes of an installed tracer's process and
        return this op's work counts."""
        if not self._modules:
            return self.counts
        arithmetic = self._modules["arithmetic"]
        caches = len(arithmetic._ROOT_TABLES) + len(arithmetic._INVERSE_PAIRS) + len(arithmetic._AKJ_TERMS)
        self.counts["arithmetic.cache_entries"] = caches
        self.counts["numerics.zeta_cache_entries"] = len(self._modules["numerics"]._ZETA_CACHE)
        return self.counts

    def _wrap(self, name, fn, counter):
        spans = self.spans
        ids = self._ids
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, parent, tracer.op_id))
            if counter is not None:
                counter(tracer.counts, tracer._modules, args, kwargs, result)
            return result

        return wrapper


def layer_totals(spans) -> tuple[dict, dict]:
    """Per traced function: calls, busy_ns (inclusive) and self_ns
    (inclusive minus direct traced children); and per op: the sum of self
    times. Span ids need only be unique within one op."""
    children: dict[tuple, int] = {}
    for sid, name, start, end, parent, op in spans:
        if parent >= 0:
            children[(op, parent)] = children.get((op, parent), 0) + (end - start)
    totals: dict[str, list] = {}
    self_by_op: dict[int, int] = {}
    for sid, name, start, end, parent, op in spans:
        busy = end - start
        own = busy - children.get((op, sid), 0)
        row = totals.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += busy
        row[2] += own
        self_by_op[op] = self_by_op.get(op, 0) + own
    return totals, self_by_op


def per_layer_metrics(spans, op_counts: list[dict], import_ns: list[int]) -> dict:
    """The benchmark's per-layer metrics from spans and per-op work counts.

    Every traced function appears, with zeros when the workload never
    called it."""
    totals, _ = layer_totals(spans)
    metrics = {}
    for layer, names in TRACED.items():
        for fn_name in names:
            calls, busy, own = totals.get(f"{layer}.{fn_name}", (0, 0, 0))
            metrics[f"{layer}.{fn_name}.calls"] = {"value": calls, "unit": "count"}
            metrics[f"{layer}.{fn_name}.busy_s"] = {"value": busy / 1e9, "unit": "s"}
            metrics[f"{layer}.{fn_name}.self_s"] = {"value": own / 1e9, "unit": "s"}
    for name, unit in COUNTS.items():
        values = [c[name] for c in op_counts]
        value = (max(values) if name in MAX_COUNTS else sum(values)) if values else 0
        metrics[name] = {"value": value, "unit": unit}
    root_terms = metrics["arithmetic.root_terms"]["value"]
    root_ns = sum(totals.get(name, (0, 0, 0))[1] for name in ROOT_SUM_FUNCTIONS)
    metrics["arithmetic.ns_per_root_term"] = {"value": root_ns / root_terms if root_terms else 0.0, "unit": "ns"}
    ordered = sorted(import_ns)
    metrics["cli.import_s"] = {"value": ordered[len(ordered) // 2] / 1e9 if ordered else 0.0, "unit": "s"}
    return metrics
