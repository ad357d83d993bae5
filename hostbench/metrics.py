"""Metric names, units and the per-layer report built from spans.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's contract: an
untraced run reports exactly the first, a traced run exactly the
second, on every workload.  ``BENCHMARK.json`` at the repository root
lists the same names (the self-tests check that they agree).
"""

from __future__ import annotations

import re

import numpy as np

from layers import LAYERS
from spans import LayerTotals, Span, layer_totals, self_times, union_length
from stats import pct

#: name -> unit
END_TO_END = {
    "setup_s": "s",
    "setup_rss_mb": "MB",
    "solve_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "goodput_rps": "1/s",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "kernels.vectors": "count",
    "kernels.run_s": "s",
    "kernels.us_per_vector": "us",
    "kernels.x_floor": "x",
    "kernels.share_pct": "%",
    "engine.calls": "count",
    "engine.busy_s": "s",
    "engine.self_s": "s",
    "engine.fingerprint.calls": "count",
    "engine.fingerprint.s": "s",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.evictions": "count",
    "persist.hits": "count",
    "persist.misses": "count",
    "persist.load_s": "s",
    "plan.calls": "count",
    "plan.s": "s",
    "plan.rank_flips": "count",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p99": "ms",
    "serve.queue_wait_share_pct": "%",
    "serve.batch_size.mean": "count",
    "serve.batches.max-wait": "count",
    "serve.batches.max-batch": "count",
    "exec.calls": "count",
    "exec.self_s": "s",
    "exec.degradations": "count",
    "formats.prepare.calls": "count",
    "formats.prepare_s": "s",
    "formats.prepare.run_calls": "count",
    "apps.iterations": "count",
    "apps.self_s": "s",
    **{f"{layer}.x_floor_busy": "x" for layer in LAYERS},
    "loadgen.sent": "count",
    "loadgen.lateness_ms.p99": "ms",
    "floor.scipy_us_per_vector": "us",
    "obs.tracing_overhead_pct": "%",
    "obs.residual_pct": "%",
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: spans that measure waiting, not work: kept out of busy and self time
WAITS = ("serve.queue_wait", "loadgen.lateness")


def _outermost(spans: list[Span], layer: str) -> list[Span]:
    by_id = {s.span_id: s for s in spans}
    out = []
    for s in spans:
        if s.layer != layer:
            continue
        parent = by_id.get(s.parent_id)
        while parent is not None and parent.layer != layer:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            out.append(s)
    return out


def residual_pct(spans: list[Span]) -> float:
    """Share of end-to-end time that no layer or wait span covers.

    A root is a benchmark ``loadgen.request``/``loadgen.solve`` span;
    it is covered by every span of its trace and by the engine batch
    its queue wait handed it to.
    """
    by_trace: dict[int, list[Span]] = {}
    for s in spans:
        by_trace.setdefault(s.trace_id, []).append(s)
    by_id = {s.span_id: s for s in spans}
    total = uncovered = 0.0
    for root in spans:
        if root.name not in ("loadgen.request", "loadgen.solve"):
            continue
        intervals = []
        for s in by_trace[root.trace_id]:
            if s is root:
                continue
            intervals.append((s.start, s.end))
            batch = by_id.get(s.attrs.get("batch"))
            if batch is not None:
                intervals.append((batch.start, batch.end))
        total += root.duration
        uncovered += root.duration - union_length(intervals, root.start, root.end)
    return 100.0 * uncovered / total if total else 0.0


def per_layer(
    setup_spans: list[Span],
    run_spans: list[Span],
    *,
    cache_stats: dict,
    batches_by_cause: dict,
    floor_us: float,
    lateness_ms: list[float],
    sent: int,
    overhead_pct: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the traced run's spans and counters."""
    work = [s for s in run_spans if s.name not in WAITS]
    totals = layer_totals(work)
    selfs = self_times(work)
    engine, exec_, plan = (totals.get(name, LayerTotals()) for name in ("engine", "exec", "plan"))

    def named(name):
        return [s for s in work if s.name == name]

    kernels = _outermost(work, "kernels")
    vectors = sum(s.attrs.get("vectors", 0) for s in kernels)
    run_s = sum(s.duration for s in kernels)
    roots = [s for s in run_spans if s.name in ("loadgen.request", "loadgen.solve")]
    e2e_s = sum(s.duration for s in roots)
    waits = [1e3 * s.duration for s in run_spans if s.name == "serve.queue_wait"]
    latencies = [1e3 * s.duration for s in run_spans if s.name == "loadgen.request"]
    batches = named("engine.spmv_many")
    plans = named("plan.plan")
    gets = named("persist.get")
    hits, misses = cache_stats.get("hits", 0), cache_stats.get("misses", 0)

    floor_s = floor_us / 1e6
    metrics = {
        "kernels.vectors": vectors,
        "kernels.run_s": run_s,
        "kernels.us_per_vector": 1e6 * run_s / vectors if vectors else 0.0,
        "kernels.x_floor": run_s / vectors / floor_s if vectors else 0.0,
        "kernels.share_pct": 100.0 * run_s / e2e_s if e2e_s else 0.0,
        "engine.calls": engine.calls,
        "engine.busy_s": engine.busy_s,
        "engine.self_s": engine.self_s,
        "engine.fingerprint.calls": len(named("engine.fingerprint")),
        "engine.fingerprint.s": sum(s.duration for s in named("engine.fingerprint")),
        "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.cache.evictions": cache_stats.get("evictions", 0),
        "persist.hits": sum(1 for s in gets if s.attrs.get("hit")),
        "persist.misses": sum(1 for s in gets if not s.attrs.get("hit")),
        "persist.load_s": sum(s.duration for s in gets),
        "plan.calls": plan.calls,
        "plan.s": plan.busy_s,
        "plan.rank_flips": sum(1 for s in plans if s.attrs.get("flipped")),
        "serve.queue_wait_ms.p50": pct(waits, 50) if waits else 0.0,
        "serve.queue_wait_ms.p99": pct(waits, 99) if waits else 0.0,
        "serve.queue_wait_share_pct": (
            100.0 * pct(waits, 50) / pct(latencies, 50) if waits and latencies else 0.0
        ),
        "serve.batch_size.mean": (
            float(np.mean([s.attrs["vectors"] for s in batches])) if batches else 0.0
        ),
        "serve.batches.max-wait": batches_by_cause.get("max-wait", 0),
        "serve.batches.max-batch": batches_by_cause.get("max-batch", 0),
        "exec.calls": exec_.calls,
        "exec.self_s": exec_.self_s,
        "exec.degradations": sum(s.attrs.get("degradations", 0) for s in named("exec.chain")),
        "formats.prepare.calls": sum(1 for s in setup_spans if s.name == "formats.prepare"),
        "formats.prepare_s": sum(s.duration for s in setup_spans if s.name == "formats.prepare"),
        "formats.prepare.run_calls": len(named("formats.prepare")),
        "apps.iterations": sum(s.attrs.get("iterations", 0) for s in named("apps.pagerank")),
        "apps.self_s": sum(selfs[s.span_id] for s in named("apps.pagerank")),
        "loadgen.sent": sent,
        "loadgen.lateness_ms.p99": pct(lateness_ms, 99) if lateness_ms else 0.0,
        "floor.scipy_us_per_vector": floor_us,
        "obs.tracing_overhead_pct": overhead_pct,
        "obs.residual_pct": residual_pct(run_spans),
    }
    for layer in LAYERS:
        busy = totals.get(layer, LayerTotals()).busy_s
        metrics[f"{layer}.x_floor_busy"] = busy / vectors / floor_s if vectors else 0.0
    return metrics
