"""Host-speed benchmark of the SpMV stack, end to end and layer by layer.

Run from the repository root::

    python3 hostbench/run.py --workload solve --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures half the seconds untraced and half with spans
around every layer's entry points, then reports the per-layer metrics
(and the tracing overhead as the difference).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any incorrect result makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".hostbench"

#: Set-ups are timed until this many seconds or ``MAX_SETUPS`` have
#: passed, at least ``MIN_SETUPS``, once before the measurement and once
#: after it; ``setup_s`` is the median of both rounds.  The host's speed
#: drifts in phases of seconds, which one round alone would catch whole.
SETUP_SECONDS = 1.0
MIN_SETUPS, MAX_SETUPS = 5, 50


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"hostbench: no program source at {src}; run from a repository checkout")
    sys.path.insert(0, str(src))


def _setup_memory_mb(workload) -> float:
    """Bytes still allocated after one set-up, in MB."""
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    system = workload.setup()
    grown = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    workload.teardown(system)
    return grown / 1e6


def _timed_setups(workload, seconds: list):
    """Appends one round of set-up times to ``seconds``; returns the last system."""
    start_count = len(seconds)
    while True:
        start = time.perf_counter()
        system = workload.setup()
        seconds.append(time.perf_counter() - start)
        timed = seconds[start_count:]
        enough = sum(timed) >= SETUP_SECONDS and len(timed) >= MIN_SETUPS
        if enough or len(timed) == MAX_SETUPS:
            return system
        workload.teardown(system)


def end_to_end(workload, seconds: float):
    setup_mb = _setup_memory_mb(workload)
    setups: list[float] = []
    system = _timed_setups(workload, setups)
    try:
        m = workload.measure(system, seconds)
    finally:
        workload.teardown(system)
    workload.teardown(_timed_setups(workload, setups))
    metrics = {
        "setup_s": statistics.median(setups),
        "setup_rss_mb": setup_mb,
        "solve_s": statistics.median(m.solve_s),
        "latency_p50_ms": m.p50_ms,
        "latency_p99_ms": m.p99_ms,
        "goodput_rps": m.goodput_rps,
        "ok_ratio": 1.0 - m.failed / m.attempted,
    }
    return metrics, m


def traced(workload, seconds: float, workload_name: str):
    from layers import LayerTracer
    from metrics import per_layer
    from spans import SpanRecorder

    system = workload.setup()
    try:
        base = workload.measure(system, seconds / 2)
    finally:
        workload.teardown(system)
    recorder = SpanRecorder()
    tracer = LayerTracer(recorder)
    tracer.install()
    try:
        recorder.phase = "setup"
        system = workload.setup()
        recorder.phase = "run"
        try:
            m = workload.measure(system, seconds / 2, recorder, tracer)
        finally:
            workload.teardown(system)
    finally:
        tracer.uninstall()
    WORKDIR.mkdir(exist_ok=True)
    recorder.dump(WORKDIR / f"spans-{workload_name}.jsonl")
    spans = recorder.snapshot()
    metrics = per_layer(
        [s for s in spans if s.phase == "setup"],
        [s for s in spans if s.phase == "run"],
        cache_stats=m.cache_stats,
        batches_by_cause=m.batches_by_cause,
        floor_us=workload.floor_us,
        lateness_ms=m.lateness_ms,
        sent=m.sent,
        overhead_pct=100.0 * (m.headline_ms - base.headline_ms) / base.headline_ms,
    )
    base.attempted += m.attempted
    base.failed += m.failed
    return metrics, base


def stress_checks(name: str, metrics: dict) -> list[str]:
    """Whether the traced run stressed the layer the workload is for."""
    checks = []
    if name == "solve":
        checks.append(("kernels.share_pct > 50", metrics["kernels.share_pct"] > 50))
        checks.append(("engine.fingerprint.calls == 0", metrics["engine.fingerprint.calls"] == 0))
    elif name == "serve-light":
        checks.append(("serve.queue_wait_share_pct > 50", metrics["serve.queue_wait_share_pct"] > 50))
    else:
        checks.append(("engine.fingerprint.calls > 0", metrics["engine.fingerprint.calls"] > 0))
        checks.append(("persist.hits > 0", metrics["persist.hits"] > 0))
        checks.append(("formats.prepare.calls == 0 (set-up)", metrics["formats.prepare.calls"] == 0))
    checks.append(("exec.degradations == 0", metrics["exec.degradations"] == 0))
    return [f"  check {text}: {'ok' if ok else 'NOT MET'}" for text, ok in checks]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "serve-light", "serve-heavy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(HERE))
    from loadgen import LATENESS_BOUND_MS
    from metrics import END_TO_END, PER_LAYER
    from stats import beyond, pct
    from workloads import ServeHeavy, ServeLight, Solve

    if args.workload == "solve":
        workload = Solve(args.seed)
    elif args.workload == "serve-light":
        workload = ServeLight(args.seed)
    else:
        WORKDIR.mkdir(exist_ok=True)
        workload = ServeHeavy(args.seed, WORKDIR)
    try:
        if args.trace:
            metrics, m = traced(workload, args.seconds, args.workload)
            units = PER_LAYER
        else:
            metrics, m = end_to_end(workload, args.seconds)
            units = END_TO_END
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()

    print(f"hostbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    print(f"  {'failed_ratio':32s} {m.failed / m.attempted:14.6g} ratio ({m.failed}/{m.attempted})")
    block = len(m.latencies_ms) // m.blocks
    print(
        f"  latency samples {len(m.latencies_ms)} in {m.blocks} block(s), "
        f"beyond each block's p99 {beyond(block, 99)}"
    )
    for rung in m.rungs:
        verdict = "meets" if rung.meets(workload.limit_ms) else "misses"
        lagged = rung.late_p99_ms > LATENESS_BOUND_MS
        print(
            f"  ladder {rung.ladder} rung {rung.rate:6.0f}/s sent {rung.sent:5d} p50 {rung.p50_ms:8.2f} ms "
            f"p99 {rung.p99_ms:8.2f} ms backlog {rung.backlog:4d} failed {rung.failed} "
            f"lateness p99 {rung.late_p99_ms:6.2f} ms: {verdict} the "
            f"{workload.limit_ms:g} ms p99 limit{' (FLAG: generator lagged)' if lagged else ''}"
        )
    for note in m.notes:
        print(f"  {note}")
    if m.lateness_ms and not m.rungs and pct(m.lateness_ms, 99) > LATENESS_BOUND_MS:
        print(
            f"  FLAG generator lateness p99 {pct(m.lateness_ms, 99):.2f} ms "
            f"exceeds {LATENESS_BOUND_MS} ms"
        )
    if args.trace:
        print("\n".join(stress_checks(args.workload, metrics)))

    correct = m.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
