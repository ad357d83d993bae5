"""Self-tests of the benchmark: schedules, metric names, span arithmetic, gates.

Run from the repository root with ``python3 -m pytest hostbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from floor import HEAVY_RTOL, bitwise_ok, heavy_ok, pagerank_ok
from loadgen import poisson_offsets
from metrics import END_TO_END, NAME, PER_LAYER, UNIT, residual_pct
from spans import Span, SpanRecorder, layer_totals, self_times, union_length
from stats import Rung, beyond, goodput, pool
from workloads import ServeHeavy, ServeLight

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# -- seeded schedules ---------------------------------------------------------


def _plan(requests):
    return [(r.offset, r.matrix, r.vector) for r in requests]


def test_light_schedule_repeats_for_a_seed_and_differs_across_seeds():
    assert _plan(ServeLight.schedule(3, 2.0)) == _plan(ServeLight.schedule(3, 2.0))
    assert _plan(ServeLight.schedule(3, 2.0)) != _plan(ServeLight.schedule(4, 2.0))


def _rungs(schedule):
    warm_up, lowest, ladders = schedule
    return [warm_up, *lowest, *(rung for ladder in ladders for rung in ladder)]


def test_heavy_schedule_repeats_for_a_seed_and_climbs_the_ladder():
    first = _rungs(ServeHeavy.schedule(5, 10.0))
    again = _rungs(ServeHeavy.schedule(5, 10.0))
    assert [(r, d, _plan(q)) for r, d, q in first] == [(r, d, _plan(q)) for r, d, q in again]
    assert _plan(first[1][2]) != _plan(_rungs(ServeHeavy.schedule(6, 10.0))[1][2])
    for ladder in ServeHeavy.schedule(5, 10.0)[2]:
        rates = [rate for rate, _d, _q in ladder]
        assert rates == sorted(rates) and rates[0] > ServeHeavy.LOW_RATE
    # every request of a rung is scheduled inside the rung
    for _rate, duration, requests in first:
        assert all(0.0 <= r.offset < duration for r in requests)


def test_serving_p99_blocks_leave_ten_samples_beyond_p99_at_run_length():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for seed in range(20):
        _warm, lowest, _ladders = ServeHeavy.schedule(seed, seconds)
        assert len(lowest) == ServeHeavy.BLOCKS
        assert min(beyond(len(block), 99) for _rate, _duration, block in lowest) >= 10
        light = ServeLight.schedule(seed, seconds)
        assert beyond(len(light) // ServeLight.BLOCKS, 99) >= 10


def test_poisson_offsets_have_the_asked_rate():
    offsets = poisson_offsets(np.random.default_rng(0), 500.0, 20.0)
    assert abs(len(offsets) / 20.0 - 500.0) < 25.0
    assert np.all(np.diff(offsets) > 0)


# -- metric names -------------------------------------------------------------


def test_metric_names_and_units_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == END_TO_END
    assert declared_layer == PER_LAYER
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    assert not set(END_TO_END) & set(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in spec["workloads"]] == ["solve", "serve-heavy"]


# -- self-time arithmetic -----------------------------------------------------


def _span(span_id, parent_id, name, start, end, trace_id=1, **attrs):
    return Span(span_id, parent_id, trace_id, name, start, end, attrs=attrs)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, "engine.spmv_many", 0.0, 10.0),
        _span(2, 1, "exec.chain", 1.0, 4.0),
        _span(3, 1, "exec.chain", 3.0, 6.0),  # overlaps its sibling
        _span(4, 2, "kernels.run", 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0})
    totals = layer_totals(spans)
    assert totals["engine"].calls == 1 and totals["engine"].busy_s == pytest.approx(10.0)
    assert totals["exec"].calls == 2 and totals["exec"].self_s == pytest.approx(5.0)


def test_self_times_of_sequential_children_add_up_to_the_root():
    spans = [
        _span(1, None, "apps.pagerank", 0.0, 10.0),
        _span(2, 1, "engine.operator_call", 1.0, 4.0),
        _span(3, 2, "exec.chain", 1.5, 3.5),
        _span(4, 3, "kernels.run", 2.0, 3.0),
        _span(5, 1, "engine.operator_call", 5.0, 9.0),
    ]
    totals = layer_totals(spans)
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)
    assert totals["engine"].calls == 2 and totals["engine"].busy_s == pytest.approx(7.0)


def test_nested_spans_of_one_layer_count_as_one_call():
    spans = [
        _span(1, None, "kernels.run_many", 0.0, 4.0, vectors=2),
        _span(2, 1, "kernels.run", 0.0, 2.0, vectors=1),
        _span(3, 1, "kernels.run", 2.0, 4.0, vectors=1),
    ]
    totals = layer_totals(spans)["kernels"]
    assert (totals.calls, totals.busy_s, totals.self_s) == (1, 4.0, 4.0)


def test_residual_counts_what_no_span_of_the_request_covers():
    spans = [
        _span(1, None, "loadgen.request", 0.0, 10.0, trace_id=7),
        _span(2, None, "loadgen.lateness", 0.0, 1.0, trace_id=7),
        _span(3, None, "engine.spmv_many", 4.0, 8.0, trace_id=9),
        _span(4, None, "serve.queue_wait", 1.0, 4.0, trace_id=7, batch=3),
    ]
    # 0-8 covered (lateness, queue wait, linked batch): 2 of 10 left
    assert residual_pct(spans) == pytest.approx(20.0)


def test_recorder_nests_spans_per_thread_and_shares_the_trace():
    recorder = SpanRecorder()
    with recorder.span("loadgen.solve") as root:
        with recorder.span("apps.pagerank") as child:
            pass
    assert child.parent_id == root.span_id and child.trace_id == root.trace_id
    assert child.end <= root.end


# -- goodput ------------------------------------------------------------------


def test_goodput_interpolates_where_log_p99_crosses_the_limit():
    rungs = [
        Rung(200, 1000, 20.0, 40.0, 0, 5),
        Rung(500, 1000, 25.0, 50.0, 0, 8),
        Rung(800, 1600, 90.0, 200.0, 0, 50),
    ]
    expected = 500 + 300 * math.log(100 / 50) / math.log(200 / 50)
    assert goodput(rungs, 100.0) == pytest.approx(expected)


def test_pooled_goodput_leaves_out_a_rung_one_ladder_of_three_lost():
    low = Rung(200, 1000, 20.0, 40.0, 0, 5)
    ladder = [Rung(500, 1000, 25.0, 50.0, 0, 8), Rung(800, 1600, 90.0, 200.0, 0, 50)]
    stalled = [Rung(500, 1000, 90.0, 400.0, 0, 8), ladder[1]]
    pooled = pool([low, *ladder, *ladder, *stalled], 100.0)
    assert [r.rate for r in pooled] == [200, 500, 800]
    assert goodput(pooled, 100.0) == pytest.approx(goodput([low, *ladder], 100.0))


def test_goodput_stops_at_a_rung_with_failures():
    rungs = [Rung(200, 1000, 20.0, 40.0, 0, 5), Rung(500, 1000, 25.0, 60.0, 1, 8)]
    assert goodput(rungs, 100.0) == 200


# -- correctness gates --------------------------------------------------------


def test_gates_accept_exact_results_and_trip_on_corruption():
    y = np.linspace(-1, 1, 9, dtype=np.float32)
    assert bitwise_ok(y.copy(), y)
    flipped = y.copy()
    flipped.view(np.uint32)[4] ^= 1  # one ulp
    assert not bitwise_ok(flipped, y)

    reference = y.astype(np.float64)
    magnitude = np.abs(reference) + 1.0
    assert heavy_ok(y, reference, magnitude)
    off = y.copy()
    off[0] += 4 * HEAVY_RTOL * magnitude[0]
    assert not heavy_ok(off, reference, magnitude)

    ranks = np.full(100, 0.01)
    assert pagerank_ok(ranks.astype(np.float32), ranks)
    assert not pagerank_ok((ranks * 1.1).astype(np.float32), ranks)


def test_serve_light_counts_a_corrupted_result_as_failed(monkeypatch):
    from repro.engine import SpMVEngine

    original = SpMVEngine.spmv_many

    def corrupting(self, requests, **kwargs):
        results = original(self, requests, **kwargs)
        results[0] = results[0] + np.float32(1.0)
        return results

    workload = ServeLight(seed=1)
    frontend = workload.setup()
    monkeypatch.setattr(SpMVEngine, "spmv_many", corrupting)
    try:
        m = workload.measure(frontend, 0.5)
    finally:
        workload.teardown(frontend)
    assert m.attempted > 0
    assert m.failed > 0
    assert math.isinf(max(m.latencies_ms))


def test_command_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "hostbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_goodput_fit_rides_over_one_disturbed_rung():
    rungs = [
        Rung(200, 1000, 20.0, 40.0, 0, 5),
        Rung(500, 1000, 60.0, 120.0, 0, 8),  # a passing stall
        Rung(800, 1600, 30.0, 60.0, 0, 9),
        Rung(1100, 2200, 150.0, 300.0, 0, 90),
    ]
    assert 800 < goodput(rungs, 100.0) < 1100


def test_block_percentiles_ignore_bursts_that_spare_one_block():
    from workloads import Measurement

    steps = [30.0] * 1000
    steps[100:120] = [80.0] * 20  # bursts filling 2% of the run ...
    steps[700:720] = [90.0] * 20  # ... in two of five blocks
    assert Measurement(latencies_ms=steps).p99_ms == pytest.approx(90.0)
    assert Measurement(latencies_ms=steps, blocks=5).p99_ms == pytest.approx(30.0)
    slow = [40.0] * 600 + [20.0] * 400  # a noisy spell over most of the run
    assert Measurement(latencies_ms=slow).p50_ms == pytest.approx(40.0)
    assert Measurement(latencies_ms=slow, blocks=5).p50_ms == pytest.approx(20.0)
    assert math.isinf(Measurement(latencies_ms=[math.inf] * 100, blocks=5).p99_ms)
