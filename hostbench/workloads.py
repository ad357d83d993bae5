"""The three workloads: inputs from the seed, set-up, measurement, checks.

Each workload builds its inputs, references and SciPy floor in its
constructor (untimed), then offers ``setup()`` (timed by ``run.py``:
everything up to the first servable request), ``teardown()`` and
``measure()``, which drives load for the given seconds and checks every
result.  The program only ever sees the generated matrices and vectors.
"""

from __future__ import annotations

import gc
import importlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from floor import bitwise_ok, floor_seconds, heavy_ok, mix_floor_us, pagerank64, pagerank_ok, to_scipy
from loadgen import OpenLoop, build_requests, poisson_offsets, zipf_weights
from stats import Rung, goodput, pct, pool

from repro.apps.pagerank import transition_matrix
from repro.engine import SpMVEngine
from repro.engine.cache import matrix_fingerprint
from repro.formats.csr import CSRMatrix
from repro.matrices.generators import fp16_exact_values
from repro.matrices.loader import load_matrix
from repro.matrices.random import random_coo
from repro.obs import get_registry
from repro.persist import OperandStore
from repro.plan import StructurePlanner
from repro.serve import ServeFrontend

# the package re-exports the function under the module's name; looked up
# per call so the traced run's wrapper is seen
pagerank_module = importlib.import_module("repro.apps.pagerank")

clock = time.perf_counter

#: Seconds a request may stay unresolved after its schedule ends.
DRAIN_TIMEOUT_S = 15.0


@dataclass
class Measurement:
    """What one measuring window produced."""

    latencies_ms: list = field(default_factory=list)  # failed -> inf
    #: p50 and p99 are the lowest of their values over this many
    #: consecutive blocks: host noise only ever lengthens latencies, so
    #: the quietest block's are the program's own (as a min-of-N timing is)
    blocks: int = 1
    lateness_ms: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    sent: int = 0
    goodput_rps: float = 0.0
    headline_ms: float = 0.0  # what the tracing overhead is judged on
    rungs: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # printed, not reported
    cache_stats: dict = field(default_factory=dict)
    batches_by_cause: dict = field(default_factory=dict)

    def _lowest_over_blocks(self, q: float) -> float:
        blocks = np.array_split(np.asarray(self.latencies_ms), self.blocks)
        return min(pct(block, q) for block in blocks)

    @property
    def p50_ms(self) -> float:
        return self._lowest_over_blocks(50)

    @property
    def p99_ms(self) -> float:
        return self._lowest_over_blocks(99)


def _quiesce() -> None:
    """Move everything built so far out of the collector's sight.

    Inputs, references and precomputed schedules are many long-lived
    objects; left in the collected generations they make each full
    collection during the measurement scan them (tens of ms on a 2-core
    machine), a pause the program did not cause.
    """
    gc.collect()
    gc.freeze()


def _batches_by_cause() -> dict:
    metric = get_registry().get("serve_batches_total")
    out: dict[str, float] = {}
    for labels, value in metric.labeled() if metric is not None else ():
        out[labels["cause"]] = out.get(labels["cause"], 0) + value
    return out


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if isinstance(v, (int, float))}


class _Served:
    """Shared plumbing of the two serving workloads."""

    seed: int
    limit_ms: float
    pass_requests: int
    POOL: int
    matrices: dict
    pools: dict

    def _drive(self, frontend, requests, recorder=None, tracer=None) -> None:
        """Send ``requests`` open loop and wait for their replies."""
        pools = self.pools

        def submit(request):
            request.x = pools[request.matrix][request.vector]
            if tracer is None:
                return frontend.submit(request.matrix, request.x)
            request.trace_id = recorder.new_trace()
            tracer.expect(request)
            with recorder.span("loadgen.send", trace_id=request.trace_id):
                return frontend.submit(request.matrix, request.x)

        def on_done(request):
            recorder.record(
                "loadgen.request", request.scheduled, request.done, trace_id=request.trace_id
            )
            recorder.record(
                "loadgen.lateness",
                request.scheduled,
                request.sent,
                trace_id=request.trace_id,
                wait=True,
            )

        loop = OpenLoop(submit, on_done if recorder is not None else None)
        loop.run(requests, drain_timeout=DRAIN_TIMEOUT_S)

    def _tally(self, requests, m: Measurement) -> tuple[list, int]:
        """Check results; returns per-request latencies (failed -> inf)."""
        latencies = []
        failed = 0
        for request in requests:
            ok = request.result is not None and not isinstance(request.result, BaseException)
            ok = ok and self._check(request)
            failed += not ok
            latencies.append(1e3 * request.latency if ok else float("inf"))
            m.lateness_ms.append(1e3 * request.lateness)
        m.attempted += len(requests)
        m.failed += failed
        m.sent += len(requests)
        return latencies, failed

    def _closed_passes(self, frontend, m: Measurement, passes: int) -> None:
        """``solve_s``: one sequential caller, each request awaiting its reply."""
        rng = np.random.default_rng([self.seed, 7])
        names = list(self.matrices)
        for _ in range(passes):
            picks = rng.integers(self.POOL, size=self.pass_requests)
            start = clock()
            for i, j in enumerate(picks):
                name = names[i % len(names)]
                x = self.pools[name][j]
                try:
                    y = frontend.submit(name, x).result(timeout=DRAIN_TIMEOUT_S)
                    ok = self._check_pair(name, j, y)
                except Exception:
                    ok = False
                m.attempted += 1
                m.failed += not ok
            m.solve_s.append(clock() - start)

    def _check(self, request) -> bool:
        return self._check_pair(request.matrix, request.vector, request.result)

    def teardown(self, frontend) -> None:
        frontend.close()


class ServeLight(_Served):
    """Four small random matrices, low-rate Poisson arrivals, default front-end."""

    SIZES = (64, 128, 256, 512)
    NNZ_PER_ROW = 8
    RATE = 200.0  # requests per second: five 1800-request blocks in 45 s
    BLOCKS = 5
    POOL = 16
    limit_ms = 50.0
    pass_requests = 16

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.matrices = {
            f"m{n}": CSRMatrix.from_coo(
                random_coo(n, n, self.NNZ_PER_ROW / n, seed=int(rng.integers(2**31)))
            )
            for n in self.SIZES
        }
        self.pools = {
            name: np.stack([fp16_exact_values(rng, csr.ncols) for _ in range(self.POOL)])
            for name, csr in self.matrices.items()
        }
        # serial static-chain engine: batching must not change one bit
        serial = SpMVEngine()
        self.references = {
            name: [serial.spmv(csr, x) for x in self.pools[name]]
            for name, csr in self.matrices.items()
        }
        self.floor_us = mix_floor_us(self.matrices, self.pools, {n: 1.0 for n in self.matrices})

    def _check_pair(self, name, j, y) -> bool:
        return bitwise_ok(y, self.references[name][j])

    def setup(self):
        frontend = ServeFrontend(workers=2)
        for name, csr in self.matrices.items():
            frontend.register_matrix(name, csr, warm=True)
        return frontend

    @classmethod
    def schedule(cls, seed: int, seconds: float) -> list:
        """The run's requests: uniform over the matrices, Poisson in time."""
        rng = np.random.default_rng([seed, 1])
        names = [f"m{n}" for n in cls.SIZES]
        offsets = poisson_offsets(rng, cls.RATE, seconds)
        return build_requests(rng, offsets, names, np.full(len(names), 1.0 / len(names)), cls.POOL)

    def measure(self, frontend, seconds, recorder=None, tracer=None) -> Measurement:
        m = Measurement()
        requests = self.schedule(self.seed, seconds)
        _quiesce()
        if recorder is None:
            self._closed_passes(frontend, m, passes=10)
        causes = _batches_by_cause()
        cache = dict(frontend.engine.cache.stats.as_dict())
        start = clock()
        self._drive(frontend, requests, recorder, tracer)
        wall = np.nanmax([r.done for r in requests]) - start
        m.cache_stats = _delta(frontend.engine.cache.stats.as_dict(), cache)
        m.batches_by_cause = _delta(_batches_by_cause(), causes)
        m.latencies_ms, _ = self._tally(requests, m)
        m.blocks = self.BLOCKS
        within = sum(1 for v in m.latencies_ms if v <= self.limit_ms)
        m.goodput_rps = within / wall
        m.headline_ms = m.p50_ms
        return m


class ServeHeavy(_Served):
    """Zipfian traffic over Table-1 analogs, a planner, a disk-backed cache.

    After a warm-up rung, the lowest rung carries the latency metrics
    (long enough to leave ten samples beyond p99).  Then each of
    ``LADDERS`` ladders climbs offered rates until a rung fails requests
    or two in a row miss the limit.  ``goodput_rps`` is where the fitted
    p99 crosses the limit, each offered rate judged on the median p99 of
    the ladders that ran it.  The first ladder climbs from the bottom;
    the others start ``FOCUS`` rungs below its own crossing, so most
    rungs are spent where the p99 crosses the limit.
    """

    #: (analog, scale) in popularity order, head first.  Every analog's
    #: kernel wins by more than the planner's latency-feedback noise
    #: (conf5 and webbase1M, for example, flip kernels between restarts)
    MIX = (
        ("consph", 0.01),
        ("raefsky3", 0.01),
        ("Si41Ge41H72", 0.005),
        ("Ga41As41H72", 0.005),
    )
    #: Sequential single requests that make every matrix's first plan.
    #: The planner blends in per-vector latency observed on *other*
    #: matrices, so its first plans depend on the order they are made in
    #: and on one-off timings.  In this order each plan sees at most one
    #: spaden observation, the tail's see three cusparse-csr ones, and
    #: every plan has kept its kernel over twenty restarts.
    PLAN_ORDER = ("raefsky3", "consph", "consph", "consph", "Si41Ge41H72", "Ga41As41H72")
    ZIPF_S = 1.1
    POOL = 16
    LOW_RATE = 200.0  # four 1100-request blocks in half of 45 s
    WARM_RATE = 600.0
    #: shares of the seconds: warm-up, lowest rung, each ladder rung
    WARM_SHARE, LOW_SHARE, RUNG_SHARE = 0.05, 0.5, 0.025
    #: offered rates above the lowest, 1.15x apart, from well below the
    #: knee (~950 req/s on a 2-core VM) to about three times it
    LADDER = tuple(float(round(560 * 1.15**i, -1)) for i in range(12))
    LADDERS = 4
    #: one block of the lowest rung runs before each ladder: a spell of
    #: host noise lasts tens of seconds, and blocks spread over the whole
    #: run are likelier to catch a quiet one than blocks side by side
    BLOCKS = LADDERS
    FOCUS = 2
    limit_ms = 150.0
    pass_requests = 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        # The analogs' structure is fixed, not drawn from the seed: it
        # decides which kernel the planner picks for each matrix and so
        # where the knee lies (varying it moved goodput by ~20% between
        # seeds, four times the run-to-run spread of one seed).  The seed
        # draws the vectors and the traffic.
        self.matrices = {
            name: CSRMatrix.from_coo(load_matrix(name, scale=scale, seed=i).coo)
            for i, (name, scale) in enumerate(self.MIX)
        }
        self.weights = zipf_weights(len(self.MIX), self.ZIPF_S)
        self.pools = {
            name: np.stack([fp16_exact_values(rng, csr.ncols) for _ in range(self.POOL)])
            for name, csr in self.matrices.items()
        }
        self.references = {}
        for name, csr in self.matrices.items():
            A = to_scipy(csr, np.float64)
            X = self.pools[name].astype(np.float64).T
            self.references[name] = ((A @ X).T, (abs(A) @ np.abs(X)).T)
        self.floor_us = mix_floor_us(
            self.matrices, self.pools, dict(zip(self.matrices, self.weights))
        )
        self.store_dir = workdir / f"store-{seed}"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.cache_bytes = self._prime()

    def _check_pair(self, name, j, y) -> bool:
        reference, magnitude = self.references[name]
        return heavy_ok(y, reference[j], magnitude[j])

    def _frontend(self, cache_bytes: int) -> ServeFrontend:
        planner = StructurePlanner()
        engine = SpMVEngine(
            cache_bytes=cache_bytes, store=OperandStore(self.store_dir), planner=planner
        )
        frontend = ServeFrontend(engine, workers=2, planner=planner)
        for name, csr in self.matrices.items():
            frontend.register_matrix(name, csr)  # warms from the store
        return frontend

    def _plan_pass(self, frontend, m: Measurement) -> None:
        """Make each matrix's first plan in ``PLAN_ORDER`` (checked, untimed)."""
        for name in self.PLAN_ORDER:
            try:
                y = frontend.submit(name, self.pools[name][0]).result(timeout=DRAIN_TIMEOUT_S)
                ok = self._check_pair(name, 0, y)
            except Exception:
                ok = False
            m.attempted += 1
            m.failed += not ok

    def _prime(self) -> int:
        """Untimed first life of the server: fills the store, sizes the cache.

        Returns a cache budget that holds the largest operand of each of
        the two most popular matrices plus one of the tail's: the zipf
        head stays resident while the tail takes turns in one slot.
        """
        frontend = self._frontend(cache_bytes=1 << 30)
        rng = np.random.default_rng([self.seed, 2])
        names = list(self.matrices)
        try:
            # the same plans as every restart, so the store holds their operands
            self._plan_pass(frontend, Measurement())
            for rate in (self.LOW_RATE, self.LADDER[2]):
                offsets = poisson_offsets(rng, rate, 1.0)
                self._drive(frontend, build_requests(rng, offsets, names, self.weights, self.POOL))
        finally:
            frontend.close()
        cache = frontend.engine.cache
        sizes: dict[str, int] = {}
        fingerprints = {matrix_fingerprint(csr): name for name, csr in self.matrices.items()}
        for key in cache.keys():
            name = fingerprints[key[1]]
            sizes[name] = max(sizes.get(name, 0), cache.peek(key).device_bytes)
        return sum(sizes[name] for name in names[:2]) + max(sizes[name] for name in names[2:])

    def setup(self):
        return self._frontend(self.cache_bytes)

    def cleanup(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    @classmethod
    def schedule(cls, seed: int, seconds: float):
        """``(warm_up, lowest, ladders)``; each rung is ``(rate, duration, requests)``.

        The warm-up rung fills the restarted engine's cache before
        anything is timed; the lowest rung carries the latency metrics
        and is cut into ``BLOCKS`` rungs of equal request counts, each
        timed from its own first request; each of the ``LADDERS`` climbs
        the same rates.
        """
        rng = np.random.default_rng([seed, 1])
        names = [name for name, _scale in cls.MIX]
        weights = zipf_weights(len(names), cls.ZIPF_S)

        def rung(rate, duration):
            offsets = poisson_offsets(rng, rate, duration)
            return rate, duration, build_requests(rng, offsets, names, weights, cls.POOL)

        warm_up = rung(cls.WARM_RATE, cls.WARM_SHARE * seconds)
        _rate, _duration, requests = rung(cls.LOW_RATE, cls.LOW_SHARE * seconds)
        lowest = []
        for part in np.array_split(np.arange(len(requests)), cls.BLOCKS):
            block = [requests[i] for i in part]
            origin = block[0].offset
            for request in block:
                request.offset -= origin
            lowest.append((cls.LOW_RATE, block[-1].offset + 1.0 / cls.LOW_RATE, block))
        ladders = [
            [rung(rate, cls.RUNG_SHARE * seconds) for rate in cls.LADDER]
            for _ in range(cls.LADDERS)
        ]
        return warm_up, lowest, ladders

    def _rung(self, frontend, rate, duration, requests, m, recorder=None, tracer=None):
        """Drive one rung; returns its verdict and its latencies."""
        # the earlier rungs' requests stay alive for the report: keep them
        # out of the program's collections during this one
        _quiesce()
        start = clock()
        self._drive(frontend, requests, recorder, tracer)
        backlog = sum(1 for r in requests if not r.done <= start + duration)
        latencies, failed = self._tally(requests, m)
        rung = Rung(
            rate=rate,
            sent=len(requests),
            p50_ms=pct(latencies, 50),
            p99_ms=pct(latencies, 99),
            failed=failed,
            backlog=backlog,
            late_p99_ms=pct([1e3 * r.lateness for r in requests], 99),
        )
        return rung, latencies

    def measure(self, frontend, seconds, recorder=None, tracer=None) -> Measurement:
        m = Measurement()
        (warm_rate, warm_s, warm_up), lowest, ladders = self.schedule(self.seed, seconds)
        _quiesce()
        if recorder is not None:
            recorder.phase = "warm-up"  # kept out of the per-layer report
        self._plan_pass(frontend, m)
        if recorder is None:
            # half of solve_s's passes now and half after the ladders, so
            # one spell of host noise does not set the median alone
            self._closed_passes(frontend, m, passes=5)
        self._rung(frontend, warm_rate, warm_s, warm_up, Measurement())
        if recorder is not None:
            recorder.phase = "run"
        causes = _batches_by_cause()
        cache = dict(frontend.engine.cache.stats.as_dict())
        m.blocks = self.BLOCKS
        first = 0
        for number, (block, ladder) in enumerate(zip(lowest, ladders), start=1):
            low, latencies = self._rung(frontend, *block, m, recorder, tracer)
            m.latencies_ms += latencies
            m.rungs.append(low)
            climbed = [low]
            for rate, duration, requests in ladder[first:]:
                rung, _ = self._rung(frontend, rate, duration, requests, m, recorder, tracer)
                rung.ladder = number
                climbed.append(rung)
                # two rungs in a row past the limit fix where the fit
                # crosses it (one alone may be a passing stall the fit
                # absorbs); higher rungs would only pile up backlog
                if rung.failed or all(r.p99_ms > self.limit_ms for r in climbed[-2:]):
                    break
            m.rungs += climbed[1:]
            if number == 1:
                # the later ladders start FOCUS rungs below this one's crossing
                crossing = goodput(climbed, self.limit_ms)
                first = max(0, sum(rate <= crossing for rate in self.LADDER) - self.FOCUS)
        m.cache_stats = _delta(frontend.engine.cache.stats.as_dict(), cache)
        m.batches_by_cause = _delta(_batches_by_cause(), causes)
        if recorder is None:
            self._closed_passes(frontend, m, passes=5)
        m.goodput_rps = goodput(pool(m.rungs, self.limit_ms), self.limit_ms)
        m.headline_ms = m.p50_ms
        observed = frontend.planner.observed()
        m.notes.append(
            "planner feedback (kernel: µs/vector, batches): "
            + ", ".join(f"{k}: {1e6 * s:.0f}, {n}" for k, (s, n) in sorted(observed.items()))
        )
        return m


class Solve:
    """Fixed-iteration PageRank over a bound engine operator, one caller."""

    SCALE = 0.08
    ITERATIONS = 20
    DAMPING = 0.85
    #: only ~1500 steps of ~30 ms fit in 45 s, too few for ten samples
    #: beyond p99 in even one block of a thousand
    BLOCKS = 5

    def __init__(self, seed: int):
        self.seed = seed
        adjacency = load_matrix("consph", scale=self.SCALE, seed=seed).coo
        self.P = transition_matrix(adjacency)
        self.n = self.P.nrows
        self.dangling = np.bincount(adjacency.rows, minlength=adjacency.nrows) == 0
        P64 = to_scipy(self.P, np.float64)
        self.reference = pagerank64(P64, self.dangling, self.DAMPING, self.ITERATIONS)
        rng = np.random.default_rng([seed, 0])
        vectors = np.stack([rng.random(self.n).astype(np.float32) / self.n for _ in range(8)])
        self.floor_us = 1e6 * floor_seconds(to_scipy(self.P), vectors)

    def setup(self):
        engine = SpMVEngine()
        engine.warm(self.P)
        return engine, engine.operator(self.P)

    def teardown(self, system) -> None:
        pass

    def measure(self, system, seconds, recorder=None, tracer=None) -> Measurement:
        _engine, operator = system
        m = Measurement()
        steps: list[float] = []

        def step(x):
            start = clock()
            y = operator(x)
            steps.append(clock() - start)
            return y

        cache = dict(_engine.cache.stats.as_dict())
        _quiesce()
        ok_steps = 0
        start = clock()
        while clock() - start < seconds:
            before = len(steps)
            solve_start = clock()
            if recorder is None:
                result = self._solve(step)
            else:
                with recorder.span("loadgen.solve"):
                    result = self._solve(step)
            m.solve_s.append(clock() - solve_start)
            ok = pagerank_ok(result.ranks, self.reference)
            m.attempted += 1
            m.failed += not ok
            ok_steps += ok * (len(steps) - before)
        wall = clock() - start
        m.cache_stats = _delta(_engine.cache.stats.as_dict(), cache)
        m.latencies_ms = [1e3 * s for s in steps]
        m.blocks = self.BLOCKS
        m.sent = len(steps)
        m.goodput_rps = ok_steps / wall
        m.headline_ms = 1e3 * float(np.median(m.solve_s))
        return m

    def _solve(self, spmv):
        return pagerank_module.pagerank(
            spmv,
            self.n,
            dangling_mask=self.dangling,
            damping=self.DAMPING,
            tol=0.0,
            max_iterations=self.ITERATIONS,
        )
