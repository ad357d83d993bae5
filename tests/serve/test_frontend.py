"""The concurrent multi-tenant front-end: correctness under real threads.

The contract under test is the serving restatement of the engine's
batching guarantee: however requests arrive — many threads, many
tenants, coalesced into whatever micro-batches the flush policy picks —
every admitted request resolves with either the bitwise-identical
result a serial :meth:`~repro.engine.SpMVEngine.spmv` would produce or
a structured error.  Plus the front-door behaviors around it: admission
control, quotas, deadlines, drain-on-close, and the ``serve_*``
metrics.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import SpMVEngine
from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    KernelError,
    ServeError,
)
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.obs import get_registry, reset_observability
from repro.persist import OperandStore
from repro.plan import StructurePlanner
from repro.resilience import ManualClock
from repro.serve import FlushPolicy, ServeFrontend, TenantQuota

from tests.conftest import make_random_dense


@pytest.fixture(autouse=True)
def clean_observability():
    reset_observability()
    yield
    reset_observability()


def _csr(rng, nrows=48, ncols=40) -> CSRMatrix:
    return CSRMatrix.from_coo(
        COOMatrix.from_dense(make_random_dense(rng, nrows, ncols, 0.12))
    )


def _counter_value(name, help_text, label_names, **labels) -> float:
    return get_registry().counter(name, help_text, labels=label_names).value(**labels)


class TestRegistration:
    def test_duplicate_matrix_name_is_rejected(self, rng):
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            frontend.register_matrix("A", _csr(rng))
            with pytest.raises(ServeError):
                frontend.register_matrix("A", _csr(rng))
            assert frontend.matrices() == ["A"]

    def test_rejected_registration_prepares_and_persists_nothing(self, rng, tmp_path):
        engine = SpMVEngine("spaden", store=OperandStore(tmp_path))
        with ServeFrontend(engine, workers=1, planner=StructurePlanner()) as frontend:
            frontend.register_matrix("A", _csr(rng))
            prepares = engine.stats.prepare_calls
            keys = engine.cache.keys()
            files = sorted(tmp_path.rglob("*"))
            assert prepares == 1 and len(keys) == 1 and files
            with pytest.raises(ServeError):
                frontend.register_matrix("A", _csr(rng))
            assert engine.stats.prepare_calls == prepares
            assert engine.cache.keys() == keys
            assert sorted(tmp_path.rglob("*")) == files

    def test_unknown_matrix_is_rejected_at_submit(self, rng):
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            with pytest.raises(ServeError):
                frontend.submit("nope", np.ones(8, np.float32))

    def test_closed_frontend_rejects_submissions(self, rng):
        frontend = ServeFrontend(SpMVEngine("spaden"), workers=1)
        frontend.register_matrix("A", _csr(rng))
        frontend.close()
        with pytest.raises(ServeError):
            frontend.submit("A", np.ones(40, np.float32))
        frontend.close()  # idempotent


class TestMalformedRequests:
    def test_shape_invalid_vector_rejected_before_admission(self, rng):
        csr = _csr(rng)
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            frontend.register_matrix("A", csr)
            with pytest.raises(KernelError):
                frontend.submit("A", np.ones(csr.ncols + 1, np.float32))
            # nothing admitted, nothing counted, nothing in flight
            assert frontend.queue_depth("default") == 0
            assert frontend.engine.stats.requests == 0

            # the queue still drains: a valid request after the rejection
            x = rng.standard_normal(csr.ncols).astype(np.float32)
            ticket = frontend.submit("A", x)
            assert np.array_equal(ticket.result(timeout=10), SpMVEngine("spaden").spmv(csr, x))


class TestBitwiseCorrectness:
    def test_concurrent_multitenant_traffic_matches_serial_bitwise(self, rng):
        """The acceptance scenario: >=4 threads, >=2 tenants, many matrices."""
        csrs = {"A": _csr(rng, 48, 40), "B": _csr(rng, 56, 40), "C": _csr(rng, 64, 40)}
        serial = SpMVEngine("spaden")
        xs = [rng.standard_normal(40).astype(np.float32) for _ in range(6)]
        names = list(csrs)
        plan = [
            (names[i % 3], xs[i % len(xs)], f"tenant-{i % 3}") for i in range(60)
        ]
        references = {
            (name, j): serial.spmv(csrs[name], xs[j])
            for name in names
            for j in range(len(xs))
        }

        frontend = ServeFrontend(
            SpMVEngine("spaden"),
            workers=4,
            flush_policy=FlushPolicy(max_batch=8, max_wait_seconds=0.002),
        )
        for name, csr in csrs.items():
            frontend.register_matrix(name, csr)

        tickets = []
        ticket_lock = threading.Lock()

        def client(share):
            for name, x, tenant in share:
                ticket = frontend.submit(name, x, tenant=tenant)
                with ticket_lock:
                    tickets.append((name, x, ticket))

        with ThreadPoolExecutor(4) as pool:
            list(pool.map(client, [plan[i::4] for i in range(4)]))
        frontend.close()

        assert len(tickets) == len(plan)  # zero lost
        for name, x, ticket in tickets:
            assert ticket.error() is None
            j = next(k for k, cand in enumerate(xs) if cand is x)
            assert np.array_equal(ticket.result(), references[(name, j)])

    def test_traffic_actually_coalesced(self, rng):
        csr = _csr(rng)
        frontend = ServeFrontend(
            SpMVEngine("spaden"),
            workers=2,
            flush_policy=FlushPolicy(max_batch=16, max_wait_seconds=0.05),
        )
        frontend.register_matrix("A", csr)
        xs = [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(16)]
        tickets = [frontend.submit("A", x) for x in xs]
        frontend.close()
        assert all(t.error() is None for t in tickets)
        stats = frontend.engine.stats
        assert stats.requests == 16
        assert stats.batches < 16  # coalescing factor > 1
        assert (
            _counter_value(
                "serve_admitted_total",
                "Requests admitted by the serving front-end.",
                ("tenant",),
                tenant="default",
            )
            == 16
        )


class TestQuotas:
    def test_queue_depth_quota_rejects_structurally(self, rng):
        csr = _csr(rng)
        clock = ManualClock()
        # a frozen clock never ages the group past max_wait, and the
        # batch never fills: admitted requests stay in flight
        frontend = ServeFrontend(
            SpMVEngine("spaden"),
            workers=1,
            flush_policy=FlushPolicy(max_batch=64, max_wait_seconds=5.0),
            clock=clock,
        )
        frontend.register_matrix("A", csr)
        frontend.set_quota("t0", TenantQuota(max_queue_depth=2))
        x = rng.standard_normal(csr.ncols).astype(np.float32)

        frontend.submit("A", x, tenant="t0")
        frontend.submit("A", x, tenant="t0")
        assert frontend.queue_depth("t0") == 2
        with pytest.raises(AdmissionError) as excinfo:
            frontend.submit("A", x, tenant="t0")
        err = excinfo.value
        assert err.tenant == "t0"
        assert err.reason == "queue-depth"
        assert err.limit == 2.0
        assert err.current == 2.0
        # other tenants are unaffected by t0's quota
        other = frontend.submit("A", x, tenant="t1")
        assert (
            _counter_value(
                "serve_admission_rejected_total",
                "Requests rejected by admission control, by quota reason.",
                ("tenant", "reason"),
                tenant="t0",
                reason="queue-depth",
            )
            == 1
        )
        clock.advance(6.0)
        frontend.poke()
        frontend.close()
        assert other.error() is None

    def test_rate_quota_uses_the_injected_clock(self, rng):
        csr = _csr(rng)
        clock = ManualClock()
        frontend = ServeFrontend(
            SpMVEngine("spaden"),
            workers=1,
            flush_policy=FlushPolicy(max_batch=4, max_wait_seconds=0.0),
            clock=clock,
        )
        frontend.register_matrix("A", csr)
        frontend.set_quota("t0", TenantQuota(max_requests_per_second=1.0, burst=2))
        x = rng.standard_normal(csr.ncols).astype(np.float32)

        frontend.submit("A", x, tenant="t0")
        frontend.submit("A", x, tenant="t0")
        with pytest.raises(AdmissionError) as excinfo:
            frontend.submit("A", x, tenant="t0")
        assert excinfo.value.reason == "rate"
        clock.advance(1.0)  # one token refills at 1 req/s
        ticket = frontend.submit("A", x, tenant="t0")
        frontend.close()
        assert ticket.error() is None


class TestDeadlines:
    def test_expired_request_resolves_with_deadline_error(self, rng):
        csr = _csr(rng)
        clock = ManualClock()
        frontend = ServeFrontend(
            SpMVEngine("spaden"),
            workers=1,
            flush_policy=FlushPolicy(max_batch=64, max_wait_seconds=100.0),
            clock=clock,
        )
        frontend.register_matrix("A", csr)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        doomed = frontend.submit("A", x, tenant="t0", deadline_seconds=5.0)
        clock.advance(6.0)  # past the deadline, before any flush trigger
        frontend.poke()
        assert isinstance(doomed.error(timeout=10), DeadlineExceededError)
        frontend.close()
        assert (
            _counter_value(
                "serve_requests_total",
                "Requests resolved by the front-end, by final outcome.",
                ("tenant", "outcome"),
                tenant="t0",
                outcome="deadline",
            )
            == 1
        )

    def test_deadline_pressure_flushes_early(self, rng):
        csr = _csr(rng)
        clock = ManualClock()
        frontend = ServeFrontend(
            SpMVEngine("spaden"),
            workers=1,
            flush_policy=FlushPolicy(
                max_batch=64, max_wait_seconds=100.0, deadline_slack_seconds=2.0
            ),
            clock=clock,
        )
        frontend.register_matrix("A", csr)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        ticket = frontend.submit("A", x, deadline_seconds=10.0)
        clock.advance(9.0)  # 1s of budget left, inside the 2s slack
        frontend.poke()
        # flushed by deadline pressure with budget remaining: it succeeds
        assert ticket.error(timeout=10) is None
        assert np.array_equal(ticket.result(), SpMVEngine("spaden").spmv(csr, x))
        frontend.close()


class TestDrain:
    def test_close_resolves_everything_pending(self, rng):
        csr = _csr(rng)
        clock = ManualClock()
        frontend = ServeFrontend(
            SpMVEngine("spaden"),
            workers=2,
            flush_policy=FlushPolicy(max_batch=64, max_wait_seconds=100.0),
            clock=clock,
        )
        frontend.register_matrix("A", csr)
        xs = [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(5)]
        tickets = [frontend.submit("A", x) for x in xs]
        # nothing is due under the frozen clock; close() must drain
        frontend.close()
        for ticket, x in zip(tickets, xs):
            assert ticket.error() is None
            assert np.array_equal(ticket.result(), SpMVEngine("spaden").spmv(csr, x))

    def test_run_report_carries_frontend_meta(self, rng):
        with ServeFrontend(SpMVEngine("spaden"), workers=1) as frontend:
            frontend.register_matrix("A", _csr(rng))
            report = frontend.run_report(meta={"suite": "unit"})
        assert report.meta["frontend"] == "serve"
        assert report.meta["matrices"] == ["A"]
        assert report.meta["suite"] == "unit"
