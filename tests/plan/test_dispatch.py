"""Planner wiring through the dispatch consumers: engine, robustness, serve."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SpMVEngine, matrix_fingerprint
from repro.obs import get_registry
from repro.plan import StructurePlanner
from repro.robustness import dispatch_spmv
from repro.serve import ServeFrontend
from repro.serve.policy import FlushPolicy
from repro.bench.plan import block_sweep_csr


@pytest.fixture
def problem():
    csr = block_sweep_csr(32, nrows=128, ncols=128, nnz_target=512, seed=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(csr.ncols).astype(np.float32)
    return csr, x


class TestEnginePlanner:
    def test_results_stay_correct(self, problem):
        csr, x = problem
        engine = SpMVEngine(planner=StructurePlanner("L40"))
        y = engine.spmv(csr, x)
        assert np.allclose(y, csr.matvec(x), rtol=1e-3, atol=1e-2)

    def test_one_plan_per_matrix_content(self, problem):
        csr, x = problem
        decisions = get_registry().counter(
            "planner_decisions_total", "", labels=("planner", "kernel")
        )
        before = sum(decisions.series().values())
        engine = SpMVEngine(planner=StructurePlanner("L40"))
        engine.spmv(csr, x)
        engine.spmv(csr, x)
        engine.spmv_many([(csr, x), (csr, x)])
        # a poisoned operand is dropped; the plan, which depends only on
        # the matrix's structure, is not
        engine._invalidate_operand(engine.kernel_name, matrix_fingerprint(csr))
        engine.spmv(csr, x)
        # one plan for one matrix content, however many requests
        assert sum(decisions.series().values()) - before == 1


class TestRobustnessPlanner:
    def test_dispatch_accepts_planner(self, problem):
        csr, x = problem
        result = dispatch_spmv(csr, x, planner=StructurePlanner("L40"))
        assert np.allclose(result.y, csr.matvec(x), rtol=1e-3, atol=1e-2)
        assert not result.degraded

    def test_planner_order_drives_attempts(self, problem):
        csr, x = problem
        planner = StructurePlanner("L40", candidates=("csr-scalar",))
        result = dispatch_spmv(csr, x, planner=planner)
        assert result.kernel == "csr-scalar"
        assert result.attempts == ["csr-scalar"]


class TestServePlanner:
    def test_plan_hints_specialize_flush_policy(self):
        dense = block_sweep_csr(64, nrows=128, ncols=128, nnz_target=1024, seed=8)
        sparse = block_sweep_csr(1, nrows=128, ncols=128, nnz_target=256, seed=8)
        with ServeFrontend(planner=StructurePlanner("L40")) as frontend:
            frontend.register_matrix("dense", dense)
            frontend.register_matrix("sparse", sparse)
            dense_policy = frontend._policies["dense"]
            sparse_policy = frontend._policies["sparse"]
        assert dense_policy.max_batch == 64
        assert sparse_policy.max_batch == 16
        assert sparse_policy.max_wait_seconds < dense_policy.max_wait_seconds

    def test_no_planner_keeps_default_policy(self):
        csr = block_sweep_csr(8, nrows=64, ncols=64, nnz_target=128, seed=9)
        policy = FlushPolicy(max_batch=5, max_wait_seconds=0.002)
        with ServeFrontend(flush_policy=policy) as frontend:
            frontend.register_matrix("m", csr)
            assert frontend._policies["m"] == policy


class TestFlushPolicyHints:
    def test_with_hints_applies_both(self):
        policy = FlushPolicy().with_hints(max_batch=64, max_wait_seconds=0.02)
        assert policy.max_batch == 64
        assert policy.max_wait_seconds == pytest.approx(0.02)

    def test_none_hints_keep_fields(self):
        base = FlushPolicy(max_batch=7, max_wait_seconds=0.003)
        assert base.with_hints() is base
        assert base.with_hints(max_batch=None).max_batch == 7

    def test_hints_revalidate(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            FlushPolicy().with_hints(max_batch=0)
