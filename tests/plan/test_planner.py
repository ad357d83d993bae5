"""Planner tests: ranking, capability filters, pure plans, thread safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine import SpMVEngine
from repro.errors import KernelError, PlanError
from repro.exec import default_chain
from repro.formats.csr import CSRMatrix
from repro.matrices.loader import load_matrix
from repro.obs import get_registry, reset_observability
from repro.plan import ExecutionPlan, StaticPlanner, StructurePlanner
from repro.plan import planner as planner_module
from repro.bench.plan import block_sweep_csr


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_observability()
    yield
    reset_observability()


def _counter(name, labels):
    return get_registry().counter(name, "", labels=tuple(labels)).value(**labels)


@pytest.fixture(scope="module")
def dense_csr():
    return block_sweep_csr(64, seed=3)


@pytest.fixture(scope="module")
def hypersparse_csr():
    return block_sweep_csr(1, seed=3)


class TestStaticPlanner:
    def test_emits_registry_chain(self, dense_csr):
        plan = StaticPlanner().plan(dense_csr)
        assert plan.kernels == default_chain()
        assert plan.planner == "static"
        assert plan.ranking == ()
        assert plan.batch_hint is None and plan.max_wait_hint_seconds is None

    def test_explicit_chain(self, dense_csr):
        plan = StaticPlanner(("csr-scalar", "spaden")).plan(dense_csr)
        assert plan.kernels == ("csr-scalar", "spaden")

    def test_empty_chain_rejected(self, dense_csr):
        with pytest.raises(PlanError):
            StaticPlanner(()).plan(dense_csr)


class TestStructurePlannerRanking:
    def test_dense_blocks_keep_spaden_first(self, dense_csr):
        plan = StructurePlanner("L40").plan(dense_csr)
        assert plan.kernels[0] == "spaden"
        # the plan reorders the chain, never shortens it
        assert sorted(plan.kernels) == sorted(default_chain())

    def test_hypersparse_promotes_scalar(self, hypersparse_csr):
        plan = StructurePlanner("L40").plan(hypersparse_csr)
        assert plan.kernels[0] == "csr-scalar"

    def test_mixed_density_sweep_crossover(self):
        picks = {
            per_block: StructurePlanner("L40").plan(
                block_sweep_csr(per_block, seed=0)
            ).kernels[0]
            for per_block in (64, 32, 16, 8, 4, 2, 1)
        }
        for per_block in (64, 32, 16, 8):
            assert picks[per_block] == "spaden", picks
        for per_block in (4, 2, 1):
            assert picks[per_block] == "csr-scalar", picks

    def test_ranking_carries_evidence(self, dense_csr):
        plan = StructurePlanner("L40").plan(dense_csr)
        assert [entry.name for entry in plan.ranking] == list(plan.kernels)
        assert all(entry.predicted_seconds > 0 for entry in plan.ranking)
        assert plan.ranking[0].score == pytest.approx(1.0)
        assert plan.profile is not None and plan.profile.nnz == dense_csr.nnz

    def test_explain_mentions_every_kernel(self, dense_csr):
        text = StructurePlanner("L40").plan(dense_csr).explain()
        for name in default_chain():
            assert name in text
        assert "structure:" in text and "hints:" in text

    def test_plan_walks_like_a_chain(self, dense_csr):
        plan = StructurePlanner("L40").plan(dense_csr)
        assert isinstance(plan, ExecutionPlan)
        assert tuple(plan.kernels) == plan.kernels  # duck-type contract


class TestCapabilityFilter:
    def test_simulated_mode_drops_non_simulating_kernels(self, dense_csr):
        plan = StructurePlanner("L40", mode="simulated").plan(dense_csr)
        assert "cusparse-csr" not in plan.kernels
        assert set(plan.kernels) == {"spaden", "spaden-no-tc", "csr-scalar"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(PlanError):
            StructurePlanner("L40", mode="quantum")

    def test_unknown_candidate_rejected(self):
        with pytest.raises(PlanError):
            StructurePlanner("L40", candidates=("spaden", "no-such-kernel"))

    def test_candidates_restrict_pool(self, dense_csr):
        plan = StructurePlanner(
            "L40", candidates=("csr-scalar", "spaden")
        ).plan(dense_csr)
        assert set(plan.kernels) == {"spaden", "csr-scalar"}

    def test_filter_that_empties_pool_rejected(self):
        with pytest.raises(PlanError):
            StructurePlanner(
                "L40", mode="simulated", candidates=("cusparse-csr",)
            )


class TestPlannerMetrics:
    def test_decisions_counted(self, dense_csr):
        planner = StructurePlanner("L40")
        planner.plan(dense_csr)
        assert (
            _counter(
                "planner_decisions_total",
                {"planner": "structure", "kernel": "spaden"},
            )
            == 1
        )


#: A fresh planner's top kernel and flush hints for the serve-heavy mix
#: of the host benchmark (hostbench) at its scales, plus conf5 and
#: webbase1M, keyed by (analog, scale); analog i is generated with seed i.
SERVE_MIX = {
    ("consph", 0.01): ("cusparse-csr", 64, 0.02),
    ("raefsky3", 0.01): ("spaden", 64, 0.02),
    ("Si41Ge41H72", 0.005): ("cusparse-csr", 32, 0.01),
    ("Ga41As41H72", 0.005): ("cusparse-csr", 32, 0.01),
    ("conf5", 0.01): ("cusparse-csr", 64, 0.02),
    ("webbase1M", 0.01): ("spaden", 32, 0.01),
}


@pytest.fixture(scope="module")
def serve_mix():
    return {
        key: CSRMatrix.from_coo(load_matrix(key[0], scale=key[1], seed=i).coo)
        for i, key in enumerate(SERVE_MIX)
    }


class TestPurePlans:
    def test_fresh_planner_picks(self, serve_mix):
        planner = StructurePlanner()
        for key, csr in serve_mix.items():
            plan = planner.plan(csr)
            picked = (plan.kernels[0], plan.batch_hint, plan.max_wait_hint_seconds)
            assert picked == SERVE_MIX[key], key

    def test_plans_independent_of_planning_order(self, serve_mix):
        forward = StructurePlanner()
        expected = {key: forward.plan(csr) for key, csr in serve_mix.items()}
        for order in (reversed(list(serve_mix)), sorted(serve_mix)):
            planner = StructurePlanner()
            for key in order:
                assert planner.plan(serve_mix[key]) == expected[key], key

    def test_plans_unchanged_by_traffic_and_poisoning(self, serve_mix):
        expected = {key: StructurePlanner().plan(csr) for key, csr in serve_mix.items()}
        planner = StructurePlanner()
        engine = SpMVEngine(planner=planner)
        rng = np.random.default_rng(0)
        for key, csr in serve_mix.items():
            xs = [rng.standard_normal(csr.ncols).astype(np.float32) for _ in range(3)]
            engine.spmv_many([(csr, x) for x in xs])
            top = expected[key].kernels[0]

            def poison(kernel_name, prepared, top=top):
                if kernel_name == top:
                    raise KernelError("injected fault")

            engine.spmv_many([(csr, xs[0])], faults=(poison,))
            engine.spmv(csr, xs[1])
        # every matrix's top operand was poisoned and dropped
        assert engine.cache.stats.invalidations == len(serve_mix)
        assert engine.stats.degradations == len(serve_mix)
        for key, csr in serve_mix.items():
            assert planner.plan(csr) == expected[key], key

    def test_memo_hit_does_no_profiling(self, dense_csr, monkeypatch):
        calls = []
        profile = planner_module.compute_structure_profile

        def counting(*args, **kwargs):
            calls.append(1)
            return profile(*args, **kwargs)

        monkeypatch.setattr(planner_module, "compute_structure_profile", counting)
        planner = StructurePlanner("L40")
        first = planner.plan(dense_csr)
        assert len(calls) == 1
        clone = CSRMatrix(
            dense_csr.shape,
            dense_csr.row_pointers.copy(),
            dense_csr.col_indices.copy(),
            dense_csr.values.copy(),
        )
        # same content, another object: a memo hit
        assert planner.plan(clone) is first
        assert planner.plan(dense_csr) is first
        assert len(calls) == 1
        # only the computed plan is counted as a decision
        labels = {"planner": "structure", "kernel": first.kernels[0]}
        assert _counter("planner_decisions_total", labels) == 1


class TestThreadSafety:
    def test_concurrent_plan(self, dense_csr, hypersparse_csr):
        planner = StructurePlanner("L40")
        matrices = [dense_csr, hypersparse_csr]
        errors = []
        barrier = threading.Barrier(8)

        def worker(index):
            try:
                barrier.wait()
                for i in range(40):
                    plan = planner.plan(matrices[(index + i) % 2])
                    assert sorted(plan.kernels) == sorted(default_chain())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # the memo holds exactly the two distinct matrices
        assert len(planner._plans) == 2
