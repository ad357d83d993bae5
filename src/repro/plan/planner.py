"""Execution planners: structure profile + cost model.

The static fallback chain (spaden → spaden-no-tc → cusparse-csr →
csr-scalar) is the right *safety* order but, per Fig. 9, the wrong
*speed* order for low-block-density operands.  A
:class:`Planner` closes that gap: given a matrix it emits an
:class:`ExecutionPlan` — a ranked, capability-filtered kernel order
plus batch/flush hints — that every dispatch consumer
(:func:`repro.exec.execute_chain`, :class:`~repro.engine.SpMVEngine`,
:func:`repro.robustness.dispatch_spmv`,
:class:`~repro.serve.ServeFrontend`) can walk exactly like a chain.

Two planners ship:

* :class:`StaticPlanner` — the degenerate planner: emits the
  registry-derived static chain verbatim, so "planner configured but
  inert" and "no planner" are bitwise-identical paths;
* :class:`StructurePlanner` — profiles the matrix
  (:func:`~repro.plan.profile.compute_structure_profile`), predicts
  each chain kernel's seconds through the :mod:`repro.perf.plan_model`
  roofline adapter, and ranks.  A plan is a pure function of the
  matrix's structure, the target GPU and the candidate pool, so it is
  memoized by :func:`~repro.plan.profile.matrix_fingerprint`: a matrix
  is planned once per planner, and the same matrix gets the same plan
  whatever was planned or served before it.

Thread-safety: the plan memo is shared across engine worker threads,
so the package is audited by :mod:`repro.analysis.concurrency` like the
other serving seams — every mutable field carries a declared lock
contract, and metrics publish outside critical sections
(capture-then-publish, the OperandCache discipline).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

from repro.errors import PlanError
from repro.obs import get_registry
from repro.perf.plan_model import (
    KernelTraits,
    fallback_order,
    kernel_menu,
    predict_chain_seconds,
)
from repro.plan.profile import (
    StructureProfile,
    compute_structure_profile,
    matrix_fingerprint,
)

__all__ = [
    "ExecutionPlan",
    "Planner",
    "RankedKernel",
    "StaticPlanner",
    "StructurePlanner",
]

#: Safety bias per tier step: a kernel only outranks a safer (lower
#: fallback-tier) kernel when its model score beats it by more than
#: this margin per tier it jumps.  The synthetic cost model's error
#: bars exceed small predicted gaps, so inside the crossover band the
#: registry's safety order wins; a genuine Fig. 9 win (tens of
#: percents) clears the bias easily.
SAFETY_BIAS: float = 0.04


def _count_decision(planner: str, kernel: str) -> None:
    get_registry().counter(
        "planner_decisions_total",
        "Execution plans emitted, by planner and top-ranked kernel.",
        labels=("planner", "kernel"),
    ).inc(planner=planner, kernel=kernel)


@dataclass(frozen=True)
class RankedKernel:
    """One kernel's position in a plan, with the evidence behind it."""

    name: str
    #: Registry fallback tier (safety order; ties broken by it).
    tier: int
    #: Cost-model prediction for this matrix, seconds.
    predicted_seconds: float
    #: Unitless ranking score (lower is better; best ~1.0).
    score: float
    #: Human-readable why (structure, one line).
    reason: str

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ExecutionPlan:
    """A ranked kernel order plus serving hints for one matrix.

    ``kernels`` is what the chain walker consumes — every consumer that
    accepts a chain accepts a plan (duck-typed on this attribute).  The
    ranking *reorders* the capability-filtered chain, it never shortens
    it below the filter: the last entries are still the safety net.
    """

    #: Ordered kernel names, best predicted first.
    kernels: tuple[str, ...]
    #: Per-kernel evidence, same order as ``kernels``.
    ranking: tuple[RankedKernel, ...] = ()
    #: Suggested micro-batch size (``FlushPolicy.max_batch``), or None.
    batch_hint: int | None = None
    #: Suggested max coalescing wait, seconds, or None.
    max_wait_hint_seconds: float | None = None
    #: Emitting planner's name.
    planner: str = "static"
    #: The structure profile the ranking used (``None`` for static).
    profile: StructureProfile | None = None

    def explain(self) -> str:
        """Multi-line human-readable account of the ranking."""
        lines = [f"plan[{self.planner}] chain: {' -> '.join(self.kernels)}"]
        if self.profile is not None:
            prof = self.profile
            lines.append(
                f"  structure: {prof.nrows}x{prof.ncols}, nnz={prof.nnz}, "
                f"fill={prof.fill_ratio:.2e}, blocks={prof.nonzero_blocks} "
                f"(mean {prof.mean_block_nnz:.1f} nnz/block, "
                f"{prof.dense_block_fraction:.0%} >= half full), "
                f"paired steps={prof.paired_steps}"
            )
        if self.batch_hint is not None or self.max_wait_hint_seconds is not None:
            wait = (
                f"{self.max_wait_hint_seconds * 1e3:.1f} ms"
                if self.max_wait_hint_seconds is not None
                else "policy default"
            )
            lines.append(f"  hints: batch <= {self.batch_hint}, wait <= {wait}")
        for position, entry in enumerate(self.ranking, start=1):
            lines.append(
                f"  {position}. {entry.name} (tier {entry.tier}): score "
                f"{entry.score:.3f} — predicted "
                f"{entry.predicted_seconds * 1e6:.1f} us; {entry.reason}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "planner": self.planner,
            "kernels": list(self.kernels),
            "batch_hint": self.batch_hint,
            "max_wait_hint_seconds": self.max_wait_hint_seconds,
            "ranking": [entry.as_dict() for entry in self.ranking],
            "profile": self.profile.as_dict() if self.profile is not None else None,
        }


class Planner:
    """Interface every planner implements: :meth:`plan` maps a matrix
    to an :class:`ExecutionPlan`."""

    name: str = "planner"

    def plan(self, csr, *, fingerprint: str | None = None) -> ExecutionPlan:
        raise NotImplementedError


class StaticPlanner(Planner):
    """The degenerate planner: the static chain, verbatim.

    Exists so "a planner is configured" and "no planner" are provably
    the same path — its plans carry the registry-derived chain order
    (or an explicit ``chain``), no ranking, no hints.
    """

    name = "static"

    def __init__(self, chain: tuple[str, ...] | None = None):
        self.chain = tuple(chain) if chain is not None else None

    def plan(self, csr, *, fingerprint: str | None = None) -> ExecutionPlan:
        kernels = self.chain if self.chain is not None else fallback_order()
        if not kernels:
            raise PlanError("StaticPlanner has an empty chain")
        return ExecutionPlan(kernels=kernels, planner=self.name)


class StructurePlanner(Planner):
    """Rank the fallback chain per matrix from its structure.

    ``gpu`` names the cost-model target.  ``mode`` capability-filters
    the candidates: ``"numeric"`` admits every chain kernel,
    ``"simulated"`` only those declaring the SIMULATED capability (a
    plan for a simulation campaign must not rank kernels that cannot
    simulate).  ``candidates`` overrides the candidate set explicitly.

    Instances are shared across engine worker threads; the plan memo
    is guarded by one lock that is never held across profiling,
    prediction or metrics.
    """

    name = "structure"

    def __init__(
        self,
        gpu: str = "L40",
        *,
        mode: str = "numeric",
        candidates: tuple[str, ...] | None = None,
    ):
        if mode not in ("numeric", "simulated"):
            raise PlanError(f"unknown planner mode {mode!r}")
        menu = kernel_menu()
        if candidates is not None:
            unknown = [name for name in candidates if name not in menu]
            if unknown:
                raise PlanError(
                    f"unknown chain candidates {unknown}; menu: {sorted(menu)}"
                )
            pool = tuple(name for name in menu if name in set(candidates))
        else:
            pool = tuple(menu)
        if mode == "simulated":
            pool = tuple(name for name in pool if menu[name].simulate)
        if not pool:
            raise PlanError(
                f"capability filter (mode={mode!r}) left no candidate kernels"
            )
        self.gpu = gpu
        self.mode = mode
        self.candidates = pool
        self._menu: dict[str, KernelTraits] = menu
        self._lock = threading.Lock()
        # fingerprint -> plan; a plan depends on nothing else that varies
        # concurrency: guarded-by(self._lock)
        self._plans: dict[str, ExecutionPlan] = {}

    # -- hostbench stubs -------------------------------------------------------
    # Plans take no latency feedback.  These two stay only for hostbench
    # (the host wall-time benchmark), their only reader: its serve-heavy
    # workload notes ``observed()`` and its traced run wraps
    # ``StructurePlanner.observe``.  Nothing in ``src/`` calls either.
    def observe(self, kernel: str, seconds: float, *, vectors: int = 1) -> None:
        """Does nothing."""

    def observed(self) -> dict:
        """Always empty."""
        return {}

    # -- planning ------------------------------------------------------------
    def _reason(self, traits: KernelTraits, profile: StructureProfile) -> str:
        if traits.name in ("spaden", "spaden-no-tc"):
            unit = "MMA steps" if traits.tensor_cores else "CUDA block steps"
            return (
                f"cost scales with {profile.nonzero_blocks} blocks "
                f"({profile.paired_steps} {unit}); "
                f"{profile.mean_block_nnz:.1f} nnz amortized per block"
            )
        if traits.name == "cusparse-csr":
            return (
                f"streams {profile.nnz} nnz via merge-path "
                f"(+ generic-API analysis pass)"
            )
        if traits.name == "csr-scalar":
            return (
                f"zero-setup scalar walk; warps serialize to ~"
                f"{min(profile.row_nnz_max, int(profile.row_nnz_mean + profile.row_nnz_std) + 1)}"
                f" nnz rows"
            )
        return f"unrecognized chain member (tier {traits.fallback_tier})"

    def _hints(self, profile: StructureProfile) -> tuple[int, float]:
        """Batch/flush hints: denser blocks amortize a bigger batch.

        One bitBSR decode (or CSR gather) serves the whole batch, and
        the denser the operand the more each decode is worth
        amortizing; hypersparse operands gain little from waiting, so
        they flush sooner and smaller.
        """
        if profile.mean_block_nnz >= 16:
            return 64, 0.02
        if profile.mean_block_nnz >= 4:
            return 32, 0.01
        return 16, 0.005

    def plan(self, csr, *, fingerprint: str | None = None) -> ExecutionPlan:
        """The (memoized) plan for ``csr``.

        ``fingerprint`` skips re-hashing when the caller (the engine)
        already computed the content hash.  A memo hit does no
        profiling, prediction or metric work.  The compute-outside-lock
        race is benign: two threads planning the same new matrix
        compute equal plans.
        """
        if fingerprint is None:
            fingerprint = matrix_fingerprint(csr)
        with self._lock:
            plan = self._plans.get(fingerprint)
        if plan is None:
            plan = self._rank(csr, fingerprint)
            with self._lock:
                self._plans[fingerprint] = plan
            _count_decision(self.name, plan.kernels[0])
        return plan

    def _rank(self, csr, fingerprint: str) -> ExecutionPlan:
        if min(csr.shape) <= 0:
            # nothing to profile or run: the pool in tier order, like the
            # static chain, with no ranking and no hints
            return ExecutionPlan(kernels=self.candidates, planner=self.name)
        profile = compute_structure_profile(csr, fingerprint=fingerprint)
        predicted = predict_chain_seconds(
            nrows=profile.nrows,
            ncols=profile.ncols,
            nnz=profile.nnz,
            nonzero_blocks=profile.nonzero_blocks,
            nonzero_block_rows=profile.nonzero_block_rows,
            paired_steps=profile.paired_steps,
            row_nnz_mean=profile.row_nnz_mean,
            row_nnz_std=profile.row_nnz_std,
            row_nnz_max=profile.row_nnz_max,
            gpu=self.gpu,
            kernels=self.candidates,
        )
        predicted_floor = min(predicted.values())
        entries = []
        for tier_rank, name in enumerate(self.candidates):
            traits = self._menu[name]
            # candidates iterate in tier order, so the rank index is the
            # number of safer kernels this one would have to jump
            score = predicted[name] / predicted_floor * (1.0 + SAFETY_BIAS * tier_rank)
            entries.append(
                RankedKernel(
                    name=name,
                    tier=traits.fallback_tier,
                    predicted_seconds=predicted[name],
                    score=score,
                    reason=self._reason(traits, profile),
                )
            )
        # score first; the registry tier breaks ties so equal-looking
        # kernels keep the safety order
        entries.sort(key=lambda entry: (entry.score, entry.tier, entry.name))
        batch_hint, wait_hint = self._hints(profile)
        return ExecutionPlan(
            kernels=tuple(entry.name for entry in entries),
            ranking=tuple(entries),
            batch_hint=batch_hint,
            max_wait_hint_seconds=wait_hint,
            planner=self.name,
            profile=profile,
        )
