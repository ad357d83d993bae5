"""Metrics-driven per-operand execution planning.

``repro.plan`` replaces the one-size-fits-all fallback chain with a
per-matrix :class:`ExecutionPlan`: a structure profile of the operand
(:mod:`repro.plan.profile`) and cost-model predictions through the
:mod:`repro.perf.plan_model` adapter combine into a ranked,
capability-filtered kernel order plus batch/flush hints — a pure
function of the matrix's structure, memoized per matrix content.
Every dispatch consumer accepts a plan wherever it accepted a chain;
with no planner configured nothing changes.

Import fence: this package may import only the stdlib, numpy,
``repro.constants``, ``repro.errors``, ``repro.obs``, ``repro.perf``
and itself — enforced by ``scripts/check_exec_boundaries.py``.  Its
plan memo carries a declared lock contract audited by
:mod:`repro.analysis.concurrency`.
"""

from repro.plan.planner import (
    ExecutionPlan,
    Planner,
    RankedKernel,
    StaticPlanner,
    StructurePlanner,
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
    "StructureProfile",
    "compute_structure_profile",
    "matrix_fingerprint",
]
