"""Planner crossover benchmark: Fig. 9's block-density sweep, planned.

The paper's Fig. 9 shows the SpMV winner flipping with block density:
dense 8x8 blocks amortize the tensor-core MMA path, hypersparse blocks
waste it.  The static fallback chain always leads with spaden; the
:class:`~repro.plan.StructurePlanner` should lead with whichever kernel
the structure actually favors.  This harness sweeps seeded synthetic
matrices across per-block densities (64 nnz/block down to 1), asks the
planner and the static chain for their first picks, and scores both
against an exact ground truth — each chain kernel's *measured*
simulator counters (``ExecutionMode.PROFILED``) pushed through the
:func:`repro.perf.model.estimate_time` roofline, no synthetic profile
approximations.

The acceptance criterion is relative, not absolute: at every sweep
point the planner's pick must be no slower than the static pick beyond
``tolerance`` (``margin <= tolerance`` where ``margin`` is the ground
truth time ratio minus one).  A planner that merely reproduces the
static order passes; one that flips to a slower kernel fails.

:func:`append_plan_trajectory` appends each run to the seeded
``BENCH_plan.json`` artifact CI uploads (a JSON list; anything else in
the file is a structured refuse-to-clobber error), so crossover margins
are diffable across PRs like the other bench trajectories.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.errors import ObservabilityError, PlanError
from repro.exec import ExecutionMode, execute
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.gpu.spec import get_gpu
from repro.kernels.base import get_kernel
from repro.perf.model import estimate_time
from repro.plan import StaticPlanner, StructurePlanner

__all__ = [
    "PlanBenchResult",
    "PlanCrossoverPoint",
    "append_plan_trajectory",
    "bench_plan_crossover",
    "block_sweep_csr",
    "format_plan_report",
]

#: Default per-block nnz sweep, dense blocks first (Fig. 9's x-axis).
DEFAULT_SWEEP: tuple[int, ...] = (64, 32, 16, 8, 4, 2, 1)


def block_sweep_csr(
    per_block_nnz: int,
    *,
    nrows: int = 512,
    ncols: int = 512,
    nnz_target: int = 4096,
    seed: int = 0,
) -> CSRMatrix:
    """A seeded matrix with ~``nnz_target`` nnz at one block density.

    Nonzeros are placed in ``nnz_target // per_block_nnz`` distinct 8x8
    blocks, each holding exactly ``per_block_nnz`` cells — so the sweep
    holds total work roughly constant while moving it between few dense
    blocks and many sparse ones, which is precisely the axis the
    spaden-vs-CSR crossover lives on.
    """
    if not 1 <= per_block_nnz <= 64:
        raise PlanError(
            f"per_block_nnz must be in [1, 64], got {per_block_nnz}"
        )
    if nrows % 8 or ncols % 8:
        raise PlanError(
            f"sweep shape must be 8-aligned, got {nrows}x{ncols}"
        )
    rng = np.random.default_rng(seed)
    block_rows, block_cols = nrows // 8, ncols // 8
    n_blocks = min(max(1, nnz_target // per_block_nnz), block_rows * block_cols)
    blocks = rng.choice(block_rows * block_cols, size=n_blocks, replace=False)
    rows_parts, cols_parts = [], []
    for block in blocks:
        block_row, block_col = divmod(int(block), block_cols)
        cells = rng.choice(64, size=per_block_nnz, replace=False)
        rows_parts.append(block_row * 8 + cells // 8)
        cols_parts.append(block_col * 8 + cells % 8)
    rows = np.concatenate(rows_parts).astype(np.int32)
    cols = np.concatenate(cols_parts).astype(np.int32)
    values = rng.standard_normal(rows.size).astype(np.float32)
    return CSRMatrix.from_coo(COOMatrix((nrows, ncols), rows, cols, values))


def _ground_truth_seconds(
    csr: CSRMatrix, x: np.ndarray, gpu: str, kernels: tuple[str, ...]
) -> dict[str, float]:
    """Exact modeled seconds per kernel: measured counters -> roofline."""
    spec = get_gpu(gpu)
    truth = {}
    for name in kernels:
        profile = execute(get_kernel(name), csr, x, mode=ExecutionMode.PROFILED).profile
        truth[name] = estimate_time(profile, spec).total
    return truth


@dataclass(frozen=True)
class PlanCrossoverPoint:
    """One density point: both picks, scored against exact ground truth."""

    per_block_nnz: int
    nrows: int
    ncols: int
    nnz: int
    #: The planner's top-ranked kernel for this matrix.
    planner_pick: str
    #: The static chain's unconditional first kernel.
    static_pick: str
    #: Exact modeled seconds per chain kernel (measured counters).
    truth_seconds: dict
    #: ``truth[planner_pick] / truth[static_pick] - 1`` — <= 0 means the
    #: planner's pick is at least as fast as the static pick.
    margin: float
    #: The full plan document (:meth:`~repro.plan.ExecutionPlan.as_dict`).
    plan: dict

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PlanBenchResult:
    """A full crossover sweep with its tolerance verdict."""

    gpu: str
    seed: int
    tolerance: float
    points: tuple[PlanCrossoverPoint, ...]

    @property
    def worst_margin(self) -> float:
        return max(point.margin for point in self.points)

    @property
    def within_tolerance(self) -> bool:
        """Planner never slower than static beyond tolerance, anywhere."""
        return all(point.margin <= self.tolerance for point in self.points)

    @property
    def reorder_points(self) -> int:
        """Sweep points where the planner departed from the static pick."""
        return sum(
            1 for point in self.points if point.planner_pick != point.static_pick
        )

    def as_dict(self) -> dict:
        return {
            "gpu": self.gpu,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "worst_margin": self.worst_margin,
            "within_tolerance": self.within_tolerance,
            "reorder_points": self.reorder_points,
            "points": [point.as_dict() for point in self.points],
        }


def bench_plan_crossover(
    sweep: tuple[int, ...] = DEFAULT_SWEEP,
    *,
    nrows: int = 512,
    ncols: int = 512,
    nnz_target: int = 4096,
    gpu: str = "L40",
    seed: int = 0,
    tolerance: float = 0.15,
) -> PlanBenchResult:
    """Sweep block density; score planner picks against the static chain.

    Per point: build the seeded matrix, take the
    :class:`~repro.plan.StructurePlanner`'s plan and the
    :class:`~repro.plan.StaticPlanner`'s chain head, compute the exact
    ground truth for every chain kernel from measured simulator
    counters, and record the margin.  Plans depend on structure and the
    cost model alone, so this measures exactly what the planner
    decides from.
    """
    planner = StructurePlanner(gpu)
    static = StaticPlanner()
    points = []
    for index, per_block_nnz in enumerate(sweep):
        csr = block_sweep_csr(
            per_block_nnz,
            nrows=nrows,
            ncols=ncols,
            nnz_target=nnz_target,
            seed=seed + index,
        )
        rng = np.random.default_rng(seed + 1000 + index)
        x = rng.standard_normal(ncols).astype(np.float32)
        plan = planner.plan(csr)
        static_pick = static.plan(csr).kernels[0]
        truth = _ground_truth_seconds(csr, x, gpu, static.plan(csr).kernels)
        margin = truth[plan.kernels[0]] / truth[static_pick] - 1.0
        points.append(
            PlanCrossoverPoint(
                per_block_nnz=per_block_nnz,
                nrows=nrows,
                ncols=ncols,
                nnz=csr.nnz,
                planner_pick=plan.kernels[0],
                static_pick=static_pick,
                truth_seconds=truth,
                margin=margin,
                plan=plan.as_dict(),
            )
        )
    return PlanBenchResult(
        gpu=gpu, seed=seed, tolerance=tolerance, points=tuple(points)
    )


def append_plan_trajectory(path: str | Path, result: PlanBenchResult) -> int:
    """Append one sweep to the ``BENCH_plan.json`` trajectory artifact.

    Same contract as the other bench trajectories: the artifact is a
    JSON list (one entry per recorded sweep); a file holding anything
    else is a structured :class:`~repro.errors.ObservabilityError`,
    never silently overwritten.  Returns the trajectory length.
    """
    path = Path(path)
    trajectory: list = []
    if path.exists() and path.read_text(encoding="utf-8").strip():
        try:
            trajectory = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{path} is not valid JSON ({exc}); refusing to overwrite"
            ) from exc
        if not isinstance(trajectory, list):
            raise ObservabilityError(
                f"{path} holds a {type(trajectory).__name__}, expected a "
                f"trajectory list; refusing to overwrite"
            )
    trajectory.append(
        {"recorded_unix": round(time.time(), 3), "bench": result.as_dict()}
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    return len(trajectory)


def format_plan_report(result: PlanBenchResult) -> str:
    """Human-readable crossover table for one sweep."""
    lines = [
        f"plan crossover — gpu={result.gpu}, seed={result.seed}, "
        f"tolerance={result.tolerance:.0%}",
        "  nnz/blk  planner pick     static pick      margin",
    ]
    for point in result.points:
        flag = "" if point.margin <= result.tolerance else "  <-- OVER TOLERANCE"
        lines.append(
            f"  {point.per_block_nnz:7d}  {point.planner_pick:15s}  "
            f"{point.static_pick:15s}  {point.margin:+7.2%}{flag}"
        )
    lines.append(
        f"  worst margin {result.worst_margin:+.2%} over {len(result.points)} "
        f"points ({result.reorder_points} reordered); "
        f"{'OK' if result.within_tolerance else 'FAIL'}"
    )
    return "\n".join(lines)
