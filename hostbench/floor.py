"""The SciPy floor and the references every result is checked against.

The floor is a plain ``scipy.sparse`` CSR ``csr @ x`` on the workload's
own matrices and vectors, timed in the same process and run as the
system under test.  Every layer's per-vector time is quoted as a
multiple of it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

#: |y - y_ref| <= HEAVY_RTOL * (|A| |x|), elementwise, on fp16-exact
#: inputs: products are exact in fp32, so only the fp32 summation order
#: (which differs between kernels the planner may pick) can move a bit.
HEAVY_RTOL = 2.0**-14

#: L1 distance between a PageRank rank vector and the float64 SciPy
#: PageRank.  Spaden stores the transition probabilities in fp16, so each
#: is off by up to 2^-11 relative; the ranks (which sum to 1) inherit
#: an L1 error of the same order.
PAGERANK_L1_TOL = 2.0**-9


def to_scipy(csr, dtype=np.float32) -> sp.csr_matrix:
    return sp.csr_matrix(
        (csr.values.astype(dtype), csr.col_indices, csr.row_pointers), shape=csr.shape
    )


def floor_seconds(matrix: sp.csr_matrix, vectors: np.ndarray, min_seconds: float = 0.05) -> float:
    """Median seconds of one ``matrix @ x`` over ``vectors`` (cycled)."""
    samples = []
    spent = 0.0
    i = 0
    while spent < min_seconds or len(samples) < 25:
        x = vectors[i % len(vectors)]
        start = time.perf_counter()
        matrix @ x
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
        i += 1
    return float(np.median(samples))


def mix_floor_us(matrices: dict, pools: dict, weights: dict) -> float:
    """Per-vector floor in µs for a request mix (``weights`` per matrix)."""
    total = sum(weights.values())
    return 1e6 * sum(
        weights[name] / total * floor_seconds(to_scipy(matrices[name]), pools[name])
        for name in matrices
    )


def pagerank64(P: sp.csr_matrix, dangling: np.ndarray, damping: float, iterations: int) -> np.ndarray:
    """Fixed-iteration float64 PageRank, the same update as ``repro.apps``."""
    n = P.shape[0]
    ranks = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(iterations):
        spread = P @ ranks + ranks[dangling].sum() / n
        ranks = damping * spread + teleport
    return ranks


def pagerank_ok(ranks: np.ndarray, reference: np.ndarray) -> bool:
    return bool(np.abs(ranks.astype(np.float64) - reference).sum() <= PAGERANK_L1_TOL)


def heavy_ok(y, reference: np.ndarray, magnitude: np.ndarray) -> bool:
    """``y`` within :data:`HEAVY_RTOL` of the float64 product, elementwise."""
    y = np.asarray(y, dtype=np.float64)
    return y.shape == reference.shape and bool(
        np.all(np.abs(y - reference) <= HEAVY_RTOL * magnitude)
    )


def bitwise_ok(y, reference: np.ndarray) -> bool:
    y = np.asarray(y)
    return y.dtype == reference.dtype and y.shape == reference.shape and y.tobytes() == reference.tobytes()
