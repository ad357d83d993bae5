"""Operand cache: content keying, LRU order, budget, counters."""

import numpy as np
import pytest

from repro.engine import OperandCache, SpMVEngine, matrix_fingerprint
from repro.errors import KernelError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.base import PreparedOperand

from tests.conftest import make_random_dense


def _operand(name: str, device_bytes: int) -> PreparedOperand:
    return PreparedOperand(
        kernel_name="spaden",
        data=name,
        shape=(8, 8),
        nnz=1,
        device_bytes=device_bytes,
        preprocessing_seconds=0.0,
    )


def _csr(rng, nrows=40, ncols=40, density=0.1) -> CSRMatrix:
    return CSRMatrix.from_coo(
        COOMatrix.from_dense(make_random_dense(rng, nrows, ncols, density))
    )


class TestFingerprint:
    def test_content_identical_matrices_share_a_key(self, rng):
        csr = _csr(rng)
        clone = CSRMatrix(
            csr.shape,
            csr.row_pointers.copy(),
            csr.col_indices.copy(),
            csr.values.copy(),
        )
        assert csr is not clone
        assert matrix_fingerprint(csr) == matrix_fingerprint(clone)

    def test_value_edit_changes_the_key(self, rng):
        csr = _csr(rng)
        before = matrix_fingerprint(csr)
        csr.values[0] += 1.0
        assert matrix_fingerprint(csr) != before

    def test_shape_disambiguates_empty_matrices(self):
        a = CSRMatrix((2, 5), np.zeros(3, np.int64), [], [])
        b = CSRMatrix((2, 6), np.zeros(3, np.int64), [], [])
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_dtype_disambiguates_identical_bytes(self):
        """Regression: the old hash covered only raw bytes, so an int32
        ``[1, 0]`` and an int64 ``[1]`` (same little-endian bytes)
        collided.  CSRMatrix coerces index dtypes at construction, so
        the collision is reproduced with a duck-typed stub carrying the
        exact four attributes the fingerprint reads."""
        import types

        def stub(col_indices):
            return types.SimpleNamespace(
                shape=(1, 2),
                row_pointers=np.array([0, 2], np.int64),
                col_indices=col_indices,
                values=np.array([1.5, 2.5], np.float32),
            )

        a = stub(np.array([1, 0], np.int32))
        b = stub(np.array([1], np.int64))
        assert a.col_indices.tobytes() == b.col_indices.tobytes()  # the trap
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_array_boundary_pinned(self):
        """Bytes cannot shift between adjacent arrays and hash the same:
        the per-array length framing keeps ``indices=[1,2] values=[3]``
        apart from ``indices=[1] values=[2,3]``."""
        import types

        def stub(col_indices, values):
            # row_pointers held constant so only the boundary moves
            return types.SimpleNamespace(
                shape=(1, 4),
                row_pointers=np.array([0, 2], np.int64),
                col_indices=np.asarray(col_indices, np.int32),
                values=np.asarray(values, np.int32).view(np.float32),
            )

        a = stub([1, 2], [3])
        b = stub([1], [2, 3])
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_digests_pinned(self):
        """Digests key the persistent operand store, so hashing may
        change how it reads the arrays but never the digest."""
        import types

        int32 = CSRMatrix(
            (3, 3),
            np.array([0, 2, 3, 5]),
            np.array([0, 2, 1, 0, 2]),
            np.array([1.0, -2.5, 3.0, 0.5, 4.0]),
        )
        assert int32.col_indices.dtype == np.int32
        assert matrix_fingerprint(int32) == "753a533d19fbd3a8a47066924cc3c6c9"
        int64 = types.SimpleNamespace(
            shape=(2, 4),
            row_pointers=np.array([0, 1, 3], np.int64),
            col_indices=np.array([3, 0, 2], np.int64),
            values=np.array([1.5, -1.0, 2.0], np.float32),
        )
        assert matrix_fingerprint(int64) == "813a54822cd45360a7a9045042a8fbf4"
        # a strided view hashes like its contiguous copy
        strided = types.SimpleNamespace(
            shape=int64.shape,
            row_pointers=int64.row_pointers,
            col_indices=np.array([3, 9, 0, 9, 2], np.int64)[::2],
            values=int64.values,
        )
        assert matrix_fingerprint(strided) == "813a54822cd45360a7a9045042a8fbf4"


class TestOperandCache:
    def test_hit_miss_counters(self):
        cache = OperandCache(1000)
        assert cache.get(("spaden", "a")) is None
        cache.put(("spaden", "a"), _operand("a", 100))
        assert cache.get(("spaden", "a")).data == "a"
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = OperandCache(300)
        for name in "abc":
            cache.put(("spaden", name), _operand(name, 100))
        cache.get(("spaden", "a"))  # refresh a -> b is now LRU
        cache.put(("spaden", "d"), _operand("d", 100))
        assert ("spaden", "b") not in cache
        assert ("spaden", "a") in cache
        assert cache.stats.evictions == 1
        assert cache.keys()[-1] == ("spaden", "d")  # MRU last

    def test_budget_enforced(self):
        cache = OperandCache(250)
        for name in "abcdef":
            cache.put(("spaden", name), _operand(name, 100))
            assert cache.resident_bytes <= 250
        assert len(cache) == 2

    def test_oversized_operand_rejected_not_retained(self):
        cache = OperandCache(100)
        cache.put(("spaden", "small"), _operand("small", 80))
        cache.put(("spaden", "huge"), _operand("huge", 101))
        assert ("spaden", "huge") not in cache
        assert ("spaden", "small") in cache  # nothing evicted for it
        assert cache.stats.rejected == 1
        assert cache.stats.evictions == 0

    def test_oversized_replacement_counts_the_displaced_entry(self):
        """Regression: an oversized ``put`` over a *resident* key used to
        drop the old entry without counting an eviction, so
        ``evictions`` understated every entry that left the cache."""
        cache = OperandCache(100)
        cache.put(("spaden", "a"), _operand("small", 80))
        cache.put(("spaden", "a"), _operand("huge", 101))
        assert ("spaden", "a") not in cache
        assert cache.stats.rejected == 1
        assert cache.stats.evictions == 1  # the displaced resident entry
        assert cache.resident_bytes == 0

    def test_resident_bytes_running_total_consistent(self):
        """The running total must equal the sum over resident operands
        after every mutation (regression for the O(n) recomputation it
        replaced), and never exceed the budget."""
        cache = OperandCache(250)

        def check():
            actual = sum(op.device_bytes for op in cache._entries.values())
            assert cache.resident_bytes == actual
            assert cache.resident_bytes <= 250

        for name, size in [("a", 100), ("b", 100), ("c", 60), ("a", 40), ("big", 999)]:
            cache.put(("spaden", name), _operand(name, size))
            check()
        cache.invalidate(("spaden", "c"))
        check()
        cache.invalidate(("spaden", "absent"))
        check()
        cache.clear()
        check()
        assert cache.resident_bytes == 0

    def test_same_key_replacement_does_not_leak_bytes(self):
        cache = OperandCache(1000)
        cache.put(("spaden", "a"), _operand("v1", 400))
        cache.put(("spaden", "a"), _operand("v2", 300))
        assert cache.resident_bytes == 300
        assert len(cache) == 1

    def test_invalidate(self):
        cache = OperandCache(1000)
        cache.put(("spaden", "a"), _operand("a", 10))
        assert cache.invalidate(("spaden", "a"))
        assert not cache.invalidate(("spaden", "a"))
        assert len(cache) == 0

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(KernelError):
            OperandCache(0)


class TestEngineCacheIntegration:
    def test_hit_skips_prepare(self, rng, monkeypatch):
        from repro.kernels.base import get_kernel

        csr = _csr(rng)
        x = rng.standard_normal(csr.ncols).astype(np.float32)
        engine = SpMVEngine("spaden")
        kernel = get_kernel("spaden")
        calls = []
        original = type(kernel).prepare

        def counting_prepare(self, matrix):
            calls.append(1)
            return original(self, matrix)

        monkeypatch.setattr(type(kernel), "prepare", counting_prepare)
        for _ in range(5):
            engine.spmv(csr, x)
        assert len(calls) == 1
        assert engine.stats.prepare_calls == 1
        assert engine.cache.stats.hits == 4 and engine.cache.stats.misses == 1

    def test_distinct_matrices_get_distinct_entries(self, rng):
        a, b = _csr(rng), _csr(rng)
        engine = SpMVEngine("spaden")
        engine.spmv(a, np.ones(a.ncols, np.float32))
        engine.spmv(b, np.ones(b.ncols, np.float32))
        assert len(engine.cache) == 2
        assert engine.stats.prepare_calls == 2

    def test_tiny_budget_thrashes_but_stays_correct(self, rng):
        a, b = _csr(rng), _csr(rng)
        engine = SpMVEngine("spaden", cache_bytes=1)  # everything rejected
        xa = rng.standard_normal(a.ncols).astype(np.float32)
        ya1 = engine.spmv(a, xa)
        engine.spmv(b, np.ones(b.ncols, np.float32))
        ya2 = engine.spmv(a, xa)
        assert np.array_equal(ya1, ya2)
        assert len(engine.cache) == 0
        assert engine.cache.stats.rejected >= 2
