"""The concurrent multi-tenant front-end over :class:`~repro.engine.SpMVEngine`.

This is the serving layer ROADMAP item 1 converges on: many callers on
many threads submit SpMV requests against registered matrices, and the
front-end turns that concurrent traffic into the same-matrix
micro-batches the engine already amortizes — one operand decode per
batch instead of one per request.  The moving parts:

* **admission control** (:meth:`ServeFrontend.submit`): a request is
  validated, checked against its tenant's
  :class:`~repro.serve.quota.TenantQuota` (queue depth + token-bucket
  rate), stamped with an optional per-request
  :class:`~repro.resilience.Deadline`, and queued — or rejected with a
  structured :class:`~repro.errors.AdmissionError` before it costs
  anything;
* **coalescing** (:meth:`_dispatch_loop`): one dispatcher thread
  watches the per-matrix pending groups and flushes a group when the
  :class:`~repro.serve.policy.FlushPolicy` says so (full batch, aging
  oldest request, or earliest-deadline pressure), assembling batches in
  urgency order (priority, then earliest ``expires_at``, then
  admission order);
* **execution** (:meth:`_run_batch`): a thread pool runs each batch
  through :meth:`~repro.engine.SpMVEngine.spmv_many` with
  ``return_errors=True``, so every request resolves its
  :class:`ServeTicket` with either the result vector or the structured
  error — the zero-lost contract of the flush seam, now concurrent.

Thread-safety follows the PR-7 discipline: every shared field is
declared ``guarded-by`` the front-end's condition lock, the lock is
never held across engine execution (batches run in parallel), and
metrics are published capture-then-publish outside critical sections.
The package is audited by :mod:`repro.analysis.concurrency` like the
other serving seams.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.engine import SpMVEngine
from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    KernelError,
    ServeError,
)
from repro.formats.csr import CSRMatrix
from repro.obs import get_registry
from repro.resilience import Deadline
from repro.serve.policy import FlushPolicy
from repro.serve.quota import TenantQuota, TokenBucket

__all__ = ["ServeFrontend", "ServeTicket"]

#: How long the dispatcher sleeps between pressure re-checks while
#: requests are pending.  A submission notifies it immediately; this
#: bound only matters for pure time pressure (max-wait / deadline), and
#: keeps the loop live under a virtual clock in tests.
_DISPATCH_TICK_SECONDS = 0.05


# -- metrics (capture-then-publish helpers, engine-style) ---------------------

def _count_admission(tenant: str) -> None:
    get_registry().counter(
        "serve_admitted_total",
        "Requests admitted by the serving front-end.",
        labels=("tenant",),
    ).inc(tenant=tenant)


def _count_rejection(tenant: str, reason: str) -> None:
    get_registry().counter(
        "serve_admission_rejected_total",
        "Requests rejected by admission control, by quota reason.",
        labels=("tenant", "reason"),
    ).inc(tenant=tenant, reason=reason)


def _count_request(tenant: str, outcome: str) -> None:
    get_registry().counter(
        "serve_requests_total",
        "Requests resolved by the front-end, by final outcome.",
        labels=("tenant", "outcome"),
    ).inc(tenant=tenant, outcome=outcome)


def _count_batch(matrix: str, cause: str, size: int) -> None:
    registry = get_registry()
    registry.counter(
        "serve_batches_total",
        "Coalesced micro-batches flushed to the engine, by flush cause.",
        labels=("matrix", "cause"),
    ).inc(matrix=matrix, cause=cause)
    registry.histogram(
        "serve_batch_size",
        "Requests per coalesced front-end batch.",
        labels=("matrix",),
        buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
    ).observe(size, matrix=matrix)


def _observe_latency(tenant: str, seconds: float) -> None:
    get_registry().histogram(
        "serve_request_seconds",
        "Admission-to-resolution latency per request.",
        labels=("tenant",),
    ).observe(seconds, tenant=tenant)


def _set_depth(tenant: str, depth: int) -> None:
    get_registry().gauge(
        "serve_queue_depth",
        "In-flight (admitted, unresolved) requests per tenant.",
        labels=("tenant",),
    ).set(depth, tenant=tenant)


class ServeTicket:
    """Handle to one admitted request; resolves to a vector or an error.

    A thin wrapper over :class:`concurrent.futures.Future` carrying the
    request's identity.  :meth:`result` blocks for (and returns) the
    ``y`` vector, raising the structured error instead if the request
    failed; :meth:`error` blocks and returns the exception instance (or
    ``None``) without raising — the shape the load generator and the
    engine's ``return_errors`` path both speak.
    """

    def __init__(self, seq: int, tenant: str, matrix: str):
        self.seq = seq
        self.tenant = tenant
        self.matrix = matrix
        self._future: Future = Future()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """The result vector; raises the request's error on failure."""
        return self._future.result(timeout)

    def error(self, timeout: float | None = None) -> BaseException | None:
        """Block until resolved; the error instance, or ``None`` if ok."""
        return self._future.exception(timeout)

    def done(self) -> bool:
        return self._future.done()

    def add_done_callback(self, fn: Callable[["ServeTicket"], None]) -> None:
        """Invoke ``fn(ticket)`` once resolved (immediately if done)."""
        self._future.add_done_callback(lambda _future: fn(self))

    # internal: called exactly once by the worker that resolves the batch
    def _succeed(self, y: np.ndarray) -> None:
        self._future.set_result(y)

    def _fail(self, exc: BaseException) -> None:
        self._future.set_exception(exc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done() else "pending"
        return f"ServeTicket(seq={self.seq}, tenant={self.tenant!r}, {state})"


@dataclass(frozen=True)
class _Pending:
    """One admitted request waiting in its matrix's coalescing group."""

    seq: int
    tenant: str
    matrix: str
    csr: CSRMatrix
    x: np.ndarray
    priority: int
    deadline: Deadline | None
    submitted_at: float
    ticket: ServeTicket = field(repr=False)


def _urgency(record: _Pending) -> tuple:
    """Batch-assembly order: priority, then deadline, then admission."""
    expires = record.deadline.expires_at if record.deadline is not None else math.inf
    return (-record.priority, expires, record.seq)


def _group_pressure(group: list, now: float) -> tuple[float, float | None]:
    """One group's ``(oldest_age, min_expires_in)`` observations."""
    oldest = min(r.submitted_at for r in group)
    expiries = [r.deadline.expires_at for r in group if r.deadline is not None]
    return now - oldest, (min(expiries) - now) if expiries else None


def _pop_due(
    pending: dict[str, list],
    policies: dict[str, FlushPolicy],
    default_policy: FlushPolicy,
    now: float,
    drain: bool,
) -> list[tuple[str, str, list]]:
    """Pop every due group as ``(matrix, cause, batch)`` triples.

    Mutates ``pending`` in place and must run under the front-end lock;
    it is kept free of ``self`` so the lock discipline stays lexical
    (pass the data, not the fields).  Each matrix flushes under its own
    policy from ``policies`` (a plan-hinted variant installed at
    registration) falling back to ``default_policy``.  With
    ``drain=True`` every pending request is taken regardless of
    pressure (shutdown path), still in ``max_batch``-sized
    urgency-ordered chunks.
    """
    batches: list[tuple[str, str, list]] = []
    for name, group in pending.items():
        policy = policies.get(name, default_policy)
        while group:
            if drain:
                cause = "drain"
            else:
                oldest_age, min_expires_in = _group_pressure(group, now)
                cause = policy.decide(
                    size=len(group),
                    oldest_age=oldest_age,
                    min_expires_in=min_expires_in,
                )
            if cause is None:
                break
            group.sort(key=_urgency)
            take = group[: policy.max_batch]
            del group[: policy.max_batch]
            batches.append((name, cause, take))
    return batches


def _min_due_in(
    pending: dict[str, list],
    policies: dict[str, FlushPolicy],
    default_policy: FlushPolicy,
    now: float,
) -> float | None:
    """Seconds until the most pressed group becomes due (None if idle)."""
    waits = [
        policies.get(name, default_policy).due_in(
            oldest_age=pressure[0], min_expires_in=pressure[1]
        )
        for name, group in pending.items()
        if group
        for pressure in (_group_pressure(group, now),)
    ]
    return min(waits) if waits else None


class ServeFrontend:
    """Thread-pool serving front-end over one :class:`SpMVEngine`.

    ``engine`` defaults to a fresh ``SpMVEngine()`` (spaden kernel,
    full degradation chain); install a
    :class:`~repro.resilience.ResiliencePolicy` on it for per-batch
    deadlines, retries and breakers — the front-end adds the
    *per-request* deadline on top, checked before a request's batch is
    handed to the engine.  ``workers`` sizes the execution pool (one
    batch per worker at a time); the dispatcher itself is a single
    extra thread.  ``clock`` is injectable
    (:class:`~repro.resilience.ManualClock` in tests) and feeds
    admission timestamps, rate buckets and request deadlines alike.

    ``planner`` (a :class:`repro.plan.Planner`) makes registration
    plan-aware: each matrix registered while a planner is installed is
    profiled once and its :class:`~repro.plan.ExecutionPlan` batch
    hints specialize the flush policy for that matrix's coalescing
    group (dense-blocked operands coalesce into larger batches than
    hypersparse ones).
    """

    def __init__(
        self,
        engine: SpMVEngine | None = None,
        *,
        workers: int = 4,
        flush_policy: FlushPolicy | None = None,
        default_quota: TenantQuota | None = None,
        default_deadline_seconds: float | None = None,
        planner=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.engine = engine if engine is not None else SpMVEngine()
        self.planner = planner
        self.flush_policy = flush_policy or FlushPolicy()
        self.default_quota = default_quota or TenantQuota()
        self.default_deadline_seconds = default_deadline_seconds
        self._clock = clock
        self._seq = itertools.count()
        # One lock (as a condition variable) guards all front-end
        # bookkeeping; it is NEVER held across engine execution, so
        # batches on different workers still run in parallel.
        self._cond = threading.Condition()
        self._matrices: dict[str, CSRMatrix] = {}  # concurrency: guarded-by(self._cond)
        self._pending: dict[str, list] = {}  # concurrency: guarded-by(self._cond)
        # per-matrix plan-hinted flush policies (default policy when absent)
        self._policies: dict[str, FlushPolicy] = {}  # concurrency: guarded-by(self._cond)
        self._quotas: dict[str, TenantQuota] = {}  # concurrency: guarded-by(self._cond)
        self._buckets: dict[str, TokenBucket] = {}  # concurrency: guarded-by(self._cond)
        self._tenant_depth: dict[str, int] = {}  # concurrency: guarded-by(self._cond)
        self._closed = False  # concurrency: guarded-by(self._cond)
        self._pool = ThreadPoolExecutor(workers, thread_name_prefix="serve-worker")
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- registration and quotas ----------------------------------------------
    def register_matrix(self, name: str, csr: CSRMatrix, *, warm: bool | None = None) -> None:
        """Register a matrix under ``name``; requests address it by name.

        Re-registering a taken name is a :class:`~repro.errors.ServeError`
        — tenants hold references to results computed against the old
        contents, so silent replacement would be a correctness trap.
        The name is checked before any planning or warming, so a
        rejected call converts and persists nothing, and again at
        insert for a racing registration of the same name.

        With a ``planner`` installed, the matrix is profiled here (once,
        outside the lock — registration is the cold path) and its plan's
        batch hints specialize this matrix's flush policy.

        ``warm`` pre-prepares the preferred kernel's operand through
        :meth:`~repro.engine.SpMVEngine.warm` — memory cache, then the
        engine's persistent store, then one conversion spilled back to
        disk — so the tenant's first request never pays the cold-start
        tax.  The default (``None``) warms exactly when the engine has
        a persistent store attached; pass ``True``/``False`` to force.
        Warming happens outside the lock, on the registration path.
        """
        with self._cond:
            if name in self._matrices:
                raise ServeError(f"matrix {name!r} is already registered")
        policy = self.flush_policy
        if self.planner is not None:
            plan = self.planner.plan(csr)
            policy = policy.with_hints(
                max_batch=plan.batch_hint,
                max_wait_seconds=plan.max_wait_hint_seconds,
            )
        if warm is None:
            warm = getattr(self.engine, "store", None) is not None
        if warm:
            self.engine.warm(csr)
        with self._cond:
            if name in self._matrices:
                raise ServeError(f"matrix {name!r} is already registered")
            self._matrices[name] = csr
            self._pending[name] = []
            self._policies[name] = policy

    def matrices(self) -> list[str]:
        """Registered matrix names, in registration order."""
        with self._cond:
            return list(self._matrices)

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Install (or replace) one tenant's quota; resets its rate bucket."""
        with self._cond:
            self._quotas[tenant] = quota
            self._buckets.pop(tenant, None)

    def queue_depth(self, tenant: str) -> int:
        """The tenant's in-flight (admitted, unresolved) request count."""
        with self._cond:
            return self._tenant_depth.get(tenant, 0)

    # -- admission -------------------------------------------------------------
    def submit(
        self,
        matrix: str,
        x: np.ndarray,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline_seconds: float | None = None,
    ) -> ServeTicket:
        """Admit one request; returns its :class:`ServeTicket`.

        Synchronous failures are structured: an unknown matrix or a
        closed front-end raises :class:`~repro.errors.ServeError`, a
        shape-invalid vector raises :class:`~repro.errors.KernelError`
        (before any quota is spent), and a quota violation raises
        :class:`~repro.errors.AdmissionError`.  ``priority`` orders
        batch assembly (higher first); ``deadline_seconds`` overrides
        the front-end default (``None`` keeps the default; requests
        whose deadline expires before their batch dispatches resolve
        with :class:`~repro.errors.DeadlineExceededError` without
        touching the engine).
        """
        x = np.asarray(x, dtype=np.float32)
        rejection = None
        with self._cond:
            if self._closed:
                raise ServeError("front-end is closed; no new submissions")
            csr = self._matrices.get(matrix)
            if csr is None:
                raise ServeError(
                    f"unknown matrix {matrix!r}; register_matrix() it first"
                )
            if x.ndim != 1 or x.shape[0] != csr.ncols:
                raise KernelError(
                    f"x has shape {x.shape}, expected ({csr.ncols},)"
                )
            quota = self._quotas.get(tenant, self.default_quota)
            depth = self._tenant_depth.get(tenant, 0)
            if quota.max_queue_depth is not None and depth >= quota.max_queue_depth:
                rejection = ("queue-depth", float(quota.max_queue_depth), float(depth))
            elif quota.max_requests_per_second is not None:
                bucket = self._buckets.get(tenant)
                if bucket is None:
                    bucket = TokenBucket(
                        quota.max_requests_per_second, quota.capacity, self._clock
                    )
                    self._buckets[tenant] = bucket
                if not bucket.try_acquire():
                    rejection = ("rate", float(quota.max_requests_per_second), None)
            if rejection is None:
                seconds = (
                    deadline_seconds
                    if deadline_seconds is not None
                    else self.default_deadline_seconds
                )
                deadline = (
                    Deadline(seconds, clock=self._clock) if seconds is not None else None
                )
                seq = next(self._seq)
                ticket = ServeTicket(seq=seq, tenant=tenant, matrix=matrix)
                self._pending[matrix].append(
                    _Pending(
                        seq=seq,
                        tenant=tenant,
                        matrix=matrix,
                        csr=csr,
                        x=x,
                        priority=priority,
                        deadline=deadline,
                        submitted_at=self._clock(),
                        ticket=ticket,
                    )
                )
                self._tenant_depth[tenant] = depth + 1
                new_depth = depth + 1
                self._cond.notify_all()
        # metrics publish outside the critical section (capture-then-publish)
        if rejection is not None:
            reason, limit, current = rejection
            _count_rejection(tenant, reason)
            detail = (
                f"queue depth {current:g} at limit {limit:g}"
                if reason == "queue-depth"
                else f"rate limit {limit:g} req/s exhausted"
            )
            raise AdmissionError(
                f"tenant {tenant!r} rejected by {reason} quota: {detail}",
                tenant=tenant,
                reason=reason,
                limit=limit,
                current=current,
            )
        _count_admission(tenant)
        _set_depth(tenant, new_depth)
        return ticket

    def poke(self) -> None:
        """Wake the dispatcher for an immediate pressure re-check.

        Useful under a :class:`~repro.resilience.ManualClock`: advance
        the virtual clock, then ``poke()`` so max-wait / deadline
        pressure is evaluated against the new time at once.
        """
        with self._cond:
            self._cond.notify_all()

    # -- dispatch --------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Single dispatcher: waits for pressure, pops batches, fans out."""
        while True:
            with self._cond:
                while True:
                    now = self._clock()
                    batches = _pop_due(
                        self._pending,
                        self._policies,
                        self.flush_policy,
                        now,
                        drain=self._closed,
                    )
                    if batches:
                        break
                    if self._closed:
                        return  # drained: nothing pending, nothing due
                    timeout = _min_due_in(
                        self._pending, self._policies, self.flush_policy, now
                    )
                    self._cond.wait(
                        None
                        if timeout is None
                        else min(max(timeout, 0.0), _DISPATCH_TICK_SECONDS)
                    )
            for matrix, cause, batch in batches:
                self._pool.submit(self._run_batch, matrix, cause, batch)

    def _execute_outcomes(self, batch: list) -> list[tuple[_Pending, object]]:
        """Run one batch; pair every record with its result or error.

        Requests whose deadline already expired resolve with the
        structured :class:`~repro.errors.DeadlineExceededError` from the
        ``serve.dispatch`` checkpoint and never reach the engine ("no
        new work starts after expiry").  The rest ride one
        ``spmv_many(return_errors=True)`` call, so failures come back
        per-request and nothing raises across the batch.
        """
        outcomes: list[tuple[_Pending, object]] = []
        ready: list[_Pending] = []
        for record in batch:
            if record.deadline is not None:
                try:
                    record.deadline.check("serve.dispatch")
                except DeadlineExceededError as exc:
                    outcomes.append((record, exc))
                    continue
            ready.append(record)
        if ready:
            results = self.engine.spmv_many(
                [(record.csr, record.x) for record in ready],
                return_errors=True,
            )
            outcomes.extend(zip(ready, results))
        return outcomes

    def _run_batch(self, matrix: str, cause: str, batch: list) -> None:
        """Worker: execute one coalesced batch and resolve its tickets."""
        try:
            outcomes = self._execute_outcomes(batch)
        except BaseException as exc:  # defensive: the seam above shouldn't raise
            outcomes = [(record, exc) for record in batch]
        now = self._clock()
        depths: dict[str, int] = {}
        with self._cond:
            for record, _result in outcomes:
                self._tenant_depth[record.tenant] -= 1
                depths[record.tenant] = self._tenant_depth[record.tenant]
        # resolve tickets first, then publish metrics — a metrics error
        # must never leave a caller blocked on an unresolved future
        for record, result in outcomes:
            if isinstance(result, BaseException):
                record.ticket._fail(result)
            else:
                record.ticket._succeed(result)
        for record, result in outcomes:
            if isinstance(result, DeadlineExceededError):
                outcome = "deadline"
            elif isinstance(result, BaseException):
                outcome = "error"
            else:
                outcome = "ok"
            _count_request(record.tenant, outcome)
            _observe_latency(record.tenant, now - record.submitted_at)
        _count_batch(matrix, cause, size=len(batch))
        for tenant, depth in depths.items():
            _set_depth(tenant, depth)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Drain and shut down: every admitted request still resolves.

        Marks the front-end closed (new submissions raise
        :class:`~repro.errors.ServeError`), lets the dispatcher flush
        everything pending as ``drain`` batches, then joins the
        dispatcher and the worker pool.  Idempotent.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ServeFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_report(self, meta: dict | None = None):
        """The underlying engine's :class:`~repro.obs.RunReport`."""
        base = {"frontend": "serve", "matrices": self.matrices()}
        base.update(meta or {})
        return self.engine.run_report(meta=base)
