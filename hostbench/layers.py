"""Spans around each layer's public entry points, installed from outside.

The traced run wraps the ``repro`` entry points a request crosses and
restores them afterwards; no program file changes.  Layer names are
the ``repro`` packages:

=========  ==========================================================
apps       ``repro.apps.pagerank.pagerank``
serve      ``ServeFrontend.submit``; queue wait from submit to the
           engine call that serves the request
engine     ``SpMVEngine.spmv``/``spmv_many``/``warm``, bound operator
           calls, the operand cache and ``matrix_fingerprint``
plan       ``StructurePlanner.plan``/``observe`` (latency feedback)
persist    ``OperandStore.get``/``put``
exec       ``execute_chain`` as the engine calls it
kernels    every registered kernel's ``run``/``run_many``
formats    every registered kernel's ``prepare`` (format conversion)
=========  ==========================================================
"""

from __future__ import annotations

import functools
import importlib
import threading

import repro.kernels  # noqa: F401  (fills the kernel registry)
from repro.engine import engine as engine_module
from repro.engine.cache import OperandCache
from repro.kernels.base import SpMVKernel, registered_kernels
from repro.persist import OperandStore
from repro.plan import StructurePlanner
from repro.plan import planner as planner_module
from repro.serve import ServeFrontend

# the package re-exports the function under the module's name
pagerank_module = importlib.import_module("repro.apps.pagerank")

#: The program's layers, bottom-up, as the report lists them.
LAYERS = ("formats", "kernels", "exec", "persist", "plan", "engine", "serve", "apps")


class LayerTracer:
    """Installs span wrappers on the layer entry points; ``uninstall`` undoes."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._waiting: dict[int, object] = {}  # id(x) -> loadgen Request
        self._orders: dict[str, tuple[str, ...]] = {}  # plan order per matrix

    # -- request linking -----------------------------------------------------
    def expect(self, request) -> None:
        """Register a request about to be submitted (keyed by its vector)."""
        with self._lock:
            self._waiting[id(request.x)] = request

    def _claim(self, requests, batch) -> None:
        with self._lock:
            claimed = [self._waiting.pop(id(x), None) for _csr, x in requests]
        for request in claimed:
            if request is not None:
                self.recorder.record(
                    "serve.queue_wait",
                    request.sent,
                    batch.start,
                    trace_id=request.trace_id,
                    batch=batch.span_id,
                    wait=True,
                )

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))
        self._undo.append((owner, attr, original))

    def _spanned(self, name: str, annotate=None):
        recorder = self.recorder

        def wrapper(fn):
            def traced(*args, **kwargs):
                with recorder.span(name) as span:
                    out = fn(*args, **kwargs)
                    if annotate is not None:
                        annotate(span, args, out)
                return out

            return traced

        return wrapper

    def install(self) -> None:
        recorder = self.recorder
        spanned = self._spanned

        self._patch(
            pagerank_module,
            "pagerank",
            spanned("apps.pagerank", lambda s, a, out: s.attrs.update(iterations=out.iterations)),
        )
        self._patch(ServeFrontend, "submit", spanned("serve.submit"))

        def spmv_many(fn):
            def traced(engine, requests, *args, **kwargs):
                requests = list(requests)
                with recorder.span("engine.spmv_many", vectors=len(requests)) as batch:
                    self._claim(requests, batch)
                    return fn(engine, requests, *args, **kwargs)

            return traced

        self._patch(engine_module.SpMVEngine, "spmv_many", spmv_many)
        self._patch(engine_module.SpMVEngine, "spmv", spanned("engine.spmv"))
        self._patch(engine_module.SpMVEngine, "warm", spanned("engine.warm"))

        def operator(fn):
            def traced(engine, csr):
                return spanned("engine.operator_call")(fn(engine, csr))

            return traced

        self._patch(engine_module.SpMVEngine, "operator", operator)
        fingerprint = spanned("engine.fingerprint")
        self._patch(engine_module, "matrix_fingerprint", fingerprint)
        self._patch(planner_module, "matrix_fingerprint", fingerprint)
        self._patch(OperandCache, "get", spanned("engine.cache_get"))
        self._patch(OperandCache, "put", spanned("engine.cache_put"))

        def plan_annotate(span, args, plan):
            key = plan.profile.fingerprint if plan.profile is not None else None
            with self._lock:
                previous = self._orders.get(key)
                self._orders[key] = plan.kernels
            span.attrs["flipped"] = previous is not None and previous != plan.kernels
            span.attrs["top"] = plan.kernels[0]

        self._patch(StructurePlanner, "plan", spanned("plan.plan", plan_annotate))
        self._patch(StructurePlanner, "observe", spanned("plan.observe"))
        self._patch(
            OperandStore,
            "get",
            spanned("persist.get", lambda s, a, out: s.attrs.update(hit=out is not None)),
        )
        self._patch(OperandStore, "put", spanned("persist.put"))

        def execute_chain(fn):
            def traced(*args, **kwargs):
                with recorder.span("exec.chain") as span:
                    try:
                        result = fn(*args, **kwargs)
                    except Exception as exc:
                        span.attrs["degradations"] = len(getattr(exc, "events", ()))
                        raise
                    span.attrs["degradations"] = len(result.events)
                    return result

            return traced

        self._patch(engine_module, "execute_chain", execute_chain)

        for cls in {SpMVKernel, *registered_kernels().values()}:
            if "run" in cls.__dict__ and cls is not SpMVKernel:
                self._patch(
                    cls, "run", spanned("kernels.run", lambda s, a, out: s.attrs.update(vectors=1))
                )
            if "run_many" in cls.__dict__:
                self._patch(
                    cls,
                    "run_many",
                    spanned("kernels.run_many", lambda s, a, out: s.attrs.update(vectors=len(out))),
                )
            if "prepare" in cls.__dict__ and cls is not SpMVKernel:
                self._patch(cls, "prepare", spanned("formats.prepare"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
