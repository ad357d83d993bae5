"""Seeded arrival schedules and the open-loop request sender.

Every schedule is computed from the seed before the clock starts, so
the same seed sends the same requests at the same offsets.  The sender
sends each request at its scheduled time from one generator thread and
never waits for a reply before the next send (open loop); latency is
timed from the *scheduled* send, so a stall also charges the requests
queued behind it.  How late the generator itself ran is kept per
request, so a run whose generator lagged can be flagged.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

#: Generator lateness p99 above which a run is flagged as not open-loop.
LATENESS_BOUND_MS = 20.0


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Send offsets (seconds from start) of a Poisson process."""
    count = int(rate * duration * 1.5) + 64
    offsets = np.cumsum(rng.exponential(1.0 / rate, count))
    while offsets[-1] < duration:
        offsets = np.concatenate([offsets, offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, count))])
    return offsets[offsets < duration]


def zipf_weights(count: int, s: float) -> np.ndarray:
    """Popularity ``p_i ∝ 1 / (i + 1)^s`` over ``count`` ranks."""
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** s
    return weights / weights.sum()


@dataclass
class Request:
    """One scheduled request and what became of it."""

    offset: float  # scheduled send, seconds after the run's start
    matrix: str
    vector: int  # index into the matrix's vector pool
    trace_id: int = 0
    scheduled: float = float("nan")  # absolute perf_counter time
    sent: float = float("nan")
    done: float = float("nan")
    result: object = None  # the y vector, or the exception
    x: object = None  # the exact array submitted (identity links traces)

    @property
    def latency(self) -> float:
        return self.done - self.scheduled

    @property
    def lateness(self) -> float:
        return self.sent - self.scheduled


def build_requests(rng, offsets, names, weights, pool_size: int) -> list[Request]:
    """Requests at ``offsets`` over ``names`` drawn with ``weights``."""
    picks = rng.choice(len(names), size=len(offsets), p=weights)
    vectors = rng.integers(0, pool_size, size=len(offsets))
    return [
        Request(offset=float(t), matrix=names[m], vector=int(v))
        for t, m, v in zip(offsets, picks, vectors)
    ]


class OpenLoop:
    """Sends ``requests`` on schedule from one generator thread.

    ``submit(request)`` must hand the request to the system and return
    a ticket with ``add_done_callback(fn)``, ``error(timeout)`` and
    ``result(timeout)``; a submit that raises resolves the request with
    that exception at once.  ``on_done(request)`` runs after each
    request resolves (the traced run records its spans there).
    """

    def __init__(self, submit, on_done=None):
        self._submit = submit
        self._on_done = on_done
        self._clock = time.perf_counter
        self._cond = threading.Condition()
        self._resolved = 0

    def _finish(self, request: Request, outcome) -> None:
        request.done = self._clock()
        request.result = outcome
        if self._on_done is not None:
            self._on_done(request)
        with self._cond:
            self._resolved += 1
            self._cond.notify_all()

    def _send_all(self, requests: list[Request], start: float) -> None:
        for request in requests:
            request.scheduled = start + request.offset
            delay = request.scheduled - self._clock()
            if delay > 0:
                time.sleep(delay)
            request.sent = self._clock()
            try:
                ticket = self._submit(request)
            except Exception as exc:  # rejected at admission: resolved as failed
                self._finish(request, exc)
                continue
            ticket.add_done_callback(lambda t, r=request: self._finish(r, _outcome(t)))

    def run(self, requests: list[Request], *, drain_timeout: float) -> None:
        """Send everything, then wait up to ``drain_timeout`` for the replies.

        A request still unresolved after that keeps ``result is None``.
        """
        self._resolved = 0
        start = self._clock() + 0.005
        sender = threading.Thread(target=self._send_all, args=(requests, start), name="loadgen")
        sender.start()
        sender.join()
        deadline = self._clock() + drain_timeout
        with self._cond:
            while self._resolved < len(requests):
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)


def _outcome(ticket):
    error = ticket.error(timeout=0)
    return error if error is not None else ticket.result(timeout=0)
