"""Percentiles, rung verdicts and the goodput estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear); failed samples enter as ``inf``."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float("nan")
    with np.errstate(invalid="ignore"):  # interpolating between two failures
        result = float(np.percentile(values, q))
    return math.inf if math.isnan(result) else result


def beyond(count: int, q: float) -> int:
    """Samples that lie beyond the ``q``-th percentile of ``count``."""
    return int(math.floor(count * (1.0 - q / 100.0)))


@dataclass
class Rung:
    """One offered rate of a ladder and how the system kept up."""

    rate: float
    sent: int
    p50_ms: float
    p99_ms: float
    failed: int
    backlog: int  # requests still in flight when the rung's schedule ended
    late_p99_ms: float = 0.0  # how late the generator sent, p99
    ladder: int = 0  # which climb of the rate ladder (0: the lowest rung)

    def backlog_grew(self, limit_ms: float) -> bool:
        """More in flight at the end than the limit lets a steady queue hold."""
        return self.backlog > 2.0 * self.rate * limit_ms / 1e3 + 5

    def meets(self, limit_ms: float) -> bool:
        return self.failed == 0 and self.p99_ms <= limit_ms and not self.backlog_grew(limit_ms)


def _isotonic(values: list[float]) -> list[float]:
    """Least-squares non-decreasing fit (pool adjacent violators)."""
    blocks: list[list[float]] = []  # [sum, count]
    for value in values:
        blocks.append([value, 1])
        while len(blocks) > 1 and blocks[-2][0] / blocks[-2][1] > blocks[-1][0] / blocks[-1][1]:
            total, count = blocks.pop()
            blocks[-1][0] += total
            blocks[-1][1] += count
    return [total / count for total, count in blocks for _ in range(int(count))]


def _verdict_p99(rung: Rung, limit_ms: float) -> float:
    """The p99 a rung is judged on: failures are infinitely slow and a
    grown backlog is at least at the limit."""
    p99 = math.inf if rung.failed else rung.p99_ms
    if rung.backlog_grew(limit_ms):
        p99 = max(p99, limit_ms)
    return p99


def pool(rungs: list[Rung], limit_ms: float) -> list[Rung]:
    """One rung per offered rate, judged on the median over the ladders that ran it.

    A passing burst of host noise (or a quiet spell) moves one ladder's
    rung; the median over ladders leaves it out.
    """
    by_rate: dict[float, list[Rung]] = {}
    for rung in rungs:
        by_rate.setdefault(rung.rate, []).append(rung)
    return [
        Rung(
            rate=rate,
            sent=sum(r.sent for r in runs),
            p50_ms=float(np.median([r.p50_ms for r in runs])),
            p99_ms=float(np.median([_verdict_p99(r, limit_ms) for r in runs])),
            failed=0,
            backlog=0,
        )
        for rate, runs in sorted(by_rate.items())
    ]


def goodput(rungs: list[Rung], limit_ms: float) -> float:
    """Highest offered rate whose p99 meets ``limit_ms``, interpolated.

    ``log p99`` is fitted non-decreasing in the offered rate, so one
    rung disturbed by a passing stall cannot end the ladder early, and
    the rate is interpolated where the fit crosses the limit, so the
    estimate moves smoothly with the knee instead of jumping a whole
    rung.  A rung that failed requests counts as infinitely slow; one
    whose backlog grew counts as at least at the limit.  Below a
    failing lowest rung the estimate scales its rate by ``limit / p99``.
    """
    logs = [math.log(_verdict_p99(rung, limit_ms)) for rung in rungs]
    fitted = _isotonic(logs)
    limit = math.log(limit_ms)
    for j, value in enumerate(fitted):
        if value < limit:
            continue
        if j == 0:
            return rungs[0].rate * math.exp(min(0.0, limit - value))
        low = fitted[j - 1]
        fraction = (limit - low) / (value - low) if math.isfinite(value) else 0.0
        return rungs[j - 1].rate + fraction * (rungs[j].rate - rungs[j - 1].rate)
    return rungs[-1].rate
