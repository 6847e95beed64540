"""Small, dependency-free statistics the benchmark reports.

* :func:`tail_percentile` — the highest percentile on a fixed ladder that
  still has at least ``min_beyond`` samples beyond it, so a reported tail
  is never extrapolated from a handful of points;
* :class:`OpLedger` — attempted/failed accounting: an operation fails when
  it raised, was refused past the client's retry budget, or gave wrong
  output; :func:`summarize` counts a failed operation as infinitely slow,
  so it misses every latency limit;
* :func:`open_loop_verdict` — an open-loop run is only valid while the
  generator itself kept to its schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "PERCENTILE_LADDER",
    "OpLedger",
    "open_loop_verdict",
    "percentile",
    "summarize",
    "tail_percentile",
]

#: candidate tail percentiles, highest first
PERCENTILE_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


def samples_beyond(n: int, pct: float) -> int:
    """How many of *n* sorted samples lie strictly above the *pct* quantile."""
    # Integer arithmetic in units of 0.01 %: 1000 samples at p99 leave
    # exactly 10 beyond, without float round-off deciding the answer.
    basis = round(pct * 100)
    return (n * (10000 - basis)) // 10000


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest percentile of :data:`PERCENTILE_LADDER` with enough samples
    beyond it, or ``None`` when even the median is not supported."""
    for pct in PERCENTILE_LADDER:
        if samples_beyond(n, pct) >= min_beyond:
            return pct
    return None


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default), pure Python."""
    if not values:
        raise ValueError("percentile of no samples")
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    if pos == lo or data[hi] == data[lo]:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summarize(values: list[float], n_failed: int = 0) -> dict:
    """Median, p90, p99 and the supported tail of a latency sample.

    The *n_failed* operations enter as infinitely slow samples: a failed
    operation misses every latency limit.
    """
    data = list(values) + [math.inf] * n_failed
    n = len(data)
    out: dict = {"n": n}
    if not n:
        return out
    out["p50"] = percentile(data, 50.0)
    out["p90"] = percentile(data, 90.0)
    out["p99"] = percentile(data, 99.0)
    tail = tail_percentile(n)
    if tail is not None:
        out["tail_pct"] = tail
        out["tail"] = percentile(data, tail)
    return out


@dataclass
class OpLedger:
    """Attempted/failed operation counts plus the latencies of the good ones."""

    attempted: int = 0
    ok: int = 0
    refused: int = 0
    errors: int = 0
    wrong: int = 0
    latencies_s: list[float] = field(default_factory=list)

    def record_ok(self, latency_s: float) -> None:
        self.attempted += 1
        self.ok += 1
        self.latencies_s.append(latency_s)

    def record_untimed(self) -> None:
        """A completed operation that is not a latency sample of the
        workload's unit of work (it does not count in ``ok``)."""
        self.attempted += 1

    def record_refused(self) -> None:
        """The server shed the operation and the client's retries ran out."""
        self.attempted += 1
        self.refused += 1

    def record_error(self) -> None:
        self.attempted += 1
        self.errors += 1

    def record_wrong(self, n: int = 1) -> None:
        """Output checks found *n* wrong results among operations already
        counted as attempted."""
        self.wrong += n

    @property
    def failed(self) -> int:
        return min(self.attempted, self.refused + self.errors + self.wrong)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def merge(self, other: "OpLedger") -> None:
        self.attempted += other.attempted
        self.ok += other.ok
        self.refused += other.refused
        self.errors += other.errors
        self.wrong += other.wrong
        self.latencies_s.extend(other.latencies_s)


def open_loop_verdict(
    lags_s: list[float], *, bound_p99_s: float, bound_max_s: float
) -> tuple[bool, str]:
    """Whether an open-loop generator kept to its schedule.

    *lags_s* are the generator's own lateness per arrival (time a job
    started minus the later of its scheduled time and the moment a worker
    was free for it).  A run whose lag p99 or maximum exceeds its bound
    measured the generator, not the system, and must not be reported.
    """
    if not lags_s:
        return False, "no arrivals were issued"
    p99 = percentile(lags_s, 99.0)
    worst = max(lags_s)
    if p99 > bound_p99_s:
        return False, f"generator lag p99 {p99 * 1e3:.1f} ms > {bound_p99_s * 1e3:g} ms"
    if worst > bound_max_s:
        return False, f"generator lag max {worst * 1e3:.1f} ms > {bound_max_s * 1e3:g} ms"
    return True, "ok"
