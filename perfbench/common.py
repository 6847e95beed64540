"""What every workload returns, and how it accounts one operation."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from stats import OpLedger

from repro.harmony.protocol import ServerBusy

__all__ = ["NPROC", "Check", "RunResult", "attempt"]

#: processors this process may run on: the load's thread and connection
#: count, and the sweep's job count
NPROC = len(os.sched_getaffinity(0))


def attempt(
    ledger: OpLedger, op: Callable[[], Any], *, timed: bool = True
) -> tuple[bool, Any]:
    """Run one operation and account it in *ledger*.

    A ``ServerBusy`` that escapes the client means the server kept
    refusing past the client's retry budget: the operation is counted as
    refused.  Connection and server errors count as errors.  Only a
    completed *timed* operation contributes a latency sample; an untimed
    one (bookkeeping between measured operations, such as replacing a
    converged session) counts as attempted and, when it fails, as failed.
    Returns ``(completed, value)``.
    """
    start = time.perf_counter()
    try:
        value = op()
    except ServerBusy:
        ledger.record_refused()
        return False, None
    except (ConnectionError, OSError, TimeoutError, RuntimeError):
        ledger.record_error()
        return False, None
    if timed:
        ledger.record_ok(time.perf_counter() - start)
    else:
        ledger.record_untimed()
    return True, value


@dataclass
class Check:
    """One output check: its name, verdict and a line of detail."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class RunResult:
    """One measured run of one workload.

    ``ops`` counts completed units of the workload's work (trials, rounds
    or jobs) over ``wall_s``; ``ledger`` holds the per-operation outcome
    and latency of every unit attempted inside the measurement window
    ``window`` (``time.perf_counter`` values, shared by every process on
    the host).
    """

    unit: str
    setup_s: list[float]
    wall_s: float
    ledger: OpLedger
    peak_rss_mb: float
    window: tuple[float, float]
    checks: list[Check] = field(default_factory=list)
    #: frame census from the servers' own counters, per unit of work
    census: dict[str, float] = field(default_factory=dict)
    #: span dump files of a traced run
    span_files: list[Path] = field(default_factory=list)
    #: workload-specific numbers for the per-layer report
    layer: dict[str, float] = field(default_factory=dict)
    #: why the run must not be reported (an open loop whose generator
    #: fell behind its schedule measured the generator), or None
    invalid: str | None = None

    @property
    def ops_per_s(self) -> float:
        return self.ledger.ok / self.wall_s if self.wall_s > 0 else 0.0
