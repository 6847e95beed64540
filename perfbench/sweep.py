"""The ``sweep-fig10`` workload: the paper's Fig. 10 study, offline.

Every pass runs the whole grid (``DEFAULT_RHO_VALUES`` ×
``DEFAULT_K_VALUES``) for a few paired-seed trials through
``repro.experiments.runner.run_sweep`` on the process executor with
``nproc`` jobs: PRO on the GS2 performance database, Pareto α = 1.7
noise, a 400-step budget.  Passes repeat until the run's time is up;
pass *p* draws its trial seeds from ``(seed, p)``.  No socket, server or
WAL code runs.
"""

from __future__ import annotations

import hashlib
import os
import resource
import struct
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from common import NPROC, Check, RunResult
from procs import vm_hwm_mb
from spans import load_dumps
from stats import OpLedger

from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import MinEstimator, SamplingPlan
from repro.experiments.common import gs2_problem
from repro.experiments.fig10_sampling import DEFAULT_K_VALUES, DEFAULT_RHO_VALUES
from repro.experiments.runner import run_sweep
from repro.harmony.session import TuningSession
from repro.variability.models import NoNoise, ParetoNoise

__all__ = ["TRIALS_PER_PASS", "run_sweep_workload"]

#: trials per grid cell in one pass (45 cells → 180 trials per pass)
TRIALS_PER_PASS = 4
BUDGET = 400
ALPHA = 1.7


class _TimedSession(TuningSession):
    """A session that records its own wall time in ``result.meta``."""

    def run(self):
        start = time.perf_counter()
        result = super().run()
        result.meta["wall_s"] = time.perf_counter() - start
        return result


class _Cell:
    """Picklable session factory for one (ρ, K) cell of the Fig. 10 grid."""

    def __init__(self, db, space, rho: float, k: int) -> None:
        self.db, self.space, self.rho, self.k = db, space, rho, k

    def __call__(self, seed: int) -> TuningSession:
        noise = NoNoise() if self.rho == 0.0 else ParetoNoise(rho=self.rho, alpha=ALPHA)
        return _TimedSession(
            ParallelRankOrdering(self.space, r=0.2),
            self.db,
            noise=noise,
            budget=BUDGET,
            plan=SamplingPlan(self.k, MinEstimator()),
            rng=seed,
        )


def _build(seed: int) -> list[tuple[str, _Cell]]:
    surrogate, db = gs2_problem(rng=seed)
    space = surrogate.space()
    return [
        (f"rho={rho:g},K={k}", _Cell(db, space, float(rho), int(k)))
        for rho in DEFAULT_RHO_VALUES
        for k in DEFAULT_K_VALUES
    ]


def _fingerprint(result) -> tuple:
    return (
        result.normalized_total_time(),
        result.best_true_cost,
        result.total_time(),
        result.converged_at,
        result.step_times.tobytes(),
    )


def _digest(results: list) -> str:
    h = hashlib.sha256()
    for result in results:
        ntt, best, total, converged, steps = _fingerprint(result)
        h.update(struct.pack("<ddd", ntt, best, total))
        h.update(str(converged).encode())
        h.update(steps)
    return h.hexdigest()


def run_sweep_workload(
    *,
    seed: int,
    seconds: float,
    workdir: Path,
    setups: int,
    state_dir: Path,
    recorder=None,
    spans_dir: Path | None = None,
) -> RunResult:
    jobs = NPROC
    setup_times: list[float] = []
    for _ in range(setups):
        t0 = time.perf_counter()
        cells = _build(seed)
        setup_times.append(time.perf_counter() - t0)
    if recorder is not None:
        from layers import install_sweep

        install_sweep(recorder, str(spans_dir))
    ledger = OpLedger()
    first_pass: list = []
    first_seeds: tuple = ()
    passes: list[tuple[float, float]] = []
    start = time.perf_counter()
    deadline = start + seconds
    try:
        while time.perf_counter() < deadline:
            collected: list = []
            t0 = time.perf_counter()
            sweep = run_sweep(
                cells, trials=TRIALS_PER_PASS, rng=np.random.default_rng([seed, len(passes)]),
                executor="process", jobs=jobs, collect=collected.append,
            )
            passes.append((t0, time.perf_counter()))
            for result in collected:
                ledger.record_ok(result.meta["wall_s"])
            if not first_pass:
                first_pass, first_seeds = collected, sweep.trial_seeds
    finally:
        if recorder is not None:
            recorder.unwrap_all()
    end = passes[-1][1]
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    peak = vm_hwm_mb(os.getpid()) + jobs * children
    checks, wrong = _checks(cells, first_pass, first_seeds, seed, state_dir)
    ledger.record_wrong(wrong)
    result = RunResult(
        unit="trial",
        setup_s=setup_times,
        wall_s=end - start,
        ledger=ledger,
        peak_rss_mb=peak,
        window=(start, end),
        checks=checks,
    )
    if spans_dir is not None:
        result.span_files.extend(sorted(spans_dir.glob("worker-*.json")))
        result.layer.update(_pool_metrics(result.span_files, passes, jobs, end - start))
    return result


def _checks(cells, first_pass, trial_seeds, seed, state_dir: Path) -> tuple[list[Check], int]:
    """Serial re-runs must be bit-identical; the pass-0 digest must repeat."""
    wrong = 0
    for c, (name, cell) in enumerate(cells):
        again = cell(trial_seeds[0]).run()
        if _fingerprint(again) != _fingerprint(first_pass[c * TRIALS_PER_PASS]):
            wrong += 1
    checks = [Check(
        "serial re-run of one trial per cell is bit-identical", wrong == 0,
        f"{len(cells) - wrong}/{len(cells)} cells identical",
    )]
    digest = _digest(first_pass)
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / f"sweep-fig10-seed{seed}.sha256"
    if path.exists():
        known = path.read_text().strip()
        same = known == digest
        checks.append(Check(
            "pass-0 digest matches earlier runs at this seed", same,
            f"{digest[:16]} vs {known[:16]}",
        ))
        if not same:
            wrong += len(first_pass)
    else:
        path.write_text(digest + "\n")
        checks.append(Check("pass-0 digest recorded for later runs", True, digest[:16]))
    return checks, wrong


def _pool_metrics(span_files, passes, jobs: int, wall: float) -> dict[str, float]:
    """Worker busy share and the tail each pass spends gathering."""
    spans = load_dumps(span_files)
    busy = sum(s[3] - s[2] for s in spans if s[1] == "experiments.trial")
    tails = []
    for lo, hi in passes:
        last_end: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[1] == "experiments.chunk" and lo <= s[2] <= hi:
                pid = s[0][0]
                last_end[pid] = max(last_end[pid], s[3])
        if last_end:
            tails.append(max(last_end.values()) - min(last_end.values()))
    return {
        "experiments.worker_busy_frac": busy / (jobs * wall) if wall > 0 else 0.0,
        "experiments.gather_tail_s": sum(tails) / len(tails) if tails else 0.0,
    }
