"""The ``fleet-churn`` and ``fleet-open`` workloads: short tuning jobs.

A coordinator process (WAL-backed registry) and two WAL-backed shard
processes (``repro serve --coordinator``) serve a stream of jobs.  Each
job locates its session through the coordinator, opens and registers it
on the owning shard, runs three width-1 fetch → report rounds (JSON
lines on the wire) and closes the session.  ``nproc`` worker threads run
the jobs.

* ``fleet-churn`` — closed loop: each worker starts its next job as soon
  as the last one closed; a job's latency is its own duration.
* ``fleet-open`` — open loop: jobs arrive as a seeded Poisson process at
  a fixed rate below capacity and the workers take them in arrival
  order; a job's latency runs from its *scheduled* arrival to its close,
  so time spent waiting for a free worker counts.
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path

import numpy as np

from common import NPROC, Check, RunResult, attempt
from procs import Proc
from serve import NOISE, WAL_SYNC, bench_cost, census, server_counters
from stats import OpLedger, open_loop_verdict, percentile

from repro.fleet.client import FleetResolver
from repro.harmony.client import TuningClient
from repro.harmony.transport import TcpClientTransport
from repro.loadgen.arrivals import interarrival_times
from repro.loadgen.runner import loadgen_space

__all__ = ["RATE_PER_S", "STEPS", "run_fleet"]

#: open-loop job arrival rate: a quarter of what two workers sustain on a 2-vCPU
#: host, so a slow spell on the host does not snowball into a queue, and
#: enough for 1,000 jobs (ten beyond the p99) in any run of 20 s or more
RATE_PER_S = 50.0
#: fetch → report rounds per job
STEPS = 3
SHARDS = 2
#: per-shard admission budget (message units)
MAX_PENDING = 512
#: generator lag bounds beyond which the run measured the generator
LAG_P99_BOUND_S = 0.020
LAG_MAX_BOUND_S = 0.500


class _Fleet:
    """A coordinator plus its shards, all registered."""

    def __init__(self, seed: int, workdir: Path, tag: str, spans_dir: Path | None):
        self.procs: list[Proc] = []
        self.span_files: list[Path] = []
        try:
            self.coordinator = self._start(
                ["coordinator", "--port-file", str(workdir / f"{tag}-coord.port"),
                 "--wal-dir", str(workdir / f"{tag}-coord-wal"),
                 "--sync", WAL_SYNC,
                 "--seed", str(seed)],
                workdir, f"{tag}-coord", spans_dir,
            )
            self.port = self.coordinator.wait_ready()
            self.shards = [
                self._start(
                    ["serve", "--workload", "bench",
                     "--transport", "async", "--wire", "binary",
                     "--port", "0", "--port-file", str(workdir / f"{tag}-shard{i}.port"),
                     "--coordinator", f"127.0.0.1:{self.port}",
                     "--shard-id", str(i),
                     "--wal-dir", str(workdir / f"{tag}-shard{i}-wal"),
                     "--sync", WAL_SYNC,
                     "--max-pending", str(MAX_PENDING),
                     "--seed", str(seed)],
                    workdir, f"{tag}-shard{i}", spans_dir,
                )
                for i in range(SHARDS)
            ]
            self.shard_ports = [shard.wait_ready() for shard in self.shards]
            alive = [s for s in self.status()["shards"].values() if s["alive"]]
            if len(alive) != SHARDS:
                raise RuntimeError(f"{len(alive)}/{SHARDS} shards registered")
        except BaseException:
            self.close()
            raise

    def _start(self, args, workdir, tag, spans_dir) -> Proc:
        spans = spans_dir / f"{tag}.json" if spans_dir is not None else None
        proc = Proc(args, workdir=workdir, tag=tag, spans=spans)
        self.procs.append(proc)
        if spans is not None:
            self.span_files.append(spans)
        return proc

    def status(self) -> dict:
        transport = TcpClientTransport("127.0.0.1", self.port, timeout=30.0)
        try:
            return transport.request({"op": "fleet_status"})
        finally:
            transport.close()

    def counters(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for port in [self.port, *self.shard_ports]:
            for key, value in server_counters(port).items():
                total[key] = total.get(key, 0) + value
        return total

    def peak_rss_mb(self) -> float:
        return sum(proc.peak_rss_mb() for proc in self.procs)

    def close(self) -> None:
        # Shards first: they heartbeat the coordinator until they stop.
        for proc in reversed(self.procs):
            proc.stop()
        self.procs.clear()


def _job(name: str, port: int, rng: np.random.Generator, seen: list) -> int:
    """One job's session lifecycle; returns the shard's report count.

    The job's resolver and client are appended to *seen* for the route
    cache and busy-retry counts.
    """
    resolver = FleetResolver("127.0.0.1", port, name)
    client = TuningClient(transport_factory=resolver, session=name)
    seen.append((resolver, client))
    try:
        client.open_session(name)
        client.register(loadgen_space())
        for step in range(STEPS):
            point = client.fetch()
            time_s = NOISE.observe_batch(bench_cost(point[None, :]), rng)[0]
            client.report(float(time_s), step=step)
        response = client.transport.request({"op": "close_session", "session": name})
        if not response.get("ok"):
            raise RuntimeError(f"close_session failed: {response.get('error')}")
        return int(response["n_reports"])
    finally:
        client.transport.close()


def run_fleet(
    *,
    seed: int,
    seconds: float,
    workdir: Path,
    setups: int,
    open_loop: bool,
    spans_dir: Path | None = None,
) -> RunResult:
    setup_times: list[float] = []
    fleet = None
    for i in range(setups):
        t0 = time.perf_counter()
        fleet = _Fleet(seed, workdir, f"fleet-{i}", spans_dir if i == setups - 1 else None)
        setup_times.append(time.perf_counter() - t0)
        if i < setups - 1:
            fleet.close()
    assert fleet is not None
    try:
        return _measure(fleet, seed, seconds, setup_times, open_loop)
    finally:
        fleet.close()


def _measure(fleet: _Fleet, seed: int, seconds: float, setup_times,
             open_loop: bool) -> RunResult:
    nworkers = NPROC
    offsets = None
    if open_loop:
        rng = np.random.default_rng(seed)
        # A Poisson process conditioned on its count: N + 1 exponential
        # gaps, rescaled so the (N+1)-th arrival falls at the end of the
        # window, put N uniformly-ordered arrivals in it.  A fixed count
        # keeps the offered load identical from seed to seed.
        n_jobs = max(1, round(RATE_PER_S * seconds))
        gaps = interarrival_times("poisson", RATE_PER_S, n_jobs + 1, rng=rng)
        offsets = np.cumsum(gaps)[:n_jobs] * (seconds / gaps.sum())
    ledgers = [OpLedger() for _ in range(nworkers)]
    lags: list[list[float]] = [[] for _ in range(nworkers)]
    landed: dict[str, int] = {}
    seen: list = []
    cursor = itertools.count()
    cursor_lock = threading.Lock()
    before = fleet.counters()
    start = time.perf_counter()
    deadline = start + seconds
    ends = [start] * nworkers

    def worker(w: int) -> None:
        while True:
            with cursor_lock:
                j = next(cursor)
            if offsets is None:
                if time.perf_counter() >= deadline:
                    break
                began = scheduled = time.perf_counter()
            else:
                if j >= offsets.size:
                    break
                free_at = time.perf_counter()
                scheduled = start + float(offsets[j])
                delay = scheduled - free_at
                if delay > 0:
                    time.sleep(delay)
                began = time.perf_counter()
                lags[w].append(began - max(scheduled, free_at))
            name = f"job-{seed}-{j}"
            done, n = attempt(ledgers[w], lambda: _job(
                name, fleet.port, np.random.default_rng([seed, j]), seen))
            if done:
                # Open loop: latency runs from the scheduled arrival.
                ledgers[w].latencies_s[-1] += began - scheduled
                landed[name] = n
        ends[w] = time.perf_counter()

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(nworkers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = max(ends)
    ledger = OpLedger()
    for part in ledgers:
        ledger.merge(part)
    all_lags = [lag for part in lags for lag in part]
    after = fleet.counters()
    peak = fleet.peak_rss_mb()
    checks, wrong = _check_ledger(fleet, landed)
    ledger.record_wrong(wrong)
    locates = sum(resolver.locates for resolver, _ in seen)
    hits = sum(resolver.cache_hits for resolver, _ in seen)
    layer = {
        "fleet.route_cache_hit_ratio": hits / (hits + locates) if hits + locates else 0.0,
        "client.busy_retries": float(sum(client.busy_seen for _, client in seen)),
    }
    valid, why = True, None
    if offsets is not None:
        valid, why = open_loop_verdict(
            all_lags, bound_p99_s=LAG_P99_BOUND_S, bound_max_s=LAG_MAX_BOUND_S
        )
        layer["loadgen.lag_max_ms"] = max(all_lags) * 1e3 if all_lags else 0.0
        layer["loadgen.lag_p99_ms"] = (
            percentile(all_lags, 99.0) * 1e3 if all_lags else 0.0
        )
        layer["jobs_scheduled"] = float(offsets.size)
    result = RunResult(
        unit="job",
        setup_s=setup_times,
        wall_s=end - start,
        ledger=ledger,
        peak_rss_mb=peak,
        window=(start, end),
        checks=checks,
        census=census(before, after, ledger.ok),
        layer=layer,
        invalid=None if valid else why,
    )
    if fleet.span_files:
        fleet.close()
        result.span_files.extend(fleet.span_files)
    return result


def _check_ledger(fleet: _Fleet, landed: dict[str, int]) -> tuple[list[Check], int]:
    """Every completed job is placed in the registry, with every report.

    Returns the checks and the number of jobs that failed either.
    """
    placed = set(fleet.status()["sessions"])
    missing = [name for name in landed if name not in placed]
    short = [name for name, n in landed.items() if n != STEPS]
    return [
        Check("jobs placed in the coordinator registry", not missing,
              f"{len(missing)} of {len(landed)} completed jobs missing"),
        Check(f"each closed session held exactly {STEPS} reports", not short,
              f"{len(short)} of {len(landed)} jobs with a wrong report count"),
    ], len(set(missing) | set(short))
