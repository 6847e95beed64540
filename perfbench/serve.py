"""The ``serve-narrow`` and ``serve-wide`` workloads.

Both start one ``repro serve`` subprocess (async transport, binary wire
negotiated, a WAL, a ``--max-pending`` admission budget) and drive it
closed-loop from this process: ``nproc`` threads,
one lock-step connection each, with the sessions pinned round-robin to
the connections.  Every measured step time the clients report is the
workload's noise-free cost plus Eq.-17 Pareto noise (ρ = 0.2, α = 1.7)
drawn from a generator seeded by ``(seed, session)``.

* ``serve-narrow`` — 256 sessions on the ``bench`` space at K = 1, each
  doing width-1 ``fetch`` → ``report`` rounds (JSON lines on the wire).
* ``serve-wide`` — 32 sessions on the GS2 space at K = 3 (min
  estimator), each doing ``fetch_many(64)`` → ``report_many(64)`` rounds
  over binary frames.  A session whose tuner has converged hands out
  only its incumbent; it is then closed and replaced by a fresh session,
  so most sessions are still searching when the run ends and the server
  holds a steady number of sessions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from common import NPROC, Check, RunResult, attempt
from procs import Proc
from stats import OpLedger

from repro.apps.gs2 import GS2Surrogate
from repro.core.sampling import MinEstimator, SamplingPlan
from repro.experiments.common import tuner_factory
from repro.harmony.client import TuningClient
from repro.harmony.server import TuningServer
from repro.harmony.transport import InProcessTransport, TcpClientTransport
from repro.loadgen.runner import loadgen_space
from repro.variability.models import ParetoNoise

__all__ = ["NARROW", "WIDE", "ServeSpec", "bench_cost", "census", "run_serve", "server_counters"]

#: Eq.-17 noise on every reported step time
NOISE = ParetoNoise(rho=0.2, alpha=1.7)
#: sessions whose inputs are recorded and replayed in-process
REPLAY_SAMPLE = 4
#: pending-work budget of the server's admission controller (message units)
MAX_PENDING = 1024
#: WAL durability of every server the benchmark starts.  Every append,
#: record encoding and per-chunk group commit runs; only the fsync is
#: left out.  On a shared virtual disk the fsync latency is set by other
#: tenants' I/O (p99 5-8 ms against a 0.2 ms median, measured), and with
#: it the serving workloads' figures swung by up to 2x between runs.
WAL_SYNC = "off"


def bench_cost(points: np.ndarray) -> np.ndarray:
    """Noise-free cost on the ``bench`` space (the load generator's bowl)."""
    return 1.0 + (points[:, 0] - 3.0) ** 2 + (points[:, 1] + 2.0) ** 2


@dataclass(frozen=True)
class ServeSpec:
    name: str
    server_args: tuple[str, ...]
    sessions: int
    width: int
    k: int
    space: Callable
    cost: Callable[[np.ndarray], np.ndarray]
    rotate: bool


NARROW = ServeSpec(
    name="serve-narrow",
    server_args=("--workload", "bench", "--k", "1"),
    sessions=256,
    width=1,
    k=1,
    space=loadgen_space,
    cost=bench_cost,
    rotate=False,
)

WIDE = ServeSpec(
    name="serve-wide",
    server_args=("--workload", "gs2", "--k", "3", "--estimator", "min"),
    sessions=32,
    width=64,
    k=3,
    space=GS2Surrogate.space,
    cost=GS2Surrogate().batch,
    rotate=True,
)


class _Rank:
    """One logical application (SPMD rank) and the session it drives."""

    def __init__(self, spec: ServeSpec, seed: int, index: int, transport) -> None:
        self.spec = spec
        self.seed = seed
        self.index = index
        self.transport = transport
        self.generation = -1
        self.client: TuningClient | None = None
        #: busy sheds absorbed by this rank's earlier (rotated-out) clients
        self.busy_retired = 0
        self.space = spec.space()
        #: the rounds of this rank's first session, recorded when the rank
        #: is in the replay sample; that session stays open for the check
        self.recorded: list[tuple[np.ndarray, np.ndarray]] | None = None
        self.open_next()

    @property
    def session(self) -> str:
        return self._name(self.generation)

    def _name(self, generation: int) -> str:
        return f"{self.spec.name}-{self.seed}-{self.index}-{generation}"

    def open_next(self) -> None:
        """Open and register the rank's next session, then close the one
        it replaces (unless that one is kept for the replay check)."""
        old = self.client
        client = TuningClient(self.transport, session=None)
        client.open_session(self._name(self.generation + 1))
        client.register(self.space)
        self.generation += 1
        self.step = 0
        self.rng = np.random.default_rng([self.seed, self.index, self.generation])
        self.client = client
        if old is None:
            return
        self.busy_retired += old.busy_seen
        if self.recorded is None or old.session != self._name(0):
            old._retriable(lambda: old._call({"op": "close_session"}))

    def round(self) -> bool:
        """One fetch → report round; False when the session has converged."""
        client = self.client
        if self.spec.width == 1:
            points = client.fetch()[None, :]
        else:
            points = np.asarray(client.fetch_many(self.spec.width))
        times = NOISE.observe_batch(self.spec.cost(points), self.rng)
        if self.spec.width == 1:
            client.report(float(times[0]), step=self.step)
        else:
            client.report_many(times, step=self.step)
        self.step += 1
        if self.recorded is not None and self.generation == 0:
            self.recorded.append((points, times))
        # An all-incumbent group (every row identical) means the tuner
        # has converged and handed out nothing left to search.
        return not (self.spec.width > 1 and (points == points[0]).all())


def _server_args(spec: ServeSpec, workdir: Path, tag: str, seed: int) -> list[str]:
    return [
        "serve", *spec.server_args,
        "--transport", "async",
        "--wire", "binary",
        "--port", "0",
        "--port-file", str(workdir / f"{tag}.port"),
        "--wal-dir", str(workdir / f"{tag}-wal"),
        "--sync", WAL_SYNC,
        "--max-pending", str(MAX_PENDING),
        "--seed", str(seed),
    ]


def server_counters(port: int) -> dict[str, float]:
    transport = TcpClientTransport("127.0.0.1", port, timeout=30.0)
    try:
        response = transport.request({"op": "metrics"})
    finally:
        transport.close()
    return dict(response["metrics"]["counters"])


def census(before: dict[str, float], after: dict[str, float], units: int) -> dict:
    """JSON lines, binary frames and WAL appends per unit of work.

    JSON lines are the server's handled requests, less the messages that
    arrived inside batch frames, plus the batch frames themselves.
    """
    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    json_lines = (
        delta("server.requests") - delta("server.batch_msgs")
        + delta("server.batch_frames")
    )
    per = max(units, 1)
    return {
        "census.json_lines_per_op": json_lines / per,
        "census.bin_frames_per_op": delta("server.bin_frames") / per,
        "census.wal_appends_per_op": delta("wal.appends") / per,
    }


class _Setup:
    """A started server plus its registered ranks."""

    def __init__(self, spec, seed, workdir, tag, nconn, spans) -> None:
        self.proc = Proc(
            _server_args(spec, workdir, tag, seed),
            workdir=workdir, tag=tag, spans=spans,
        )
        self.transports: list = []
        self.ranks: list[list[_Rank]] = [[] for _ in range(nconn)]
        self._closed = False
        try:
            port = self.proc.wait_ready()
            self.port = port
            errors: list[BaseException] = []

            def connect(c: int) -> None:
                try:
                    transport = TcpClientTransport("127.0.0.1", port, timeout=30.0)
                    self.transports.append(transport)
                    for idx in range(c, spec.sessions, nconn):
                        self.ranks[c].append(_Rank(spec, seed, idx, transport))
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            threads = [threading.Thread(target=connect, args=(c,)) for c in range(nconn)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for transport in self.transports:
            transport.close()
        self.proc.stop()


def _replay(spec: ServeSpec, seed: int, name: str, rounds) -> tuple[np.ndarray, float, int, bool]:
    """Feed one session's recorded inputs to an in-process server."""
    server = TuningServer(
        tuner_factory("pro", rng=seed),
        space=spec.space(),
        plan=SamplingPlan(spec.k, MinEstimator()),
    )
    client = TuningClient(InProcessTransport(server))
    client.open_session(name)
    client.register(spec.space())
    same_points = True
    for step, (points, times) in enumerate(rounds):
        if spec.width == 1:
            got = client.fetch()[None, :]
            client.report(float(times[0]), step=step)
        else:
            got = np.asarray(client.fetch_many(spec.width))
            client.report_many(times, step=step)
        same_points &= bool(np.array_equal(got, points))
    point, value, _ = client.best()
    return point, value, int(client.status()["n_reports"]), same_points


def run_serve(
    spec: ServeSpec,
    *,
    seed: int,
    seconds: float,
    workdir: Path,
    setups: int,
    spans_dir: Path | None = None,
) -> RunResult:
    nconn = NPROC
    setup_times: list[float] = []
    setup = spans = None
    for i in range(setups):
        if spans_dir is not None and i == setups - 1:
            spans = spans_dir / "server.json"
        t0 = time.perf_counter()
        setup = _Setup(spec, seed, workdir, f"{spec.name}-{i}", nconn, spans)
        setup_times.append(time.perf_counter() - t0)
        if i < setups - 1:
            setup.close()
    assert setup is not None
    try:
        return _measure(spec, setup, seed, seconds, nconn, setup_times, spans)
    finally:
        setup.close()


def _measure(spec, setup, seed, seconds, nconn, setup_times, spans):
    rng = np.random.default_rng(seed)
    sampled = set(rng.choice(spec.sessions, size=REPLAY_SAMPLE, replace=False).tolist())
    for ranks in setup.ranks:
        for rank in ranks:
            if rank.index in sampled:
                rank.recorded = []
    before = server_counters(setup.port)
    ledgers = [OpLedger() for _ in range(nconn)]
    ends = [0.0] * nconn
    rotations = [0] * nconn
    start = time.perf_counter()
    deadline = start + seconds

    def drive(c: int) -> None:
        ledger = ledgers[c]
        ranks = setup.ranks[c]
        i = 0
        while time.perf_counter() < deadline:
            rank = ranks[i % len(ranks)]
            i += 1
            done, searching = attempt(ledger, rank.round)
            if done and spec.rotate and not searching:
                # A rotation that fails before the new session is
                # registered leaves the converged one in place, so the
                # next round on this rank retries it.
                rotated, _ = attempt(ledger, rank.open_next, timed=False)
                rotations[c] += rotated
        ends[c] = time.perf_counter()

    threads = [threading.Thread(target=drive, args=(c,)) for c in range(nconn)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = max(ends)
    ledger = OpLedger()
    for part in ledgers:
        ledger.merge(part)
    after = server_counters(setup.port)
    peak = setup.proc.peak_rss_mb()
    checks = _check_replay(spec, seed, setup)
    for check in checks:
        if not check.ok:
            ledger.record_wrong()
    result = RunResult(
        unit="round",
        setup_s=setup_times,
        wall_s=end - start,
        ledger=ledger,
        peak_rss_mb=peak,
        window=(start, end),
        checks=checks,
        census=census(before, after, ledger.ok),
        layer={
            "sessions_rotated": float(sum(rotations)),
            "client.busy_retries": float(sum(
                rank.busy_retired + rank.client.busy_seen
                for ranks in setup.ranks for rank in ranks
            )),
        },
    )
    if spans is not None:
        setup.close()
        result.span_files.append(spans)
    return result


def _check_replay(spec: ServeSpec, seed: int, setup: _Setup) -> list[Check]:
    """Replay the sampled sessions in-process; best and counts must match."""
    checks: list[Check] = []
    transport = TcpClientTransport("127.0.0.1", setup.port, timeout=30.0)
    try:
        for ranks in setup.ranks:
            for rank in ranks:
                if rank.recorded is None:
                    continue
                name, rounds = rank._name(0), rank.recorded
                live = TuningClient(transport, session=name)
                point, value, _ = live.best()
                n_live = int(live.status()["n_reports"])
                r_point, r_value, n_replay, same = _replay(spec, seed, name, rounds)
                ok = (
                    same and n_live == n_replay == len(rounds) * spec.width
                    and np.array_equal(point, r_point) and value == r_value
                )
                checks.append(Check(
                    f"replay {name}", ok,
                    f"{len(rounds)} rounds, n_reports live {n_live} / "
                    f"replay {n_replay}, best {value!r} / {r_value!r}, "
                    f"assignments {'identical' if same else 'DIFFER'}",
                ))
    finally:
        transport.close()
    return checks
