"""Which program functions a traced run wraps, per process role.

Each ``install_*`` function takes a :class:`spans.SpanRecorder` and wraps
the entry points of the layers that run in that process, at the place
their caller looks them up: ``repro.harmony.aio`` imports
``respond_prepared`` and its siblings by name, so those are wrapped on
the ``aio`` module, not on ``repro.harmony.transport``.  Span names are
the per-layer metric prefixes that :mod:`reduce` aggregates.
"""

from __future__ import annotations

import itertools
import os

__all__ = [
    "install_client",
    "install_coordinator",
    "install_server",
    "install_sweep",
]


def _op_ids(args, kwargs, result):
    """``(session, client_id, cseq)`` of a JSON op ``op(self, message)``."""
    session, message = args[0], args[1]
    return (session.name, message.get("client_id"), message.get("cseq"))


def _array_ids(args, kwargs, result):
    """``(session, client_id, cseq)`` of an array op (v2 binary frames)."""
    return (args[0].name, kwargs.get("client_id", -1), kwargs.get("cseq"))


def _counter_delta(attr: str, key: str):
    """``before``/``after`` hooks that attribute a counter's growth during
    the call (``obj.<attr>``, obj being the call's ``self``) to the span."""

    def before(args, kwargs):
        return getattr(args[0], attr)

    def after(args, kwargs, result, state):
        return {key: getattr(args[0], attr) - state}

    return before, after


def _install_wal(rec) -> None:
    from repro.harmony.wal import WalWriter

    before, after = _counter_delta("bytes_written", "bytes")
    rec.wrap(WalWriter, "append", "wal.append", before=before, after=after)
    rec.wrap(WalWriter, "commit", "wal.commit")


def _install_core(rec) -> None:
    from repro.core.base import BatchTuner

    rec.wrap(BatchTuner, "ask", "core.ask")
    rec.wrap(BatchTuner, "tell", "core.tell")


def install_server(rec) -> None:
    """A ``repro serve`` process: transport, admission, server, WAL, core."""
    from repro.harmony import aio, binproto
    from repro.harmony.admission import AdmissionController
    from repro.harmony.server import ServerSession

    # A received chunk gets an id when the splitter returns its items;
    # each later stage finds it by the identity of the list it is handed:
    # the items (alive until prepare_items returns), the prepared list
    # (until respond_prepared returns) and the grants (until
    # finish_admission returns).
    chunk_of: dict[int, int] = {}
    chunk_ids = itertools.count(1)

    def split(args, kwargs, items, state):
        kinds = [item[0] for item in items]
        return {"json": kinds.count("json"), "bin": kinds.count("bin")}

    def split_chunk(args, kwargs, items):
        if not items:
            return None
        chunk = chunk_of[id(items)] = next(chunk_ids)
        return chunk

    def prepared_chunk(args, kwargs, result):
        chunk = chunk_of.pop(id(args[0]), None)
        chunk_of[id(result)] = chunk
        return chunk

    def planned(args, kwargs, result):
        chunk = chunk_of.get(id(args[1]))
        chunk_of[id(result[1])] = chunk
        return chunk

    def shed(args, kwargs, result, state):
        flags = result[0]
        units = 0
        if flags is not None:
            units = sum(
                item[-2] for item, ok in zip(args[1], flags)
                if not ok and item[0] != "oversized"
            )
        return {"shed": units}

    def pending(args, kwargs, result, state):
        return {"pending": args[0].pending}

    def fetched(args, kwargs, result, state):
        return {"handed": 1, "incumbent": int(result.get("token", 0) == -1)}

    def fetched_many(args, kwargs, result, state):
        tokens = result[1]
        return {"handed": int(tokens.size), "incumbent": int((tokens == -1).sum())}

    rec.wrap(binproto.FrameSplitter, "feed", "transport.split",
             rid=split_chunk, after=split)
    rec.wrap(aio, "prepare_items", "transport.prepare", rid=prepared_chunk)
    rec.wrap(aio, "plan_admission", "admission.plan", rid=planned, after=shed)
    rec.wrap(
        aio, "respond_prepared", "transport.respond",
        rid=lambda a, k, r: chunk_of.pop(id(a[1]), None),
    )
    rec.wrap(
        aio, "finish_admission", "admission.finish",
        rid=lambda a, k, r: chunk_of.pop(id(a[1]), None),
    )
    rec.wrap(AdmissionController, "try_admit", "admission.admit", after=pending)
    rec.wrap(ServerSession, "op_fetch", "server.op_fetch", rid=_op_ids, after=fetched)
    rec.wrap(ServerSession, "op_report", "server.op_report", rid=_op_ids)
    rec.wrap(
        ServerSession, "fetch_many_arrays", "server.fetch_many",
        rid=_array_ids, after=fetched_many,
    )
    rec.wrap(ServerSession, "report_many_arrays", "server.report_many", rid=_array_ids)
    _install_wal(rec)
    _install_core(rec)


def install_coordinator(rec) -> None:
    """The fleet coordinator process: routing and the registry WAL."""
    from repro.fleet.coordinator import FleetCoordinator

    rec.wrap(FleetCoordinator, "locate", "fleet.coord_locate")
    rec.wrap(FleetCoordinator, "_op_session_redirect", "fleet.redirect")
    _install_wal(rec)


def install_client(rec) -> None:
    """The load generator: client calls and fleet routing.

    A client call's ``rid`` is ``(session, client_id)``; the cseq it
    stamped is the ``rid`` of its first ``client.cseq`` child span.
    """
    from repro.fleet.client import FleetResolver
    from repro.harmony.client import TuningClient

    def ident(args, kwargs, result):
        client = args[0]
        return (client.session or "default", client.client_id)

    rec.wrap(TuningClient, "_next_cseq", "client.cseq", rid=lambda a, k, r: r)
    for op in ("fetch", "report", "fetch_many", "report_many"):
        rec.wrap(TuningClient, op, f"client.{op}", rid=ident)
    rec.wrap(TuningClient, "_reconnect", "client.reconnect")
    rec.wrap(TuningClient, "open_session", "fleet.open_session")
    rec.wrap(TuningClient, "register", "fleet.register")
    rec.wrap(FleetResolver, "resolve", "fleet.locate")


def install_sweep(rec, dump_dir: str) -> None:
    """The sweep parent, before its pool forks.

    Forked workers inherit the wrappers; on its first chunk each worker
    drops the spans it inherited and arranges to write its own spans to
    *dump_dir* when it exits.
    """
    from multiprocessing import util

    from repro.apps.database import PerformanceDatabase
    from repro.experiments import parallel
    from repro.harmony.session import TuningSession
    from repro.variability.models import ParetoNoise

    parent = os.getpid()
    adopted: set[int] = set()

    def adopt_worker(args, kwargs):
        pid = os.getpid()
        if pid != parent and pid not in adopted:
            adopted.add(pid)
            del rec.spans[:]
            util.Finalize(
                None, rec.dump,
                args=(os.path.join(dump_dir, f"worker-{pid}.json"),),
                exitpriority=100,
            )

    def converged(args, kwargs, result, state):
        return {"converged": int(result.converged_at is not None)}

    memo_before, memo_after = _counter_delta("n_memo_hits", "hits")

    def one_query(args, kwargs, result, state):
        return dict(memo_after(args, kwargs, result, state), queries=1)

    def batch_queries(args, kwargs, result, state):
        return dict(memo_after(args, kwargs, result, state), queries=len(result))

    rec.wrap(parallel, "_run_chunk", "experiments.chunk", before=adopt_worker)
    rec.wrap(parallel, "_guarded_trial", "experiments.trial")
    rec.wrap(TuningSession, "run", "session.run", after=converged)
    _install_core(rec)
    rec.wrap(PerformanceDatabase, "__call__", "database.eval",
             before=memo_before, after=one_query)
    rec.wrap(PerformanceDatabase, "evaluate_batch", "database.eval",
             before=memo_before, after=batch_queries)
    rec.wrap(ParetoNoise, "sample_noise", "variability.sample")
