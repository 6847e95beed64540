"""Turn the spans of a traced run into per-layer metrics.

Only spans that start inside the run's measurement window count, so
set-up work (launching, registering sessions) stays out.  Times are
means per call in seconds unless the name says otherwise; ``*_calls``
and the other counts are totals over the window.
"""

from __future__ import annotations

from collections import defaultdict

from spans import load_dumps, self_times

__all__ = ["CLOSURE_TOLERANCE", "PER_LAYER", "UNLISTED_LAYER", "per_layer"]

#: the closure check's tolerance on the share of the chunks' wall time that
#: no stage accounts for.  That share is the pool-to-loop hand-back, the
#: response write and the loop's turns on other connections; no program
#: function bounds it, and on a 2-vCPU host it measured 0.27 (serve-wide)
#: and 0.35 (fleet-churn).  Past half, the spans miss most of the chunk.
CLOSURE_TOLERANCE = 0.5

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: list[tuple[str, str, str]] = [
    ("experiments.trial_s", "s", "lower"),
    ("experiments.trials", "count", "higher"),
    ("experiments.worker_busy_frac", "frac", "higher"),
    ("experiments.gather_tail_s", "s", "lower"),
    ("session.run_s", "s", "lower"),
    ("session.converged_frac", "frac", "higher"),
    ("core.ask_s", "s", "lower"),
    ("core.ask_calls", "count", "higher"),
    ("core.tell_s", "s", "lower"),
    ("core.tell_calls", "count", "higher"),
    ("database.eval_s", "s", "lower"),
    ("database.queries", "count", "higher"),
    ("database.memo_hit_ratio", "frac", "higher"),
    ("variability.sample_s", "s", "lower"),
    ("transport.split_s", "s", "lower"),
    ("transport.prepare_s", "s", "lower"),
    ("transport.respond_s", "s", "lower"),
    ("transport.pool_wait_s", "s", "lower"),
    ("wire.json_lines", "count", "lower"),
    ("wire.bin_frames", "count", "lower"),
    ("wire.chunks", "count", "lower"),
    ("admission.plan_s", "s", "lower"),
    ("admission.shed_units", "count", "lower"),
    ("admission.peak_pending", "count", "lower"),
    ("server.op_fetch_s", "s", "lower"),
    ("server.op_fetch_calls", "count", "higher"),
    ("server.op_report_s", "s", "lower"),
    ("server.op_report_calls", "count", "higher"),
    ("server.fetch_many_s", "s", "lower"),
    ("server.fetch_many_calls", "count", "higher"),
    ("server.report_many_s", "s", "lower"),
    ("server.report_many_calls", "count", "higher"),
    ("server.incumbent_frac", "frac", "lower"),
    ("wal.append_s", "s", "lower"),
    ("wal.appends", "count", "lower"),
    ("wal.bytes", "B", "lower"),
    ("wal.commit_s", "s", "lower"),
    ("wal.commits", "count", "lower"),
    ("client.fetch_s", "s", "lower"),
    ("client.report_s", "s", "lower"),
    ("client.fetch_many_s", "s", "lower"),
    ("client.report_many_s", "s", "lower"),
    ("client.busy_retries", "count", "lower"),
    ("client.reconnects", "count", "lower"),
    ("client.net_gap_s", "s", "lower"),
    ("fleet.locate_s", "s", "lower"),
    ("fleet.locates", "count", "lower"),
    ("fleet.open_session_s", "s", "lower"),
    ("fleet.register_s", "s", "lower"),
    ("census.json_lines_per_op", "count", "lower"),
    ("census.bin_frames_per_op", "count", "lower"),
    ("census.wal_appends_per_op", "count", "lower"),
    ("obs.trace_overhead_frac", "frac", "lower"),
    ("obs.closure_residual_frac", "frac", "lower"),
]

#: per-layer metrics that read 0 on every workload in BENCHMARK.json:
#: printed and recorded, not in the result line.  Only the open loop
#: (``fleet-open``) has a generator lag; and every fleet job resolves its
#: route once and sends its session ops to the shard, so the route cache
#: and the coordinator's redirects are used only when a job reconnects.
UNLISTED_LAYER: list[tuple[str, str, str]] = [
    ("loadgen.lag_max_ms", "ms", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("fleet.route_cache_hit_ratio", "frac", "higher"),
    ("fleet.redirects", "count", "lower"),
]

#: mean-duration metrics: metric name -> span name
_MEANS = {
    "experiments.trial_s": "experiments.trial",
    "session.run_s": "session.run",
    "core.ask_s": "core.ask",
    "core.tell_s": "core.tell",
    "database.eval_s": "database.eval",
    "variability.sample_s": "variability.sample",
    "transport.split_s": "transport.split",
    "transport.prepare_s": "transport.prepare",
    "admission.plan_s": "admission.plan",
    "server.op_fetch_s": "server.op_fetch",
    "server.op_report_s": "server.op_report",
    "server.fetch_many_s": "server.fetch_many",
    "server.report_many_s": "server.report_many",
    "wal.append_s": "wal.append",
    "wal.commit_s": "wal.commit",
    "client.fetch_s": "client.fetch",
    "client.report_s": "client.report",
    "client.fetch_many_s": "client.fetch_many",
    "client.report_many_s": "client.report_many",
    "fleet.locate_s": "fleet.locate",
    "fleet.open_session_s": "fleet.open_session",
    "fleet.register_s": "fleet.register",
}

#: call-count metrics: metric name -> span name
_CALLS = {
    "experiments.trials": "experiments.trial",
    "core.ask_calls": "core.ask",
    "core.tell_calls": "core.tell",
    "wire.chunks": "transport.respond",
    "server.op_fetch_calls": "server.op_fetch",
    "server.op_report_calls": "server.op_report",
    "server.fetch_many_calls": "server.fetch_many",
    "server.report_many_calls": "server.report_many",
    "wal.appends": "wal.append",
    "wal.commits": "wal.commit",
    "client.reconnects": "client.reconnect",
    "fleet.locates": "fleet.locate",
    "fleet.redirects": "fleet.redirect",
}

#: the client op whose server-side twin handles the same cseq
_SERVER_TWIN = {
    "client.fetch": "server.op_fetch",
    "client.report": "server.op_report",
    "client.fetch_many": "server.fetch_many",
    "client.report_many": "server.report_many",
}


def _attr_sum(spans, name: str, key: str) -> float:
    return float(sum(s[7].get(key, 0) for s in spans if s[1] == name))


def per_layer(span_files, window: tuple[float, float]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced run, plus closure/net-gap details."""
    spans = load_dumps(span_files)
    lo, hi = window
    spans = [s for s in spans if lo <= s[2] <= hi]
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for metric, name in _MEANS.items():
        group = by_name.get(name, [])
        out[metric] = sum(s[3] - s[2] for s in group) / len(group) if group else 0.0
    for metric, name in _CALLS.items():
        out[metric] = float(len(by_name.get(name, [])))
    trials = by_name.get("session.run", [])
    out["session.converged_frac"] = (
        _attr_sum(spans, "session.run", "converged") / len(trials) if trials else 0.0
    )
    queries = _attr_sum(spans, "database.eval", "queries")
    out["database.queries"] = queries
    out["database.memo_hit_ratio"] = (
        _attr_sum(spans, "database.eval", "hits") / queries if queries else 0.0
    )
    out["wire.json_lines"] = _attr_sum(spans, "transport.split", "json")
    out["wire.bin_frames"] = _attr_sum(spans, "transport.split", "bin")
    out["admission.shed_units"] = _attr_sum(spans, "admission.plan", "shed")
    out["admission.peak_pending"] = float(max(
        (s[7].get("pending", 0) for s in by_name.get("admission.admit", [])), default=0
    ))
    handed = _attr_sum(spans, "server.op_fetch", "handed") + _attr_sum(
        spans, "server.fetch_many", "handed")
    incumbent = _attr_sum(spans, "server.op_fetch", "incumbent") + _attr_sum(
        spans, "server.fetch_many", "incumbent")
    out["server.incumbent_frac"] = incumbent / handed if handed else 0.0
    out["wal.bytes"] = _attr_sum(spans, "wal.append", "bytes")
    responds = by_name.get("transport.respond", [])
    out["transport.respond_s"] = (
        sum(selfs[s[0]] for s in responds) / len(responds) if responds else 0.0
    )
    out["transport.pool_wait_s"] = _pool_wait(by_name)
    closure = _closure(by_name)
    out["obs.closure_residual_frac"] = closure["residual_frac"]
    gap = _net_gap(spans, by_name)
    out["client.net_gap_s"] = gap["mean_s"]
    return out, {"closure": closure, "net_gap": gap}


def _pool_wait(by_name) -> float:
    """Mean time a chunk waited between admission and its dispatch."""
    plan_end = {(s[0][0], s[5]): s[3] for s in by_name.get("admission.plan", [])}
    waits = [
        s[2] - plan_end[(s[0][0], s[5])]
        for s in by_name.get("transport.respond", [])
        if (s[0][0], s[5]) in plan_end
    ]
    return sum(waits) / len(waits) if waits else 0.0


#: the server stages of one received chunk, in the order they run
_STAGES = ("transport.split", "transport.prepare", "admission.plan",
           "transport.respond", "admission.finish")


def _closure(by_name) -> dict:
    """Per chunk: the stages' times against the chunk's wall time.

    The asyncio handler splits a received chunk into items, prepares and
    admits them on the loop, waits for a pool thread, responds there
    (server ops, tuner and WAL nest inside), writes the response and
    hands the admission units back.  The chunk's wall time runs from the
    start of the split to the end of ``finish_admission``.  The stages
    are each stage span's duration (its self time plus its children's)
    and the pool wait; the residual is the share of the wall time no span
    accounts for: the hand-back from the pool to the loop, the response
    write and the loop's turns on other connections in between.  The
    stages of one chunk run one after another, so a negative residual
    means spans were matched to the wrong chunk.
    """
    parts: dict = defaultdict(dict)
    for name in _STAGES:
        for span in by_name.get(name, []):
            if span[5] is not None:
                parts[(span[0][0], span[5])][name] = span
    stages = wall = 0.0
    chunks = 0
    for chunk in parts.values():
        if len(chunk) != len(_STAGES):
            continue
        chunks += 1
        split, plan, respond, finish = (
            chunk[name] for name in
            ("transport.split", "admission.plan", "transport.respond", "admission.finish")
        )
        stages += sum(s[3] - s[2] for s in chunk.values()) + (respond[2] - plan[3])
        wall += finish[3] - split[2]
    residual = (wall - stages) / wall if wall > 0 else 0.0
    return {
        "chunks": chunks,
        "stage_sum_s": stages,
        "wall_s": wall,
        "residual_frac": residual,
        "ok": chunks == 0 or -1e-9 <= residual <= CLOSURE_TOLERANCE,
    }


def _net_gap(spans, by_name) -> dict:
    """Client call time minus server handling time for the same cseq."""
    first_cseq: dict = {}
    for span in by_name.get("client.cseq", []):
        parent = span[4]
        if parent is not None and parent not in first_cseq:
            first_cseq[parent] = span[5]
    server = {}
    for twin in _SERVER_TWIN.values():
        for span in by_name.get(twin, []):
            if span[5] is not None:
                server[(twin, *span[5])] = span[3] - span[2]
    gaps = []
    for op, twin in _SERVER_TWIN.items():
        for span in by_name.get(op, []):
            cseq = first_cseq.get(span[0])
            if cseq is None or span[5] is None:
                continue
            handled = server.get((twin, span[5][0], span[5][1], cseq))
            if handled is not None:
                gaps.append((span[3] - span[2]) - handled)
    return {
        "matched": len(gaps),
        "mean_s": sum(gaps) / len(gaps) if gaps else 0.0,
    }
