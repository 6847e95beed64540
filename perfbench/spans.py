"""In-memory spans around calls into the program's layers.

The benchmark never edits the program.  A traced run instead replaces
selected functions and methods, *where their callers look them up*, with
wrappers that time the call and record a span::

    rec = SpanRecorder()
    rec.wrap(repro.harmony.aio, "respond_prepared", "transport.respond")
    rec.wrap(ServerSession, "op_fetch", "server.op_fetch", rid=fetch_rid)

A span is ``(id, name, start, end, parent, rid, thread, attrs)``: times
come from ``time.perf_counter`` (one monotonic clock for every process on
the host), ``parent`` is the enclosing span on the same thread, ``rid`` is
an optional request identifier such as ``(session, client_id, cseq)``,
and ``attrs`` holds counts measured at the same boundary (frames seen,
bytes written, cache hits).  Spans stay in memory until
:meth:`SpanRecorder.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

__all__ = ["SpanRecorder", "load_dumps", "self_times"]


class SpanRecorder:
    """Collects the spans of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        rid: Callable[..., Any] | None = None,
        before: Callable[..., Any] | None = None,
        after: Callable[..., dict | None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``rid(args, kwargs, result)`` names the request the call served.
        ``before(args, kwargs)`` runs just ahead of the call and its value
        is handed to ``after(args, kwargs, result, state)``, which returns
        the span's attributes (counts such as bytes or cache hits).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else 0
            sid = next(recorder._ids)
            state = before(args, kwargs) if before is not None else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            recorder.spans.append((
                sid, name, start, end, parent,
                rid(args, kwargs, result) if rid is not None else None,
                threading.get_ident(),
                after(args, kwargs, result, state) if after is not None else None,
            ))
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------------

    def dump(self, path: str | Path) -> None:
        """Write everything recorded so far to *path* as one JSON document."""
        doc = {"pid": os.getpid(), "spans": [list(s) for s in self.spans]}
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(doc, default=list))
        tmp.replace(path)


def load_dumps(paths) -> list[tuple]:
    """Merge several :meth:`SpanRecorder.dump` files.

    Span, parent and thread ids are made unique across files by pairing
    them with the writer's pid.
    """
    spans: list[tuple] = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        pid = doc["pid"]
        for sid, name, start, end, parent, rid, thread, attrs in doc["spans"]:
            spans.append((
                (pid, sid), name, start, end,
                (pid, parent) if parent else None,
                tuple(rid) if isinstance(rid, list) else rid,
                (pid, thread),
                attrs or {},
            ))
    return spans


def self_times(spans: list[tuple]) -> dict[Any, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[Any, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out: dict[Any, float] = {}
    for sid, _name, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out
