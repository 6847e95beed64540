"""Admission control: a bounded pending-work budget with explicit shedding.

The serving stack's overload story.  Without a budget, offered load past
capacity turns into unbounded queueing — every client sees latency grow
without limit and nobody gets an answer about *why*.  With one, the server
keeps a hard cap on work-in-system and answers excess demand with an
explicit ``busy`` error carrying a ``retry_after`` hint, so clients back
off instead of piling on (see :func:`repro.harmony.protocol.busy_response`
and the transports' enforcement in
:func:`repro.harmony.transport.respond_frames`).

:class:`AdmissionController` is deliberately a *pure command machine*
wrapped in a lock: given the same admit/complete sequence it lands in the
same state, which is what the Hypothesis property suite drives.  The
invariants it maintains:

* ``pending <= max_pending`` whenever every admitted unit has weight 1
  (a single frame heavier than the whole budget is still admitted when
  the server is idle — the alternative is a permanent busy loop for that
  client — so the true bound is ``max(max_pending, heaviest frame)``);
* a unit-weight admit is refused **iff** the budget (global or the
  session's) is exhausted;
* the counters always reconcile: ``admitted == completed + pending``.

Weights are *messages*, not frames: a 1024-message binary batch frame
costs 1024 units, a lone JSON ``fetch`` costs 1.  Per-session accounting
applies when the frame names its session (binary frames and plain JSON
messages do; JSON batch envelopes without a top-level ``session`` count
against the global budget only).

Shed policies:

* ``"reject"`` (default) — one global budget, plus an optional fixed
  per-session cap (``max_session_pending``);
* ``"fair"`` — the per-session cap is derived dynamically as an equal
  share of the global budget across currently-active sessions (sessions
  with work in flight), so one hot session cannot starve the rest;
* ``"rate"`` — a token bucket: capacity ``max_pending`` units, refilled
  at ``refill_rate`` units/second, so admission bounds the *sustained
  rate* (with a burst allowance of one full bucket) instead of the
  instantaneous depth.  The bucket-full escape mirrors the idle-budget
  escape: a frame heavier than the whole bucket is admitted when the
  bucket is full (clamping it to empty), so it cannot busy-loop forever.
  The clock is injectable, which is how the Hypothesis suite drives the
  bucket deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

__all__ = ["AdmissionController", "SHED_POLICIES"]

#: accepted values for the ``policy`` knob (the CLI's ``--shed-policy``)
SHED_POLICIES = ("reject", "fair", "rate")


class AdmissionController:
    """Bounded pending-work budget; thread-safe, deterministic.

    Parameters
    ----------
    max_pending:
        Global budget in message units (>= 1).  Under ``policy="rate"``
        this is the bucket *capacity* (the burst allowance).
    max_session_pending:
        Optional fixed per-session budget (``policy="reject"``/``"rate"``).
    policy:
        ``"reject"``, ``"fair"``, or ``"rate"`` — see the module docstring.
    retry_after_s:
        Base retry hint carried in busy responses; the hint grows with
        the overload ratio so deeply saturated servers push clients
        further out.
    refill_rate:
        Token-bucket refill in message units per second (``policy="rate"``
        only, required there, must be > 0).
    clock:
        Monotonic-seconds source for the bucket (default
        :func:`time.monotonic`); injectable so tests can drive refills
        deterministically.
    """

    def __init__(
        self,
        max_pending: int,
        *,
        max_session_pending: int | None = None,
        policy: str = "reject",
        retry_after_s: float = 0.05,
        refill_rate: float | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if max_session_pending is not None and max_session_pending < 1:
            raise ValueError(
                f"max_session_pending must be >= 1, got {max_session_pending}"
            )
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"policy must be one of {SHED_POLICIES}, got {policy!r}"
            )
        if retry_after_s <= 0.0:
            raise ValueError(f"retry_after_s must be > 0, got {retry_after_s}")
        if policy == "rate":
            if refill_rate is None or refill_rate <= 0.0:
                raise ValueError(
                    f"policy 'rate' needs refill_rate > 0, got {refill_rate}"
                )
        elif refill_rate is not None:
            raise ValueError(
                f"refill_rate only applies to policy 'rate', not {policy!r}"
            )
        self.max_pending = int(max_pending)
        self.max_session_pending = (
            int(max_session_pending) if max_session_pending is not None else None
        )
        self.policy = policy
        self.retry_after_s = float(retry_after_s)
        self.refill_rate = float(refill_rate) if refill_rate is not None else None
        self._clock = clock if clock is not None else time.monotonic
        #: token bucket state (policy "rate"): starts full so the first
        #: burst up to one capacity is admitted immediately
        self._tokens = float(self.max_pending)
        self._last_refill = self._clock()
        self._lock = threading.Lock()
        self._pending = 0
        self._admitted = 0
        self._completed = 0
        self._shed = 0
        self._shed_events = 0
        self._peak_pending = 0
        #: session name -> units in flight (keys dropped at zero)
        self._session_pending: dict[str, int] = {}

    # -- the command machine -------------------------------------------------------

    def _session_cap(self, session: str) -> int | None:
        """The per-session budget that applies to *session* right now."""
        if self.policy == "fair":
            active = len(self._session_pending)
            if session not in self._session_pending:
                active += 1
            return max(1, self.max_pending // max(1, active))
        return self.max_session_pending

    def _refill(self) -> None:
        """Advance the token bucket to now (caller holds the lock)."""
        now = self._clock()
        elapsed = now - self._last_refill
        self._last_refill = now
        if elapsed > 0.0:
            self._tokens = min(
                float(self.max_pending), self._tokens + elapsed * self.refill_rate
            )

    def try_admit(self, weight: int = 1, session: str | None = None) -> bool:
        """Admit *weight* units of work (or shed them, returning False).

        An idle budget (``pending == 0``) always admits, even a frame
        heavier than ``max_pending`` — otherwise that frame could never
        be served.  The same escape applies per session, and as the
        bucket-full escape under ``policy="rate"``.
        """
        if weight <= 0:
            return True
        with self._lock:
            if self.policy == "rate":
                self._refill()
                full = self._tokens >= float(self.max_pending)
                if self._tokens < weight and not full:
                    self._shed += weight
                    self._shed_events += 1
                    return False
            elif self._pending > 0 and self._pending + weight > self.max_pending:
                self._shed += weight
                self._shed_events += 1
                return False
            if session is not None:
                cap = self._session_cap(session)
                held = self._session_pending.get(session, 0)
                if cap is not None and held > 0 and held + weight > cap:
                    self._shed += weight
                    self._shed_events += 1
                    return False
                self._session_pending[session] = held + weight
            if self.policy == "rate":
                self._tokens = max(0.0, self._tokens - weight)
            self._pending += weight
            self._admitted += weight
            if self._pending > self._peak_pending:
                self._peak_pending = self._pending
            return True

    def complete(self, weight: int = 1, session: str | None = None) -> None:
        """Return *weight* admitted units (response built, not yet written).

        Defensive about spurious completes: counters clamp at zero rather
        than going negative, so a transport bug cannot wedge the budget
        open forever in the other direction.
        """
        if weight <= 0:
            return
        with self._lock:
            done = min(weight, self._pending)
            self._pending -= done
            self._completed += done
            if session is not None:
                held = self._session_pending.get(session, 0)
                left = held - min(weight, held)
                if left > 0:
                    self._session_pending[session] = left
                else:
                    self._session_pending.pop(session, None)

    # -- observability -------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Units admitted but not yet completed."""
        with self._lock:
            return self._pending

    @property
    def peak_pending(self) -> int:
        """High-water mark of :attr:`pending` (the bounded-queue witness)."""
        with self._lock:
            return self._peak_pending

    @property
    def admitted(self) -> int:
        with self._lock:
            return self._admitted

    @property
    def completed(self) -> int:
        with self._lock:
            return self._completed

    @property
    def shed(self) -> int:
        """Total units refused (message units, not frames)."""
        with self._lock:
            return self._shed

    @property
    def tokens(self) -> float:
        """Current token-bucket level (``policy="rate"``; refreshed to now)."""
        with self._lock:
            if self.policy == "rate":
                self._refill()
            return self._tokens

    @property
    def retry_after(self) -> float:
        """The hint for busy responses: base, scaled by the overload ratio.

        Under ``policy="rate"`` the hint is the time until one unit of
        budget refills (at least the base), so clients back off in step
        with the configured rate instead of a fixed depth ratio.
        """
        with self._lock:
            if self.policy == "rate":
                deficit = max(0.0, 1.0 - self._tokens)
                return max(self.retry_after_s, deficit / self.refill_rate)
            return self.retry_after_s * (1.0 + self._pending / self.max_pending)

    def snapshot(self) -> dict[str, Any]:
        """All counters at once (consistent under one lock acquisition)."""
        with self._lock:
            snap = {
                "max_pending": self.max_pending,
                "policy": self.policy,
                "pending": self._pending,
                "peak_pending": self._peak_pending,
                "admitted": self._admitted,
                "completed": self._completed,
                "shed": self._shed,
                "shed_events": self._shed_events,
                "sessions": dict(self._session_pending),
            }
            if self.policy == "rate":
                snap["tokens"] = self._tokens
                snap["refill_rate"] = self.refill_rate
            return snap
