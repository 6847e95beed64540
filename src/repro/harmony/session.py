"""The online tuning loop (the heart of the paper's cost accounting).

A :class:`TuningSession` drives an ask/tell tuner against an evaluator under
a hard budget of application *time steps*:

* each batch the tuner asks for is split into *waves* of at most P points
  (P = number of processors); every wave costs exactly one time step and is
  charged its barrier time ``T_k = max`` of the observed times (Eq. 1);
* each point is observed K times (§5.2's multi-sampling) and reduced by
  the configured estimator (min by default).  Two sampling disciplines:

  - **sequential** (default) — the K rounds occupy subsequent time steps,
    the paper's explicit worst-case assumption ("we do not take advantage
    of multiple parallel sampling");
  - **parallel** (``parallel_sampling=True``) — the K replicas of each
    candidate are spread across spare processors within the same waves,
    the paper's "if there are 64 parallel processors … we can set K = 10
    with no additional cost" case: when ``n·K <= P`` a fully sampled batch
    costs a single time step;
* once the tuner has produced a local-minimum certificate (or whenever it
  has nothing to ask), the remaining budget runs the incumbent best
  configuration, which still pays observed (noisy) time — a converged tuner
  keeps living on the same machine;
* if the budget expires mid-batch, the run is truncated right there: the
  metric is ``Total_Time(budget)``, never more.

Steps are observed an array at a time.  On the fast path (an evaluator with
``supports_precomputed``) one noise draw covers every wave of a batch — all
K rounds and the controller's incumbent probe — and one more covers the
whole converged tail; per-wave barrier times come from a segmented max.
Evaluators without it (cluster substrates, fault injectors) and the
``batched_eval=False`` oracle run each wave through ``observe_wave``.  Either
way the step records are filled from arrays, and both paths give
bit-identical results.  A batch's wave layout depends only on its shape,
so each shape is laid out once per session.

The session also supports the adaptive-K controller (§5.2 future work),
which re-decides K between batches from the observed sample spread.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro._util import as_generator
from repro.core.adaptive import AdaptiveSamplingController
from repro.core.base import BatchTuner
from repro.core.sampling import SamplingPlan
from repro.harmony.evaluator import Evaluator, FunctionEvaluator
from repro.harmony.metrics import SessionResult, StepKind
from repro.obs import trace as obs_trace
from repro.variability.models import NoiseModel

__all__ = ["TuningSession"]

#: ``starts`` of a single wave
_ONE_WAVE = np.zeros(1, dtype=np.intp)


class _Layout(NamedTuple):
    """A batch's waves (see :meth:`TuningSession._plan`)."""

    #: each wave's offset into the run-order job list, and its size
    starts: np.ndarray
    sizes: np.ndarray
    #: batch row each job observes; ``n`` for the incumbent probe
    point_of: np.ndarray
    #: positions of the batch's own jobs, and of the probes, in run order
    own: np.ndarray
    probe: np.ndarray
    #: sample-matrix row and sampling round of each of the ``own`` jobs
    rows: np.ndarray
    rounds: np.ndarray
    #: whether the budget cut the batch short
    truncated: bool


class TuningSession:
    """Runs one online tuning experiment and records the paper's metrics."""

    def __init__(
        self,
        tuner: BatchTuner,
        evaluator: Evaluator | Callable[[np.ndarray], float],
        *,
        noise: NoiseModel | None = None,
        budget: int = 100,
        n_processors: int | None = None,
        plan: SamplingPlan | None = None,
        controller: AdaptiveSamplingController | None = None,
        parallel_sampling: bool = False,
        record_details: bool = False,
        batched_eval: bool | None = None,
        rng: int | np.random.Generator | None = None,
        tracer: "obs_trace.Tracer | None" = None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1 time step, got {budget}")
        if n_processors is not None and n_processors < 1:
            raise ValueError(f"n_processors must be >= 1, got {n_processors}")
        self.tuner = tuner
        if isinstance(evaluator, Evaluator):
            if noise is not None:
                raise ValueError(
                    "pass noise inside the Evaluator, not alongside one"
                )
            self.evaluator = evaluator
        else:
            self.evaluator = FunctionEvaluator(evaluator, noise)
        self.budget = int(budget)
        cap = self.evaluator.max_wave_size
        if n_processors is None:
            self.n_processors = cap  # None means unbounded
        else:
            self.n_processors = (
                n_processors if cap is None else min(n_processors, cap)
            )
        self.plan = plan if plan is not None else SamplingPlan()
        self.controller = controller
        self.parallel_sampling = bool(parallel_sampling)
        self.record_details = bool(record_details)
        #: batched-evaluation fast path: None = use it whenever the
        #: evaluator advertises ``supports_precomputed`` (bit-identical by
        #: contract), False = always per-wave scalar loops (ablation /
        #: debugging), True = require the fast path (raise if unsupported).
        self.batched_eval = batched_eval
        self.rng = as_generator(rng)
        #: optional :class:`repro.obs.trace.Tracer` recording the session's
        #: per-step / per-batch events; sweep workers install one after
        #: construction, so this stays assignable post-init
        self.tracer = tracer

    # -- helpers ---------------------------------------------------------------

    def _incumbent(self) -> np.ndarray:
        return self.tuner.best_point

    def _fast_eval_active(self) -> bool:
        """Whether this batch may go through ``observe_precomputed_waves``.

        Resolved per batch because fault injectors swap ``self.evaluator``
        after construction; a wrapper that intercepts ``observe_wave`` keeps
        ``supports_precomputed`` False and turns the fast path off.
        """
        if self.batched_eval is False:
            return False
        supported = bool(getattr(self.evaluator, "supports_precomputed", False))
        if self.batched_eval is True and not supported:
            raise ValueError(
                f"batched_eval=True but {type(self.evaluator).__name__} "
                "does not support precomputed observation"
            )
        return supported

    def _validate(
        self, times, t_steps, starts: np.ndarray, n_obs: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate consecutive waves' output (reductions cover every check).

        A substrate returning NaN/negative times or a mis-shaped result
        would silently corrupt the Total_Time metric; fail loudly instead.
        """
        times = np.asarray(times, dtype=float)
        t_steps = np.asarray(t_steps, dtype=float)
        if times.shape != (n_obs,) or t_steps.shape != starts.shape:
            raise RuntimeError(
                f"evaluator returned {times.shape} times and "
                f"{t_steps.shape} barrier times for {n_obs} observations "
                f"in {starts.size} wave(s)"
            )
        tmin = float(times.min())
        maxima = np.maximum.reduceat(times, starts)
        # NaN propagates into both reductions; +/-inf lands in one of them.
        if not (np.isfinite(tmin) and np.isfinite(maxima).all()) or tmin < 0:
            raise RuntimeError(
                f"evaluator returned invalid observation(s): {times!r}"
            )
        bad = ~(np.isfinite(t_steps) & (t_steps >= maxima))
        if bad.any():
            w = int(np.argmax(bad))
            raise RuntimeError(
                f"evaluator returned inconsistent barrier time "
                f"{float(t_steps[w])!r} for wave maxima {float(maxima[w])!r}"
            )
        return times, t_steps

    def _observe(
        self, starts: np.ndarray, *, f: np.ndarray | None = None, points=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Observe consecutive waves: ``(times, barrier time per wave)``.

        On the fast path *f* holds the true costs, observed with one
        ``observe_precomputed_waves`` call; otherwise each wave of *points*
        goes through the scalar ``observe_wave`` and is validated before the
        next one runs.
        """
        if f is not None:
            times, t_steps = self.evaluator.observe_precomputed_waves(
                f, starts, self.rng
            )
            return self._validate(times, t_steps, starts, f.size)
        waves = []
        bounds = [*starts.tolist(), len(points)]
        for lo, hi in zip(bounds, bounds[1:]):
            times, t_step = self.evaluator.observe_wave(points[lo:hi], self.rng)
            waves.append(self._validate(times, [t_step], _ONE_WAVE, hi - lo))
        return (
            np.concatenate([times for times, _ in waves]),
            np.concatenate([t_steps for _, t_steps in waves]),
        )

    def _precompute(self, batch, probe_incumbent) -> np.ndarray | None:
        """True costs of the batch (then the incumbent, when probed), or None.

        The heart of the batched fast path: one vectorized
        ``true_cost_batch`` call replaces per-wave per-round scalar loops,
        and the caller then draws the noise of every wave in the batch with
        one call.  Elementwise noise consumes the generator in job order,
        so RNG consumption — and therefore every result — is bit-identical
        to the scalar path's wave-by-wave draws.
        """
        if not self._fast_eval_active():
            return None
        f = np.asarray(self.evaluator.true_cost_batch(batch), dtype=float)
        if probe_incumbent:
            f = np.append(f, float(self.evaluator.true_cost(self._incumbent())))
        return f

    def _plan(
        self, n: int, k: int, probe_incumbent: bool, max_waves: int
    ) -> _Layout:
        """Lay out a batch's K rounds as waves.

        Job ``j`` observes point ``j % n`` in sampling round ``j // n``;
        job ``-1`` is the controller's incumbent probe.  Jobs run
        round-major.  Sequential sampling (the §6 worst case) splits every
        round into waves of at most P points, so the K rounds occupy
        subsequent time steps.  Parallel sampling (§5.2's free
        multi-sampling: n·K <= P costs one time step) packs the job list
        into waves of P, so a budget truncation still leaves the earliest
        rounds complete.  The probe rides on a spare processor of the first
        wave (of every round, when sequential).  Only the first *max_waves*
        waves are laid out.

        The layout depends on nothing but its arguments and the session's
        constants, so :meth:`_run` reuses an untruncated one for every
        batch of the same ``(n, k, probe_incumbent)``; its arrays are
        read-only for that reason.
        """
        p = self.n_processors
        if self.parallel_sampling:
            size = n * k if p is None else p
            lo = np.arange(0, n * k, size)
            hi = np.minimum(lo + size, n * k)
            heads = lo == 0
        else:
            size = n if p is None else p
            lo = (np.arange(k)[:, None] * n + np.arange(0, n, size)).ravel()
            hi = np.minimum(lo + size, (lo // n + 1) * n)
            heads = lo % n == 0
        truncated = lo.size > max_waves
        lo, hi, heads = lo[:max_waves], hi[:max_waves], heads[:max_waves]
        jobs = np.arange(hi[-1])
        sizes = hi - lo
        if probe_incumbent:
            probed = heads if p is None else heads & (sizes < p)
            jobs = np.insert(jobs, hi[probed], -1)
            lo = lo + np.cumsum(probed) - probed
            sizes = sizes + probed
        mine = jobs >= 0
        own = jobs[mine]
        layout = _Layout(
            starts=lo,
            sizes=sizes,
            # Index n (one past the batch) is the incumbent probe.
            point_of=np.where(mine, jobs % n, n),
            own=np.flatnonzero(mine),
            probe=np.flatnonzero(~mine),
            rows=own % n,
            rounds=own // n,
            truncated=truncated,
        )
        for arr in layout[:-1]:
            arr.setflags(write=False)
        return layout

    # -- the loop -------------------------------------------------------------------

    def run(self) -> SessionResult:
        """Drive the tuner for exactly ``budget`` application time steps.

        Returns the per-step record (barrier times, step kinds, incumbent
        trajectory) and aggregates.  A session is single-use: the tuner's
        state is consumed.

        With a tracer attached, the run is bracketed by ``session.start``/
        ``session.end`` events and the tracer is installed as the thread's
        active one, so substrate-level emitters (fault injectors, the
        performance database, tuner convergence) record into the same
        stream; every event payload is model-deterministic.
        """
        if self.tracer is None:
            return self._run()
        with obs_trace.activated(self.tracer):
            self.tracer.emit(
                "session.start",
                tuner=type(self.tuner).__name__,
                budget=self.budget,
                k=self.plan.k if self.controller is None else "adaptive",
                n_processors=self.n_processors,
                parallel_sampling=self.parallel_sampling,
            )
            result = self._run()
            self.tracer.emit(
                "session.end",
                n_steps=int(result.step_times.size),
                total_time=result.total_time(),
                ntt=result.normalized_total_time(),
                best_true_cost=result.best_true_cost,
                converged_at=result.converged_at,
                n_measurements=result.n_measurements,
            )
            return result

    def _run(self) -> SessionResult:
        step_times: list[float] = []
        step_kinds: list[StepKind] = []
        incumbent_true: list[float] = []
        details: list[dict] = []
        n_measurements = 0
        converged_at: int | None = None
        # true_cost is deterministic by contract, and the incumbent only
        # changes on tell(), so its cost is computed once per distinct
        # configuration instead of once per recorded step.
        inc_cost_cache: dict[bytes, float] = {}

        def incumbent_cost() -> float:
            pt = self._incumbent()
            key = pt.tobytes()
            cost = inc_cost_cache.get(key)
            if cost is None:
                cost = float(self.evaluator.true_cost(pt))
                inc_cost_cache[key] = cost
            return cost

        tracer = self.tracer

        def record(t_steps: np.ndarray, kind: StepKind, sizes: np.ndarray) -> None:
            """Book consecutive steps of one kind, one per wave.

            The tuner is not touched between them, so they share one
            incumbent (and one batch index)."""
            nonlocal n_measurements
            n_measurements += int(sizes.sum())
            first = len(step_times)
            times = t_steps.tolist()
            waves = sizes.tolist()
            step_times.extend(times)
            step_kinds.extend([kind] * len(times))
            if tracer is not None:
                for t, (t_step, wave) in enumerate(zip(times, waves), first):
                    tracer.emit(
                        "session.step",
                        t=t,
                        step_kind=kind.value,
                        t_step=t_step,
                        wave=wave,
                    )
            initialized = getattr(self.tuner, "initialized", True)
            cost = incumbent_cost() if initialized else float("nan")
            incumbent_true.extend([cost] * len(times))
            if self.record_details:
                batch_index = (
                    self.tuner.n_batches if kind is StepKind.EVALUATE else None
                )
                details.extend(
                    {"kind": kind.value, "wave_size": wave, "batch_index": batch_index}
                    for wave in waves
                )

        def exploit(m: int) -> None:
            """Run the incumbent for *m* time steps, one point per wave."""
            starts = np.arange(m)
            if self._fast_eval_active():
                f = np.full(m, incumbent_cost())
                _times, t_steps = self._observe(starts, f=f)
            else:
                pts = [self._incumbent()] * m
                _times, t_steps = self._observe(starts, points=pts)
            record(t_steps, StepKind.EXPLOIT, np.ones(m, dtype=int))

        # Reusable sample matrix: tuners that bound their batch size let us
        # allocate once and slice per batch instead of np.full every loop.
        max_batch = getattr(self.tuner, "max_batch_size", None)
        sample_buf: np.ndarray | None = None
        # Untruncated wave layouts by (n, k, probe_incumbent).
        layouts: dict[tuple[int, int, bool], _Layout] = {}

        while len(step_times) < self.budget:
            remaining = self.budget - len(step_times)
            if self.tuner.converged:
                if converged_at is None:
                    converged_at = len(step_times)
                # The local-minimum certificate fixes the incumbent for
                # good: the rest of the budget runs it, drawn at once.
                exploit(remaining)
                break
            batch = self.tuner.ask()
            if not batch:
                if not self.tuner.converged:
                    # Nothing to ask yet: run the incumbent for one step.
                    exploit(1)
                continue
            if tracer is not None:
                tracer.emit(
                    "batch.proposed",
                    size=len(batch),
                    batch_index=self.tuner.n_batches,
                )
            # Cluster substrates let idle nodes run the incumbent.
            set_fill = getattr(self.evaluator, "set_fill_point", None)
            if set_fill is not None and getattr(self.tuner, "initialized", False):
                set_fill(self._incumbent())
            k = (
                self.controller.current_k
                if self.controller is not None
                else self.plan.k
            )
            n = len(batch)
            # With a controller in play, piggyback one observation of the
            # incumbent per batch on a spare processor: repeated
            # same-configuration measurements are the pure-noise signal the
            # controller needs to escape K = 1 (which otherwise gives it no
            # spread information at all).
            probe_incumbent = (
                self.controller is not None
                and getattr(self.tuner, "initialized", False)
            )
            key = (n, k, probe_incumbent)
            layout = layouts.get(key)
            if layout is None or layout.starts.size > remaining:
                # The remaining budget may cut this batch short; such a
                # layout is used once and never cached.
                layout = self._plan(n, k, probe_incumbent, remaining)
                if not layout.truncated:
                    layouts[key] = layout
            if max_batch is not None and n <= max_batch:
                if sample_buf is None or sample_buf.shape[1] != k:
                    sample_buf = np.empty((max_batch, k), dtype=float)
                samples = sample_buf[:n]
            else:
                samples = np.empty((n, k))
            if layout.truncated:
                samples.fill(np.nan)
            f = self._precompute(batch, probe_incumbent)
            if f is not None:
                times, t_steps = self._observe(layout.starts, f=f[layout.point_of])
            else:
                points = [*batch, self._incumbent()]
                times, t_steps = self._observe(
                    layout.starts,
                    points=[points[i] for i in layout.point_of.tolist()],
                )
            if probe_incumbent:
                for y in times[layout.probe].tolist():
                    self.controller.observe_incumbent(y)
            # An untruncated layout observes every (point, round) once, so
            # it fills the whole sample matrix.
            samples[layout.rows, layout.rounds] = times[layout.own]
            record(t_steps, StepKind.EVALUATE, layout.sizes)
            if not layout.truncated:
                # One vectorized axis-1 reduction.
                estimates = np.asarray(self.plan.combine_batch(samples), dtype=float)
            else:
                valid = ~np.isnan(samples)
                estimates = None
                if np.all(valid.any(axis=1)):
                    estimates = np.array(
                        [
                            self.plan.combine(row[mask])
                            for row, mask in zip(samples, valid)
                        ]
                    )
            if estimates is not None:
                self.tuner.tell(estimates)
                if tracer is not None:
                    tracer.emit(
                        "batch.told",
                        size=int(len(estimates)),
                        best=float(np.min(estimates)),
                    )
                if self.controller is not None:
                    self.controller.observe_batch(samples)
            if layout.truncated:
                break

        if self.tuner.converged and converged_at is None:
            converged_at = len(step_times)

        # Pad in the pathological case where the loop exited one step early
        # (cannot happen with the logic above, but keep the metric honest).
        assert len(step_times) <= self.budget
        initialized = getattr(self.tuner, "initialized", True)
        best_point = self._incumbent()
        best_true = (
            self.evaluator.true_cost(best_point) if initialized else float("nan")
        )
        return SessionResult(
            step_times=np.asarray(step_times, dtype=float),
            step_kinds=tuple(step_kinds),
            incumbent_true_costs=np.asarray(incumbent_true, dtype=float),
            best_point=np.asarray(best_point, dtype=float),
            best_estimate=float(self.tuner.best_value),
            best_true_cost=float(best_true),
            rho=self.evaluator.rho,
            n_measurements=int(n_measurements),
            n_evaluations=int(self.tuner.n_evaluations),
            converged_at=converged_at,
            tuner_name=type(self.tuner).__name__,
            meta={
                "budget": self.budget,
                "k": self.plan.k if self.controller is None else "adaptive",
                "estimator": self.plan.estimator.name,
                "n_processors": self.n_processors,
                "parallel_sampling": self.parallel_sampling,
            },
            step_details=tuple(details) if self.record_details else None,
        )
