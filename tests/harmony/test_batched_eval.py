"""Bit-identity of the session's batched-evaluation fast path.

``batched_eval=None`` (the default) observes every wave of a batch, and the
whole converged tail, through one ``observe_precomputed_waves`` call
whenever the evaluator supports it; ``False`` forces the wave-by-wave
scalar ``observe_wave`` loop.  The two must produce bitwise identical
:class:`SessionResult` records and trace streams — the fast path is an
optimization, never a semantic change — and fault-injecting wrappers must
transparently turn it off.
"""

import numpy as np
import pytest

from repro.apps.database import PerformanceDatabase
from repro.core.adaptive import AdaptiveSamplingController
from repro.core.pro import ParallelRankOrdering
from repro.core.sampling import SamplingPlan
from repro.faults.inject import FaultyEvaluator
from repro.harmony.evaluator import (
    DelegatingEvaluator,
    Evaluator,
    FunctionEvaluator,
)
from repro.harmony.metrics import StepKind
from repro.harmony.session import TuningSession
from repro.obs import Tracer, canonical_events
from repro.space import IntParameter, ParameterSpace
from repro.variability import (
    ExponentialNoise,
    GaussianNoise,
    MarkovModulatedNoise,
    NoNoise,
    ParetoNoise,
    SpikeMixtureNoise,
    TruncatedParetoNoise,
)

SPACE = ParameterSpace([IntParameter(f"x{i}", -8, 8) for i in range(4)])


def rugged(point) -> float:
    x = np.asarray(point, dtype=float)
    return float(1.0 + np.sum(x * x + 10.0 * (1.0 - np.cos(np.pi * x / 2.0))))


def bowl(point) -> float:
    """A convex surface PRO converges on well inside a 200-step budget."""
    x = np.asarray(point, dtype=float)
    return float(1.0 + np.sum(x * x))


def make_session(evaluator, seed, batched, **kwargs):
    # Evaluator instances carry their own noise model; bare callables get one.
    noise = None if isinstance(evaluator, Evaluator) else ParetoNoise(rho=0.2)
    options = {"budget": 40, "plan": SamplingPlan(2), **kwargs}
    return TuningSession(
        ParallelRankOrdering(SPACE), evaluator, noise=noise,
        batched_eval=None if batched else False, rng=seed, **options,
    )


def assert_records_identical(a, b):
    assert a.step_times.tobytes() == b.step_times.tobytes()
    assert a.step_kinds == b.step_kinds
    assert a.incumbent_true_costs.tobytes() == b.incumbent_true_costs.tobytes()
    assert a.step_details == b.step_details
    assert a.best_point.tobytes() == b.best_point.tobytes()
    assert a.best_true_cost == b.best_true_cost
    assert a.n_measurements == b.n_measurements
    assert a.n_evaluations == b.n_evaluations
    assert a.converged_at == b.converged_at


class RecordingController(AdaptiveSamplingController):
    """Adaptive-K controller that keeps every incumbent probe it is fed."""

    def __init__(self) -> None:
        super().__init__()
        self.probes: list[float] = []

    def observe_incumbent(self, estimate: float) -> None:
        self.probes.append(estimate)
        super().observe_incumbent(estimate)


def run_pair(make_evaluator, seed, adaptive=False, **kwargs):
    """Run one configuration both ways (record_details on) and compare.

    Evaluators (their noise may carry state) and adaptive controllers are
    built fresh for each arm; with a controller, both arms must feed it the
    same incumbent probes.  Returns the fast result and those probes."""

    def run(batched):
        controller = RecordingController() if adaptive else None
        result = make_session(
            make_evaluator(), seed, batched, record_details=True,
            controller=controller, **kwargs,
        ).run()
        return result, controller

    (fast, fast_ctrl), (scalar, scalar_ctrl) = run(True), run(False)
    assert_records_identical(fast, scalar)
    if not adaptive:
        return fast, None
    assert fast_ctrl.probes == scalar_ctrl.probes
    return fast, fast_ctrl.probes


class TestBatchedEvalEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 991])
    def test_function_evaluator_fast_path_bit_identical(self, seed):
        fast = make_session(rugged, seed, batched=True).run()
        scalar = make_session(rugged, seed, batched=False).run()
        assert_records_identical(fast, scalar)

    @pytest.mark.parametrize("seed", [3, 41])
    def test_database_evaluate_batch_bit_identical(self, seed):
        # Fresh databases per arm: memo state must not be able to leak
        # between them (it cannot change values, but keep the arms honest).
        def db():
            return PerformanceDatabase.from_function(rugged, SPACE, fraction=0.3, rng=1)

        fast = make_session(db(), seed, batched=True).run()
        scalar = make_session(db(), seed, batched=False).run()
        assert_records_identical(fast, scalar)

    def test_batched_true_requires_evaluator_support(self):
        class Opaque(DelegatingEvaluator):
            """Wrapper that does not advertise supports_precomputed."""

        session = TuningSession(
            ParallelRankOrdering(SPACE), Opaque(FunctionEvaluator(rugged)),
            budget=10, plan=SamplingPlan(1), batched_eval=True, rng=0,
        )
        with pytest.raises(ValueError, match="batched_eval=True"):
            session.run()

    def test_faulty_evaluator_opts_out_of_fast_path(self):
        # FaultyEvaluator injects by intercepting observe_wave, so it must
        # keep the fast path off even when batched_eval is left at None —
        # otherwise a scheduled fault would silently never fire.
        assert FaultyEvaluator.supports_precomputed is False

        def faulty():
            return FaultyEvaluator(
                FunctionEvaluator(rugged, ParetoNoise(rho=0.2)),
                mode="slowdown", after=2, times=3,
            )

        default = make_session(faulty(), 5, batched=True).run()
        forced_scalar = make_session(faulty(), 5, batched=False).run()
        assert_records_identical(default, forced_scalar)
        # the slowdown window actually fired: some steps cost more than the
        # same session observes without injection
        clean = make_session(
            FunctionEvaluator(rugged, ParetoNoise(rho=0.2)), 5, batched=False
        ).run()
        assert default.step_times.sum() > clean.step_times.sum()


def pareto(fn=rugged):
    return lambda: FunctionEvaluator(fn, ParetoNoise(rho=0.2))


class TestArrayObservation:
    """Fast vs scalar across every shape a batch can take."""

    @pytest.mark.parametrize("seed", [2, 19])
    def test_converged_tail(self, seed):
        fast, _ = run_pair(pareto(bowl), seed, budget=200)
        assert fast.converged_at is not None
        exploit = [k is StepKind.EXPLOIT for k in fast.step_kinds]
        assert sum(exploit) > 100
        # the whole tail after convergence is exploit steps
        assert all(exploit[fast.converged_at:])

    @pytest.mark.parametrize("budget", [1, 7, 13, 23])
    def test_budget_truncates_mid_batch(self, budget):
        fast, _ = run_pair(pareto(), 4, budget=budget, plan=SamplingPlan(3))
        assert fast.step_times.size == budget

    @pytest.mark.parametrize("n_processors", [1, 2, 3])
    def test_multi_wave_batches(self, n_processors):
        fast, _ = run_pair(
            pareto(), 8, budget=60, n_processors=n_processors,
            plan=SamplingPlan(2),
        )
        sizes = {d["wave_size"] for d in fast.step_details}
        assert max(sizes) <= n_processors

    @pytest.mark.parametrize("parallel_sampling", [False, True])
    @pytest.mark.parametrize("n_processors", [None, 3, 16])
    def test_adaptive_controller_probe(self, parallel_sampling, n_processors):
        _fast, probes = run_pair(
            pareto(), 11, budget=80, n_processors=n_processors,
            parallel_sampling=parallel_sampling,
            plan=SamplingPlan(1), adaptive=True,
        )
        # three processors leave no spare one beside a PRO batch
        assert bool(probes) == (n_processors != 3)

    @pytest.mark.parametrize("n_processors", [None, 4, 5, 9])
    @pytest.mark.parametrize("budget", [3, 50, 200])
    def test_parallel_sampling(self, n_processors, budget):
        run_pair(
            pareto(bowl), 6, budget=budget, n_processors=n_processors,
            parallel_sampling=True, plan=SamplingPlan(3),
        )

    def test_no_noise(self):
        fast, _ = run_pair(lambda: FunctionEvaluator(bowl, NoNoise()), 0, budget=120)
        assert fast.converged_at is not None

    @pytest.mark.parametrize(
        "noise",
        [
            GaussianNoise(rho=0.2),
            ExponentialNoise(rho=0.2),
            TruncatedParetoNoise(rho=0.3),
            SpikeMixtureNoise(p_small=0.4, p_big=0.2),
        ],
        ids=lambda n: type(n).__name__,
    )
    def test_other_noise_models(self, noise):
        run_pair(lambda: FunctionEvaluator(bowl, noise), 5, budget=150)

    def test_stateful_noise_keeps_per_wave_draws(self):
        # Markov-modulated noise advances its regime once per call, so the
        # evaluator must fall back to one draw per wave; fresh models per
        # arm keep the regime chains independent.
        def markov():
            return FunctionEvaluator(bowl, MarkovModulatedNoise())

        run_pair(markov, 9, budget=150, plan=SamplingPlan(2))

    @pytest.mark.parametrize("parallel_sampling", [False, True])
    def test_trace_streams_identical(self, parallel_sampling):
        def traced(batched):
            tracer = Tracer(label="session")
            session = make_session(
                FunctionEvaluator(bowl, ParetoNoise(rho=0.2)), 12, batched,
                budget=150, n_processors=4, parallel_sampling=parallel_sampling,
                controller=RecordingController(), plan=SamplingPlan(1),
            )
            session.tracer = tracer
            session.run()
            return canonical_events(tracer.drain())

        fast, scalar = traced(True), traced(False)
        steps = [e for e in fast if e["kind"] == "session.step"]
        assert len(steps) == 150
        assert any(e["step_kind"] == "exploit" for e in steps)
        assert fast == scalar


class TestObservePrecomputedWaves:
    """The evaluator's multi-wave call against its per-wave definition."""

    @pytest.mark.parametrize(
        "noise",
        [
            NoNoise(),
            ParetoNoise(rho=0.2),
            TruncatedParetoNoise(rho=0.3),
            GaussianNoise(rho=0.2),
            ExponentialNoise(rho=0.2),
            SpikeMixtureNoise(p_small=0.4, p_big=0.2),
        ],
        ids=lambda n: type(n).__name__,
    )
    def test_matches_per_wave_calls(self, noise):
        f = np.random.default_rng(1).uniform(1.0, 50.0, 37)
        starts = np.array([0, 3, 4, 10, 20, 36])
        evaluator = FunctionEvaluator(rugged, noise)
        times, t_steps = evaluator.observe_precomputed_waves(
            f, starts, np.random.default_rng(5)
        )
        rng = np.random.default_rng(5)
        bounds = [*starts, f.size]
        waves = [
            evaluator.observe_precomputed(f[lo:hi], rng)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert times.tobytes() == np.concatenate([y for y, _ in waves]).tobytes()
        assert t_steps.tolist() == [t for _, t in waves]

    def test_base_default_loops_observe_precomputed(self):
        class PerWave(DelegatingEvaluator):
            supports_precomputed = True

            def __init__(self, inner):
                super().__init__(inner)
                self.calls = 0

            def observe_precomputed(self, f, rng):
                self.calls += 1
                return self.inner.observe_precomputed(f, rng)

        evaluator = PerWave(FunctionEvaluator(rugged, ParetoNoise(rho=0.2)))
        times, t_steps = evaluator.observe_precomputed_waves(
            np.arange(1.0, 7.0), np.array([0, 2, 5]), np.random.default_rng(0)
        )
        assert evaluator.calls == 3
        assert times.shape == (6,) and t_steps.shape == (3,)


def tilted(point) -> float:
    """A minimum away from the start, so PRO walks, shrinks and restarts."""
    x = np.asarray(point, dtype=float)
    return float(
        1.0 + np.sum(np.abs(x - [5.0, -3.0, 2.0, 7.0])) + 3.0 * np.sum(1.0 - np.cos(x))
    )


class TestLayoutCache:
    """Untruncated wave layouts are laid out once per (n, K, probe)."""

    @pytest.fixture
    def plans(self, monkeypatch):
        """Every ``_plan`` call: (session, arguments, layout)."""
        calls = []
        plan = TuningSession._plan

        def spy(session, *args):
            layout = plan(session, *args)
            calls.append((session, args, layout))
            return layout

        monkeypatch.setattr(TuningSession, "_plan", spy)
        return calls

    @staticmethod
    def run_pair(seed, budget, controller=None, **kwargs):
        """Fast and ``batched_eval=False`` arms; returns the fast session,
        its result, and both arms' controllers."""
        runs = []
        for batched in (True, False):
            session = TuningSession(
                ParallelRankOrdering(SPACE, r=0.2),
                FunctionEvaluator(tilted, ParetoNoise(rho=0.2)),
                budget=budget, record_details=True,
                controller=None if controller is None else controller(),
                batched_eval=None if batched else False, rng=seed, **kwargs,
            )
            runs.append((session, session.run()))
        (fast, fast_result), (scalar, scalar_result) = runs
        assert_records_identical(fast_result, scalar_result)
        return fast, fast_result, (fast.controller, scalar.controller)

    def test_k_changes_mid_run(self, plans):
        fast, _result, (ctrl, scalar_ctrl) = self.run_pair(
            9, 120, controller=RecordingController, plan=SamplingPlan(1)
        )
        assert ctrl.probes == scalar_ctrl.probes and ctrl.probes
        assert ctrl.history == scalar_ctrl.history
        assert len({k for _gap, k in ctrl.history}) > 1
        keys = {args[:3] for session, args, _ in plans if session is fast}
        assert len({k for _n, k, _probe in keys}) > 1

    def test_probe_restarts_vary_batch_sizes(self, plans):
        fast, result, _ = self.run_pair(1, 300, plan=SamplingPlan(2))
        assert fast.tuner.n_restarts >= 1
        assert result.converged_at is not None
        keys = [args[:3] for session, args, _ in plans if session is fast]
        assert len({n for n, _k, _probe in keys}) >= 3
        # one layout per distinct batch shape, however many batches ran
        assert len(keys) == len(set(keys)) < fast.tuner.n_batches

    @pytest.mark.parametrize("budget", [21, 25, 29])
    def test_budget_truncates_final_batch(self, plans, budget):
        fast, result, _ = self.run_pair(1, budget, plan=SamplingPlan(2))
        assert result.step_times.size == budget
        calls = [(args, layout) for session, args, layout in plans if session is fast]
        (args, last), earlier = calls[-1], calls[:-1]
        # the same batch shape was cached earlier, yet the truncated batch
        # was laid out afresh for the steps that were left
        assert last.truncated and last.starts.size == args[3]
        assert any(a[:3] == args[:3] and not lay.truncated for a, lay in earlier)

    def test_cached_layouts_are_read_only(self, plans):
        self.run_pair(1, 300, plan=SamplingPlan(2))
        assert plans
        for _session, _args, layout in plans:
            arrays = [a for a in layout if isinstance(a, np.ndarray)]
            assert len(arrays) == len(layout) - 1
            for arr in arrays:
                assert not arr.flags.writeable
                if arr.size:
                    with pytest.raises(ValueError):
                        arr[0] = 0
