"""Observer hooks over the runner's phased tick pipeline.

The :class:`~repro.sim.runner.SimulationRunner` advances each tick
through five explicit phases::

    arrivals -> control -> engine step -> completions -> sampling

Instrumentation and scripted events attach to those phases as
*observers* instead of inline special cases in the loop.  The two
built-ins are exactly the features that used to be hardcoded:

* :class:`SamplingObserver` — emits the periodic
  :class:`~repro.sim.metrics.SamplePoint` time series, asking the
  control policy for its per-sample annotations;
* :class:`WorkloadSwitchObserver` — the §6.3 profile-adaptation event:
  at ``switch_at_s`` the load generator and the engine's declared
  characteristics flip to another workload.

Custom observers (tracing, extra metrics, fault injection, live
plotting) subclass :class:`RunObserver`, override any subset of hooks,
and are passed to ``SimulationRunner(config, observers=[...])``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.sim.clock import OneShotDeadline, PeriodicDeadline
from repro.sim.metrics import RunResult, SamplePoint

if TYPE_CHECKING:
    from repro.dbms.engine import EngineTickResult
    from repro.dbms.queries import Query, QueryCompletion
    from repro.sim.runner import SimulationRunner
    from repro.workloads.base import Workload


class RunObserver:
    """No-op base class: override the hooks a concrete observer needs.

    Hook order within one tick mirrors the pipeline phases; ``now_s`` is
    always the simulation time at the *start* of the tick.
    """

    #: Component label used by span-cut attribution when this observer's
    #: horizon bounds or refuses a macro span (see :mod:`repro.sim.macro`).
    macro_label = "observer"

    def on_run_start(self, runner: "SimulationRunner", result: RunResult) -> None:
        """Before the first tick; keep references, never mutate state."""

    def before_arrivals(self, now_s: float, dt_s: float) -> None:
        """Phase 1 entry — scripted events (e.g. workload switches)."""

    def on_arrival(self, now_s: float, query: "Query") -> None:
        """Phase 1: one query was submitted to the engine."""

    def after_control(self, now_s: float, dt_s: float) -> None:
        """Phase 2 exit — the policy has reconfigured the hardware."""

    def after_step(self, now_s: float, tick_result: "EngineTickResult") -> None:
        """Phase 3 exit — engine and machine advanced one tick."""

    def on_completion(
        self, now_s: float, completion: "QueryCompletion"
    ) -> None:
        """Phase 4: one query finished during this tick."""

    def end_tick(self, now_s: float, tick_result: "EngineTickResult") -> None:
        """Phase 5 — sampling/accounting point at the end of the tick."""

    def on_run_end(self, result: RunResult) -> None:
        """After the last tick, once totals are final."""

    def macro_horizon_s(self, now_s: float) -> float | None:
        """How far the macro-stepping runner may leap past this observer.

        Returning a time ``H`` promises that every hook of this observer
        is a no-op for any tick starting strictly before ``H`` on which
        the simulation state does not change (no arrivals, completions,
        reconfigurations, or migrations — the runner separately
        guarantees those).  ``float("inf")`` means "always skippable
        under those conditions".  The default ``None`` declares the
        observer macro-unaware and disables span stepping while it is
        attached — per-tick semantics are always safe.
        """
        return None


class SamplingObserver(RunObserver):
    """Emits the periodic sample time series into the run result.

    The cadence is phase-anchored at t=0 (samples at 0, T, 2T, ... of
    *simulation* time), tolerant of non-divisible tick ratios via
    :class:`~repro.sim.clock.PeriodicDeadline`.
    """

    macro_label = "sampler"

    def __init__(self, sample_every_s: float):
        self._deadline = PeriodicDeadline(sample_every_s, first_due_s=0.0)
        self._runner: "SimulationRunner | None" = None
        self._result: RunResult | None = None

    def on_run_start(self, runner: "SimulationRunner", result: RunResult) -> None:
        self._runner = runner
        self._result = result

    def end_tick(self, now_s: float, tick_result: "EngineTickResult") -> None:
        if not self._deadline.due(now_s):
            return
        self._deadline.advance()
        assert self._runner is not None and self._result is not None
        self._result.samples.append(self._sample(now_s, tick_result))

    def macro_horizon_s(self, now_s: float) -> float | None:
        # end_tick is a pure deadline check until the next sample is due.
        return self._deadline.next_due_s

    def _sample(
        self, now_s: float, tick_result: "EngineTickResult"
    ) -> SamplePoint:
        runner = self._runner
        assert runner is not None
        step = tick_result.step
        annotations = runner.policy.annotate_sample()
        return SamplePoint(
            time_s=now_s,
            load_qps=runner.loadgen.rate_qps(now_s),
            rapl_power_w=step.rapl_power_w,
            psu_power_w=step.psu_power_w,
            avg_latency_s=runner.engine.latency.average_latency_s(now_s),
            pending_messages=runner.engine.pending_messages(),
            in_flight_queries=runner.engine.tracker.in_flight,
            performance_levels=annotations.performance_levels,
            applied=annotations.applied,
        )


class WorkloadSwitchObserver(RunObserver):
    """Flips the running workload at a fixed time (§6.3 experiments).

    At the first tick at or after ``switch_at_s`` the load generator
    starts drawing queries from ``workload`` and the engine's declared
    workload characteristics follow; the control policy is *not*
    notified — discovering the change from its counters is the point of
    the adaptation experiment.
    """

    def __init__(self, switch_at_s: float, workload: "Workload"):
        self._deadline = OneShotDeadline(switch_at_s)
        self._workload = workload
        self._runner: "SimulationRunner | None" = None

    @property
    def switched(self) -> bool:
        """Whether the switch has already happened."""
        return self._deadline.fired

    def on_run_start(self, runner: "SimulationRunner", result: RunResult) -> None:
        self._runner = runner

    def before_arrivals(self, now_s: float, dt_s: float) -> None:
        if not self._deadline.poll(now_s):
            return
        runner = self._runner
        assert runner is not None
        runner.loadgen.workload = self._workload
        runner.engine.set_workload_characteristics(
            self._workload.characteristics
        )

    def macro_horizon_s(self, now_s: float) -> float | None:
        # Inert once fired; before that, the switch tick must run live —
        # it swaps the load generator's pre-drawn arrival blocks, and
        # both simulation modes must do so on the same tick.
        if self._deadline.fired:
            return float("inf")
        return self._deadline.at_s


class ObserverList:
    """Dispatches one pipeline hook to every observer, in order."""

    def __init__(self, observers: Sequence[RunObserver]):
        self._observers = tuple(observers)
        #: Whether any member overrides on_arrival.  The bank arrival path
        #: only materializes per-query views when someone is listening.
        self.wants_arrivals = any(
            type(obs).on_arrival is not RunObserver.on_arrival
            for obs in self._observers
        )

    def __iter__(self):
        return iter(self._observers)

    def on_run_start(self, runner: "SimulationRunner", result: RunResult) -> None:
        for obs in self._observers:
            obs.on_run_start(runner, result)

    def before_arrivals(self, now_s: float, dt_s: float) -> None:
        for obs in self._observers:
            obs.before_arrivals(now_s, dt_s)

    def on_arrival(self, now_s: float, query: "Query") -> None:
        for obs in self._observers:
            obs.on_arrival(now_s, query)

    def after_control(self, now_s: float, dt_s: float) -> None:
        for obs in self._observers:
            obs.after_control(now_s, dt_s)

    def after_step(self, now_s: float, tick_result: "EngineTickResult") -> None:
        for obs in self._observers:
            obs.after_step(now_s, tick_result)

    def on_completion(
        self, now_s: float, completion: "QueryCompletion"
    ) -> None:
        for obs in self._observers:
            obs.on_completion(now_s, completion)

    def end_tick(self, now_s: float, tick_result: "EngineTickResult") -> None:
        for obs in self._observers:
            obs.end_tick(now_s, tick_result)

    def on_run_end(self, result: RunResult) -> None:
        for obs in self._observers:
            obs.on_run_end(result)

    def macro_horizon_s(self, now_s: float) -> float | None:
        """Aggregate horizon: the tightest member horizon, None if any
        member is macro-unaware (which disables span stepping)."""
        return self.attributed_macro_horizon_s(now_s)[0]

    def attributed_macro_horizon_s(
        self, now_s: float
    ) -> tuple[float | None, str]:
        """Aggregate horizon plus the ``macro_label`` of the member that
        set it, for span-cut attribution.  ``(None, label)`` identifies
        the first macro-unaware member."""
        horizon = float("inf")
        label = "observer"
        for obs in self._observers:
            h = obs.macro_horizon_s(now_s)
            if h is None:
                return None, obs.macro_label
            if h < horizon:
                horizon = h
                label = obs.macro_label
        return horizon, label
