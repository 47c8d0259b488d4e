"""The end-to-end simulation runner (paper §6 experiment harness).

One :class:`SimulationRunner` executes a (workload, load profile,
policy) triple on a fresh machine + engine and returns a
:class:`~repro.sim.metrics.RunResult`.  Each tick advances through an
explicit phased pipeline mirroring the real system::

    arrivals -> control -> engine step -> completions -> sampling

The control policy is resolved by name through the registry in
:mod:`repro.sim.policy`; instrumentation and scripted events (the
periodic sampler, the §6.3 workload switch, user-supplied tracing)
attach to the pipeline as :mod:`~repro.sim.observers` rather than
special cases inside the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.dbms.config import EngineConfig
from repro.dbms.engine import DatabaseEngine, EngineTickResult
from repro.dbms.querybank import QueryBank
from repro.ecl.socket_ecl import EclParameters
from repro.environment import Environment, EnvironmentAccounting
from repro.placement import DEFAULT_PLACEMENT, validate_placement_name
from repro.hardware.cluster import ClusterSpec
from repro.hardware.machine import Machine
from repro.hardware.presets import HaswellEPParameters
from repro.loadprofiles.base import LoadProfile
from repro.profiles.generator import GeneratorParameters
from repro.sim.clock import TickClock, span_ticks_until
from repro.sim.loadgen import LoadGenerator
from repro.sim.macro import SpanCutStats
from repro.sim.metrics import RunResult
from repro.sim.observers import (
    ObserverList,
    RunObserver,
    SamplingObserver,
    WorkloadSwitchObserver,
)
from repro.sim.policy import DEFAULT_POLICY, ControlPolicy, build_policy, validate_policy_name
from repro.units import at_or_after
from repro.workloads.base import Workload


@dataclass
class RunConfiguration:
    """Everything needed to run one experiment."""

    workload: Workload
    profile: LoadProfile
    #: Registered policy name (see ``repro.sim.policy.registered_policies``).
    policy: str = DEFAULT_POLICY
    #: Registered placement name (see
    #: ``repro.placement.registered_placements``).  The default,
    #: ``static``, reproduces the historical round-robin bit-for-bit.
    placement: str = DEFAULT_PLACEMENT
    #: Runtime cost-model knobs; defaults match the historical constants.
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    tick_s: float = 0.002
    sample_every_s: float = 0.25
    seed: int = 0
    ecl_params: EclParameters = field(default_factory=EclParameters)
    generator_params: GeneratorParameters = field(
        default_factory=GeneratorParameters
    )
    machine_params: HaswellEPParameters | None = None
    #: Multi-node fleet description; ``None`` (the default) builds the
    #: historical single-node machine bit-for-bit.  Mutually exclusive
    #: with ``machine_params`` (the cluster's node specs carry their own
    #: hardware parameters).
    cluster: ClusterSpec | None = None
    #: Exogenous run conditions (grid carbon intensity, electricity
    #: price, facility PUE).  ``None`` (the default) disables all
    #: environment accounting and span capping — results are
    #: bit-identical to a build without the environment layer.
    environment: Environment | None = None
    #: Fill the ECL's profiles from the analytical model at t=0 instead of
    #: simulating the initial multiplexed sweep.
    warm_start: bool = True
    poisson_arrivals: bool = False
    #: Optional workload switch: at ``switch_at_s`` the load generator and
    #: the engine's declared characteristics flip to ``switch_workload``
    #: (the section 6.3 profile-adaptation experiment).
    switch_at_s: float | None = None
    switch_workload: Workload | None = None
    #: LRU size of the machine's step-resolution cache; ``0`` disables
    #: memoization (the exact uncached path, for A/B validation).
    step_cache_size: int = 1024
    #: Macro-stepping: when the next event horizon (arrival, control or
    #: sampling deadline, EET dwell expiry, migration) is more than one
    #: tick away and the system is in steady state, the runner advances
    #: machine, counters, and engine clocks over the whole span in one
    #: call — bit-identical to ticking through it (the ``--no-macro-step``
    #: CLI flag and this field are the kill switch).
    macro_step: bool = True

    def __post_init__(self) -> None:
        validate_policy_name(self.policy)
        validate_placement_name(self.placement)
        if self.tick_s <= 0 or self.sample_every_s <= 0:
            raise SimulationError("tick and sample periods must be > 0")
        if (self.switch_at_s is None) != (self.switch_workload is None):
            raise SimulationError(
                "switch_at_s and switch_workload must be given together"
            )
        if self.cluster is not None and self.machine_params is not None:
            raise SimulationError(
                "machine_params and cluster are mutually exclusive: the "
                "cluster's node specs carry their own hardware parameters"
            )


class SimulationRunner:
    """Runs one experiment configuration.

    Args:
        config: the experiment to execute.
        observers: extra :class:`~repro.sim.observers.RunObserver`
            instances hooked into the tick pipeline, after the built-in
            sampling / workload-switch observers.
    """

    def __init__(
        self,
        config: RunConfiguration,
        observers: list[RunObserver] | None = None,
    ):
        self.config = config
        self.machine = Machine(
            params=config.machine_params,
            seed=config.seed,
            step_cache_size=config.step_cache_size,
            cluster=config.cluster,
        )
        self.engine = DatabaseEngine(
            self.machine,
            utilization_window_s=config.ecl_params.interval_s,
            placement=config.placement,
            engine_config=config.engine_config,
        )
        self.engine.set_workload_characteristics(
            config.workload.characteristics
        )
        self.loadgen = LoadGenerator(
            config.workload,
            config.profile,
            self.engine.partitions,
            seed=config.seed + 1,
            poisson=config.poisson_arrivals,
            use_banks=config.engine_config.vector_messages,
        )
        self.policy: ControlPolicy = build_policy(
            config.policy, self.engine, config
        )
        self.extra_observers: list[RunObserver] = list(observers or [])
        #: Macro-step telemetry of the most recent :meth:`run` (committed
        #: spans and the ticks they covered; diagnostic only — never part
        #: of the :class:`RunResult`).
        self.macro_spans = 0
        self.macro_ticks_skipped = 0
        #: Span-cut attribution of the most recent :meth:`run`: which
        #: component bounded each span attempt, and how long the
        #: committed spans were (see :mod:`repro.sim.macro`).
        self.span_cuts = SpanCutStats()
        #: Carbon/cost accumulator of the run in flight; ``None`` when no
        #: environment is attached (set up by :meth:`run`).
        self.environment_accounting: EnvironmentAccounting | None = None

    def add_observer(self, observer: RunObserver) -> None:
        """Attach one more observer before :meth:`run` is called."""
        self.extra_observers.append(observer)

    def _built_in_observers(self) -> list[RunObserver]:
        config = self.config
        built_in: list[RunObserver] = []
        if config.switch_at_s is not None:
            assert config.switch_workload is not None
            built_in.append(
                WorkloadSwitchObserver(
                    config.switch_at_s, config.switch_workload
                )
            )
        built_in.append(SamplingObserver(config.sample_every_s))
        return built_in

    def run(self, duration_s: float | None = None) -> RunResult:
        """Execute the experiment and collect metrics."""
        config = self.config
        if duration_s is None:
            duration_s = config.profile.duration_s
        clock = TickClock(tick_s=config.tick_s, duration_s=duration_s)
        result = RunResult(
            policy=config.policy,
            workload_name=config.workload.full_name,
            profile_name=config.profile.name,
            # Energy accrues over the realized tick grid, so all time
            # averages must divide by it — not by the requested length,
            # which a non-divisible duration/tick ratio never reaches.
            duration_s=clock.realized_duration_s,
            requested_duration_s=duration_s,
            latency_limit_s=config.ecl_params.latency_limit_s,
        )
        observers = ObserverList(
            self._built_in_observers() + self.extra_observers
        )
        observers.on_run_start(self, result)

        tick = config.tick_s
        energy_before = self.machine.true_total_energy_j()
        environment = config.environment
        accounting = (
            EnvironmentAccounting(environment)
            if environment is not None
            else None
        )
        self.environment_accounting = accounting
        macro_view = None
        unaware = ""  # span-cut label of a policy without macro_view
        if config.macro_step:
            macro_view = getattr(self.policy, "macro_view", None)
            if macro_view is None:
                unaware = f"policy:{type(self.policy).__name__}"
        self.macro_spans = 0
        self.macro_ticks_skipped = 0
        self.span_cuts = SpanCutStats()
        total_ticks = clock.tick_count
        ticks_done = 0
        while ticks_done < total_ticks:
            now = self.machine.time_s
            self._phase_arrivals(now, tick, result, observers)
            self._phase_control(now, tick, observers)
            tick_result = self._phase_engine_step(now, tick, observers)
            self._phase_completions(now, tick_result, result, observers)
            self._phase_sampling(now, tick_result, observers)
            if accounting is not None:
                accounting.account_tick(
                    now, tick, tick_result.step.psu_power_w
                )
            ticks_done += 1
            if macro_view is None:
                if unaware:
                    self.span_cuts.record_refusal(unaware)
                continue
            ticks_done += self._try_macro_span(
                tick, total_ticks - ticks_done, macro_view, observers
            )

        result.total_energy_j = (
            self.machine.true_total_energy_j() - energy_before
        )
        if accounting is not None:
            result.environment_name = environment.name
            result.wall_energy_j = accounting.wall_energy_j
            result.gco2_total_g = accounting.gco2_total_g
            result.cost_usd = accounting.cost_usd
        observers.on_run_end(result)
        return result

    def _try_macro_span(
        self,
        tick_s: float,
        ticks_remaining: int,
        macro_view,
        observers: ObserverList,
    ) -> int:
        """Attempt one composite steady-state span after a live tick.

        A composite span is a sequence of *segments* separated by
        replayed control ticks.  Each iteration computes the event
        horizon — the policy's own view (which also yields the per-tick
        overhead charges it would have applied), the observers'
        deadlines, and the machine's next internal event — sized down to
        one tick short of the earliest of them, clamps the segment to
        the pre-drawn zero-arrival run, and hands it to the engine,
        whose validity fold shrinks or rejects it if any socket is not
        in steady state.  When the policy instead declares the very next
        tick busy, the executor asks it to *replay* that control tick in
        place (``macro_step_tick``): hardware-inert actions — deadline
        re-checks, counter-window opens — run at the exact tick time
        with the exact RNG draw order, and the span continues across
        them instead of dropping to per-tick mode.  Only ticks that
        mutate hardware state (reconfigurations, RTI flips, interval
        decisions) still run live.

        A segment may also commit a single *straggler* tick right before
        a deadline when every component's own epsilon predicate shows it
        inert (``not at_or_after(now, horizon)``), so only the acting
        tick runs live, not its inert predecessor.

        Returns the total ticks skipped; the whole composite counts as
        one span, attributed to the component that finally cut it in
        :attr:`span_cuts` (see :mod:`repro.sim.macro`).
        """
        cuts = self.span_cuts
        machine = self.machine
        policy = self.policy
        environment = self.config.environment
        accounting = self.environment_accounting
        macro_replay = getattr(policy, "macro_replay", None)
        macro_step_tick = getattr(policy, "macro_step_tick", None)
        inf = float("inf")
        total = 0
        replays = 0
        binding = "run-end"
        reason = ""
        replayed_at_s = None
        while ticks_remaining - total >= 1:
            remaining = ticks_remaining - total
            now = machine.time_s
            # Exogenous-signal changes cap spans like boot deadlines do:
            # accounting folds exactly either way (signals are evaluated
            # on the span's full tick grid), but the change itself must
            # land on a live tick so policy scalar reads and trace
            # events see it at its exact time.
            env_horizon_s = (
                environment.next_change_s(now)
                if environment is not None
                else inf
            )
            view = macro_view(now, tick_s)
            if view is None:
                binding = "policy"
                reason = getattr(policy, "macro_cut", "")
                # The next tick acts — but if the action is hardware-
                # inert it can replay here, at its exact time, provided
                # nothing else touches that tick first: no arrivals and
                # no observer due at ``now`` (observers may mutate state
                # *before* the control phase).  The same-time guard
                # breaks a pathological replay that fails to clear the
                # policy's own busy condition.
                if (
                    macro_step_tick is not None
                    and now != replayed_at_s
                    and self.loadgen.zero_arrival_run(now, tick_s, 1) >= 1
                ):
                    obs_h, _ = observers.attributed_macro_horizon_s(now)
                    if (
                        obs_h is not None
                        and not at_or_after(now, obs_h)
                        and not at_or_after(now, env_horizon_s)
                        and macro_step_tick(now, tick_s)
                    ):
                        replayed_at_s = now
                        replays += 1
                        cuts.record_replay(reason)
                        continue
                break
            reason = ""
            policy_horizon_s, tick_charges = view
            observer_horizon_s, observer_label = (
                observers.attributed_macro_horizon_s(now)
            )
            if observer_horizon_s is None:
                binding = observer_label
                break
            machine_horizon_s = machine.next_internal_event_s()
            horizon_s = min(
                policy_horizon_s,
                observer_horizon_s,
                machine_horizon_s,
                env_horizon_s,
            )
            if horizon_s == policy_horizon_s:
                binding = "policy"
            elif horizon_s == observer_horizon_s:
                binding = observer_label
            elif horizon_s == machine_horizon_s:
                binding = "machine"
            else:
                binding = "environment"
            # Interior segments commit even a single tick — it extends an
            # ongoing composite and replaces a live tick with one folded
            # engine call.  The same goes for fresh attempts of replay-
            # capable policies, whose composites usually continue through
            # the acting tick.  A plain policy's fresh attempt keeps the
            # 2-tick floor: nothing continues after the deadline, and a
            # lone 1-tick span costs about as much machinery as the live
            # tick it would replace.
            min_ticks = (
                1 if (total or replays or macro_step_tick is not None) else 2
            )
            if horizon_s == inf:
                n = remaining
                binding = "run-end"
            else:
                n = span_ticks_until(now, horizon_s, tick_s)
                if n >= remaining:
                    n = remaining
                    binding = "run-end"
                elif n < 1:
                    # Straggler tick right before a deadline: commit it
                    # alone if nothing fires *at* ``now`` by each
                    # component's own predicate.  The machine horizon
                    # (turbo dwell) has no epsilon predicate of its own,
                    # so stay a conservative full tick short of it.
                    if (
                        at_or_after(now, policy_horizon_s)
                        or at_or_after(now, observer_horizon_s)
                        or at_or_after(now, env_horizon_s)
                        or (
                            machine_horizon_s != inf
                            and span_ticks_until(
                                now, machine_horizon_s, tick_s
                            )
                            < 1
                        )
                    ):
                        break
                    n = 1
                if n < min_ticks:
                    break
            arrivals_clear = self.loadgen.zero_arrival_run(now, tick_s, n)
            if arrivals_clear < n:
                n = arrivals_clear
                binding = "loadgen"
                if n < min_ticks:
                    break
            advanced = self.engine.span_tick(
                tick_s, n, tick_charges, min_ticks=min_ticks
            )
            if advanced:
                # Fold the policy's own periodic activity (the system-
                # level latency check) over the exact tick times just
                # skipped.
                if macro_replay is not None:
                    macro_replay(now, tick_s, advanced)
                if accounting is not None:
                    # PSU power is constant across a committed span (the
                    # engine's steady-state validity fold), so the span
                    # charge folds the same per-tick increments the live
                    # loop would have.
                    accounting.account_span(
                        now, tick_s, advanced, machine.last_step.psu_power_w
                    )
                total += advanced
            if advanced < n:
                binding = "engine"
                break
        if total:
            self.macro_spans += 1
            self.macro_ticks_skipped += total
            cuts.record_span(total, binding)
        else:
            cuts.record_refusal(binding, reason)
        return total

    def span_cut_stats(self) -> dict:
        """JSON-ready span-cut attribution of the most recent run."""
        return self.span_cuts.as_dict(
            self.macro_spans, self.macro_ticks_skipped
        )

    # -- pipeline phases ------------------------------------------------------

    def _phase_arrivals(
        self,
        now_s: float,
        dt_s: float,
        result: RunResult,
        observers: ObserverList,
    ) -> None:
        """Phase 1: scripted events, then enqueue this tick's arrivals."""
        observers.before_arrivals(now_s, dt_s)
        batch = self.loadgen.arrivals(now_s, dt_s)
        if isinstance(batch, QueryBank):
            self.engine.submit_bank(batch)
            result.queries_submitted += batch.count
            if observers.wants_arrivals:
                for view in batch.query_views():
                    observers.on_arrival(now_s, view)
        else:
            for query in batch:
                self.engine.submit(query)
                result.queries_submitted += 1
                observers.on_arrival(now_s, query)

    def _phase_control(
        self, now_s: float, dt_s: float, observers: ObserverList
    ) -> None:
        """Phase 2: the policy reconfigures hardware for the tick."""
        self.policy.on_tick(now_s, dt_s)
        observers.after_control(now_s, dt_s)

    def _phase_engine_step(
        self, now_s: float, dt_s: float, observers: ObserverList
    ) -> EngineTickResult:
        """Phase 3: runtime and hardware advance together."""
        tick_result = self.engine.tick(dt_s)
        observers.after_step(now_s, tick_result)
        return tick_result

    def _phase_completions(
        self,
        now_s: float,
        tick_result: EngineTickResult,
        result: RunResult,
        observers: ObserverList,
    ) -> None:
        """Phase 4: account for every query that finished this tick."""
        for completion in tick_result.completions:
            result.queries_completed += 1
            result.latencies_s.append(completion.latency_s)
            observers.on_completion(now_s, completion)

    def _phase_sampling(
        self,
        now_s: float,
        tick_result: EngineTickResult,
        observers: ObserverList,
    ) -> None:
        """Phase 5: periodic sampling and end-of-tick instrumentation."""
        observers.end_tick(now_s, tick_result)


def run_experiment(config: RunConfiguration, duration_s: float | None = None) -> RunResult:
    """Convenience wrapper: build a runner and run it."""
    return SimulationRunner(config).run(duration_s)
