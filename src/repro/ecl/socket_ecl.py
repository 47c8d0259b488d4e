"""The socket-level ECL: one control loop per processor (§5.1).

Runs periodically (default 1 Hz) and combines:

* the **utilization controller** — derives the demanded performance level
  from worker utilization;
* the **energy profile** — maps the level to the most energy-efficient
  configuration satisfying it;
* the **RTI controller** — realizes levels in the under-utilization zone
  by duty-cycling against idle;
* **profile maintenance** — online EWMA updates of whatever was applied,
  plus multiplexed re-evaluation slots after drift.

The loop is tick-driven: the simulation calls :meth:`SocketEcl.on_tick`
*before* each engine tick on which it is due (:meth:`SocketEcl.is_due`),
so configuration changes take effect for the upcoming tick and counter
reads observe everything up to the tick start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ControlError, ProfileError
from repro.hardware.machine import Machine
from repro.hardware.rapl import RaplDomain
from repro.profiles.configuration import Configuration, ConfigurationMeasurement
from repro.profiles.profile import EnergyProfile
from repro.profiles.zones import RulingZone, zone_for_level
from repro.ecl.adaptation import ProfileMaintainer
from repro.ecl.rti import RtiController, RtiPlan
from repro.ecl.utilization import UtilizationController
from repro.units import at_or_after

#: :meth:`SocketEcl.macro_horizon_s` refusal reasons whose acting tick
#: only opens a counter window: RNG draws, no machine mutation.
READ_ONLY_CUTS = frozenset({"window-open", "mux-window-open"})


@dataclass(frozen=True)
class EclParameters:
    """All tunables of the hierarchical ECL."""

    #: Socket-ECL period (1 Hz default; Fig. 13/14 also evaluate 2 Hz).
    interval_s: float = 1.0
    #: User-defined soft latency limit supervised by the system-level ECL.
    latency_limit_s: float = 0.1
    #: Configuration-apply settle time (meta calibration, Fig. 12).
    apply_time_s: float = 0.001
    #: Counter measurement window (meta calibration, Fig. 12).
    measure_time_s: float = 0.1
    #: Upper bound on the interval share spent in multiplexed slots.
    mux_fraction: float = 0.35
    #: EWMA weight of online profile updates.
    ewma_weight: float = 0.5
    #: Relative drift that triggers multiplexed re-evaluation.
    drift_threshold: float = 0.20
    #: Utilization above which demand discovery kicks in.
    full_threshold: float = 0.97
    #: Exponential discovery multipliers (relaxed / urgent).
    discovery_factor: float = 1.6
    urgent_discovery_factor: float = 2.6
    #: Race-to-idle on/off (ablation knob; the paper always runs with it).
    rti_enabled: bool = True
    #: RTI switching bounds ("up to 50 RTI cycles per 1 s interval").
    rti_max_cycles: int = 50
    rti_min_period_s: float = 0.02
    #: Compute overhead of the ECL itself: fraction of one hardware
    #: thread per socket (the paper measured ~2 %).
    overhead_thread_fraction: float = 0.02
    #: Profile maintenance strategy (the section 6.3 experiment):
    #: "static" (no adaptation), "online" (EWMA updates of applied
    #: configurations only), or "multiplexed" (online + stale-sweep).
    adaptation: str = "multiplexed"

    def __post_init__(self) -> None:
        if self.adaptation not in ("static", "online", "multiplexed"):
            raise ControlError(
                f"unknown adaptation mode {self.adaptation!r}"
            )
        if self.interval_s <= 0:
            raise ControlError(f"interval must be > 0, got {self.interval_s}")
        if not 0.0 <= self.mux_fraction < 0.9:
            raise ControlError(
                f"mux_fraction must be in [0, 0.9), got {self.mux_fraction}"
            )
        if self.measure_time_s <= 0 or self.apply_time_s <= 0:
            raise ControlError("apply/measure times must be > 0")


@dataclass
class _CounterWindow:
    """Open counter window: readings at the start of the window."""

    start_time_s: float
    start_package_j: float
    start_dram_j: float
    start_instructions: float


@dataclass
class _Accumulator:
    """Accumulated active-phase measurements within one interval."""

    energy_j: float = 0.0
    instructions: float = 0.0
    duration_s: float = 0.0

    def add(self, energy_j: float, instructions: float, duration_s: float) -> None:
        self.energy_j += energy_j
        self.instructions += instructions
        self.duration_s += duration_s


@dataclass
class _MuxSlot:
    """One in-flight multiplexed evaluation slot.

    Phases: *prepare* (idle to let backlog accumulate so the measured
    configuration will be saturated — the paper's "leverages the RTI
    controller to simulate high load situations"), then *settle*
    (configuration applied, counters not yet trusted), then *measure*.
    """

    configuration: Configuration
    prepare_until_s: float
    needed_backlog: float
    measure_from_s: float = 0.0
    measure_until_s: float = 0.0
    preparing: bool = True
    saturated_at_start: bool = False
    window: _CounterWindow | None = None


@dataclass
class SocketEclStatus:
    """Introspection snapshot for reports and the Fig. 11 bench."""

    time_s: float
    utilization: float
    performance_level: float
    zone: RulingZone | None
    plan_duty: float
    multiplexing: bool
    applied: str


class SocketLoopBank:
    """Due times and stand-down flags of a set of socket loops, as arrays
    over the socket axis.

    :class:`~repro.ecl.controller.EnergyControlLoop` finds the due loops
    of a tick, and charges the live ones their overhead, with one masked
    pass over these arrays — or with one comparison against
    :meth:`earliest_due_s` on the ticks where no loop is due; each
    :class:`SocketEcl` reads and writes its own slot through
    :meth:`set_due` and :meth:`set_active` (a private single-slot bank
    for a standalone loop).  Read the arrays; do not write them.
    """

    def __init__(self, count: int) -> None:
        #: Earliest time each loop's :meth:`SocketEcl.on_tick` may act.
        self.due_s = np.full(count, -np.inf)
        #: False while a loop stands down for its drained socket.
        self.active = np.ones(count, dtype=bool)
        #: Bumped on every stand-down change (cache key for callers).
        self.version = 0
        self._earliest: float | None = None

    def set_due(self, slot: int, due_s: float) -> None:
        self.due_s[slot] = due_s
        self._earliest = None

    def set_active(self, slot: int, active: bool) -> None:
        self.active[slot] = active
        self.version += 1
        self._earliest = None

    def earliest_due_s(self) -> float:
        """The smallest due time of the loops that have not stood down
        (``inf`` when every loop has), cached until a slot changes."""
        if self._earliest is None:
            self._earliest = float(
                self.due_s.min(initial=np.inf, where=self.active)
            )
        return self._earliest


class SocketEcl:
    """The per-socket control loop."""

    def __init__(
        self,
        machine: Machine,
        socket_id: int,
        profile: EnergyProfile,
        params: EclParameters,
        utilization_fn: Callable[[float], float],
        time_to_violation_fn: Callable[[], float],
        busy_fraction_fn: Callable[[float], float] | None = None,
        backlog_fn: Callable[[], float] | None = None,
        bank: SocketLoopBank | None = None,
        slot: int = 0,
    ):
        if profile.socket_id != socket_id:
            raise ControlError(
                f"profile is for socket {profile.socket_id}, not {socket_id}"
            )
        self.machine = machine
        self.socket_id = socket_id
        self.profile = profile
        self.params = params
        self.utilization_fn = utilization_fn
        self.time_to_violation_fn = time_to_violation_fn
        self.busy_fraction_fn = busy_fraction_fn or utilization_fn
        self.backlog_fn = backlog_fn or (lambda: 0.0)

        self.utilization_controller = UtilizationController(
            full_threshold=params.full_threshold,
            discovery_factor=params.discovery_factor,
            urgent_discovery_factor=params.urgent_discovery_factor,
        )
        self.rti_controller = RtiController(
            max_cycles_per_interval=params.rti_max_cycles,
            min_period_s=params.rti_min_period_s,
        )
        self.maintainer = ProfileMaintainer(
            profile,
            ewma_weight=params.ewma_weight,
            drift_threshold=params.drift_threshold,
            mark_stale_on_drift=params.adaptation == "multiplexed",
        )

        self._level = 0.0
        self._plan: RtiPlan | None = None
        self._applied: Configuration | None = None
        self._applied_at_s = -1.0
        self._next_interval_s = params.interval_s
        self._online_window: _CounterWindow | None = None
        self._online_acc = _Accumulator()
        self._mux_slot: _MuxSlot | None = None
        self._mux_budget_s = 0.0
        #: Failed saturation attempts per stale configuration.
        self._mux_attempts: dict[Configuration, int] = {}
        self.mux_max_attempts = 3
        self._last_utilization = 0.0
        self._last_zone: RulingZone | None = None
        #: This loop's slot of the due-time and stand-down arrays.
        self._bank = SocketLoopBank(1) if bank is None else bank
        self._slot = slot
        self.decisions = 0
        self.configuration_switches = 0
        self.mux_slots_started = 0
        #: Why :meth:`macro_horizon_s` last refused a span (telemetry).
        self.macro_cut: str = ""

    # -- counter plumbing -------------------------------------------------------

    def _read_counters(self) -> tuple[float, float, float]:
        """(package J, dram J, instructions) as visible right now."""
        package = self.machine.read_rapl(self.socket_id, RaplDomain.PACKAGE)
        dram = self.machine.read_rapl(self.socket_id, RaplDomain.DRAM)
        instr = self.machine.read_instructions(self.socket_id)
        return package.energy_j, dram.energy_j, instr.instructions

    def _open_window(self, now_s: float) -> _CounterWindow:
        pkg, dram, instr = self._read_counters()
        return _CounterWindow(
            start_time_s=now_s,
            start_package_j=pkg,
            start_dram_j=dram,
            start_instructions=instr,
        )

    def _close_window(
        self, window: _CounterWindow, now_s: float
    ) -> tuple[float, float, float]:
        """(energy J, instructions, duration s) since the window opened."""
        pkg, dram, instr = self._read_counters()
        energy = max(0.0, pkg - window.start_package_j) + max(
            0.0, dram - window.start_dram_j
        )
        instructions = max(0.0, instr - window.start_instructions)
        duration = now_s - window.start_time_s
        return energy, instructions, duration

    # -- configuration application -------------------------------------------------

    def _apply(self, configuration: Configuration, now_s: float) -> None:
        if self._applied == configuration:
            return
        # Close the online window before the hardware state changes.
        if self._online_window is not None:
            self._online_acc.add(*self._close_window(self._online_window, now_s))
            self._online_window = None
        configuration.apply(self.machine)
        self._applied = configuration
        self._applied_at_s = now_s
        self.configuration_switches += 1

    # -- interval decision ------------------------------------------------------------

    def _finish_online_measurement(self, now_s: float, busy_fraction: float) -> None:
        """Fold the interval's active-phase counters into the profile.

        Online measurements are only meaningful when the configuration was
        *saturated* while measured — instructions retired under partial
        demand underestimate the configuration's capacity and would look
        like workload drift.  A busy interval (utilization ≈ 1, which RTI
        active phases guarantee by construction: they run against backlog)
        is recorded unconditionally; an underutilized one only when the
        measurement does not undershoot the stored value (undershoot is
        then explained by missing demand, not by a workload change).
        """
        if self._plan is None:
            return
        if self._online_window is not None:
            self._online_acc.add(*self._close_window(self._online_window, now_s))
            self._online_window = None
        acc = self._online_acc
        self._online_acc = _Accumulator()
        if acc.duration_s < 0.5 * self.params.measure_time_s or acc.energy_j <= 0:
            return
        measurement = ConfigurationMeasurement(
            power_w=acc.energy_j / acc.duration_s,
            performance_score=acc.instructions / acc.duration_s,
            measured_at_s=now_s,
        )
        if self.params.adaptation == "static":
            return
        configuration = self._plan.active_configuration
        if busy_fraction < 0.50:
            # Mostly-idle interval: the counters say nothing about the
            # configuration's capacity; skip unless they show improvement.
            entry = self.profile.entry(configuration)
            if (
                entry.measurement is not None
                and measurement.performance_score
                < entry.measurement.performance_score
            ):
                return
        elif busy_fraction < 0.97:
            # Partially demand-bound: instructions/s undershoot capacity
            # by roughly the idle share of the busy time.  Correct the
            # first-order bias and fold the value in via EWMA, but do NOT
            # let it declare drift — only fully saturated intervals are
            # trustworthy enough to invalidate the whole profile.
            corrected = ConfigurationMeasurement(
                power_w=measurement.power_w,
                performance_score=measurement.performance_score / busy_fraction,
                measured_at_s=measurement.measured_at_s,
            )
            self.profile.record(
                configuration, corrected, blend_weight=self.params.ewma_weight
            )
            self.maintainer.online_updates += 1
            return
        if self.maintainer.record_online(configuration, measurement):
            self._mux_attempts.clear()  # new workload: retry everything

    def _decide(self, now_s: float) -> None:
        """The periodic socket-ECL decision (Fig. 11's per-second step)."""
        params = self.params
        utilization = self.utilization_fn(now_s)
        self._finish_online_measurement(now_s, self.busy_fraction_fn(now_s))
        self._last_utilization = utilization
        ttv = self.time_to_violation_fn()
        self.decisions += 1

        try:
            optimal = self.profile.most_efficient()
        except ProfileError:
            # Nothing evaluated yet: stay on the baseline configuration and
            # let the multiplexed sweep fill the profile.
            self._plan = None
            self._last_zone = None
            self._refill_mux_budget()
            return

        peak = self.profile.peak_performance()
        # The level tracks the *applied capability*: before the first plan
        # the baseline configuration (≈ peak performance) is in effect.
        current_capability = self._level if self._plan is not None else peak
        demand = self.utilization_controller.next_level(
            utilization, current_capability, ttv, params.interval_s
        )
        demand = min(demand, peak)
        zone = zone_for_level(self.profile, demand)
        self._last_zone = zone
        optimal_perf = optimal.measurement.performance_score

        if zone is RulingZone.UNDER_UTILIZATION:
            if params.rti_enabled:
                self._plan = self.rti_controller.plan(
                    demand_level=demand,
                    optimal_configuration=optimal.configuration,
                    optimal_performance=optimal_perf,
                    interval_s=params.interval_s,
                    time_to_violation_s=ttv,
                )
            else:
                self._plan = RtiPlan(
                    active_configuration=optimal.configuration,
                    duty=1.0,
                    period_s=params.interval_s,
                )
            self._level = self._plan.duty * optimal_perf
        elif zone is RulingZone.OPTIMAL:
            self._plan = RtiPlan(
                active_configuration=optimal.configuration,
                duty=1.0,
                period_s=params.interval_s,
            )
            self._level = optimal_perf
        else:  # over-utilization: cheapest configuration that satisfies
            entry = self.profile.best_for_performance(demand)
            self._plan = RtiPlan(
                active_configuration=entry.configuration,
                duty=1.0,
                period_s=params.interval_s,
            )
            self._level = entry.measurement.performance_score
        self._refill_mux_budget()

    def _refill_mux_budget(self) -> None:
        if self.params.adaptation != "multiplexed":
            self._mux_budget_s = 0.0
            return
        if self.maintainer.multiplexing_needed:
            self._mux_budget_s = self.params.mux_fraction * self.params.interval_s
        else:
            self._mux_budget_s = 0.0

    # -- multiplexed slots ------------------------------------------------------------

    def _estimated_capacity(self, configuration: Configuration) -> float:
        """Best guess of a configuration's throughput (for saturation)."""
        entry = self.profile.entry(configuration)
        if entry.measurement is not None:
            return entry.measurement.performance_score
        try:
            peak = self.profile.peak_performance()
        except ProfileError:
            return 0.0
        total_threads = self.machine.params_for(self.socket_id).threads_per_socket
        share = configuration.thread_count / max(1, total_threads)
        return peak * max(share, 0.05)

    def _maybe_start_mux_slot(self, now_s: float) -> None:
        if self._mux_slot is not None:
            return
        slot_cost = self.params.apply_time_s + self.params.measure_time_s
        if self._mux_budget_s < slot_cost:
            return
        configuration = self.maintainer.next_stale_configuration(
            relevance_level=self._level
        )
        while (
            configuration is not None
            and self._mux_attempts.get(configuration, 0) >= self.mux_max_attempts
        ):
            # Unmeasurable under the current load: keep the old value and
            # stop re-trying until the next drift event.
            self.profile.entry(configuration).stale = False
            configuration = self.maintainer.next_stale_configuration(
                relevance_level=self._level
            )
        if configuration is None:
            self._mux_budget_s = 0.0
            return
        # A valid measurement needs the configuration saturated throughout
        # the window; let backlog build up first ("simulate high load"),
        # but never longer than half the latency limit.
        needed = self._estimated_capacity(configuration) * (
            self.params.measure_time_s * 0.9
        )
        prepare_cap = min(
            0.25 * self.params.latency_limit_s, 0.25 * self.params.interval_s
        )
        self._mux_slot = _MuxSlot(
            configuration=configuration,
            prepare_until_s=now_s + prepare_cap,
            needed_backlog=needed,
        )
        self.mux_slots_started += 1
        self._mux_budget_s -= slot_cost
        if self.backlog_fn() < needed:
            self._apply(self.profile.idle_configuration, now_s)
        # else: _service_mux_slot starts the settle phase right away

    def _service_mux_slot(self, now_s: float) -> bool:
        """Advance an in-flight slot; True while the slot owns the socket."""
        slot = self._mux_slot
        if slot is None:
            return False
        if slot.preparing:
            backlog = self.backlog_fn()
            if (
                backlog < slot.needed_backlog
                and not at_or_after(now_s, slot.prepare_until_s)
            ):
                return True  # keep idling, backlog is still building
            slot.preparing = False
            slot.saturated_at_start = backlog >= slot.needed_backlog
            slot.measure_from_s = now_s + self.params.apply_time_s
            slot.measure_until_s = (
                now_s + self.params.apply_time_s + self.params.measure_time_s
            )
            self._apply(slot.configuration, now_s)
            return True
        if slot.window is None and at_or_after(now_s, slot.measure_from_s):
            slot.window = self._open_window(now_s)
        if at_or_after(now_s, slot.measure_until_s):
            saturated = slot.saturated_at_start and self.backlog_fn() > 0
            if slot.window is not None and saturated:
                energy, instructions, duration = self._close_window(
                    slot.window, now_s
                )
                if duration > 0 and energy > 0:
                    self.maintainer.record_multiplexed(
                        slot.configuration,
                        ConfigurationMeasurement(
                            power_w=energy / duration,
                            performance_score=instructions / duration,
                            measured_at_s=now_s,
                        ),
                    )
                    self._mux_attempts.pop(slot.configuration, None)
            else:
                attempts = self._mux_attempts.get(slot.configuration, 0) + 1
                self._mux_attempts[slot.configuration] = attempts
            self._mux_slot = None
            return False
        return True

    # -- main entry point ------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """Whether the socket is drained and this loop stands down: the
        placement layer drained it into package sleep, so the loop makes
        no decisions, reconfigures nothing and costs no overhead until
        the socket is re-populated."""
        return not self._bank.active[self._slot]

    @property
    def due_s(self) -> float:
        """Earliest time :meth:`on_tick` may act, recorded by each visit."""
        return float(self._bank.due_s[self._slot])

    @due_s.setter
    def due_s(self, value: float) -> None:
        self._bank.set_due(self._slot, value)

    def set_drained(self, drained: bool) -> None:
        """Stand the loop down (or resume it) for a drained socket.

        While drained, the consolidation layer owns the socket's hardware
        state (all threads parked, memory vacated, uncore halted); the
        loop must not fight it by re-applying configurations.  On resume
        the next :meth:`on_tick` re-applies the planned configuration:
        the wake set the socket's threads behind this loop's back, so
        the configuration it applied before the park is forgotten.
        """
        self._bank.set_active(self._slot, not drained)
        if not drained:
            self._applied = None
            self.due_s = float("-inf")

    def is_due(self, now_s: float) -> bool:
        """Whether :meth:`on_tick` may act at ``now_s``; before
        :attr:`due_s` a visit is a pure no-op."""
        return at_or_after(now_s, self.due_s)

    def on_tick(self, now_s: float) -> None:
        """Drive the loop; call before an engine tick on which it is due.

        Records :attr:`due_s`: the horizon of :meth:`macro_horizon_s`, or
        ``-inf`` (due next tick) when that is ``None`` or a multiplexed
        slot is preparing — it watches the backlog, which live ticks move.
        """
        if self.drained:
            return
        self._act(now_s)
        preparing = self._mux_slot is not None and self._mux_slot.preparing
        horizon = None if preparing else self.macro_horizon_s(now_s)
        self.due_s = float("-inf") if horizon is None else horizon

    def _act(self, now_s: float) -> None:
        if at_or_after(now_s, self._next_interval_s):
            self._next_interval_s += self.params.interval_s
            self._decide(now_s)

        if self._service_mux_slot(now_s):
            return
        self._maybe_start_mux_slot(now_s)
        if self._mux_slot is not None:
            return

        plan = self._plan
        if plan is None:
            return  # bootstrap phase: whatever is applied stays applied
        if plan.is_active_phase(now_s):
            target = plan.active_configuration
        else:
            target = self.profile.idle_configuration
        self._apply(target, now_s)
        if (
            target == plan.active_configuration
            and self._online_window is None
            # Counters are unreliable right after a reconfiguration: wait
            # out the calibrated apply-settle time before opening.
            and now_s - self._applied_at_s >= self.params.apply_time_s
        ):
            self._online_window = self._open_window(now_s)

    def macro_horizon_s(self, now_s: float) -> float | None:
        """Earliest future time at which :meth:`on_tick` may act.

        Every tick before it is a pure no-op for :meth:`on_tick` — no
        interval decision, reconfiguration, counter window, profile or
        measurement-noise activity — so a visit records it as
        :attr:`due_s`, and the macro-stepping runner skips ticks up to it.

        An in-flight multiplexed slot contributes each phase's end
        (prepare → settle → measure → close) as a horizon, so only its
        transition ticks run live.  During *prepare* the backlog is
        constant over a span (no arrivals, idle configuration), so the
        saturation check cannot flip mid-span; a saturated slot
        transitions on the very next tick and returns ``None``.

        ``None`` declares the loop busy: the next tick acts, and
        :attr:`macro_cut` records why — ``window-open`` and
        ``mux-window-open`` promise that the tick only opens a counter
        window (RNG draws, no machine change).  A drained loop returns
        from :meth:`on_tick` at once, hence the unbounded horizon.
        """
        if self.drained:
            return float("inf")
        horizon = self._next_interval_s
        slot = self._mux_slot
        if slot is not None:
            if slot.preparing:
                if self.backlog_fn() >= slot.needed_backlog:
                    self.macro_cut = "mux-saturated"
                    return None  # transitions to settle on the next tick
                return min(horizon, slot.prepare_until_s)
            if at_or_after(now_s, slot.measure_until_s):
                self.macro_cut = "mux-window-close"
                return None  # the counter window closes next tick
            if slot.window is None:
                if at_or_after(now_s, slot.measure_from_s):
                    self._cut_at_read("mux-window-open", now_s)
                    return None  # the counter window opens next tick
                return min(horizon, slot.measure_from_s)
            return min(horizon, slot.measure_until_s)
        slot_cost = self.params.apply_time_s + self.params.measure_time_s
        if self._mux_budget_s >= slot_cost:
            self.macro_cut = "mux-start"
            return None  # a new slot starts on the next tick
        plan = self._plan
        if plan is None:
            return horizon  # bootstrap: on_tick no-ops until the interval
        if plan.is_active_phase(now_s):
            target = plan.active_configuration
        else:
            target = self.profile.idle_configuration
        if self._applied != target:
            self.macro_cut = "reconfig"
            return None  # the very next tick reconfigures
        if plan.uses_rti:
            horizon = min(horizon, plan.next_phase_change_s(now_s))
        if (
            target == plan.active_configuration
            and self._online_window is None
        ):
            opens_at = self._applied_at_s + self.params.apply_time_s
            if now_s >= opens_at:
                self._cut_at_read("window-open", now_s)
                return None  # the online window opens on the next tick
            horizon = min(horizon, opens_at)
        return horizon

    def _cut_at_read(self, reason: str, now_s: float) -> None:
        # A decision due on the same tick may reconfigure: not a read.
        deciding = at_or_after(now_s, self._next_interval_s)
        self.macro_cut = "decide" if deciding else reason

    # -- introspection ---------------------------------------------------------------

    @property
    def performance_level(self) -> float:
        """The currently demanded performance level (instructions/s)."""
        return self._level

    @property
    def applied_configuration(self) -> Configuration | None:
        """The configuration currently applied by this loop."""
        return self._applied

    def capability_fraction(self) -> float:
        """Applied capability as a fraction of the socket's peak.

        The utilization the database runtime reports is demand relative
        to the capacity this loop currently *offers*, so a trimmed
        socket legitimately rides the controller's setpoint at any load.
        Multiplying by this fraction converts it into demand relative to
        the socket's full capacity — the signal a placement layer needs
        to tell genuine overload from the ECL merely running lean.
        Returns 1.0 before the profile holds any measurement (the
        baseline configuration is in effect, which is peak).
        """
        try:
            peak = self.profile.peak_performance()
        except ProfileError:
            return 1.0
        if peak <= 0.0:
            return 1.0
        capability = self._level if self._plan is not None else peak
        return min(1.0, capability / peak)

    def status(self, now_s: float) -> SocketEclStatus:
        """Snapshot for reports (Fig. 11 series)."""
        return SocketEclStatus(
            time_s=now_s,
            utilization=self._last_utilization,
            performance_level=self._level,
            zone=self._last_zone,
            plan_duty=self._plan.duty if self._plan else 1.0,
            multiplexing=self._mux_slot is not None
            or self.maintainer.multiplexing_needed,
            applied=self._applied.describe() if self._applied else "none",
        )
