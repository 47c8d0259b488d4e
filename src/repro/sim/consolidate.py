"""One consolidation controller for sockets and nodes.

The plain ECL can park every *worker* of a lightly loaded socket, but
the socket's uncore must keep clocking as long as remote sockets may
touch its memory (the Fig. 5 cross-socket dependency), and a node
draws its package floors as long as any socket of it is up.
:class:`ConsolidationController` reaches the deeper states by moving
data: it runs the full :class:`~repro.ecl.controller.EnergyControlLoop`
underneath and, on top of it, a placement planner
(:mod:`repro.placement`) over *units* — tuples of socket ids, one per
socket or one per node:

* on every ECL interval (after a two-interval cooldown once a wave was
  requested) it snapshots per-unit load and asks the planner for
  migrations; requests addressed to a unit go round-robin over its
  sockets, through the engine's quiesce → charged transfer → resume
  protocol;
* once a unit holds no partitions and owes no queued or buffered work,
  it is *parked*: query intake is redirected, every hardware thread
  parks, the socket-level ECL stands down, and the C-state model is
  told the memory is vacated — lifting the uncore dependency so the
  package falls into sleep;
* when the planner addresses a parked unit it is resumed (threads
  unparked, intake restored, loop resumed) and partitions migrate back.

Unit 0 is the anchor and never parks, so intake always has an online
target (on the ``mixed`` cluster preset it is the brawny node).

The three registry presets (:mod:`repro.sim.policy`) differ only in the
planner and in ``whole_nodes``, which decides only two things:

* a parked node unit also powers its node off, down to the residual
  wattage of its standby circuitry.  Waking it is asymmetric: the node
  boots first (modeled power-up latency at boot wattage), requests to
  it drop until it is live, and once the boot settles its sockets
  resume.  A resumed node is still empty until the next planning
  round, so it cannot park again for ``wake_hold_intervals`` planning
  intervals on the tick clock: a flag cleared by "the next replan that
  sees the node live" lets a flat near-setpoint load, momentarily
  below the spread threshold, park the node it just booted and cycle
  node power indefinitely;
* node units plan on demand relative to *full* capacity (the ECL
  utilization scaled by each socket loop's
  :meth:`~repro.ecl.socket_ecl.SocketEcl.capability_fraction`): the raw
  signal rides the ECL setpoint once the loop has trimmed capacity to
  match, which reads as permanent overload and wakes nodes the demand
  cannot fill.  Socket units keep the raw signal.

Macro protocol: spans and in-span replays are refused while a migration
is in flight, while a booted node awaits its socket resumes and while
a park is pending — each acts on its exact tick (:meth:`_busy`).  A
booting node does not pin the run live: the machine's event horizon
caps every span at the boot deadline, so the settle tick runs live
while the boot itself folds.  In-span replays still refuse while
booting, because the replay path does not consult that horizon.  The
planning check and the wake-hold expiries bound the span horizon.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.cluster import NodePowerState
from repro.placement import (
    ConsolidatePlacement,
    PlacementPolicy,
    PlacementView,
    SocketView,
    StaticPlacement,
)
from repro.sim.metrics import SampleAnnotations
from repro.units import at_or_after

if TYPE_CHECKING:
    import numpy as np

    from repro.dbms.engine import DatabaseEngine
    from repro.ecl.controller import EnergyControlLoop
    from repro.sim.runner import RunConfiguration


class ConsolidationController:
    """ECL + placement-driven parking of sockets or whole nodes."""

    def __init__(
        self,
        engine: "DatabaseEngine",
        inner: "EnergyControlLoop",
        planner: PlacementPolicy,
        whole_nodes: bool,
    ):
        self.engine = engine
        self.machine = machine = engine.machine
        self.inner = inner
        self.planner = planner
        self.whole_nodes = whole_nodes
        #: The planner's units; a unit's index is its ``socket_id`` in
        #: the :class:`PlacementView` (its node id for node units).
        self.units: tuple[tuple[int, ...], ...] = (
            tuple(machine.node_sockets(n) for n in range(machine.node_count))
            if whole_nodes
            else tuple((sid,) for sid in sorted(engine.hubs))
        )
        self.check_interval_s = inner.params.interval_s
        #: First check one full interval in, when utilization data exists.
        self._next_check_s = self.check_interval_s
        #: Planning pause after a migration wave, in check intervals: the
        #: transfer's lump cost saturates the utilization window, and
        #: planning against that transient oscillates (pack, panic-spread,
        #: pack again).  Two intervals lets the window forget the wave.
        self.cooldown_intervals = 2
        #: Planning intervals a resumed powered-off unit may not park.
        #: Eight give the planner several rounds to spread load onto it;
        #: if none does, the boot was mistaken and one deliberate park
        #: ends it (re-waking needs a fresh spread trigger).
        self.wake_hold_intervals = 8
        self._parked: set[int] = set()
        #: The parked units whose node is powered off or booting.
        self._powered_off: set[int] = set()
        #: Tick-clock time until which each resumed unit may not park.
        self._wake_hold_until: dict[int, float] = {}
        #: Node power version at the last reactivation scan (the scan
        #: only finds work when a node changed power state).
        self._seen_power_version = -1
        #: (completed migrations, :meth:`_empty_units`) at its last rebuild.
        self._empty_units_cache: tuple[int, tuple[int, ...]] = (-1, ())
        #: Why :meth:`macro_view` last refused a span (telemetry).
        self.macro_cut: str = ""

    @classmethod
    def build(
        cls, engine: "DatabaseEngine", config: "RunConfiguration"
    ) -> "ConsolidationController":
        """Control-policy factory for socket units: the run's placement
        plans them, or ``consolidate`` when that placement never moves
        data.  The node-unit presets live in :mod:`repro.sim.policy`."""
        # Imported lazily: repro.ecl.controller itself imports sim modules.
        from repro.ecl.controller import EnergyControlLoop

        planner = engine.placement
        if isinstance(planner, StaticPlacement):
            planner = ConsolidatePlacement()
        inner = EnergyControlLoop.build(engine, config)
        return cls(engine, inner, planner, whole_nodes=False)

    # -- introspection ------------------------------------------------------

    @property
    def drained_sockets(self) -> frozenset[int]:
        """Sockets currently parked."""
        return frozenset(
            sid for unit in self._parked for sid in self.units[unit]
        )

    @property
    def powered_off_nodes(self) -> frozenset[int]:
        """Nodes currently powered off."""
        return frozenset(
            node
            for node in range(self.machine.node_count)
            if self.machine.node_power_state(node) is NodePowerState.OFF
        )

    # -- main loop ----------------------------------------------------------

    def on_tick(self, now_s: float, dt_s: float) -> None:
        """Inner ECL, resumes of booted nodes, planning, then parks."""
        # A boot deadline may have elapsed during the preceding hardware
        # steps; fold it in before any decision looks at node states.
        self.machine.settle_node_power()
        self.inner.on_tick(now_s, dt_s)
        self._complete_wakes(now_s)
        if at_or_after(now_s, self._next_check_s):
            self._next_check_s += self.check_interval_s
            self._replan(now_s)
        self._settle(now_s)

    def annotate_sample(self) -> SampleAnnotations:
        return self.inner.annotate_sample()

    def macro_view(
        self, now_s: float, dt_s: float
    ) -> tuple[float, np.ndarray] | None:
        """Steady-state view for the macro-stepping runner: the inner
        ECL's, tightened by the next planning check and the earliest
        wake-hold expiry (a held unit may park the moment its hold
        lapses, on the same tick as per-tick mode)."""
        cut = self._busy(now_s)
        if cut:
            self.macro_cut = cut
            return None
        view = self.inner.macro_view(now_s, dt_s)
        if view is None:
            self.macro_cut = self.inner.macro_cut
            return None
        horizon, charges = view
        horizon = min(horizon, self._next_check_s)
        for hold in self._wake_hold_until.values():
            if not at_or_after(now_s, hold):
                horizon = min(horizon, hold)
        return horizon, charges

    def macro_step_tick(self, now_s: float, dt_s: float) -> bool:
        """Replay one hardware-inert control tick inside a macro span.

        Refuses a booting node, a due planning check (it replans and
        migrates) and what :meth:`macro_view` refuses; otherwise the
        inner ECL's replay decides.
        """
        if (
            self.machine.booting_node_count
            or at_or_after(now_s, self._next_check_s)
            or self._busy(now_s)
        ):
            return False
        return self.inner.macro_step_tick(now_s, dt_s)

    def macro_replay(self, start_s: float, dt_s: float, n_ticks: int) -> None:
        """Forward the inner ECL's system-check replay (the planning
        check itself bounds the horizon, so it never fires in-span)."""
        self.inner.macro_replay(start_s, dt_s, n_ticks)

    def _busy(self, now_s: float) -> str:
        """Why the next tick must run live (``""`` when it need not).

        Within a span no messages move and no partitions migrate, so
        none of these can *arise* on a skipped tick; they are left over
        from the last live tick (a migration wave landing in its engine
        phase can make a unit parkable).
        """
        if self.engine.migrations.active_count:
            return "migration"
        if self._reactivation_pending():
            return "node-power"
        if self._parkable_unit(now_s) is not None:
            return "drain"
        return ""

    # -- planning -----------------------------------------------------------

    def _view(self, now_s: float) -> PlacementView:
        """Each unit as one :class:`SocketView`: its partitions, summed
        backlog and mean utilization."""
        engine = self.engine
        views = []
        for unit, sids in enumerate(self.units):
            partition_ids: list[int] = []
            pending = 0.0
            utilization = 0.0
            for sid in sids:
                partition_ids.extend(
                    p.partition_id
                    for p in engine.partitions.partitions_on_socket(sid)
                )
                pending += engine.hubs[sid].pending_cost_instructions()
                measured = engine.utilization.utilization(sid, now_s)
                if self.whole_nodes:
                    measured *= self.inner.sockets[sid].capability_fraction()
                utilization += measured
            views.append(
                SocketView(
                    socket_id=unit,
                    partition_ids=tuple(partition_ids),
                    utilization=utilization / len(sids),
                    pending_instructions=pending,
                    active=unit not in self._parked,
                )
            )
        return PlacementView(time_s=now_s, sockets=tuple(views))

    def _replan(self, now_s: float) -> None:
        if self.engine.migrations.active_count:
            return  # let the current wave land before planning the next
        requested = False
        # Per-unit round-robin cursor: a drained unit's partitions spread
        # evenly over each receiver's sockets.
        cursor: dict[int, int] = {}
        for request in self.planner.plan(self._view(now_s)):
            unit = request.target_socket
            if unit in self._powered_off:
                # Boot first; the next round re-plans against the node
                # once it is live.
                if self._unit_power(unit) is NodePowerState.OFF:
                    self.machine.power_on_node(self._unit_node(unit))
                requested = True
                continue
            if unit in self._parked:
                self._resume(unit)
            sids = self.units[unit]
            index = cursor.get(unit, 0)
            cursor[unit] = index + 1
            record = self.engine.request_migration(
                request.partition_id, sids[index % len(sids)]
            )
            if record is not None:
                requested = True
        if requested:
            self._next_check_s = (
                now_s + self.cooldown_intervals * self.check_interval_s
            )

    # -- park / resume ------------------------------------------------------

    def _unit_node(self, unit: int) -> int:
        return self.machine.node_of_socket(self.units[unit][0])

    def _unit_power(self, unit: int) -> NodePowerState:
        return self.machine.node_power_state(self._unit_node(unit))

    def _empty_units(self) -> tuple[int, ...]:
        """Non-anchor units that hold no partition, rebuilt only when a
        migration has completed (placement changes only then)."""
        completed = len(self.engine.migrations.log)
        if self._empty_units_cache[0] != completed:
            hubs = self.engine.hubs
            empty = tuple(
                unit
                for unit in range(1, len(self.units))
                if not any(hubs[sid].partition_ids for sid in self.units[unit])
            )
            self._empty_units_cache = (completed, empty)
        return self._empty_units_cache[1]

    def _parkable_unit(self, now_s: float) -> int | None:
        """First empty unit that owes no work and awaits its park."""
        hubs = self.engine.hubs
        router = self.engine.router
        for unit in self._empty_units():
            if unit in self._parked:
                continue
            if not at_or_after(now_s, self._wake_hold_until.get(unit, 0.0)):
                continue  # just resumed: give the planner time to load it
            if all(
                not hubs[sid].pending_messages
                and not router.buffered_from(sid)
                for sid in self.units[unit]
            ):
                return unit
        return None

    def _settle(self, now_s: float) -> None:
        """Park the units that have finished draining."""
        if self.engine.migrations.active_count:
            return
        while (unit := self._parkable_unit(now_s)) is not None:
            self._park(unit)

    def _park(self, unit: int) -> None:
        for sid in self.units[unit]:
            self.inner.sockets[sid].set_drained(True)
            self.engine.set_socket_online(sid, False)
            self.machine.apply_socket_threads(sid, ())
            self.machine.cstates.set_memory_vacated(sid, True)
        self._parked.add(unit)
        if self.whole_nodes:
            self.machine.power_off_node(self._unit_node(unit))
            self._powered_off.add(unit)

    def _resume(self, unit: int) -> None:
        for sid in self.units[unit]:
            self.machine.cstates.set_memory_vacated(sid, False)
            socket = self.machine.topology.socket(sid)
            # Full wake; the resumed socket-level loop trims from here.
            self.machine.apply_socket_threads(sid, set(socket.thread_ids()))
            self.engine.set_socket_online(sid, True)
            self.inner.sockets[sid].set_drained(False)
        self._parked.discard(unit)
        self._powered_off.discard(unit)

    def _reactivation_pending(self) -> bool:
        """A powered-off unit whose node is on again awaits its resume.

        Only a node power change since the last reactivation scan can
        leave one waiting; this is probed on every macro attempt.
        """
        if (
            not self._powered_off
            or self.machine.node_power_version == self._seen_power_version
        ):
            return False
        return any(
            self._unit_power(unit) is NodePowerState.ON
            for unit in self._powered_off
        )

    def _complete_wakes(self, now_s: float) -> None:
        """Resume the powered-off units whose node has finished booting.

        Each resume starts the unit's wake hold, anchored to *this*
        tick's clock so the per-tick and macro paths (which settle boots
        on the same tick) compute the same expiry.
        """
        if not self._powered_off:
            return
        version = self.machine.node_power_version
        if version == self._seen_power_version:
            return  # no node changed power state since the last scan
        self._seen_power_version = version
        for unit in sorted(self._powered_off):
            if self._unit_power(unit) is NodePowerState.ON:
                self._resume(unit)
                self._wake_hold_until[unit] = (
                    now_s + self.wake_hold_intervals * self.check_interval_s
                )
