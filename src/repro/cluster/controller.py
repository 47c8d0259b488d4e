"""The ``ecl-cluster`` policy: per-node ECL plus whole-node power-off.

``ecl-consolidate`` showed the single-machine endgame: drain a socket's
partitions away and the package falls into sleep.  On a cluster the same
move goes one step further — once *every* socket of a node is drained,
the node itself can be powered off, dropping it to the residual wattage
of its standby circuitry instead of the sum of its package-sleep floors.
This controller composes three layers:

* the full :class:`~repro.ecl.controller.EnergyControlLoop` runs
  underneath, one socket-level loop per socket across all nodes, exactly
  as on a single machine;
* a :class:`~repro.placement.policy.ConsolidatePlacement` planner runs
  at **node granularity**: each node is presented as one aggregate
  "socket" (mean utilization, summed backlog, union of partitions), so
  its pack plan drains the highest-numbered node first — socket ids are
  node-major, so this empties whole nodes, never stripes across them —
  and its spread plan targets the first empty node when load spikes.
  Node utilization is demand relative to **full** capacity (the ECL
  utilization scaled by each socket loop's applied-capability
  fraction): the raw signal rides the ECL setpoint at any load once the
  loop has trimmed capacity to match, which would read as permanent
  overload and wake nodes the demand cannot fill;
* node-level migration requests are translated to concrete sockets
  (round-robin over the target node's sockets) and executed through the
  engine's quiesce → transfer → resume migration protocol, paying the
  inter-node network cost for every byte that crosses a node boundary.

Draining a node parks each of its sockets the way ``ecl-consolidate``
does (intake redirected, threads parked, socket loop stood down, memory
vacated) and then calls :meth:`~repro.hardware.machine.Machine.
power_off_node`.  Waking is asymmetric: a powered-off node must first
boot (:meth:`power_on_node`, modeled power-up latency at boot wattage)
before its sockets can be reactivated and partitions migrated back, so a
wake spans several control ticks — power-on, boot settle, socket
reactivation, then the next planning round's spread migrations.  A
freshly reactivated node is still empty until that round runs, so it is
protected from re-parking by a time-based cooldown: for
``wake_hold_intervals`` planning intervals after reactivation the node
cannot be parked, giving the planner several rounds to either populate
it (the load that woke it is still there) or let the hold lapse and
park it once, deliberately.  A flag cleared by "the next replan that
sees the node live" is not enough — under a flat near-setpoint load
that replan may momentarily read below the spread threshold, park the
still-empty node it just booted, and cycle node power indefinitely.

Node 0 is the anchor: it is never drained, so the cluster always has an
online intake path (and on the ``mixed`` preset the anchor is the brawny
node, matching the wimpy/brawny deployment the preset models).

Macro protocol: spans are refused while migrations are in flight, while
a woken node awaits socket reactivation, and while a drained node awaits
its power-off — those advance state tick-by-tick.  A *booting* node does
not pin the run live: the machine's own event horizon
(:meth:`~repro.hardware.machine.Machine.next_internal_event_s`) caps
every span at the boot deadline, so the settle tick itself runs live at
exactly the tick the per-tick path would settle on, while the ~1000
ticks of a 2 s boot fold like any other steady state.  In-span *replays*
(:meth:`macro_step_tick`) still refuse while booting — the replay path
does not consult the machine horizon, so replaying a control tick that
coincides with the boot deadline would settle the node a tick late.
Wake-hold expiries bound the horizon the same way the planning check
does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.cluster import NodePowerState
from repro.placement import (
    ConsolidatePlacement,
    MigrationRequest,
    PlacementView,
    SocketView,
)
from repro.sim.metrics import SampleAnnotations

if TYPE_CHECKING:
    from repro.dbms.engine import DatabaseEngine
    from repro.ecl.controller import EnergyControlLoop
    from repro.sim.runner import RunConfiguration


#: The anchor node: never drained, so intake always has a live target.
ANCHOR_NODE = 0


class ClusterController:
    """ECL everywhere + node-granular consolidation and power-off."""

    def __init__(
        self,
        engine: "DatabaseEngine",
        inner: "EnergyControlLoop",
        planner: ConsolidatePlacement | None = None,
        check_interval_s: float | None = None,
    ):
        self.engine = engine
        self.machine = engine.machine
        self.inner = inner
        #: Node-granularity planner.  Always consolidate-shaped: packing
        #: onto few nodes is the point; the run's socket-level placement
        #: still governs the initial assignment.
        self.planner = planner or ConsolidatePlacement()
        self.check_interval_s = check_interval_s or inner.params.interval_s
        #: First check one full interval in, when utilization data exists.
        self._next_check_s = self.check_interval_s
        #: Same post-migration planning pause as ``ecl-consolidate``.
        self.cooldown_intervals = 2
        #: Sockets currently parked because their node is drained.
        self._drained: set[int] = set()
        #: Planning intervals a freshly woken node is protected from
        #: re-parking.  Time-based — measured on the tick clock from the
        #: moment the node's sockets reactivate — so the protection
        #: cannot be consumed by a single below-threshold utilization
        #: reading the way a seen-live flag could.  Eight intervals give
        #: the planner several rounds to spread load onto the node; if
        #: none does, the boot was mistaken and one deliberate park ends
        #: it (no oscillation: re-waking needs a fresh spread trigger).
        self.wake_hold_intervals = 8
        #: Tick-clock time until which each woken node may not be parked.
        self._wake_hold_until: dict[int, float] = {}
        #: Node power version at the last wake-completion scan (the scan
        #: only finds work when a node changed power state).
        self._seen_power_version = -1
        #: (completed migrations, :meth:`_empty_nodes`) at its last rebuild.
        self._empty_nodes_cache: tuple[int, tuple[int, ...]] = (-1, ())
        #: Why :meth:`macro_view` last refused a span (telemetry).
        self.macro_cut: str = ""

    @classmethod
    def build(
        cls, engine: "DatabaseEngine", config: "RunConfiguration"
    ) -> "ClusterController":
        """Control-policy factory (see :mod:`repro.sim.policy`)."""
        # Imported lazily: repro.ecl.controller itself imports sim modules.
        from repro.ecl.controller import EnergyControlLoop

        inner = EnergyControlLoop.build(engine, config)
        return cls(engine, inner)

    # -- introspection ------------------------------------------------------

    @property
    def drained_sockets(self) -> frozenset[int]:
        """Sockets parked because their node is drained or powered off."""
        return frozenset(self._drained)

    @property
    def powered_off_nodes(self) -> frozenset[int]:
        """Nodes currently powered off by this controller."""
        return frozenset(
            node
            for node in range(self.machine.node_count)
            if self.machine.node_power_state(node) is NodePowerState.OFF
        )

    # -- main loop ----------------------------------------------------------

    def on_tick(self, now_s: float, dt_s: float) -> None:
        """Inner ECL, wake completion, planning, then node settle."""
        # A boot deadline may have elapsed during the preceding hardware
        # steps; fold it in before any decision looks at node states.
        self.machine.settle_node_power()
        self.inner.on_tick(now_s, dt_s)
        self._complete_wakes(now_s)
        if now_s + 1e-12 >= self._next_check_s:
            self._next_check_s += self.check_interval_s
            self._replan(now_s)
        self._settle(now_s)

    def annotate_sample(self) -> SampleAnnotations:
        return self.inner.annotate_sample()

    def macro_view(
        self, now_s: float, dt_s: float
    ) -> tuple[float, dict[int, float]] | None:
        """Steady-state view for the macro-stepping runner.

        Migrations, pending socket reactivations, and pending node parks
        all advance controller state on exact ticks, so each pins the
        run live.  A booting node does *not*: the machine horizon caps
        every span at the boot deadline, so the settle tick runs live on
        its exact tick while the boot itself folds.  Otherwise the inner
        ECL's horizon is tightened by the next node-planning check and
        by the earliest wake-hold expiry (a held node may become
        parkable the moment its hold lapses, and that park must land on
        the same tick as per-tick mode).
        """
        if self.engine.migrations.active_count:
            self.macro_cut = "migration"
            return None
        if self._reactivation_pending():
            self.macro_cut = "node-power"
            return None
        if self._parkable_node(now_s) is not None:
            self.macro_cut = "node-drain"
            return None
        view = self.inner.macro_view(now_s, dt_s)
        if view is None:
            self.macro_cut = self.inner.macro_cut
            return None
        horizon, charges = view
        horizon = min(horizon, self._next_check_s)
        for hold in self._wake_hold_until.values():
            if now_s + 1e-12 < hold:
                horizon = min(horizon, hold)
        return horizon, charges

    def macro_step_tick(self, now_s: float, dt_s: float) -> bool:
        """Replay one hardware-inert control tick inside a macro span.

        Mirrors :meth:`on_tick`, except that anything touching node
        power or placement forces the tick live — within a span no
        messages move, so none of those conditions can *arise* here; the
        checks catch state left over from the last live tick.  Booting
        refuses replays even though spans may fold a boot: the replay
        path does not consult the machine's boot-deadline horizon, so a
        replayed control tick coinciding with the deadline would skip
        the settle and flip the node one tick late vs per-tick mode.
        """
        if self.engine.migrations.active_count:
            return False
        if self.machine.booting_node_count or self._reactivation_pending():
            return False
        if now_s + 1e-12 >= self._next_check_s:
            return False  # the node-planning check replans / migrates
        if self._parkable_node(now_s) is not None:
            return False
        return self.inner.macro_step_tick(now_s, dt_s)

    def macro_replay(self, start_s: float, dt_s: float, n_ticks: int) -> None:
        """Forward the inner ECL's system-check replay (the planning
        check itself bounds the horizon, so it never fires in-span)."""
        self.inner.macro_replay(start_s, dt_s, n_ticks)

    # -- planning -----------------------------------------------------------

    def _node_view(self, now_s: float) -> PlacementView:
        """Each node collapsed to one aggregate :class:`SocketView`."""
        views = []
        for node in range(self.machine.node_count):
            sids = self.machine.node_sockets(node)
            partition_ids: list[int] = []
            pending = 0.0
            utilization = 0.0
            for sid in sids:
                partition_ids.extend(
                    p.partition_id
                    for p in self.engine.partitions.partitions_on_socket(sid)
                )
                pending += self.engine.hubs[sid].pending_cost_instructions()
                # Demand relative to *full* capacity, not the capacity
                # the inner ECL currently offers: a trimmed socket rides
                # the ECL setpoint at any load, which would read as
                # permanent overload and wake nodes for no demand.
                utilization += self.engine.utilization.utilization(
                    sid, now_s
                ) * self.inner.sockets[sid].capability_fraction()
            views.append(
                SocketView(
                    socket_id=node,
                    partition_ids=tuple(partition_ids),
                    utilization=utilization / len(sids),
                    pending_instructions=pending,
                    active=self._node_is_live(node),
                )
            )
        return PlacementView(time_s=now_s, sockets=tuple(views))

    def _translate(
        self, requests: list[MigrationRequest]
    ) -> list[tuple[int, int]]:
        """Map node-level requests to concrete target sockets.

        Round-robin over the target node's sockets, per plan, so a
        drained node's partitions spread evenly across each receiver
        node rather than piling onto its first socket.
        """
        cursor: dict[int, int] = {}
        out = []
        for request in requests:
            sids = self.machine.node_sockets(request.target_socket)
            index = cursor.get(request.target_socket, 0)
            cursor[request.target_socket] = index + 1
            out.append((request.partition_id, sids[index % len(sids)]))
        return out

    def _replan(self, now_s: float) -> None:
        if self.engine.migrations.active_count:
            return  # let the current wave land before planning the next
        requested = False
        plan = self.planner.plan(self._node_view(now_s))
        # Requests targeting nodes that are off or mid-wake cannot be
        # executed yet: begin (or continue) the wake and drop them; once
        # the node is live the next round re-plans against it.
        executable = []
        for request in plan:
            if self._node_is_live(request.target_socket):
                executable.append(request)
            else:
                self._begin_wake(request.target_socket)
                requested = True
        for partition_id, target_sid in self._translate(executable):
            if self.engine.request_migration(partition_id, target_sid) is not None:
                requested = True
        if requested:
            self._next_check_s = (
                now_s + self.cooldown_intervals * self.check_interval_s
            )

    # -- node drain / power-off ---------------------------------------------

    def _node_is_live(self, node: int) -> bool:
        """Powered on with every socket reactivated."""
        if self.machine.node_power_state(node) is not NodePowerState.ON:
            return False
        return not any(
            sid in self._drained for sid in self.machine.node_sockets(node)
        )

    def _reactivation_pending(self) -> bool:
        """A woken node whose sockets still await reactivation.

        :meth:`_complete_wakes` reactivates every drained socket of a
        powered-on node, so only a node power change since its last scan
        can leave one waiting; this is probed on every macro attempt.
        """
        if self.machine.node_power_version == self._seen_power_version:
            return False
        return any(
            self.machine.node_power_state(self.machine.node_of_socket(sid))
            is NodePowerState.ON
            for sid in self._drained
        )

    def _empty_nodes(self) -> tuple[int, ...]:
        """Non-anchor nodes whose sockets hold no partition, rebuilt only
        when a migration has completed (placement changes only then)."""
        completed = len(self.engine.migrations.log)
        if self._empty_nodes_cache[0] != completed:
            hubs = self.engine.hubs
            empty = tuple(
                node
                for node in range(self.machine.node_count)
                if node != ANCHOR_NODE
                and not any(
                    hubs[sid].partition_ids
                    for sid in self.machine.node_sockets(node)
                )
            )
            self._empty_nodes_cache = (completed, empty)
        return self._empty_nodes_cache[1]

    def _parkable_node(self, now_s: float) -> int | None:
        """First non-anchor node that has fully drained and awaits park."""
        for node in self._empty_nodes():
            if self.machine.node_power_state(node) is not NodePowerState.ON:
                continue
            if now_s + 1e-12 < self._wake_hold_until.get(node, 0.0):
                continue  # wake cooldown: just booted, give the planner
                # time to put load on it before re-parking
            sids = self.machine.node_sockets(node)
            if any(sid in self._drained for sid in sids):
                continue  # mid-wake; reactivation owns these sockets
            if all(
                not self.engine.hubs[sid].pending_messages
                and not self.engine.router.buffered_from(sid)
                for sid in sids
            ):
                return node
        return None

    def _settle(self, now_s: float) -> None:
        """Park-and-power-off nodes that have finished draining."""
        if self.engine.migrations.active_count:
            return
        while (node := self._parkable_node(now_s)) is not None:
            self._park_node(node)

    def _park_node(self, node: int) -> None:
        for sid in self.machine.node_sockets(node):
            self.inner.sockets[sid].set_drained(True)
            self.engine.set_socket_online(sid, False)
            self.machine.apply_socket_threads(sid, ())
            self.machine.cstates.set_memory_vacated(sid, True)
            self._drained.add(sid)
        self.machine.power_off_node(node)

    def _begin_wake(self, node: int) -> None:
        if self.machine.node_power_state(node) is NodePowerState.OFF:
            self.machine.power_on_node(node)

    def _complete_wakes(self, now_s: float) -> None:
        """Reactivate the sockets of nodes that have finished booting.

        Reactivation starts each node's wake-hold cooldown: the hold is
        anchored to *this* tick's clock so both the per-tick and macro
        paths (which settle boots on the same tick) compute the same
        expiry, keeping park decisions bit-identical across modes.
        """
        if not self._drained:
            return
        version = self.machine.node_power_version
        if version == self._seen_power_version:
            return  # no node changed power state since the last scan
        self._seen_power_version = version
        for sid in sorted(self._drained):
            node = self.machine.node_of_socket(sid)
            if self.machine.node_power_state(node) is NodePowerState.ON:
                self._wake_socket(sid)
                self._wake_hold_until[node] = (
                    now_s + self.wake_hold_intervals * self.check_interval_s
                )

    def _wake_socket(self, socket_id: int) -> None:
        self._drained.discard(socket_id)
        self.machine.cstates.set_memory_vacated(socket_id, False)
        socket = self.machine.topology.socket(socket_id)
        # Full wake; the resumed socket-level loop trims from here.
        self.machine.apply_socket_threads(socket_id, set(socket.thread_ids()))
        self.engine.set_socket_online(socket_id, True)
        self.inner.sockets[socket_id].set_drained(False)
