"""The DBMS engine facade: runtime + hardware in lock-step.

``DatabaseEngine`` owns the whole data-oriented runtime (partition map,
per-socket hubs, inter-socket router, elastic worker pool, query tracker,
statistics) and advances it in lock-step with a
:class:`~repro.hardware.machine.Machine`:

per tick (``dt``):

1. the communication threads flush their outbound buffers (messages
   buffered last tick arrive now — one tick of interconnect latency),
   and in-flight partition migrations advance (quiesce → transfer, see
   :mod:`repro.placement.migration`);
2. each socket's pending work is reported to the machine as demand;
3. the machine resolves the performance model and returns how many
   instructions each socket executed;
4. the active workers of each socket consume messages against that
   instruction budget under the ownership protocol;
5. completed messages advance their queries; finished queries produce
   latency samples for the system-level ECL.

The worker:partition ratio defaults to the paper's 1:1 setting (one
partition per hardware thread).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Mapping

from repro.errors import SimulationError
from repro.dbms.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.dbms.elasticity import ElasticWorkerPool
from repro.dbms.inter_socket import InterSocketRouter
from repro.dbms.intra_socket import IntraSocketHub
from repro.dbms.messages import Message
from repro.dbms.queries import Query, QueryCompletion, QueryTracker
from repro.dbms.querybank import QueryBank
from repro.dbms.worker import CompletedRun
from repro.dbms.stats import LatencyTracker, UtilizationTracker
from repro.hardware.machine import IDLE_CHARACTERISTICS, Machine, StepResult
from repro.hardware.perfmodel import (
    SocketLoad,
    WorkloadCharacteristics,
    blend_characteristics,
)
from repro.placement import (
    DEFAULT_PLACEMENT,
    MigrationCoordinator,
    MigrationRecord,
    PlacementPolicy,
    build_placement,
)
from repro.storage.partition import PartitionMap

#: Instruction quantum a worker receives per scheduling round inside a tick.
#: (Default-config alias; tunable per run through ``EngineConfig``.)
WORKER_QUANTUM_INSTRUCTIONS = DEFAULT_ENGINE_CONFIG.worker_quantum_instructions


@dataclass
class EngineTickResult:
    """Everything that happened during one engine tick."""

    time_s: float
    step: StepResult
    completions: list[QueryCompletion] = dataclass_field(default_factory=list)
    consumed_by_socket: dict[int, float] = dataclass_field(default_factory=dict)
    offered_by_socket: dict[int, float] = dataclass_field(default_factory=dict)
    messages_processed: int = 0


class DatabaseEngine:
    """Data-oriented in-memory DBMS bound to a simulated machine."""

    def __init__(
        self,
        machine: Machine,
        partition_count: int | None = None,
        latency_window_s: float = 5.0,
        utilization_window_s: float = 1.0,
        placement: PlacementPolicy | str = DEFAULT_PLACEMENT,
        engine_config: EngineConfig | None = None,
    ):
        self.machine = machine
        self.config = engine_config or DEFAULT_ENGINE_CONFIG
        topology = machine.topology
        if partition_count is None:
            # One partition per hardware thread — across *all* nodes.
            partition_count = topology.total_threads
        if partition_count < topology.socket_count:
            raise SimulationError(
                f"partition_count ({partition_count}) must cover the "
                f"machine's {topology.socket_count} sockets — every socket "
                f"needs at least one partition; raise partition_count or "
                f"shrink the cluster"
            )
        if isinstance(placement, str):
            placement = build_placement(placement)
        self.placement = placement
        assignment = placement.initial_assignment(
            partition_count, [s.socket_id for s in topology.sockets]
        )
        self.partitions = PartitionMap(
            partition_count, topology.socket_count, assignment=assignment
        )

        self.hubs: dict[int, IntraSocketHub] = {}
        for sock in topology.sockets:
            pids = [
                p.partition_id
                for p in self.partitions.partitions_on_socket(sock.socket_id)
            ]
            if not pids:
                raise SimulationError(
                    f"socket {sock.socket_id} holds no partitions; "
                    f"increase partition_count (got {partition_count})"
                )
            self.hubs[sock.socket_id] = IntraSocketHub(
                sock.socket_id, pids, vectorized=self.config.vector_messages
            )

        self.router = InterSocketRouter(
            self.hubs,
            config=self.config,
            socket_node={
                sid: machine.node_of_socket(sid) for sid in self.hubs
            },
        )
        self.migrations = MigrationCoordinator(
            self.partitions,
            self.hubs,
            self.router,
            self.config,
            charge=self.add_overhead_instructions,
        )
        #: Sockets taken off query intake (drained for package sleep);
        #: submissions coordinated there fall back to an online socket.
        self._offline_sockets: set[int] = set()
        self.pool = ElasticWorkerPool(topology, self.hubs)
        self.tracker = QueryTracker()
        self.latency = LatencyTracker(window_s=latency_window_s)
        socket_ids = tuple(s.socket_id for s in topology.sockets)
        self.utilization = UtilizationTracker(
            socket_ids, window_s=utilization_window_s
        )
        self._socket_chars: dict[int, WorkloadCharacteristics] = {
            sid: IDLE_CHARACTERISTICS for sid in socket_ids
        }
        self._overhead_instructions: dict[int, float] = {
            sid: 0.0 for sid in socket_ids
        }
        #: C-state version last mirrored into the worker pool; the pool is
        #: only mutated through :meth:`sync_workers`, so an unchanged
        #: version means the sync would be a no-op.
        self._synced_cstates_version: int | None = None
        #: Per-socket mutation versions at the last worker sync, so a
        #: reconfiguration on one socket does not resync the other.
        self._synced_socket_versions: dict[int, int] = {}
        #: Per-socket blended-characteristics memo, keyed by the hub's
        #: tag version and the declared default characteristics; demand
        #: re-resolution between drains re-reads the same blend.
        self._blend_cache: dict[int, tuple[int, WorkloadCharacteristics, WorkloadCharacteristics]] = {}
        #: Per-socket memo of the last declared SocketLoad: steady ticks
        #: (same blend, same demand) re-declare the identical object, so
        #: the machine's one-slot resolve memo can hit on identity.
        self._load_cache: dict[int, SocketLoad] = {}

    # -- workload declaration ---------------------------------------------------

    def set_workload_characteristics(
        self, chars: WorkloadCharacteristics, socket_id: int | None = None
    ) -> None:
        """Declare the execution characteristics of the active workload.

        With ``socket_id=None`` the characteristics apply machine-wide.
        The hardware performance model uses them to translate instruction
        demand into throughput, stalls, and traffic.
        """
        if socket_id is None:
            for sid in self._socket_chars:
                self._socket_chars[sid] = chars
        else:
            if socket_id not in self._socket_chars:
                raise SimulationError(f"unknown socket id {socket_id}")
            self._socket_chars[socket_id] = chars

    def workload_characteristics(self, socket_id: int) -> WorkloadCharacteristics:
        """The characteristics currently declared for a socket."""
        return self._socket_chars[socket_id]

    # -- query intake ---------------------------------------------------------------

    def submit(self, query: Query) -> None:
        """Accept a query: dispatch and route its stage-0 messages.

        Queries coordinated on an offline (drained) socket are redirected
        to the lowest-id online socket — clients of a powered-down node
        reconnect elsewhere, so no traffic originates on parked hardware.
        """
        source = query.coordinator_socket
        if source in self._offline_sockets:
            source = min(
                sid for sid in self.hubs if sid not in self._offline_sockets
            )
        for message in self.tracker.dispatch(query):
            self.router.route(source, message)

    def submit_bank(self, bank: QueryBank) -> None:
        """Accept a columnar block of single-stage modeled queries.

        The bank's messages are routed as columns — straight into the
        hubs' compact arrays when local, as a columnar chunk through the
        transfer buffers when remote — with the same offline-coordinator
        redirect as :meth:`submit`.
        """
        coordinators = bank.coordinators.tolist()
        offline = self._offline_sockets
        if offline:
            online = min(sid for sid in self.hubs if sid not in offline)
            coordinators = [
                online if sid in offline else sid for sid in coordinators
            ]
        self.tracker.register_bank(
            bank.first_query_id, bank.fan_out, bank.arrivals_s
        )
        fan = bank.fan_out
        first = bank.first_query_id
        # The columns become lists here, once: routing, buffering and the
        # hubs' enqueue are scalar chains over them.
        self.router.route_bank(
            [sid for sid in coordinators for _ in range(fan)],
            bank.targets.tolist(),
            bank.instructions.tolist(),
            bank.bytes_accessed.tolist(),
            [first + i for i in range(bank.count) for _ in range(fan)],
        )

    def pending_messages(self) -> int:
        """Messages queued across all hubs and outbound buffers."""
        queued = sum(hub.pending_messages for hub in self.hubs.values())
        return queued + self.router.total_buffered

    def add_overhead_instructions(self, socket_id: int, instructions: float) -> None:
        """Charge non-query work (e.g. the ECL thread) against a socket.

        The overhead is consumed out of the socket's executed-instruction
        budget before any worker processes messages.
        """
        if socket_id not in self._overhead_instructions:
            raise SimulationError(f"unknown socket id {socket_id}")
        if instructions < 0:
            raise SimulationError(f"negative overhead {instructions}")
        self._overhead_instructions[socket_id] += instructions

    def overhead_balances(self) -> dict[int, float]:
        """The live per-socket overhead balances, for bulk charging.

        The control loop runs every tick; funnelling its fixed per-tick
        charge through :meth:`add_overhead_instructions` re-validates the
        socket id and sign on every call.  Trusted per-tick callers add
        directly to the returned mapping instead (it is the engine's own
        balance store, keyed by socket id; the semantics are exactly
        those of :meth:`add_overhead_instructions`).
        """
        return self._overhead_instructions

    # -- data placement ----------------------------------------------------------

    def request_migration(
        self, partition_id: int, target_socket: int
    ) -> MigrationRecord | None:
        """Start moving a partition to another socket.

        The move is asynchronous: the partition quiesces first and the
        transfer happens inside a subsequent :meth:`tick` (see
        :mod:`repro.placement.migration`).  Returns None when the
        partition already lives on the target or is mid-migration.
        """
        return self.migrations.request(
            partition_id, target_socket, self.machine.time_s
        )

    @property
    def migration_log(self) -> list[MigrationRecord]:
        """Every completed migration, in completion order."""
        return self.migrations.log

    def set_socket_online(self, socket_id: int, online: bool) -> None:
        """Toggle a socket's query intake (socket drain / wake).

        Taking a socket offline also forfeits its queued bookkeeping
        overhead: the communication thread of a parked socket stops
        polling, and a zero-capacity socket could otherwise never drain
        the balance.  At least one socket must stay online.

        Raises:
            SimulationError: for unknown ids, or when the last online
                socket would go offline.
        """
        if socket_id not in self.hubs:
            raise SimulationError(f"unknown socket id {socket_id}")
        if online:
            self._offline_sockets.discard(socket_id)
            return
        remaining = set(self.hubs) - self._offline_sockets - {socket_id}
        if not remaining:
            raise SimulationError("cannot take the last online socket offline")
        self._offline_sockets.add(socket_id)
        self._overhead_instructions[socket_id] = 0.0

    def socket_is_online(self, socket_id: int) -> bool:
        """Whether a socket accepts coordinated query intake."""
        if socket_id not in self.hubs:
            raise SimulationError(f"unknown socket id {socket_id}")
        return socket_id not in self._offline_sockets

    # -- main loop ---------------------------------------------------------------

    def sync_workers(self) -> None:
        """Align the worker pool with the machine's active threads.

        Skipped when the C-state model's version is unchanged since the
        last sync — parking/unparking is driven exclusively by the
        machine's active-thread set, so the sync is a no-op then.
        """
        cstates = self.machine.cstates
        version = cstates.version
        if version == self._synced_cstates_version:
            return
        self._synced_cstates_version = version
        for sock in self.machine.topology.sockets:
            sid = sock.socket_id
            socket_version = cstates.socket_mutation_version(sid)
            if socket_version == self._synced_socket_versions.get(sid):
                continue  # this socket's thread set is untouched
            self._synced_socket_versions[sid] = socket_version
            self.pool.sync_with_threads(
                sid, cstates.active_threads_on_socket(sid)
            )

    def _blended_characteristics(
        self, socket_id: int, hub: IntraSocketHub
    ) -> WorkloadCharacteristics:
        """Instruction-weighted mix of the socket's pending work.

        Untagged messages contribute the socket's default characteristics;
        a socket with no pending work reports its default unchanged.
        """
        default = self._socket_chars[socket_id]
        version = hub.tag_version
        cached = self._blend_cache.get(socket_id)
        if (
            cached is not None
            and cached[0] == version
            and cached[1] is default
        ):
            return cached[2]
        tagged = hub.pending_by_characteristics()
        if not tagged:
            blended = default
        else:
            parts = []
            for chars, weight in tagged:
                parts.append((default if chars is None else chars, weight))
            if len(parts) == 1:
                blended = parts[0][0]
            else:
                blended = blend_characteristics(parts)
        self._blend_cache[socket_id] = (version, default, blended)
        return blended

    def tick(self, dt_s: float) -> EngineTickResult:
        """Advance runtime and hardware by ``dt_s`` seconds."""
        if dt_s <= 0:
            raise SimulationError(f"tick duration must be > 0, got {dt_s}")
        self.sync_workers()

        # 1. Communication threads transfer last tick's remote messages.
        transfer = self.router.flush()
        for sid, cost in transfer.cost_by_socket.items():
            self._overhead_instructions[sid] += cost.instructions

        # 1b. In-flight partition moves advance (quiesce checks, queue
        # eviction into the transfer path, per-byte cost charges).  A
        # strict no-op while nothing is migrating.
        if self.migrations.active_count:
            self.migrations.tick(self.machine.time_s)

        # 2. Report demand to the hardware model, blending the pending
        # messages' characteristics tags per socket (query interference).
        for sid, hub in self.hubs.items():
            pending = hub.pending_cost_instructions()
            demand_ips = (pending + self._overhead_instructions[sid]) / dt_s
            chars = self._blended_characteristics(sid, hub)
            load = self._load_cache.get(sid)
            if (
                load is None
                or load.characteristics is not chars
                or load.demand_instructions_per_s != demand_ips
            ):
                load = SocketLoad(
                    characteristics=chars,
                    demand_instructions_per_s=demand_ips,
                )
                self._load_cache[sid] = load
            self.machine.set_socket_load(sid, load)

        # 3. Hardware resolves throughput and burns energy.
        step = self.machine.step(dt_s)

        # 4. Workers consume the executed instruction budget.
        completions: list[Message] = []
        done_queries: list[QueryCompletion] = []
        consumed_by_socket: dict[int, float] = {}
        offered_by_socket: dict[int, float] = {}
        now = step.time_s
        processed_count = 0

        for sid, hub in self.hubs.items():
            executed = step.sockets[sid].executed_instructions
            overhead = min(self._overhead_instructions[sid], executed)
            self._overhead_instructions[sid] -= overhead
            budget = executed - overhead
            consumed = overhead
            # Idle fast path: with no queued messages every worker's
            # quantum is a no-op (acquire returns None, no stats change),
            # so the scheduling loop is skipped outright.
            workers = (
                self.pool.active_workers(sid)
                if budget > 0 and hub.pending_messages
                else ()
            )
            if workers and budget > 0:
                progress = True
                while budget > 0 and progress:
                    progress = False
                    for worker in workers:
                        if budget <= 0:
                            break
                        if not hub.pending_messages:
                            # Backlog drained: every remaining quantum
                            # would be a no-op (acquire finds nothing).
                            break
                        quantum = min(
                            budget, self.config.worker_quantum_instructions
                        )
                        used, done = worker.process_quantum(
                            hub, self.partitions, quantum
                        )
                        if used > 0 or done:
                            progress = True
                        budget -= used
                        consumed += used
                        completions.extend(done)

            capacity = step.sockets[sid].performance.capacity_ips * dt_s
            offered_by_socket[sid] = capacity
            consumed_by_socket[sid] = consumed
            self.utilization.record_tick(
                sid,
                now,
                capacity,
                consumed,
                pending_instructions=hub.pending_cost_instructions(),
            )

        # 5. Advance queries; route follow-up stages; record latencies.
        # Compact runs (the vectorized drain) settle whole query-id
        # blocks at once; object-lane messages take the per-message path.
        record = self.latency.record
        for item in completions:
            if type(item) is CompletedRun:
                processed_count += len(item.query_ids)
                for completion in self.tracker.on_compact_done(
                    item.query_ids, now
                ):
                    done_queries.append(completion)
                    record(now, completion.latency_s)
                continue
            processed_count += 1
            home = self.router.home_socket(item.target_partition)
            followups, completion = self.tracker.on_message_done(item, now)
            for followup in followups:
                self.router.route(home, followup)
            if completion is not None:
                done_queries.append(completion)
                record(now, completion.latency_s)

        return EngineTickResult(
            time_s=now,
            step=step,
            completions=done_queries,
            consumed_by_socket=consumed_by_socket,
            offered_by_socket=offered_by_socket,
            messages_processed=processed_count,
        )

    def span_tick(
        self,
        dt_s: float,
        n_ticks: int,
        tick_charges: Mapping[int, float],
        min_ticks: int = 2,
    ) -> int:
        """Fast-forward up to ``n_ticks`` steady-state ticks in one span.

        A tick is *steady* when replaying it would change nothing but
        clocks, counters, and the overhead balance: no arrivals (the
        caller guarantees this), no buffered transfers or migrations, no
        worker progress, and a per-socket demand that resolves to the
        machine's last step result — either exactly the same demand, or
        any demand at or above capacity (the saturated resolution is
        demand-independent).  ``tick_charges`` is the per-socket overhead
        the control policy would add on each skipped tick (see
        ``ControlPolicy.macro_view``).

        The balance fold, utilization samples, and counter accumulation
        replay the per-tick arithmetic operation for operation, so the
        resulting state is bit-identical to ticking ``n`` times.  Returns
        the number of ticks actually advanced — 0 (and no state change)
        when fewer than ``min_ticks`` ticks are steady.  The composite
        span executor lowers ``min_ticks`` to 1 for interior segments,
        where even a single committed tick extends an ongoing span.
        """
        if n_ticks < min_ticks or n_ticks < 1 or dt_s <= 0:
            return 0
        step = self.machine.last_step
        if step is None:
            return 0
        if self.migrations.active_count or self.router.total_buffered:
            return 0
        if self.machine.cstates.version != self._synced_cstates_version:
            return 0

        # Validity pass: fold each socket's overhead balance forward
        # without mutating anything, shrinking the span to the longest
        # prefix on which every socket stays steady.  Per-socket reads
        # (step slice, pending cost, charge, starting balance) are kept
        # for the commit pass, which would otherwise recompute them.
        machine = self.machine
        n_valid = n_ticks
        plan: list[tuple] = []
        for sid, hub in self.hubs.items():
            if not machine.thermal_steady(sid):
                return 0
            socket_step = step.sockets[sid]
            executed = socket_step.executed_instructions
            capacity_ips = socket_step.performance.capacity_ips
            d_last = machine.socket_load(sid).demand_instructions_per_s
            if d_last is None:
                return 0
            saturated = d_last >= capacity_ips
            pending = hub.pending_cost_instructions()
            charge = tick_charges.get(sid)
            b = self._overhead_instructions[sid]
            plan.append((sid, hub, executed, capacity_ips, pending, charge, b))
            if executed == 0.0 and charge:
                # Growing-balance fast path (idle RTI phases, drained
                # nights): nothing executes, so the balance climbs by the
                # same charge every tick, demand grows monotonically, and
                # use stays zero.  The whole span is steady iff the first
                # tick resolves to the saturated bucket — every later
                # demand only moves further above capacity.  Otherwise
                # the scalar fold would break on the very first tick (an
                # exact demand match cannot survive a growing balance),
                # so refusing outright is exact for any ``min_ticks``.
                demand = (pending + b + charge) / dt_s
                if saturated and demand >= capacity_ips:
                    continue
                return 0
            has_backlog = hub.pending_messages > 0
            has_workers = bool(self.pool.active_workers(sid))
            i = 0
            while i < n_valid:
                b_top = b
                if charge is not None:
                    b = b + charge
                demand = (pending + b) / dt_s
                if not (
                    demand == d_last or (saturated and demand >= capacity_ips)
                ):
                    break
                use = min(b, executed)
                b = b - use
                if executed - use > 0.0 and has_backlog and has_workers:
                    break
                i += 1
                if b == b_top:
                    # Balance fixed point: the tick transform is a pure
                    # function of the top-of-tick balance, so every
                    # further tick replays this one exactly and the whole
                    # remaining span is steady.
                    i = n_valid
                    break
            n_valid = i
            if n_valid < min_ticks:
                return 0

        # Commit: fold the tick grid exactly as the per-tick path would
        # (time is a left fold of + dt_s), advance the machine counters,
        # and replay the balance / utilization updates per tick.  Once
        # the balance hits its fixed point the remaining samples are all
        # identical, so they are appended in one bulk call.
        times = []
        t = machine.time_s
        for _ in range(n_valid):
            t = t + dt_s
            times.append(t)
        machine.span_step(dt_s, n_valid)
        for sid, hub, executed, capacity_ips, pending, charge, b in plan:
            capacity = capacity_ips * dt_s
            chars = self._blended_characteristics(sid, hub)
            if executed == 0.0 and charge:
                # Growing-balance fast path, mirroring the validity pass:
                # use is zero on every tick and the balance is a pure
                # left fold of ``+ charge``, so the per-tick loop
                # collapses to that fold and the utilization samples —
                # identical except for their timestamps — append in one
                # bulk call.
                for _ in range(n_valid):
                    b = b + charge
                self.utilization.record_span(
                    sid, times, capacity, 0.0, pending_instructions=pending
                )
                self._overhead_instructions[sid] = b
                machine.set_socket_load(
                    sid,
                    SocketLoad(
                        characteristics=chars,
                        demand_instructions_per_s=(pending + b) / dt_s,
                    ),
                )
                continue
            demand = 0.0
            use = 0.0
            k = 0
            record = self.utilization.record_tick
            while k < n_valid:
                b_top = b
                if charge is not None:
                    b = b + charge
                demand = (pending + b) / dt_s
                use = min(b, executed)
                b = b - use
                record(sid, times[k], capacity, use, pending_instructions=pending)
                k += 1
                if b == b_top:
                    break
            if k < n_valid:
                # Fixed point: every remaining tick records this sample.
                self.utilization.record_span(
                    sid, times[k:], capacity, use, pending_instructions=pending
                )
            self._overhead_instructions[sid] = b
            machine.set_socket_load(
                sid,
                SocketLoad(
                    characteristics=chars, demand_instructions_per_s=demand
                ),
            )
        return n_valid
