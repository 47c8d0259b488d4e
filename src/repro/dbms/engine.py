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

import numpy as np

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
    #: Instructions each socket consumed and was offered, indexed by
    #: socket id.
    consumed: np.ndarray | None = None
    offered: np.ndarray | None = None
    messages_processed: int = 0

    @property
    def consumed_by_socket(self) -> dict[int, float]:
        """:attr:`consumed` as a ``socket id -> instructions`` dict."""
        return dict(enumerate(self.consumed.tolist()))

    @property
    def offered_by_socket(self) -> dict[int, float]:
        """:attr:`offered` as a ``socket id -> instructions`` dict."""
        return dict(enumerate(self.offered.tolist()))


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
        #: Sockets whose hub's pending state changed since the engine last
        #: read it (every hub adds itself; see :meth:`_read_hubs`).
        self._changed_hubs: set[int] = set()
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
                sock.socket_id,
                pids,
                vectorized=self.config.vector_messages,
                changed=self._changed_hubs,
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
        #: Per-tick state over the socket axis, indexed by socket id (the
        #: topology's ids are ``0..n-1``): each socket's overhead balance
        #: and its hub's pending instructions as last read, plus the
        #: sockets whose hub held messages then.  A tick visits in Python
        #: only the sockets whose hub changed or holds work; the rest is
        #: array arithmetic.
        count = len(socket_ids)
        self._overhead = np.zeros(count)
        self._pending = np.zeros(count)
        self._backlog: set[int] = set()
        self._changed_hubs.update(socket_ids)
        #: C-state version last mirrored into the worker pool; the pool is
        #: only mutated through :meth:`sync_workers`, so an unchanged
        #: version means the sync would be a no-op.
        self._synced_cstates_version: int | None = None
        #: Per-socket mutation versions at the last worker sync, so a
        #: reconfiguration on one socket does not resync the other.
        self._synced_socket_versions = np.full(count, -1, dtype=np.int64)
        #: Per-socket blended-characteristics memo, keyed by the hub's
        #: tag version and the declared default characteristics; demand
        #: re-resolution between drains re-reads the same blend.
        self._blend_cache: dict[int, tuple[int, WorkloadCharacteristics, WorkloadCharacteristics]] = {}

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
            self._changed_hubs.update(self._socket_chars)
        else:
            if socket_id not in self._socket_chars:
                raise SimulationError(f"unknown socket id {socket_id}")
            self._socket_chars[socket_id] = chars
            self._changed_hubs.add(socket_id)

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
        if socket_id not in self.hubs:
            raise SimulationError(f"unknown socket id {socket_id}")
        if instructions < 0:
            raise SimulationError(f"negative overhead {instructions}")
        self._overhead[socket_id] += instructions

    def overhead_balances(self) -> np.ndarray:
        """The live per-socket overhead balances, for bulk charging.

        The control loop runs every tick; funnelling its fixed per-tick
        charge through :meth:`add_overhead_instructions` re-validates the
        socket id and sign on every call.  Trusted per-tick callers add
        directly to the returned array instead (it is the engine's own
        balance store, indexed by socket id; adding a non-negative
        amount to an element is exactly
        :meth:`add_overhead_instructions`).
        """
        return self._overhead

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
        self._overhead[socket_id] = 0.0

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
        versions = cstates.socket_versions
        synced = self._synced_socket_versions
        # Only sockets whose thread-set version moved are resynced.
        moved = (versions != synced).nonzero()[0]
        synced[moved] = versions[moved]
        for sid in moved.tolist():
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

    def _read_hubs(self) -> None:
        """Re-read the hubs whose pending state changed: their pending
        instructions, whether they hold messages, and their blended
        characteristics (declared to the machine)."""
        changed = self._changed_hubs
        if not changed:
            return
        machine = self.machine
        for sid in changed:
            hub = self.hubs[sid]
            self._pending[sid] = hub.pending_cost_instructions()
            if hub.pending_messages:
                self._backlog.add(sid)
            else:
                self._backlog.discard(sid)
            machine.set_socket_characteristics(
                sid, self._blended_characteristics(sid, hub)
            )
        changed.clear()

    def tick(self, dt_s: float) -> EngineTickResult:
        """Advance runtime and hardware by ``dt_s`` seconds."""
        if dt_s <= 0:
            raise SimulationError(f"tick duration must be > 0, got {dt_s}")
        self.sync_workers()

        # 1. Communication threads transfer last tick's remote messages.
        transfer = self.router.flush()
        for sid, cost in transfer.cost_by_socket.items():
            self._overhead[sid] += cost.instructions

        # 1b. In-flight partition moves advance (quiesce checks, queue
        # eviction into the transfer path, per-byte cost charges).  A
        # strict no-op while nothing is migrating.
        if self.migrations.active_count:
            self.migrations.tick(self.machine.time_s)

        # 2. Report demand to the hardware model, blending the pending
        # messages' characteristics tags per socket (query interference).
        self._read_hubs()
        self.machine.set_socket_demands((self._pending + self._overhead) / dt_s)

        # 3. Hardware resolves throughput and burns energy.
        step = self.machine.step(dt_s)

        # 4. The overhead balance is paid first out of each socket's
        # executed instructions; workers consume the rest.  Only sockets
        # with budget left and queued messages run the scheduling loop:
        # on any other socket every worker's quantum is a no-op (acquire
        # returns None, no stats change).
        completions: list[Message] = []
        done_queries: list[QueryCompletion] = []
        now = step.time_s
        processed_count = 0

        executed = self.machine.step_executed
        overhead = self._overhead
        consumed = np.minimum(overhead, executed)
        overhead -= consumed
        pending = self._pending.copy()
        for sid in sorted(self._backlog):
            used_total = float(consumed[sid])
            budget = float(executed[sid]) - used_total
            if budget <= 0:
                continue
            workers = self.pool.active_workers(sid)
            if not workers:
                continue
            hub = self.hubs[sid]
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
                    used_total += used
                    completions.extend(done)
            consumed[sid] = used_total
            pending[sid] = hub.pending_cost_instructions()

        offered = self.machine.step_capacity_ips * dt_s
        self.utilization.record_all(now, offered, consumed, pending)

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
            consumed=consumed,
            offered=offered,
            messages_processed=processed_count,
        )

    def span_tick(
        self,
        dt_s: float,
        n_ticks: int,
        tick_charges: np.ndarray,
        min_ticks: int = 2,
    ) -> int:
        """Fast-forward up to ``n_ticks`` steady-state ticks in one span.

        A tick is *steady* when replaying it would change nothing but
        clocks, counters, and the overhead balance: no arrivals (the
        caller guarantees this), no buffered transfers or migrations, no
        worker progress, and a per-socket demand that resolves to the
        machine's last step result — either exactly the same demand, or
        any demand at or above capacity (the saturated resolution is
        demand-independent).  ``tick_charges`` is the overhead the control
        policy would add on each skipped tick, indexed by socket id (see
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
        machine = self.machine
        if machine.last_step is None:
            return 0
        if self.migrations.active_count or self.router.total_buffered:
            return 0
        if machine.cstates.version != self._synced_cstates_version:
            return 0
        if not machine.thermal_steady_all():
            return 0
        self._read_hubs()

        # Validity pass: fold each socket's overhead balance forward
        # without mutating anything, shrinking the span to the longest
        # prefix on which every socket stays steady.  Sockets that
        # executed work fold one by one; the rest in one masked pass.
        charges = tick_charges
        executed = machine.step_executed
        capacity_ips = machine.step_capacity_ips
        # A ``None`` demand reads as nan: no comparison holds, so every
        # check below refuses the span, as the per-tick path would.
        d_last = machine.socket_demands
        pending = self._pending
        balances = self._overhead
        count = len(balances)
        busy = executed.nonzero()[0].tolist()
        n_valid = n_ticks
        for sid in busy:
            executed_s = float(executed[sid])
            capacity_s = float(capacity_ips[sid])
            d_s = float(d_last[sid])
            saturated = d_s >= capacity_s
            pending_s = float(pending[sid])
            charge = float(charges[sid])
            b = float(balances[sid])
            has_backlog = sid in self._backlog
            has_workers = bool(self.pool.active_workers(sid))
            i = 0
            while i < n_valid:
                b_top = b
                b = b + charge
                demand = (pending_s + b) / dt_s
                if not (
                    demand == d_s or (saturated and demand >= capacity_s)
                ):
                    break
                use = min(b, executed_s)
                b = b - use
                if executed_s - use > 0.0 and has_backlog and has_workers:
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
        # The sockets that execute nothing: their balance only ever
        # grows by the charge and their use stays zero.  With a charge
        # (idle RTI phases, drained nights) demand grows monotonically,
        # so the whole span is steady iff the first tick resolves to the
        # saturated bucket — every later demand only moves further above
        # capacity; otherwise the per-tick fold would break on the very
        # first tick (an exact demand match cannot survive a growing
        # balance), so refusing outright is exact for any ``min_ticks``.
        # Without one, the balance is a fixed point from the first tick,
        # whose demand may also match exactly.
        idle = len(busy) < count
        if idle:
            first = (pending + balances + charges) / dt_s
            steady = np.minimum(first, d_last) >= capacity_ips
            steady |= (charges == 0.0) & (first == d_last)
            if np.count_nonzero((executed == 0.0) > steady):
                return 0

        # Commit: fold the tick grid exactly as the per-tick path would
        # (time is a left fold of + dt_s), advance the machine counters,
        # and replay the balance / utilization updates per tick.
        times = []
        t = machine.time_s
        for _ in range(n_valid):
            t = t + dt_s
            times.append(t)
        machine.span_step(dt_s, n_valid)
        starts = balances.tolist()
        if idle:
            # Every balance's left fold of ``+ charge`` at once; the
            # sockets that execute work are refolded below.
            grid = np.empty((n_valid + 1, count))
            grid[0] = balances
            grid[1:] = charges
            np.add.accumulate(grid, axis=0, out=grid)
            balances[:] = grid[-1]
        demands = (pending + balances) / dt_s
        consumed = np.zeros(count)
        leading: dict[int, list[float]] = {}
        for sid in busy:
            executed_s = float(executed[sid])
            pending_s = float(pending[sid])
            charge = float(charges[sid])
            b = starts[sid]
            demand = 0.0
            use = 0.0
            uses = []
            k = 0
            while k < n_valid:
                b_top = b
                b = b + charge
                demand = (pending_s + b) / dt_s
                use = min(b, executed_s)
                b = b - use
                uses.append(use)
                k += 1
                if b == b_top:
                    # Fixed point: every remaining tick records this use.
                    break
            leading[sid] = uses
            consumed[sid] = use
            balances[sid] = b
            demands[sid] = demand
        self.utilization.record_span_all(
            times, capacity_ips * dt_s, consumed, pending, leading
        )
        machine.set_socket_demands(demands)
        return n_valid
