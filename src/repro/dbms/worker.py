"""Worker threads: acquire partition → drain batch → release.

Workers are the execution units of the data-oriented runtime.  Each is
pinned to one hardware thread; the elasticity layer parks and unparks
them as the ECL grows or shrinks the active-thread set.  A worker's
processing loop implements the ownership protocol of
:class:`~repro.dbms.intra_socket.IntraSocketHub`:

1. acquire an unowned partition with pending messages,
2. dequeue a batch and execute its messages (charging instruction budget),
3. release the partition and look for the next one.

Processing happens in simulated time: the engine hands every worker an
instruction budget per tick (the hardware model's executed instructions),
and the worker consumes messages until the budget runs dry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import MessagingError
from repro.dbms.intra_socket import DEFAULT_BATCH_SIZE, IntraSocketHub
from repro.dbms.messages import Message, MessageKind
from repro.storage.partition import PartitionMap


class WorkerState(enum.Enum):
    """Lifecycle state of a worker thread."""

    ACTIVE = "active"  #: unparked, polling for work
    PARKED = "parked"  #: hardware thread in a C-state


class CompletedRun:
    """A drained run of compact (modeled, untagged) messages.

    The vectorized worker returns these inside its completion list in
    place of per-message objects: one run covers the ``len(query_ids)``
    consecutively drained messages of one partition (a list of query
    ids).  The engine settles them against the query tracker in one call
    per run.
    """

    __slots__ = ("partition_id", "query_ids")

    def __init__(self, partition_id: int, query_ids) -> None:
        self.partition_id = partition_id
        self.query_ids = query_ids

    @property
    def count(self) -> int:
        return len(self.query_ids)


class WorkerStatsArrays:
    """Struct-of-arrays counter store for a set of workers.

    The worker pool allocates one instance covering every worker and
    hands each worker an indexed :class:`WorkerStats` view into it, so
    machine-wide aggregation (:meth:`ElasticWorkerPool.total_stats`)
    runs as four vector sums instead of a Python loop over workers.
    """

    __slots__ = (
        "messages_processed",
        "instructions_consumed",
        "bytes_accessed",
        "acquisitions",
    )

    def __init__(self, count: int) -> None:
        self.messages_processed = np.zeros(count, dtype=np.int64)
        self.instructions_consumed = np.zeros(count, dtype=np.float64)
        self.bytes_accessed = np.zeros(count, dtype=np.float64)
        self.acquisitions = np.zeros(count, dtype=np.int64)


class WorkerStats:
    """Cumulative execution statistics of one worker.

    A read view over one slot of a :class:`WorkerStatsArrays`.  A
    standalone worker (outside a pool) gets its own length-1 arrays, so
    the attribute interface is unchanged either way.  Counters are
    diagnostics: they never feed back into scheduling or the hardware
    model, which is what allows the batched per-quantum update.
    """

    __slots__ = ("_arrays", "_index")

    def __init__(
        self, arrays: WorkerStatsArrays | None = None, index: int = 0
    ) -> None:
        self._arrays = arrays if arrays is not None else WorkerStatsArrays(1)
        self._index = index

    @property
    def messages_processed(self) -> int:
        return int(self._arrays.messages_processed[self._index])

    @property
    def instructions_consumed(self) -> float:
        return float(self._arrays.instructions_consumed[self._index])

    @property
    def bytes_accessed(self) -> float:
        return float(self._arrays.bytes_accessed[self._index])

    @property
    def acquisitions(self) -> int:
        return int(self._arrays.acquisitions[self._index])

    def add_quantum(
        self,
        acquisitions: int,
        messages: int,
        instructions: float,
        bytes_accessed: float,
    ) -> None:
        """Fold one processing quantum into the counters."""
        arrays = self._arrays
        index = self._index
        arrays.acquisitions[index] += acquisitions
        arrays.messages_processed[index] += messages
        arrays.instructions_consumed[index] += instructions
        arrays.bytes_accessed[index] += bytes_accessed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerStats(messages_processed={self.messages_processed}, "
            f"instructions_consumed={self.instructions_consumed}, "
            f"bytes_accessed={self.bytes_accessed}, "
            f"acquisitions={self.acquisitions})"
        )


@dataclass
class Worker:
    """One worker thread pinned to a hardware thread."""

    worker_id: int
    socket_id: int
    hw_thread_id: int
    state: WorkerState = WorkerState.ACTIVE
    batch_size: int = DEFAULT_BATCH_SIZE
    stats: WorkerStats = field(default_factory=WorkerStats)

    @property
    def is_active(self) -> bool:
        """Whether the worker may process messages."""
        return self.state is WorkerState.ACTIVE

    def process_quantum(
        self,
        hub: IntraSocketHub,
        partitions: PartitionMap,
        budget_instructions: float,
    ) -> tuple[float, list[Message]]:
        """Process messages until the instruction budget is exhausted.

        Returns ``(instructions_consumed, completed_messages)``.  Modeled
        messages are charged their pre-computed cost and only consumed if
        it fits the remaining budget; real operations execute first and
        may overdraw the budget by one message (their cost is only known
        afterwards), mirroring how a real worker cannot preempt an
        operator mid-flight.

        Raises:
            MessagingError: if called on a parked worker.
        """
        if not self.is_active:
            raise MessagingError(f"worker {self.worker_id} is parked")
        if hub.vectorized:
            return self._process_quantum_soa(hub, partitions, budget_instructions)
        remaining = budget_instructions
        completed: list[Message] = []
        out_of_budget = False
        # Statistics accumulate in locals and fold into the array-backed
        # counters once per quantum: the per-message hot path stays free
        # of attribute writes and numpy scalar churn.
        acquisitions = 0
        instructions = 0.0
        bytes_accessed = 0.0

        while remaining > 0 and not out_of_budget:
            partition_id = hub.acquire_partition(self.worker_id)
            if partition_id is None:
                break
            acquisitions += 1
            try:
                # Messages are pulled one at a time: dequeuing a large
                # batch up front would only push the unprocessed tail back
                # (the budget decides how far we get, not the batch size),
                # and that round trip dominated the tick cost on deep
                # queues.  The processing decisions are identical.
                while remaining > 0:
                    batch = hub.dequeue_batch(self.worker_id, partition_id, 1)
                    if not batch:
                        break
                    message = batch[0]
                    if message.is_modeled:
                        cost = message.charged_cost()
                        if cost.instructions > remaining and completed:
                            # Budget exhausted: push the message back.
                            hub.requeue_front(self.worker_id, batch)
                            out_of_budget = True
                            break
                    else:
                        cost = self._execute_real(message, partitions)
                    instructions += cost.instructions
                    bytes_accessed += cost.bytes_accessed
                    remaining -= cost.instructions
                    completed.append(message)
            finally:
                hub.release_partition(self.worker_id, partition_id)

        if acquisitions:
            self.stats.add_quantum(
                acquisitions, len(completed), instructions, bytes_accessed
            )
        return budget_instructions - remaining, completed

    def _process_quantum_soa(
        self,
        hub: IntraSocketHub,
        partitions: PartitionMap,
        budget_instructions: float,
    ) -> tuple[float, list]:
        """The per-message loop of :meth:`process_quantum` over a SoA hub.

        A compact run at the queue head is walked cost by cost, reading
        only the costs the budget reaches, until the run ends, the budget
        dies (no requeue), or a message does not fit.  A message that
        does not fit round-trips (dequeued and requeued, float folds
        included) and ends the quantum once anything was consumed; on a
        fresh quantum it is charged anyway (overdraw), mirroring how a
        real worker cannot preempt an operator mid-flight.  The consumed
        prefix leaves the hub in one :meth:`~IntraSocketHub.consume_modeled`
        call.

        The completion list interleaves :class:`CompletedRun` entries
        (compact runs) with plain :class:`Message` objects from the
        object lane, in exact drain order.
        """
        remaining = budget_instructions
        completed: list = []
        out_of_budget = False
        acquisitions = 0
        instructions = 0.0
        bytes_accessed = 0.0
        count = 0  # messages consumed this quantum (scalar `completed`)
        worker_id = self.worker_id

        while remaining > 0 and not out_of_budget:
            partition_id = hub.acquire_partition(worker_id)
            if partition_id is None:
                break
            acquisitions += 1
            try:
                while remaining > 0:
                    run = hub.modeled_run(partition_id)
                    if run:
                        instr, nbytes, head = hub.head_columns(partition_id)
                        k = 0
                        round_trip = False
                        while k < run and remaining > 0:
                            cost = instr.item(head + k)
                            if cost > remaining and (count or k):
                                round_trip = True
                                break
                            instructions += cost
                            bytes_accessed += nbytes.item(head + k)
                            remaining -= cost
                            k += 1
                        query_ids = hub.consume_modeled(
                            worker_id, partition_id, k, round_trip
                        )
                        if k:
                            count += k
                            completed.append(
                                CompletedRun(partition_id, query_ids)
                            )
                        if round_trip:
                            out_of_budget = True
                            break
                        continue
                    popped = hub.pop_object(worker_id, partition_id)
                    if popped is None:
                        break
                    seq, message = popped
                    if message.is_modeled:
                        cost = message.charged_cost()
                        if cost.instructions > remaining and count:
                            hub.unpop_object(
                                worker_id, partition_id, seq, message
                            )
                            out_of_budget = True
                            break
                    else:
                        cost = self._execute_real(message, partitions)
                    instructions += cost.instructions
                    bytes_accessed += cost.bytes_accessed
                    remaining -= cost.instructions
                    count += 1
                    completed.append(message)
            finally:
                hub.release_partition(worker_id, partition_id)

        if acquisitions:
            self.stats.add_quantum(
                acquisitions, count, instructions, bytes_accessed
            )
        return budget_instructions - remaining, completed

    def _execute_real(self, message: Message, partitions: PartitionMap):
        """Run a real operation against its target partition."""
        if message.kind is not MessageKind.WORK or message.operation is None:
            # RESULT messages carry a fixed handling cost.
            return message.charged_cost()
        partition = partitions.partition(message.target_partition)
        result, cost = message.operation(partition)
        message.result = result
        return cost
