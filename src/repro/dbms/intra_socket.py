"""Intra-socket message hub: per-partition queues with worker ownership.

This is the core of the paper's elasticity extension (§3): instead of a
static worker→partition binding, messages for the same partition are
buffered and queued per partition; any worker of the socket can *acquire*
a partition (taking exclusive ownership), drain a batch of its messages,
and *release* it again.  Consequences the implementation enforces:

* at most one worker owns a partition at any time (exclusive access keeps
  partition data structures latch-free),
* parking a worker never strands a partition — its messages remain queued
  and the next active worker picks them up,
* within a socket, load balancing is implicit: free workers grab whichever
  owned-by-nobody partition has pending work, oldest head first.

The hub runs in one of two storage modes.  The classic *scalar* mode
keeps one ``deque[Message]`` per partition.  The *vectorized* mode
(``vectorized=True``, selected by ``EngineConfig.vector_messages``)
stores the high-rate modeled message stream as struct-of-arrays columns
per partition (instruction cost, bytes, query id, enqueue seq) and keeps
an object side lane for everything that needs a real ``Message`` (real
operators, RESULT messages, tagged work).  A per-hub enqueue sequence
number merges the two lanes into one FIFO stream, so drain order, demand
accounting, and ownership behave bit-identically to the scalar mode —
the accounting folds are the scalar mode's chained per-message
arithmetic, run over the columns one value at a time.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable

import numpy as np

from repro.errors import MessagingError, OwnershipError
from repro.dbms.messages import Message, WorkCost

#: Default number of messages a worker drains per ownership acquisition.
DEFAULT_BATCH_SIZE = 64

#: Run length that ``hub.long_run_share`` in ``perfbench/tracer.py``
#: counts against.  No simulator code branches on it: every message-plane
#: entry point has one implementation, a scalar chain over the columns.
SMALL_RUN = 32

#: Demand estimate for messages whose true cost is unknown pre-execution.
NOMINAL_REAL_OPERATION_INSTRUCTIONS = 1000.0

#: Initial capacity of one partition's SoA columns.
_MIN_COLUMNS = 16


def _message_instructions(message: Message) -> float:
    """Instruction estimate of a queued message for the demand signal."""
    if message.cost is not None:
        return message.cost.instructions
    return NOMINAL_REAL_OPERATION_INSTRUCTIONS


class _SoaQueue:
    """Struct-of-arrays queue of one partition (vectorized hubs only).

    Modeled, untagged WORK messages live in four parallel columns
    (instruction cost, bytes accessed, query id, enqueue seq) in the
    index window ``[head, tail)``; everything else — real operators,
    RESULT messages, tagged modeled work — rides the object side lane as
    ``(seq, Message)`` pairs.  The per-hub ``seq`` stamp orders the two
    lanes into one FIFO stream: both lanes are individually seq-sorted,
    so the true queue order is a two-way merge decided by comparing the
    lane heads.
    """

    __slots__ = ("instr", "nbytes", "qid", "seq", "head", "tail", "objs")

    def __init__(self) -> None:
        self.instr = np.empty(_MIN_COLUMNS, dtype=np.float64)
        self.nbytes = np.empty(_MIN_COLUMNS, dtype=np.float64)
        self.qid = np.empty(_MIN_COLUMNS, dtype=np.int64)
        self.seq = np.empty(_MIN_COLUMNS, dtype=np.int64)
        self.head = 0
        self.tail = 0
        self.objs: deque[tuple[int, Message]] = deque()

    def __len__(self) -> int:
        return (self.tail - self.head) + len(self.objs)

    def reserve(self, extra: int) -> None:
        """Make room to append ``extra`` compact entries at ``tail``."""
        capacity = self.instr.shape[0]
        if self.tail + extra <= capacity:
            return
        live = self.tail - self.head
        need = live + extra
        new_capacity = capacity
        while new_capacity < need:
            new_capacity *= 2
        for name in ("instr", "nbytes", "qid", "seq"):
            old = getattr(self, name)
            new = np.empty(new_capacity, dtype=old.dtype)
            new[:live] = old[self.head : self.tail]
            setattr(self, name, new)
        self.head = 0
        self.tail = live

    def modeled_run(self) -> int:
        """Length of the compact run at the queue head (0 = object next)."""
        n = self.tail - self.head
        if not self.objs:
            return n
        if n == 0:
            return 0
        first_obj_seq = self.objs[0][0]
        if self.seq[self.head] > first_obj_seq:
            return 0
        return int(
            np.searchsorted(self.seq[self.head : self.tail], first_obj_seq)
        )

    def front_seq(self) -> int | None:
        """Seq of the queue-head entry, or None when empty."""
        compact = self.seq[self.head] if self.tail > self.head else None
        obj = self.objs[0][0] if self.objs else None
        if compact is None:
            return obj
        if obj is None:
            return int(compact)
        return int(min(compact, obj))


class IntraSocketHub:
    """Message queues and the partition-ownership protocol of one socket."""

    def __init__(
        self,
        socket_id: int,
        partition_ids: Iterable[int],
        vectorized: bool = False,
        changed: set[int] | None = None,
    ):
        self.socket_id = socket_id
        #: Set this hub adds its socket id to whenever its pending state
        #: (messages, instructions, tags) changes — the engine passes one
        #: set shared by all hubs, so a tick re-reads only the hubs in it.
        self._changed: set[int] = set() if changed is None else changed
        self._vectorized = vectorized
        if vectorized:
            self._queues: dict[int, _SoaQueue] = {
                pid: _SoaQueue() for pid in partition_ids
            }
        else:
            self._queues = {pid: deque() for pid in partition_ids}
        if not self._queues:
            raise MessagingError(f"socket {socket_id} hub needs >= 1 partition")
        #: partition_id -> worker_id of the current owner.
        self._owners: dict[int, int] = {}
        #: Partitions quiesced for migration: still enqueue, never acquire.
        self._frozen: set[int] = set()
        self._pending_messages = 0
        self._pending_instructions = 0.0
        #: Pending instructions per characteristics tag (None = untagged).
        self._pending_by_tag: dict[object, tuple[object, float]] = {}
        #: Version stamp of ``_pending_by_tag``; bumps on every enqueue,
        #: drain, requeue, evict, or freeze so that
        #: :meth:`pending_by_characteristics` (and the engine's blended
        #: characteristics on top of it) can memoize per version.
        self._tag_version = 0
        self._tag_cache: list[tuple[object, float]] = []
        self._tag_cache_version = -1
        #: Hub-wide enqueue sequence (vectorized mode): stamps both lanes
        #: so per-partition drain order merges compact columns and object
        #: messages back into arrival order.
        self._next_seq = 0
        #: Arrival order of partitions — the tie-break of
        #: :meth:`acquire_partition` (matches the original dict-scan order
        #: for the construction-time set; adopted partitions append).
        self._order: dict[int, int] = {
            pid: index for index, pid in enumerate(self._queues)
        }
        self._next_order = len(self._queues)
        #: Lazy max-heap of (-depth, order, pid, generation) snapshots.
        #: Entries are pushed on enqueue and on release; while a partition
        #: is unowned its depth only changes through pushes, so the entry
        #: with the newest generation is always exact and every older one
        #: can be discarded on sight.  Acquisition therefore disposes each
        #: entry exactly once — O(log n) amortized per queue mutation,
        #: replacing the original linear scan over all partitions.
        self._depth_heap: list[tuple[int, int, int, int]] = []
        self._entry_gen: dict[int, int] = {}

    def _push_depth(self, partition_id: int) -> None:
        depth = len(self._queues[partition_id])
        if depth:
            gen = self._entry_gen.get(partition_id, 0) + 1
            self._entry_gen[partition_id] = gen
            heapq.heappush(
                self._depth_heap,
                (-depth, self._order[partition_id], partition_id, gen),
            )

    # -- queue side -----------------------------------------------------------

    @property
    def vectorized(self) -> bool:
        """Whether this hub stores modeled messages as SoA columns."""
        return self._vectorized

    @property
    def partition_ids(self) -> tuple[int, ...]:
        """Partitions homed on this socket."""
        return tuple(self._queues)

    @property
    def pending_messages(self) -> int:
        """Total queued messages across all partitions."""
        return self._pending_messages

    def queue_depth(self, partition_id: int) -> int:
        """Queued messages for one partition."""
        self._require_partition(partition_id)
        return len(self._queues[partition_id])

    def enqueue(self, message: Message) -> None:
        """Buffer a message for its target partition.

        In vectorized mode a single message always takes the object side
        lane — the compact columns are fed exclusively through
        :meth:`enqueue_bank`, which is what keeps the column population
        (single-stage, untagged, bank-fabricated) trivially uniform.

        Raises:
            MessagingError: if the partition is not homed on this socket.
        """
        queue = self._queues.get(message.target_partition)
        if queue is None:
            raise MessagingError(
                f"partition {message.target_partition} is not on socket "
                f"{self.socket_id}"
            )
        if self._vectorized:
            seq = self._next_seq
            self._next_seq = seq + 1
            queue.objs.append((seq, message))
        else:
            queue.append(message)
        self._pending_messages += 1
        instructions = _message_instructions(message)
        self._pending_instructions += instructions
        self._tally_tag(message, instructions)
        self._push_depth(message.target_partition)

    def enqueue_bank(
        self,
        targets: list[int],
        instructions: list[float],
        bytes_accessed: list[float],
        query_ids: list[int],
    ) -> None:
        """Buffer a batch of modeled untagged WORK messages (SoA columns).

        The columns are parallel lists, one entry per message, in arrival
        order.  Only valid on a vectorized hub.  The demand accounting
        runs the per-message folds of :meth:`enqueue`, so the pending sums
        stay bit-identical to enqueueing one by one.  A bank that targets
        a partition not homed here is rejected before anything is written.

        Raises:
            MessagingError: on a scalar hub or for partitions not homed
                on this socket.
        """
        if not self._vectorized:
            raise MessagingError("enqueue_bank requires a vectorized hub")
        queues = self._queues
        per_queue: dict[int, int] = {}
        for pid in targets:
            if pid not in queues:
                raise MessagingError(
                    f"partition {pid} is not on socket {self.socket_id}"
                )
            per_queue[pid] = per_queue.get(pid, 0) + 1
        if not per_queue:
            return
        for pid, count in per_queue.items():
            queues[pid].reserve(count)
        seq = self._next_seq
        pending = self._pending_instructions
        stored = self._pending_by_tag.get(None)
        tagged = stored[1] if stored else 0.0
        for pid, instr, nbytes, qid in zip(
            targets, instructions, bytes_accessed, query_ids
        ):
            queue = queues[pid]
            tail = queue.tail
            queue.instr[tail] = instr
            queue.nbytes[tail] = nbytes
            queue.qid[tail] = qid
            queue.seq[tail] = seq
            queue.tail = tail + 1
            seq += 1
            pending += instr
            # The per-message tag tally of :meth:`_tally_tag`: a tally
            # that falls to the epsilon is dropped and restarts at 0.0.
            tagged += instr
            if tagged <= 1e-9:
                tagged = 0.0
        self._next_seq = seq
        for pid in per_queue:
            self._push_depth(pid)
        self._pending_messages += len(targets)
        self._pending_instructions = pending
        if tagged:
            self._pending_by_tag[None] = (None, tagged)
        else:
            self._pending_by_tag.pop(None, None)
        self._tag_version += 1
        self._changed.add(self.socket_id)

    def pending_cost_instructions(self) -> float:
        """Total modeled instructions waiting in all queues.

        Maintained incrementally on enqueue/dequeue; real-operation
        messages contribute a nominal estimate (their true cost is known
        only after execution).  This feeds the demand signal reported to
        the hardware model.
        """
        return self._pending_instructions

    def _tally_tag(self, message: Message, delta: float) -> None:
        chars = message.characteristics
        key = None if chars is None else chars.name
        stored = self._pending_by_tag.get(key)
        total = (stored[1] if stored else 0.0) + delta
        if total <= 1e-9:
            self._pending_by_tag.pop(key, None)
        else:
            self._pending_by_tag[key] = (chars, total)
        self._tag_version += 1
        self._changed.add(self.socket_id)

    def pending_by_characteristics(self) -> list[tuple[object, float]]:
        """(characteristics, pending instructions) per tag.

        The ``None`` tag collects untagged messages; the engine substitutes
        its per-socket default characteristics for it when blending.  The
        returned list is memoized per tag version (it is rebuilt only
        after an enqueue/drain/freeze actually changed the tally) — treat
        it as read-only.
        """
        if self._tag_cache_version != self._tag_version:
            self._tag_cache = list(self._pending_by_tag.values())
            self._tag_cache_version = self._tag_version
        return self._tag_cache

    @property
    def tag_version(self) -> int:
        """Monotone stamp of the pending-by-tag tally (memoization key)."""
        return self._tag_version

    # -- ownership protocol ----------------------------------------------------

    def owner_of(self, partition_id: int) -> int | None:
        """Current owner worker of a partition, or None."""
        self._require_partition(partition_id)
        return self._owners.get(partition_id)

    def acquire_partition(self, worker_id: int) -> int | None:
        """Acquire ownership of the partition with the most pending work.

        Returns the acquired partition id, or None when no unowned
        partition has pending messages.  Preferring the deepest queue
        approximates the implicit load balancing of the paper's design.
        """
        heap = self._depth_heap
        queues = self._queues
        owners = self._owners
        frozen = self._frozen
        entry_gen = self._entry_gen
        while heap:
            neg_depth, order, pid, gen = heap[0]
            queue = queues.get(pid)
            depth = len(queue) if queue is not None else 0
            if (
                queue is None
                or pid in owners
                or pid in frozen
                or gen != entry_gen.get(pid)
                or not depth
            ):
                # Owned partitions re-push on release, frozen ones on
                # unfreeze, evicted ones are gone; superseded or emptied
                # entries are simply dropped.
                heapq.heappop(heap)
                continue
            if -neg_depth != depth:
                # Unreachable through the engine's call sequence (the
                # newest entry of an unowned partition is exact), kept as
                # insurance for external API orderings.
                heapq.heapreplace(heap, (-depth, order, pid, gen))
                continue
            heapq.heappop(heap)
            self._owners[pid] = worker_id
            return pid
        return None

    def acquire_specific(self, worker_id: int, partition_id: int) -> bool:
        """Try to acquire one specific partition.

        False when the partition is already owned or frozen for
        migration.
        """
        self._require_partition(partition_id)
        if partition_id in self._owners or partition_id in self._frozen:
            return False
        self._owners[partition_id] = worker_id
        return True

    def dequeue_batch(
        self, worker_id: int, partition_id: int, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> list[Message]:
        """Drain up to ``batch_size`` messages of an owned partition.

        On a vectorized hub compact entries are materialized back into
        :class:`Message` objects — the vectorized worker drains through
        :meth:`modeled_run`/:meth:`consume_modeled` instead and never
        pays this; the method remains for API compatibility (tests,
        external drivers).

        Raises:
            OwnershipError: if the caller does not own the partition.
        """
        self._require_owner(worker_id, partition_id)
        if batch_size <= 0:
            raise MessagingError(f"batch_size must be >= 1, got {batch_size}")
        queue = self._queues[partition_id]
        batch = []
        if self._vectorized:
            while len(queue) and len(batch) < batch_size:
                batch.append(self._materialize_head(partition_id, queue))
        else:
            while queue and len(batch) < batch_size:
                message = queue.popleft()
                instructions = _message_instructions(message)
                self._pending_instructions -= instructions
                self._tally_tag(message, -instructions)
                batch.append(message)
        self._pending_messages -= len(batch)
        if not self._pending_messages:
            self._pending_instructions = 0.0  # kill float drift at empty
            self._pending_by_tag.clear()
            self._tag_version += 1
            self._changed.add(self.socket_id)
        return batch

    def _materialize_head(self, partition_id: int, queue: _SoaQueue) -> Message:
        """Pop the queue-head entry as a Message, folding out its cost."""
        if queue.modeled_run() > 0:
            h = queue.head
            message = Message(
                query_id=int(queue.qid[h]),
                target_partition=partition_id,
                cost=WorkCost(
                    instructions=float(queue.instr[h]),
                    bytes_accessed=float(queue.nbytes[h]),
                ),
            )
            queue.head = h + 1
        else:
            message = queue.objs.popleft()[1]
        if not len(queue):
            queue.head = queue.tail = 0
        instructions = _message_instructions(message)
        self._pending_instructions -= instructions
        self._tally_tag(message, -instructions)
        return message

    def requeue_front(self, worker_id: int, messages: list[Message]) -> None:
        """Put unprocessed messages back at the head of their queues.

        Used when a worker's instruction budget runs out mid-batch; the
        caller must still own the partitions involved.
        """
        for message in reversed(messages):
            self._require_owner(worker_id, message.target_partition)
            queue = self._queues[message.target_partition]
            if self._vectorized:
                front = queue.front_seq()
                seq = (front - 1) if front is not None else self._next_seq
                queue.objs.appendleft((seq, message))
            else:
                queue.appendleft(message)
            self._pending_messages += 1
            instructions = _message_instructions(message)
            self._pending_instructions += instructions
            self._tally_tag(message, instructions)

    # -- vectorized drain ------------------------------------------------------

    def modeled_run(self, partition_id: int) -> int:
        """Length of the compact (modeled, untagged) run at the queue head.

        0 means the next entry is an object-lane message — or the queue
        is empty (disambiguate via :meth:`queue_depth` or
        :meth:`pop_object` returning None).
        """
        return self._queues[partition_id].modeled_run()

    def head_columns(
        self, partition_id: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Instruction and byte columns of a partition, and its head index.

        The columns are the queue's own arrays (no copy); the compact run
        of :meth:`modeled_run` starts at the head index.  The worker's
        drain reads only the costs its budget reaches.
        """
        queue = self._queues[partition_id]
        return queue.instr, queue.nbytes, queue.head

    def consume_modeled(
        self,
        worker_id: int,
        partition_id: int,
        count: int,
        round_trip: bool = False,
    ) -> list[int]:
        """Consume ``count`` compact entries off an owned partition's head.

        Returns the consumed query ids.  With ``round_trip=True`` the entry
        *after* the consumed run replays the scalar worker's budget-cut
        round trip — dequeued and immediately requeued (the float folds
        of that detour are part of the bit-identity contract) — and stays
        at the queue head.

        Raises:
            OwnershipError: if the caller does not own the partition.
        """
        self._require_owner(worker_id, partition_id)
        queue = self._queues[partition_id]
        folds = count + 1 if round_trip else count
        if folds > queue.modeled_run():
            raise MessagingError(
                f"consume of {folds} exceeds the compact run on partition "
                f"{partition_id}"
            )
        h = queue.head
        query_ids = queue.qid[h : h + count].tolist()
        if folds:
            # The per-message dequeue folds, chained.  The tag tally only
            # falls, so it is dropped at the end iff some step dropped it;
            # the empty-hub snap can only fire on the last dequeue (earlier
            # entries leave this very queue non-empty).
            costs = queue.instr[h : h + folds].tolist()
            pending = self._pending_instructions
            for value in costs:
                pending -= value
            self._pending_instructions = pending
            stored = self._pending_by_tag.get(None)
            if stored is not None:
                total = stored[1]
                for value in costs:
                    total -= value
                if total <= 1e-9:
                    self._pending_by_tag.pop(None, None)
                else:
                    self._pending_by_tag[None] = (None, total)
            self._pending_messages -= folds
            if not self._pending_messages:
                self._pending_instructions = 0.0  # kill float drift at empty
                self._pending_by_tag.clear()
        queue.head = h + count
        if round_trip:
            requeued = queue.instr.item(queue.head)
            self._pending_messages += 1
            self._pending_instructions += requeued
            stored = self._pending_by_tag.get(None)
            total = (stored[1] if stored else 0.0) + requeued
            if total <= 1e-9:
                self._pending_by_tag.pop(None, None)
            else:
                self._pending_by_tag[None] = (None, total)
        elif not len(queue):
            queue.head = queue.tail = 0
        self._tag_version += 1
        self._changed.add(self.socket_id)
        return query_ids

    def pop_object(
        self, worker_id: int, partition_id: int
    ) -> tuple[int, Message] | None:
        """Dequeue the object-lane message at an owned partition's head.

        Returns ``(seq, message)``, or None when the partition queue is
        empty.  Must only be called when :meth:`modeled_run` is 0.

        Raises:
            OwnershipError: if the caller does not own the partition.
        """
        self._require_owner(worker_id, partition_id)
        queue = self._queues[partition_id]
        if not queue.objs:
            return None
        seq, message = queue.objs.popleft()
        if not len(queue):
            queue.head = queue.tail = 0
        instructions = _message_instructions(message)
        self._pending_instructions -= instructions
        self._tally_tag(message, -instructions)
        self._pending_messages -= 1
        if not self._pending_messages:
            self._pending_instructions = 0.0  # kill float drift at empty
            self._pending_by_tag.clear()
            self._tag_version += 1
            self._changed.add(self.socket_id)
        return seq, message

    def unpop_object(
        self, worker_id: int, partition_id: int, seq: int, message: Message
    ) -> None:
        """Requeue a just-popped object-lane message at the queue head.

        The budget-cut round trip of the vectorized worker: the folds
        mirror :meth:`requeue_front` exactly (same chained adds).
        """
        self._require_owner(worker_id, partition_id)
        self._queues[partition_id].objs.appendleft((seq, message))
        self._pending_messages += 1
        instructions = _message_instructions(message)
        self._pending_instructions += instructions
        self._tally_tag(message, instructions)

    # -- ownership release -----------------------------------------------------

    def release_partition(self, worker_id: int, partition_id: int) -> None:
        """Release ownership of a partition.

        Raises:
            OwnershipError: if the caller does not own the partition.
        """
        self._require_owner(worker_id, partition_id)
        del self._owners[partition_id]
        self._push_depth(partition_id)

    def release_all(self, worker_id: int) -> None:
        """Release every partition owned by a worker (park-time cleanup)."""
        if not self._owners:
            return
        owned = [pid for pid, wid in self._owners.items() if wid == worker_id]
        for pid in owned:
            del self._owners[pid]
            self._push_depth(pid)

    # -- migration support -------------------------------------------------------
    #
    # The quiesce/evict/adopt trio below is driven exclusively by the
    # migration protocol (:mod:`repro.placement.migration`); workers and
    # the router keep using the queue/ownership APIs above.

    def frozen_partitions(self) -> frozenset[int]:
        """Partitions currently quiesced for migration."""
        return frozenset(self._frozen)

    def freeze_partition(self, partition_id: int) -> None:
        """Quiesce a partition: deliveries continue, acquisition stops.

        A current owner keeps the partition until it releases normally
        (ownership is always released within the tick it was taken).
        """
        self._require_partition(partition_id)
        self._frozen.add(partition_id)
        self._tag_version += 1
        self._changed.add(self.socket_id)

    def unfreeze_partition(self, partition_id: int) -> None:
        """Make a frozen partition acquirable again (aborted migration)."""
        self._require_partition(partition_id)
        self._frozen.discard(partition_id)
        self._push_depth(partition_id)
        self._tag_version += 1
        self._changed.add(self.socket_id)

    def evict_partition(self, partition_id: int) -> list[Message]:
        """Remove a partition from this hub, returning its queued messages.

        The partition must be unowned (quiesced).  Its messages leave the
        pending accounting — the caller ships them to the new home socket
        through the router, so they are in transit, not lost.  On a
        vectorized hub the compact entries are materialized back into
        :class:`Message` objects (in queue order, merged with the object
        lane) — an evicted queue travels the scalar transfer path either
        way.

        Raises:
            OwnershipError: while a worker still owns the partition.
        """
        self._require_partition(partition_id)
        owner = self._owners.get(partition_id)
        if owner is not None:
            raise OwnershipError(
                f"cannot evict partition {partition_id}: owned by worker "
                f"{owner}"
            )
        queue = self._queues.pop(partition_id)
        if self._vectorized:
            messages = self._materialize_all(partition_id, queue)
        else:
            messages = list(queue)
        for message in messages:
            instructions = _message_instructions(message)
            self._pending_instructions -= instructions
            self._tally_tag(message, -instructions)
        self._pending_messages -= len(messages)
        if not self._pending_messages:
            self._pending_instructions = 0.0  # kill float drift at empty
            self._pending_by_tag.clear()
            self._tag_version += 1
            self._changed.add(self.socket_id)
        self._frozen.discard(partition_id)
        self._order.pop(partition_id, None)
        # _entry_gen is kept on purpose: stale heap entries of the evicted
        # partition must never collide with generations pushed after a
        # later re-adoption, so the counter survives residency gaps.
        return messages

    @staticmethod
    def _materialize_all(partition_id: int, queue: _SoaQueue) -> list[Message]:
        """Materialize a whole SoA queue into Messages, in queue order."""
        messages: list[Message] = []
        h = queue.head
        objs = iter(queue.objs)
        next_obj = next(objs, None)
        while h < queue.tail or next_obj is not None:
            if next_obj is None or (
                h < queue.tail and queue.seq[h] < next_obj[0]
            ):
                messages.append(
                    Message(
                        query_id=int(queue.qid[h]),
                        target_partition=partition_id,
                        cost=WorkCost(
                            instructions=float(queue.instr[h]),
                            bytes_accessed=float(queue.nbytes[h]),
                        ),
                    )
                )
                h += 1
            else:
                messages.append(next_obj[1])
                next_obj = next(objs, None)
        return messages

    def adopt_partition(self, partition_id: int) -> None:
        """Home a migrated partition on this socket.

        The partition arrives with an empty queue; its shipped messages
        follow through the normal inter-socket transfer path and enqueue
        on delivery.

        Raises:
            MessagingError: if the partition is already homed here.
        """
        if partition_id in self._queues:
            raise MessagingError(
                f"partition {partition_id} is already on socket "
                f"{self.socket_id}"
            )
        self._queues[partition_id] = _SoaQueue() if self._vectorized else deque()
        self._order[partition_id] = self._next_order
        self._next_order += 1

    def _require_partition(self, partition_id: int) -> None:
        if partition_id not in self._queues:
            raise MessagingError(
                f"partition {partition_id} is not on socket {self.socket_id}"
            )

    def _require_owner(self, worker_id: int, partition_id: int) -> None:
        self._require_partition(partition_id)
        owner = self._owners.get(partition_id)
        if owner != worker_id:
            raise OwnershipError(
                f"worker {worker_id} does not own partition {partition_id} "
                f"(owner: {owner})"
            )
