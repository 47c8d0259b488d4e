"""Inter-socket communication threads.

The second level of the hierarchical message-passing layer (paper §3):
messages targeting partitions on a remote socket are not sent worker-to-
worker.  Instead, each socket runs one *communication thread* that

1. collects outbound messages destined for each remote socket into a
   per-destination buffer, and
2. periodically transfers whole buffers to the peer communication thread,
   which injects them into its local :class:`IntraSocketHub`.

Batching amortizes the interconnect cost; the transfer itself charges a
small instruction cost on both sides (the communication threads do real
work) and a latency of one flush interval, which the simulation realizes
by flushing once per tick.

The router is also the authority on partition *homes*.  Partition
migration re-homes through :meth:`InterSocketRouter.transfer_partition`;
because delivery re-checks the home per message at flush time, messages
that were already in flight toward the old socket when a partition moved
are forwarded onward (paying another transfer hop) — never lost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import MessagingError
from repro.dbms.config import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.dbms.intra_socket import IntraSocketHub
from repro.dbms.messages import Message, WorkCost


class _BankChunk:
    """A columnar slice of bank messages riding one outbound buffer.

    The vectorized counterpart of buffering ``len(targets)`` individual
    messages: the parallel column lists keep the messages' arrival
    order, and the chunk occupies one deque slot while counting as its
    full message total for buffered-demand and transfer-cost accounting.
    """

    __slots__ = ("targets", "instructions", "bytes_accessed", "query_ids")

    def __init__(
        self,
        targets: list[int],
        instructions: list[float],
        bytes_accessed: list[float],
        query_ids: list[int],
    ) -> None:
        self.targets = targets
        self.instructions = instructions
        self.bytes_accessed = bytes_accessed
        self.query_ids = query_ids

    @property
    def count(self) -> int:
        return len(self.targets)

    def split(self, keys: list) -> dict:
        """Group the rows by ``keys`` (one per row) into sub-chunks.

        Each sub-chunk keeps its rows in chunk order.
        """
        parts: dict = {}
        for key, pid, instr, nbytes, qid in zip(
            keys, self.targets, self.instructions, self.bytes_accessed,
            self.query_ids,
        ):
            part = parts.get(key)
            if part is None:
                part = parts[key] = _BankChunk([], [], [], [])
            part.targets.append(pid)
            part.instructions.append(instr)
            part.bytes_accessed.append(nbytes)
            part.query_ids.append(qid)
        return parts

    def deliver(self, hub: IntraSocketHub) -> None:
        """Enqueue every row on ``hub``'s compact columns."""
        hub.enqueue_bank(
            self.targets, self.instructions, self.bytes_accessed,
            self.query_ids,
        )


#: Instruction cost charged per transferred message on each side.
#: (Default-config alias; tunable per run through ``EngineConfig``.)
TRANSFER_INSTRUCTIONS_PER_MESSAGE = (
    DEFAULT_ENGINE_CONFIG.transfer_instructions_per_message
)
#: Fixed instruction cost per buffer flush (syscall-free polling transfer).
TRANSFER_INSTRUCTIONS_PER_FLUSH = (
    DEFAULT_ENGINE_CONFIG.transfer_instructions_per_flush
)
#: Interconnect bytes per message (header + payload estimate).
TRANSFER_BYTES_PER_MESSAGE = DEFAULT_ENGINE_CONFIG.transfer_bytes_per_message


@dataclass(frozen=True)
class TransferStats:
    """Totals of one flush cycle, for cost accounting and tests."""

    messages_moved: int
    flushes: int
    cost_by_socket: dict[int, WorkCost]
    #: Messages whose target partition moved while they were in flight;
    #: re-buffered toward the new home instead of delivered (a subset of
    #: ``messages_moved``).
    forwarded: int = 0


#: Shared result of a flush cycle with no buffered traffic (the common
#: case on idle and steady ticks).  Frozen and never mutated by callers.
_EMPTY_TRANSFER = TransferStats(messages_moved=0, flushes=0, cost_by_socket={})


class InterSocketRouter:
    """Outbound buffers and transfer logic for all communication threads."""

    def __init__(
        self,
        hubs: dict[int, IntraSocketHub],
        config: EngineConfig | None = None,
        socket_node: dict[int, int] | None = None,
    ):
        if not hubs:
            raise MessagingError("router needs at least one socket hub")
        self._hubs = hubs
        self._config = config or DEFAULT_ENGINE_CONFIG
        #: Node index per socket id; routes crossing a node boundary pay
        #: the (higher) inter-node transfer costs.  ``None`` = the classic
        #: single-server machine: every route is intra-node.
        if socket_node is None:
            socket_node = {sid: 0 for sid in hubs}
        self._socket_node = socket_node
        #: (source socket, destination socket) -> buffered messages.
        self._outbound: dict[tuple[int, int], deque[Message]] = {}
        #: Routes that cross a node boundary (empty on one node).
        self._internode: set[tuple[int, int]] = set()
        for src in hubs:
            for dst in hubs:
                if src != dst:
                    self._outbound[(src, dst)] = deque()
                    if socket_node[src] != socket_node[dst]:
                        self._internode.add((src, dst))
        self._partition_home: dict[int, int] = {}
        for socket_id, hub in hubs.items():
            for pid in hub.partition_ids:
                self._partition_home[pid] = socket_id
        #: Maintained per-sender and total buffered-message counts (chunks
        #: count their full message total), replacing per-call scans.
        self._buffered_by_source: dict[int, int] = dict.fromkeys(hubs, 0)
        self._total_buffered = 0
        self.total_messages_moved = 0
        self.total_forwarded = 0

    def _buffered_add(self, source_socket: int, count: int) -> None:
        self._buffered_by_source[source_socket] += count
        self._total_buffered += count

    # -- routing ------------------------------------------------------------

    def home_socket(self, partition_id: int) -> int:
        """Socket on which a partition is resident.

        Raises:
            MessagingError: for unknown partitions.
        """
        try:
            return self._partition_home[partition_id]
        except KeyError:
            raise MessagingError(f"unknown partition id {partition_id}") from None

    def route(self, source_socket: int, message: Message) -> bool:
        """Route a message from a socket toward its target partition.

        Local targets go straight into the local hub; remote targets are
        buffered for the next communication-thread flush.  Returns True
        when the message was delivered locally (False = buffered).
        """
        if source_socket not in self._hubs:
            raise MessagingError(f"unknown source socket {source_socket}")
        destination = self.home_socket(message.target_partition)
        if destination == source_socket:
            self._hubs[source_socket].enqueue(message)
            return True
        self._outbound[(source_socket, destination)].append(message)
        self._buffered_add(source_socket, 1)
        return False

    def route_bank(
        self,
        sources: list[int],
        targets: list[int],
        instructions: list[float],
        bytes_accessed: list[float],
        query_ids: list[int],
    ) -> None:
        """Route a columnar message block (parallel lists, arrival order).

        Each hub and each outbound buffer receives exactly its subsequence
        of the block, in block order, so delivery and drain order match
        routing the messages one by one.
        """
        homes = self._partition_home
        try:
            routes = [(src, homes[pid]) for src, pid in zip(sources, targets)]
        except KeyError as exc:
            raise MessagingError(f"unknown partition id {exc.args[0]}") from None
        block = _BankChunk(targets, instructions, bytes_accessed, query_ids)
        for route, part in block.split(routes).items():
            src, dst = route
            if src == dst:
                part.deliver(self._hubs[src])
                continue
            if route not in self._outbound:
                raise MessagingError(f"unknown source socket {src}")
            self._outbound[route].append(part)
            self._buffered_add(src, part.count)

    def buffered_count(self, source_socket: int, destination_socket: int) -> int:
        """Messages waiting in one outbound buffer."""
        key = (source_socket, destination_socket)
        if key not in self._outbound:
            raise MessagingError(f"no route {source_socket} -> {destination_socket}")
        return sum(
            item.count if type(item) is _BankChunk else 1
            for item in self._outbound[key]
        )

    @property
    def total_buffered(self) -> int:
        """Messages waiting across all outbound buffers."""
        return self._total_buffered

    def buffered_from(self, source_socket: int) -> int:
        """Messages waiting in all outbound buffers of one sender.

        A socket with a non-empty sender side still owes flush work, so
        the drain logic must not park it yet.
        """
        try:
            return self._buffered_by_source[source_socket]
        except KeyError:
            raise MessagingError(
                f"unknown source socket {source_socket}"
            ) from None

    # -- migration ------------------------------------------------------------

    def rehome_partition(self, partition_id: int, socket_id: int) -> None:
        """Point a partition's home at another socket (catalog only)."""
        self.home_socket(partition_id)  # validate the partition exists
        if socket_id not in self._hubs:
            raise MessagingError(f"unknown socket id {socket_id}")
        self._partition_home[partition_id] = socket_id

    def transfer_partition(
        self,
        partition_id: int,
        target_socket: int,
        messages: list[Message],
        data_bytes: float,
    ) -> WorkCost:
        """Move a partition's home and ship its evicted queue.

        The queued messages enter the normal outbound path toward the new
        home (one flush of latency, standard per-message costs on both
        sides).  The returned :class:`WorkCost` is the *data* copy — a
        per-byte instruction cost over ``data_bytes`` plus one flush
        overhead — which the caller charges to **each** of the two
        sockets involved.

        Raises:
            MessagingError: for unknown ids or a same-socket transfer.
        """
        source = self.home_socket(partition_id)
        if target_socket not in self._hubs:
            raise MessagingError(f"unknown socket id {target_socket}")
        if target_socket == source:
            raise MessagingError(
                f"partition {partition_id} already lives on socket {source}"
            )
        if data_bytes < 0:
            raise MessagingError(f"negative data_bytes {data_bytes}")
        self._partition_home[partition_id] = target_socket
        if messages:
            self._outbound[(source, target_socket)].extend(messages)
            self._buffered_add(source, len(messages))
        if (source, target_socket) in self._internode:
            # Crossing a node boundary: the copy runs over the network,
            # not the coherent interconnect.
            instructions = (
                self._config.internode_migration_instructions_per_byte
                * data_bytes
                + self._config.internode_instructions_per_flush
            )
        else:
            instructions = (
                self._config.migration_instructions_per_byte * data_bytes
                + self._config.transfer_instructions_per_flush
            )
        return WorkCost(instructions=instructions, bytes_accessed=data_bytes)

    # -- transfer ------------------------------------------------------------

    def flush(self) -> TransferStats:
        """Execute one transfer cycle of every communication thread.

        Moves every buffered message to its destination hub and returns
        the instruction/byte cost charged on each socket (sender and
        receiver sides both pay per message; each non-empty buffer pays
        one flush overhead on the sender).  The home is re-checked per
        message on delivery: a message whose partition migrated while it
        was in flight is forwarded toward the new home — it pays another
        hop next flush instead of being delivered to (or lost on) the
        stale socket.
        """
        if not self._total_buffered:
            # Nothing buffered anywhere: the full cycle would only add
            # 0.0 to every socket's overhead balance (an exact no-op for
            # the non-negative balances), so skip building the cost map.
            return _EMPTY_TRANSFER
        cost_by_socket: dict[int, WorkCost] = {
            sid: WorkCost(instructions=0.0) for sid in self._hubs
        }
        intra_message = self._config.transfer_instructions_per_message
        intra_flush = self._config.transfer_instructions_per_flush
        inter_message = self._config.internode_instructions_per_message
        inter_flush = self._config.internode_instructions_per_flush
        bytes_per_message = self._config.transfer_bytes_per_message
        homes = self._partition_home
        moved = 0
        flushes = 0
        forwarded = 0
        #: (destination route, Message | _BankChunk) in sweep order.
        forwards: list[tuple[tuple[int, int], object]] = []
        for (src, dst), buffer in self._outbound.items():
            if not buffer:
                continue
            if (src, dst) in self._internode:
                per_message, per_flush = inter_message, inter_flush
            else:
                per_message, per_flush = intra_message, intra_flush
            flushes += 1
            count = 0
            hub = self._hubs[dst]
            while buffer:
                item = buffer.popleft()
                if type(item) is _BankChunk:
                    count += item.count
                    if all(homes[pid] == dst for pid in item.targets):
                        item.deliver(hub)
                        continue
                    # A partition moved while the chunk was in flight:
                    # deliver the still-home rows, forward the rest as
                    # per-destination sub-chunks (block order is kept
                    # within each).
                    rows_home = [homes[pid] for pid in item.targets]
                    for home, part in item.split(rows_home).items():
                        if home == dst:
                            part.deliver(hub)
                        else:
                            forwards.append(((dst, home), part))
                            forwarded += part.count
                    continue
                count += 1
                home = homes[item.target_partition]
                if home == dst:
                    hub.enqueue(item)
                else:
                    forwards.append(((dst, home), item))
                    forwarded += 1
            moved += count
            self._buffered_add(src, -count)
            per_side = WorkCost(
                instructions=per_message * count,
                bytes_accessed=bytes_per_message * count,
            )
            cost_by_socket[src] = cost_by_socket[src] + per_side + WorkCost(
                instructions=per_flush
            )
            cost_by_socket[dst] = cost_by_socket[dst] + per_side
        # Re-buffered after the sweep so a forwarded message always waits
        # a full flush interval per hop, independent of buffer iteration
        # order.
        for route, item in forwards:
            self._outbound[route].append(item)
            self._buffered_add(
                route[0], item.count if type(item) is _BankChunk else 1
            )
        self.total_messages_moved += moved
        self.total_forwarded += forwarded
        return TransferStats(
            messages_moved=moved,
            flushes=flushes,
            cost_by_socket=cost_by_socket,
            forwarded=forwarded,
        )
