"""C-states: core sleep states and the package/uncore halt dependency.

Single cores or the entire processor can be power-gated when unused
(paper §2.2).  The essential behaviours reproduced here:

* a physical core with no active hardware thread drops into a deep core
  C-state (C6, power gated — near-zero draw); a core whose threads are
  merely pausing sits in C1 (clock gated, residual draw);
* the *uncore* clock of a socket may halt — power-gating the LLC and
  saving up to ~30 W — only if **every** socket of the same node has
  halted its uncore too, because remote sockets of that node may access
  this socket's memory (Fig. 5).  On a cluster machine the dependency is
  node-local: other nodes reach this data over the network, never
  through the uncore;
* waking a core from a deep C-state costs on the order of tens of
  microseconds (the paper cites works measuring "some µs" for C/P-state
  transitions, Fig. 12 context).
"""

from __future__ import annotations

import enum
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.presets import HaswellEPParameters
from repro.hardware.topology import Topology


class CState(enum.Enum):
    """Sleep depth of a physical core."""

    C0 = "C0"  #: active, executing instructions
    C1 = "C1"  #: halted but clock supplied (residual power)
    C6 = "C6"  #: power gated (near-zero power)


class CStateModel:
    """Tracks which hardware threads are active and derives sleep states.

    The DBMS runtime (or the ECL) *parks* and *unparks* hardware threads;
    everything else — core C-state, package idleness, the machine-wide
    uncore-halt condition — is derived from the active-thread set.
    """

    def __init__(
        self,
        topology: Topology,
        params: HaswellEPParameters,
        socket_node: "tuple[int, ...] | None" = None,
    ):
        self._topology = topology
        self._params = params
        #: Node index per socket id.  The Fig. 5 uncore-halt dependency
        #: is *node*-local: remote sockets of the same server reach this
        #: socket's memory through its uncore, but sockets on other
        #: cluster nodes go over the network and do not pin the uncore.
        #: Single-node machines map every socket to node 0, which makes
        #: node-idle identical to the historical machine-idle bit.
        if socket_node is None:
            socket_node = (0,) * len(topology.sockets)
        self._socket_node = tuple(socket_node)
        node_count = max(self._socket_node) + 1
        node_sockets: list[list[int]] = [[] for _ in range(node_count)]
        for sid, node in enumerate(self._socket_node):
            node_sockets[node].append(sid)
        self._node_sockets = tuple(tuple(s) for s in node_sockets)
        #: Threads currently allowed to execute (C0 when they have work).
        self._active_threads: set[int] = set(
            t.global_id for t in topology.iter_threads()
        )
        #: Each socket's own threads (the ``set_socket_threads`` checks).
        self._own_threads: dict[int, frozenset[int]] = {
            s.socket_id: frozenset(s.thread_ids()) for s in topology.sockets
        }
        #: Memo of each socket's active-thread tuple (in
        #: ``threads_on_socket`` order), dropped by every mutation of that
        #: socket's own threads.  A node idle-bit flip bumps a peer
        #: socket's mutation version without touching its threads, so
        #: the peer keeps its tuple object — the worker pool's sync
        #: compares against it.
        self._active_on_socket: dict[int, tuple[int, ...]] = {}
        #: Active-thread count per node (O(1) node-idle checks).
        self._node_threads: list[int] = [0] * node_count
        for thread in topology.iter_threads():
            self._node_threads[self._socket_node[thread.socket_id]] += 1
        #: Threads in a shallow halt (C1) rather than parked deep (C6).
        self._shallow_threads: set[int] = set()
        #: Sockets whose memory holds no partition data (drained by the
        #: placement layer), lifting the cross-socket uncore dependency.
        self._memory_vacated: set[int] = set()
        #: Monotonic counter bumped on every park/unpark mutation; lets
        #: callers detect that the active-thread set is unchanged.
        self._version = 0
        #: Content-fingerprint cache: per-socket interned ids of the
        #: thread-set values.  Invalidation is per socket — parking on
        #: one socket leaves the other's cached fingerprint valid —
        #: except when the node's idle bit flips, which is part of every
        #: node-peer socket's content (the Fig. 5 uncore-halt
        #: dependency) and invalidates all of them.
        self._fingerprint_socket_versions = np.zeros(
            len(topology.sockets), dtype=np.int64
        )
        self._fingerprints: dict[int, tuple[int, int]] = {}
        self._fingerprint_ids: dict[tuple, int] = {}

    @property
    def version(self) -> int:
        """Control-state version (bumps on any thread-set mutation)."""
        return self._version

    def state_fingerprint(self, socket_id: int) -> int:
        """Interned content fingerprint of one socket's C-state inputs.

        Captures everything a socket's derived sleep states depend on:
        its active and shallow thread sets, its memory-vacated flag, and
        the machine-wide idle bit (the Fig. 5 cross-socket uncore-halt
        dependency makes a *remote* socket's activity part of this
        socket's resolution).  Unlike :attr:`version`, the fingerprint
        repeats whenever the same state recurs, letting the machine's
        step-resolution cache hit across park/unpark cycles.
        """
        version = self._fingerprint_socket_versions[socket_id]
        cached = self._fingerprints.get(socket_id)
        if cached is not None and cached[0] == version:
            return cached[1]
        shallow = self._shallow_threads
        content = (
            self.active_threads_on_socket(socket_id),
            tuple(
                t
                for t in self._topology.threads_on_socket(socket_id)
                if t in shallow
            )
            if shallow
            else (),
            socket_id in self._memory_vacated,
            self.node_is_idle(self._socket_node[socket_id]),
        )
        fingerprint = self._fingerprint_ids.setdefault(
            content, len(self._fingerprint_ids)
        )
        self._fingerprints[socket_id] = (version, fingerprint)
        return fingerprint

    def _touch_fingerprint(self, socket_id: int, was_idle: bool) -> None:
        """Invalidate fingerprints after a thread-set mutation: the
        mutated socket always; every node-peer socket when the node's
        idle bit flipped (it is part of each peer's content)."""
        node = self._socket_node[socket_id]
        if self.node_is_idle(node) != was_idle:
            for sid in self._node_sockets[node]:
                self._fingerprint_socket_versions[sid] += 1
        else:
            self._fingerprint_socket_versions[socket_id] += 1

    # -- mutation -------------------------------------------------------------

    def set_active_threads(self, thread_ids: Iterable[int]) -> None:
        """Declare exactly this set of hardware threads active.

        All other threads are parked into the deep state.  Unknown thread
        ids raise :class:`ConfigurationError`.
        """
        ids = set(thread_ids)
        known = {t.global_id for t in self._topology.iter_threads()}
        unknown = ids - known
        if unknown:
            raise ConfigurationError(f"unknown hardware thread ids {sorted(unknown)}")
        self._active_threads = ids
        self._shallow_threads -= ids
        self._node_threads = [0] * len(self._node_threads)
        for tid in ids:
            socket_id = self._topology.thread(tid).socket_id
            self._node_threads[self._socket_node[socket_id]] += 1
        self._active_on_socket.clear()
        self._version += 1
        self._fingerprint_socket_versions += 1

    def set_socket_threads(
        self, socket_id: int, thread_ids: Iterable[int]
    ) -> None:
        """Declare exactly this set of threads active on one socket.

        Threads of other sockets are untouched.  Equivalent to
        :meth:`set_active_threads` with the other sockets' active set
        carried over, but socket-local: only this socket's fingerprint
        is invalidated (plus everyone's when the machine-idle bit
        flips), keeping the step-resolution cache warm for the others.
        """
        own = self._own_threads.get(socket_id)
        if own is None:
            self._topology.socket(socket_id)  # raises TopologyError
        # No copy when the caller passes a frozenset (Configuration.apply).
        ids = frozenset(thread_ids)
        if not ids <= own:
            raise ConfigurationError(
                f"threads {sorted(ids - own)} not on socket {socket_id}"
            )
        node = self._socket_node[socket_id]
        was_idle = self.node_is_idle(node)
        before = len(self.active_threads_on_socket(socket_id))
        self._active_threads.difference_update(own)
        self._active_threads.update(ids)
        self._node_threads[node] += len(ids) - before
        if self._shallow_threads:
            self._shallow_threads.difference_update(ids)
        del self._active_on_socket[socket_id]
        self._version += 1
        self._touch_fingerprint(socket_id, was_idle)

    def park_thread(self, thread_id: int, shallow: bool = False) -> None:
        """Park one thread; ``shallow=True`` leaves it in C1 instead of C6."""
        self._require_known(thread_id)
        socket_id = self._topology.thread(thread_id).socket_id
        node = self._socket_node[socket_id]
        was_idle = self.node_is_idle(node)
        if thread_id in self._active_threads:
            self._active_threads.discard(thread_id)
            self._node_threads[node] -= 1
            self._active_on_socket.pop(socket_id, None)
        if shallow:
            self._shallow_threads.add(thread_id)
        else:
            self._shallow_threads.discard(thread_id)
        self._version += 1
        self._touch_fingerprint(socket_id, was_idle)

    def unpark_thread(self, thread_id: int) -> None:
        """Wake one thread into the active set."""
        self._require_known(thread_id)
        socket_id = self._topology.thread(thread_id).socket_id
        node = self._socket_node[socket_id]
        was_idle = self.node_is_idle(node)
        if thread_id not in self._active_threads:
            self._active_threads.add(thread_id)
            self._node_threads[node] += 1
            self._active_on_socket.pop(socket_id, None)
        self._shallow_threads.discard(thread_id)
        self._version += 1
        self._touch_fingerprint(socket_id, was_idle)

    def set_memory_vacated(self, socket_id: int, vacated: bool) -> None:
        """Declare a socket's memory (un)referenced by remote sockets.

        The placement layer marks a socket *vacated* once every partition
        has migrated off it: no remote access can target its memory, so
        the Fig. 5 uncore dependency no longer applies and the socket may
        halt its uncore alone (package sleep).  Re-populating the socket
        clears the flag.  Bumps the control-state version, because the
        halt condition feeds cached hardware resolutions.
        """
        self._topology.socket(socket_id)  # raises TopologyError if unknown
        if vacated == (socket_id in self._memory_vacated):
            return
        if vacated:
            self._memory_vacated.add(socket_id)
        else:
            self._memory_vacated.discard(socket_id)
        self._version += 1
        self._fingerprint_socket_versions[socket_id] += 1

    def _require_known(self, thread_id: int) -> None:
        self._topology.thread(thread_id)  # raises TopologyError if unknown

    # -- queries -------------------------------------------------------------

    @property
    def active_threads(self) -> frozenset[int]:
        """The set of currently active hardware-thread ids."""
        return frozenset(self._active_threads)

    def socket_mutation_version(self, socket_id: int) -> int:
        """Per-socket change counter for this socket's thread state.

        Bumps whenever the socket's own thread set mutates (and on
        machine-idle flips, which are part of its derived state); equal
        values guarantee the socket's active-thread set is unchanged, so
        per-socket consumers (the worker pool sync) can skip resyncing
        sockets untouched by a reconfiguration elsewhere.
        """
        return int(self._fingerprint_socket_versions[socket_id])

    @property
    def socket_versions(self) -> np.ndarray:
        """Every socket's :meth:`socket_mutation_version`, as one array
        over the socket axis (read-only; the worker-pool sync and the
        machine's resolve memo compare it in one masked pass)."""
        return self._fingerprint_socket_versions

    def thread_is_active(self, thread_id: int) -> bool:
        """Whether a hardware thread is unparked."""
        self._require_known(thread_id)
        return thread_id in self._active_threads

    def active_threads_on_socket(self, socket_id: int) -> tuple[int, ...]:
        """Active thread ids on one socket, in the socket's thread order.

        Memoized until the socket's own thread set next mutates: callers
        get the same tuple object back while it is unchanged.
        """
        cached = self._active_on_socket.get(socket_id)
        if cached is None:
            active = self._active_threads
            cached = tuple(
                tid
                for tid in self._topology.threads_on_socket(socket_id)
                if tid in active
            )
            self._active_on_socket[socket_id] = cached
        return cached

    def core_state(self, socket_id: int, core_id: int) -> CState:
        """Sleep state of a physical core, derived from its threads."""
        core = self._topology.socket(socket_id).cores[core_id]
        ids = set(core.thread_ids())
        if ids & self._active_threads:
            return CState.C0
        if ids & self._shallow_threads:
            return CState.C1
        return CState.C6

    def active_core_count(self, socket_id: int) -> int:
        """Number of physical cores in C0 on a socket."""
        socket = self._topology.socket(socket_id)
        return sum(
            1
            for core in socket.cores
            if set(core.thread_ids()) & self._active_threads
        )

    def socket_is_idle(self, socket_id: int) -> bool:
        """True if no core of the socket is active (no thread of it is)."""
        return not self.active_threads_on_socket(socket_id)

    def machine_is_idle(self) -> bool:
        """True if every socket of the machine is idle.

        Equivalent to every socket's active-core count being zero: a
        core is active iff one of its threads is, and every thread
        belongs to a socket — so the machine is idle exactly when the
        active-thread set is empty (O(1), on the step hot path).
        """
        return not self._active_threads

    def node_is_idle(self, node: int) -> bool:
        """True if every socket of one cluster node is idle.

        On single-node machines there is exactly one node holding every
        socket, so this equals :meth:`machine_is_idle`.  O(1): the model
        maintains an active-thread count per node.
        """
        return self._node_threads[node] == 0

    def node_of_socket(self, socket_id: int) -> int:
        """The cluster-node index owning a socket."""
        return self._socket_node[socket_id]

    def memory_is_vacated(self, socket_id: int) -> bool:
        """Whether the placement layer declared this socket's memory empty."""
        self._topology.socket(socket_id)  # validate id
        return socket_id in self._memory_vacated

    def uncore_may_halt(self, socket_id: int) -> bool:
        """Whether this socket's uncore clock may halt right now.

        The inter-socket dependency of Fig. 5: remote sockets reach this
        socket's memory through its uncore, so halting normally requires
        every socket *of the same node* to be idle — sockets on other
        cluster nodes access this node's data over the network, not the
        uncore, so they never pin it.  A socket whose memory was vacated
        by the placement layer escapes the dependency — nothing remote
        can target it — and may halt as soon as it is idle itself.
        """
        self._topology.socket(socket_id)  # validate id
        if socket_id in self._memory_vacated and self.socket_is_idle(socket_id):
            return True
        return self.node_is_idle(self._socket_node[socket_id])

    def wake_latency_s(self) -> float:
        """Cost of waking a core from the deep state."""
        return self._params.cstate_wake_s
