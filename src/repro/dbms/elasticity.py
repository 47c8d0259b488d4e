"""Elastic worker pool: grow and shrink workers without losing partitions.

The original data-oriented architecture statically binds partitions to
worker threads, so disabling a worker makes its partitions unreachable
(paper §3, "Static Mapping" issue).  With the hierarchical message
passing layer, this pool can park any subset of workers at runtime:

* parking a worker releases all partitions it owns — their queued
  messages stay in the hub and are picked up by the remaining workers;
* unparking simply reactivates the worker's polling loop;
* the pool keeps the worker set in lock-step with the machine's active
  hardware threads, so the ECL drives both through one call.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import MessagingError
from repro.dbms.intra_socket import IntraSocketHub
from repro.dbms.worker import Worker, WorkerState, WorkerStats, WorkerStatsArrays
from repro.hardware.topology import Topology


class ElasticWorkerPool:
    """One worker per hardware thread, parkable at runtime."""

    def __init__(self, topology: Topology, hubs: dict[int, IntraSocketHub]):
        self._topology = topology
        self._hubs = hubs
        self._workers: dict[int, Worker] = {}
        threads = list(topology.iter_threads())
        #: One struct-of-arrays counter block shared by every worker, so
        #: :meth:`total_stats` aggregates with vector sums.
        self._stats_arrays = WorkerStatsArrays(len(threads))
        by_socket: dict[int, list[Worker]] = {}
        for index, thread in enumerate(threads):
            worker = Worker(
                worker_id=thread.global_id,
                socket_id=thread.socket_id,
                hw_thread_id=thread.global_id,
                stats=WorkerStats(self._stats_arrays, index),
            )
            self._workers[thread.global_id] = worker
            by_socket.setdefault(thread.socket_id, []).append(worker)
        #: Workers never migrate between sockets, so the per-socket view
        #: is fixed at construction.
        self._by_socket: dict[int, tuple[Worker, ...]] = {
            sid: tuple(workers) for sid, workers in by_socket.items()
        }
        #: Worker state only changes through :meth:`sync_with_threads`,
        #: so the active subset is cached per socket and rebuilt there —
        #: the engine asks for it every tick.
        self._active_by_socket: dict[int, tuple[Worker, ...]] = dict(
            self._by_socket
        )
        #: The active-thread tuple each socket was last synced to.  The
        #: engine passes the C-state model's memoized tuple, which stays
        #: the same object while the socket's threads are unchanged —
        #: for instance across a node idle-bit flip caused by a peer.
        self._synced: dict[int, tuple[int, ...]] = {}

    # -- lookup -----------------------------------------------------------

    def worker(self, hw_thread_id: int) -> Worker:
        """The worker pinned to a hardware thread.

        Raises:
            MessagingError: for unknown thread ids.
        """
        try:
            return self._workers[hw_thread_id]
        except KeyError:
            raise MessagingError(f"no worker on hardware thread {hw_thread_id}") from None

    def workers_on_socket(self, socket_id: int) -> tuple[Worker, ...]:
        """All workers of a socket (active and parked)."""
        return self._by_socket.get(socket_id, ())

    def active_workers(self, socket_id: int) -> tuple[Worker, ...]:
        """Active workers of a socket."""
        return self._active_by_socket.get(socket_id, ())

    def active_count(self, socket_id: int) -> int:
        """Number of active workers on a socket."""
        return len(self._active_by_socket.get(socket_id, ()))

    # -- elasticity -----------------------------------------------------------

    def sync_with_threads(
        self, socket_id: int, active_thread_ids: Iterable[int]
    ) -> None:
        """Match the worker set of a socket to an active-thread set.

        Workers on threads outside the set are parked (releasing their
        partition ownerships); workers on threads inside it are unparked.
        Returns at once when the set equals the one last synced: worker
        state changes nowhere else.
        """
        synced = tuple(active_thread_ids)
        if synced == self._synced.get(socket_id):
            return
        active = set(synced)
        hub = self._hubs[socket_id]
        unparked = []
        for worker in self.workers_on_socket(socket_id):
            if worker.hw_thread_id in active:
                worker.state = WorkerState.ACTIVE
                unparked.append(worker)
            elif worker.state is WorkerState.ACTIVE:
                hub.release_all(worker.worker_id)
                worker.state = WorkerState.PARKED
        self._active_by_socket[socket_id] = tuple(unparked)
        self._synced[socket_id] = synced

    def park_all(self, socket_id: int) -> None:
        """Park every worker of a socket (machine-idle / RTI idle phase)."""
        self.sync_with_threads(socket_id, ())

    def total_stats(self) -> dict[str, float]:
        """Aggregate worker statistics across the machine."""
        arrays = self._stats_arrays
        return {
            "messages_processed": float(arrays.messages_processed.sum()),
            "instructions_consumed": float(arrays.instructions_consumed.sum()),
            "bytes_accessed": float(arrays.bytes_accessed.sum()),
            "acquisitions": float(arrays.acquisitions.sum()),
        }
