"""Elastic data-oriented DBMS runtime.

Implements the paper's §3 architecture:

* **Hierarchical message passing** — within a socket, messages for a
  partition are buffered in per-partition queues; workers repeatedly take
  *ownership* of a partition, drain a batch, and release it
  (:mod:`repro.dbms.intra_socket`).  Between sockets, one communication
  thread per socket batches and transfers remote messages
  (:mod:`repro.dbms.inter_socket`).
* **Elastic workers** — because partitions are no longer bound to a fixed
  worker, worker threads can be parked/unparked at runtime without losing
  access to any partition (:mod:`repro.dbms.elasticity`,
  :mod:`repro.dbms.worker`).
* **Cost-accounted execution** — operators execute for real against the
  storage layer while reporting instruction/byte costs; high-rate
  simulations can run the same operators in modeled mode
  (:mod:`repro.dbms.execution`).
* **Queries and statistics** — multi-stage query tracking, worker
  utilization, and query-latency statistics consumed by the ECL
  (:mod:`repro.dbms.queries`, :mod:`repro.dbms.stats`).

:class:`repro.dbms.engine.DatabaseEngine` is the facade tying the runtime
to a :class:`repro.hardware.machine.Machine`.
"""

from repro.dbms.messages import Message, MessageKind, WorkCost
from repro.dbms.intra_socket import IntraSocketHub
from repro.dbms.inter_socket import InterSocketRouter
from repro.dbms.worker import Worker, WorkerState
from repro.dbms.elasticity import ElasticWorkerPool
from repro.dbms.queries import Query, QueryStage, QueryTracker
from repro.dbms.stats import LatencyTracker, UtilizationTracker
from repro.dbms.engine import DatabaseEngine

__all__ = [
    "Message",
    "MessageKind",
    "WorkCost",
    "IntraSocketHub",
    "InterSocketRouter",
    "Worker",
    "WorkerState",
    "ElasticWorkerPool",
    "Query",
    "QueryStage",
    "QueryTracker",
    "LatencyTracker",
    "UtilizationTracker",
    "DatabaseEngine",
]
