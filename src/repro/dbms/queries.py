"""Queries: multi-stage message graphs and their completion tracking.

A query fans out into stage-0 messages (one per target partition); when
every message of a stage has been processed, the next stage is dispatched
(e.g. a join/aggregation step at a coordinator partition).  When the last
stage completes, the query's latency is the interval from arrival to the
final message completion — the metric the system-level ECL supervises
against the user-defined limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.dbms.messages import Message

_query_ids = itertools.count()


def take_query_ids(count: int) -> int:
    """Reserve ``count`` consecutive query ids; returns the first.

    Bank fabrication consumes the same global id stream as per-object
    :class:`Query` construction (one id per query, in arrival order), so
    a vectorized run assigns exactly the ids the scalar run would.
    """
    first = next(_query_ids)
    for _ in range(count - 1):
        next(_query_ids)
    return first


@dataclass
class QueryStage:
    """One stage: messages dispatched together once the prior stage ends."""

    messages: list[Message]

    def __post_init__(self) -> None:
        if not self.messages:
            raise SimulationError("a query stage needs at least one message")


@dataclass
class Query:
    """One client query: an ordered list of stages."""

    arrival_s: float
    stages: list[QueryStage]
    coordinator_socket: int = 0
    query_id: int = field(default_factory=lambda: next(_query_ids))

    def __post_init__(self) -> None:
        if not self.stages:
            raise SimulationError("a query needs at least one stage")
        for stage in self.stages:
            for message in stage.messages:
                message.query_id = self.query_id
                message.created_at_s = self.arrival_s


@dataclass(frozen=True)
class QueryCompletion:
    """Completion record of one query."""

    query_id: int
    arrival_s: float
    completion_s: float

    @property
    def latency_s(self) -> float:
        """End-to-end query latency."""
        return self.completion_s - self.arrival_s


class QueryTracker:
    """Tracks outstanding messages of in-flight queries.

    The engine calls :meth:`dispatch` on arrival (getting the stage-0
    messages to route) and :meth:`on_message_done` per processed message
    (getting either follow-up messages to route or a completion record).
    """

    def __init__(self) -> None:
        self._queries: dict[int, Query] = {}
        self._stage_index: dict[int, int] = {}
        self._remaining: dict[int, int] = {}
        self.completed_count = 0
        self.dispatched_count = 0
        # Dense store for bank-registered (compact, single-stage) queries:
        # remaining-message counts and arrival times indexed by
        # ``query_id - _bank_base``.  A slot of 0 in ``_bank_remaining``
        # means absent-or-completed; dict-registered queries leave holes.
        self._bank_base: int | None = None
        self._bank_remaining = np.zeros(0, dtype=np.int32)
        self._bank_arrivals = np.zeros(0, dtype=np.float64)
        self._bank_in_flight = 0

    @property
    def in_flight(self) -> int:
        """Number of queries currently being processed."""
        return len(self._queries) + self._bank_in_flight

    def dispatch(self, query: Query) -> list[Message]:
        """Register a query and return its stage-0 messages.

        Raises:
            SimulationError: if the query id is already in flight.
        """
        if query.query_id in self._queries:
            raise SimulationError(f"query {query.query_id} already dispatched")
        self._queries[query.query_id] = query
        self._stage_index[query.query_id] = 0
        first = query.stages[0]
        self._remaining[query.query_id] = len(first.messages)
        self.dispatched_count += 1
        return list(first.messages)

    def register_bank(
        self, first_query_id: int, fan_out: int, arrivals_s: np.ndarray
    ) -> None:
        """Register a block of single-stage compact queries.

        The block covers ``arrivals_s.size`` consecutive query ids
        starting at ``first_query_id``, each fanning out into ``fan_out``
        messages.  Compact queries carry no :class:`Query` object; their
        completion is settled per drained run via :meth:`on_compact_done`
        (or per materialized message via :meth:`on_message_done`, e.g.
        after a migration evicted their messages into the object lane).
        """
        n = int(arrivals_s.size)
        if n == 0:
            return
        if self._bank_base is None:
            self._bank_base = first_query_id
        lo = first_query_id - self._bank_base
        if lo < 0:
            raise SimulationError("bank query ids must be monotone")
        hi = lo + n
        if hi > self._bank_remaining.size:
            capacity = max(1024, 2 * self._bank_remaining.size)
            while capacity < hi:
                capacity *= 2
            remaining = np.zeros(capacity, dtype=np.int32)
            remaining[: self._bank_remaining.size] = self._bank_remaining
            arrivals = np.zeros(capacity, dtype=np.float64)
            arrivals[: self._bank_arrivals.size] = self._bank_arrivals
            self._bank_remaining = remaining
            self._bank_arrivals = arrivals
        remaining = self._bank_remaining
        if any(remaining[slot] for slot in range(lo, hi)):
            raise SimulationError(
                f"bank block at query {first_query_id} overlaps in-flight ids"
            )
        self._bank_remaining[lo:hi] = fan_out
        self._bank_arrivals[lo:hi] = arrivals_s
        self._bank_in_flight += n
        self.dispatched_count += n

    def on_compact_done(
        self, query_ids: list[int], now_s: float
    ) -> list[QueryCompletion]:
        """Account one drained compact run of bank-registered messages.

        ``query_ids`` is the run's id list.  Decrements the remaining-
        message count per message and returns the completions in the
        order the per-message path emits them: a query completes at its
        last message of the run, the decrement that reaches zero.
        """
        base = self._bank_base
        if base is None:
            raise SimulationError("compact run before any bank registration")
        remaining = self._bank_remaining
        size = remaining.size
        done: list[int] = []
        for qid in query_ids:
            slot = qid - base
            if not 0 <= slot < size or not remaining[slot]:
                raise SimulationError("message for unknown query in compact run")
            left = int(remaining[slot]) - 1
            remaining[slot] = left
            if not left:
                done.append(qid)
        if not done:
            return []
        self._bank_in_flight -= len(done)
        self.completed_count += len(done)
        arrivals = self._bank_arrivals
        return [
            QueryCompletion(
                query_id=qid,
                arrival_s=float(arrivals[qid - base]),
                completion_s=now_s,
            )
            for qid in done
        ]

    def on_message_done(
        self, message: Message, now_s: float
    ) -> tuple[list[Message], QueryCompletion | None]:
        """Account one processed message.

        Returns ``(followup_messages, completion)`` where at most one of
        the two is non-empty/None.  Unknown query ids raise
        :class:`SimulationError` (a message must never outlive its query).
        """
        qid = message.query_id
        if qid not in self._queries:
            # Bank-registered query whose message was materialized into
            # an object (e.g. evicted by a migration): settle it against
            # the dense store, one message at a time.
            base = self._bank_base
            slot = qid - base if base is not None else -1
            if 0 <= slot < self._bank_remaining.size and self._bank_remaining[slot]:
                left = int(self._bank_remaining[slot]) - 1
                self._bank_remaining[slot] = left
                if left:
                    return [], None
                self._bank_in_flight -= 1
                self.completed_count += 1
                return [], QueryCompletion(
                    query_id=qid,
                    arrival_s=float(self._bank_arrivals[slot]),
                    completion_s=now_s,
                )
            raise SimulationError(f"message for unknown query {qid}")
        self._remaining[qid] -= 1
        if self._remaining[qid] > 0:
            return [], None

        query = self._queries[qid]
        stage = self._stage_index[qid] + 1
        if stage < len(query.stages):
            self._stage_index[qid] = stage
            next_stage = query.stages[stage]
            for msg in next_stage.messages:
                msg.created_at_s = now_s
            self._remaining[qid] = len(next_stage.messages)
            return list(next_stage.messages), None

        del self._queries[qid]
        del self._stage_index[qid]
        del self._remaining[qid]
        self.completed_count += 1
        completion = QueryCompletion(
            query_id=qid, arrival_s=query.arrival_s, completion_s=now_s
        )
        return [], completion
