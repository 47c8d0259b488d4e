"""Edge cases of the struct-of-arrays intra-socket hub.

The SoA message plane must behave exactly like the object queues under
the awkward interleavings the migration and elasticity layers produce:
deliveries into a quiesced (frozen) partition, acquisition tie-breaks
after adoptions, workers parked mid-batch with a budget-cut round trip
in flight, and arbitrary acquire→drain→release sequences (the hypothesis
conservation property at the end).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbms.intra_socket import IntraSocketHub
from repro.dbms.messages import Message, WorkCost
from repro.dbms.worker import CompletedRun, Worker
from repro.errors import MessagingError


def _bank(hub, targets, costs, first_qid=0):
    """Enqueue one compact bank (fan-out 1 per message) onto ``hub``."""
    hub.enqueue_bank(
        list(targets),
        [float(cost) for cost in costs],
        [0.0] * len(costs),
        list(range(first_qid, first_qid + len(targets))),
    )


def _drain_qids(completed):
    """Flatten a completion list into drained query ids, in drain order."""
    qids = []
    for item in completed:
        if type(item) is CompletedRun:
            qids.extend(int(q) for q in item.query_ids)
        else:
            qids.append(item.query_id)
    return qids


class TestFrozenPartitionEnqueueWhileQuiesced:
    def test_deliveries_land_but_acquisition_stops(self):
        hub = IntraSocketHub(0, [1, 2], vectorized=True)
        hub.freeze_partition(1)
        # Deliveries continue into the quiesced partition — both lanes.
        _bank(hub, [1, 1, 2], [10.0, 20.0, 30.0])
        hub.enqueue(
            Message(query_id=9, target_partition=1, cost=WorkCost(5.0))
        )
        assert hub.queue_depth(1) == 3
        assert hub.pending_messages == 4
        assert hub.pending_cost_instructions() == pytest.approx(65.0)
        # The frozen partition is never handed to a worker, however deep.
        assert hub.acquire_partition(worker_id=7) == 2
        assert hub.acquire_partition(worker_id=8) is None
        hub.release_partition(7, 2)
        # Unfreezing exposes the full backlog accumulated while frozen.
        hub.unfreeze_partition(1)
        assert hub.acquire_partition(worker_id=7) == 1
        assert hub.modeled_run(1) == 2

    def test_evict_while_frozen_materializes_in_order(self):
        hub = IntraSocketHub(0, [1, 2], vectorized=True)
        hub.freeze_partition(1)
        _bank(hub, [1, 1], [10.0, 20.0], first_qid=100)
        hub.enqueue(
            Message(query_id=102, target_partition=1, cost=WorkCost(5.0))
        )
        _bank(hub, [1], [40.0], first_qid=103)
        shipped = hub.evict_partition(1)
        # Two-lane seq merge: compact, compact, object, compact.
        assert [m.query_id for m in shipped] == [100, 101, 102, 103]
        assert [m.cost.instructions for m in shipped] == [10.0, 20.0, 5.0, 40.0]
        # The eviction left the accounting consistent (partition 2 empty).
        assert hub.pending_messages == 0
        assert hub.pending_cost_instructions() == 0.0
        assert 1 not in hub.partition_ids


class TestBankRejection:
    def test_unknown_partition_leaves_the_hub_unchanged(self):
        hub = IntraSocketHub(0, [1, 2], vectorized=True)
        version = hub.tag_version
        # The first two entries are valid; the third is homed elsewhere.
        with pytest.raises(MessagingError):
            _bank(hub, [1, 1, 7], [10.0, 20.0, 30.0])
        assert hub.queue_depth(1) == 0
        assert hub.queue_depth(2) == 0
        assert hub.pending_messages == 0
        assert hub.pending_cost_instructions() == 0.0
        assert hub.pending_by_characteristics() == []
        assert hub.tag_version == version
        assert hub.acquire_partition(worker_id=1) is None
        # A valid bank afterwards drains alone, in arrival order.
        _bank(hub, [1, 1], [10.0, 20.0], first_qid=5)
        worker = Worker(worker_id=1, socket_id=0, hw_thread_id=0)
        used, completed = worker.process_quantum(hub, None, 100.0)
        assert used == 30.0
        assert _drain_qids(completed) == [5, 6]
        assert hub.pending_messages == 0


class TestAdoptedPartitionTieBreak:
    def test_adopted_partitions_rank_after_construction_set(self):
        hub = IntraSocketHub(0, [3, 4], vectorized=True)
        hub.adopt_partition(9)
        hub.adopt_partition(5)
        # Equal depths: the construction-time order wins, then adoption
        # order (9 before 5 — arrival rank, not partition id).
        _bank(hub, [9, 5, 4, 3], [1.0, 1.0, 1.0, 1.0])
        order = []
        for worker_id in range(4):
            pid = hub.acquire_partition(worker_id)
            order.append(pid)
        assert order == [3, 4, 9, 5]

    def test_readopted_partition_moves_to_the_back(self):
        hub = IntraSocketHub(0, [3, 4], vectorized=True)
        _bank(hub, [3], [1.0])
        hub.freeze_partition(3)
        hub.evict_partition(3)
        hub.adopt_partition(3)  # returns home after a residency gap
        _bank(hub, [3, 4], [1.0, 1.0])
        # Re-adoption assigned a fresh (later) arrival rank: 4 wins the
        # equal-depth tie-break now, and the stale heap entries of the
        # evicted residency never resurface.
        assert hub.acquire_partition(worker_id=1) == 4
        assert hub.acquire_partition(worker_id=2) == 3


class TestParkMidBatch:
    def test_budget_cut_round_trip_then_handoff(self):
        hub = IntraSocketHub(0, [1], vectorized=True)
        _bank(hub, [1, 1, 1, 1], [10.0, 10.0, 10.0, 10.0])
        first = Worker(worker_id=1, socket_id=0, hw_thread_id=0)
        used, completed = first.process_quantum(hub, None, 25.0)
        # Two messages fit, the third round-trips (dequeue + requeue).
        assert used == 20.0
        assert _drain_qids(completed) == [0, 1]
        assert hub.owner_of(1) is None  # released on the way out
        assert hub.pending_messages == 2
        # The parked worker's half-drained partition hands off cleanly:
        # a second worker resumes at the round-tripped message.
        second = Worker(worker_id=2, socket_id=0, hw_thread_id=1)
        used, completed = second.process_quantum(hub, None, 100.0)
        assert used == 20.0
        assert _drain_qids(completed) == [2, 3]
        assert hub.pending_messages == 0
        assert hub.pending_cost_instructions() == 0.0
        # Stats attribute the split quantum to the right workers.
        assert first.stats.messages_processed == 2
        assert second.stats.messages_processed == 2

    def test_release_all_after_explicit_acquire(self):
        hub = IntraSocketHub(0, [1, 2], vectorized=True)
        _bank(hub, [1, 2], [10.0, 10.0])
        assert hub.acquire_partition(worker_id=1) is not None
        assert hub.acquire_partition(worker_id=1) is not None
        hub.release_all(1)  # park-time cleanup
        assert hub.owner_of(1) is None
        assert hub.owner_of(2) is None
        # Both partitions are acquirable again.
        assert hub.acquire_partition(worker_id=2) is not None
        assert hub.acquire_partition(worker_id=3) is not None


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # partition index
            st.lists(
                st.floats(min_value=0.5, max_value=50.0),
                min_size=1,
                max_size=40,
            ),
        ),
        min_size=1,
        max_size=6,
    ),
    objects=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.floats(min_value=0.5, max_value=50.0),
        ),
        max_size=4,
    ),
    budgets=st.lists(
        st.floats(min_value=1.0, max_value=400.0), min_size=1, max_size=8
    ),
)
def test_conservation_across_acquire_drain_release(batches, objects, budgets):
    """Nothing is created or lost across acquire→drain→release cycles.

    Messages either complete or stay queued; instruction accounting dies
    to exactly zero when the hub empties; per-partition drain order is
    FIFO over both lanes.
    """
    pids = (11, 22, 33)
    hub = IntraSocketHub(0, pids, vectorized=True)
    enqueued = 0
    next_qid = 0
    for pid_index, costs in batches:
        _bank(
            hub,
            [pids[pid_index]] * len(costs),
            costs,
            first_qid=next_qid,
        )
        next_qid += len(costs)
        enqueued += len(costs)
    for pid_index, cost in objects:
        hub.enqueue(
            Message(
                query_id=next_qid,
                target_partition=pids[pid_index],
                cost=WorkCost(cost),
            )
        )
        next_qid += 1
        enqueued += 1

    drained = []
    worker = Worker(worker_id=1, socket_id=0, hw_thread_id=0)
    for budget in budgets:
        used, completed = worker.process_quantum(hub, None, budget)
        this_drain = _drain_qids(completed)
        drained.extend(this_drain)
        # A quantum may overdraw only on its very first message (a real
        # worker cannot preempt an operator mid-flight) — so an
        # over-budget quantum consumed exactly one message.
        assert used <= budget or len(this_drain) == 1
        # Ownership never leaks out of a quantum.
        assert all(hub.owner_of(pid) is None for pid in pids)

    still_queued = sum(hub.queue_depth(pid) for pid in pids)
    assert len(drained) + still_queued == enqueued
    assert hub.pending_messages == still_queued
    assert len(set(drained)) == len(drained)  # nothing drained twice
    if still_queued == 0:
        assert hub.pending_cost_instructions() == 0.0
    else:
        assert hub.pending_cost_instructions() > 0.0
    # Drain a final unbounded budget: everything must come out, FIFO per
    # partition, and the accounting must snap to exactly zero.
    while hub.pending_messages:
        used, completed = worker.process_quantum(hub, None, 1e12)
        drained.extend(_drain_qids(completed))
        assert used > 0.0
    assert sorted(drained) == list(range(enqueued))
    assert hub.pending_cost_instructions() == 0.0
