"""Tests for the inter-socket communication threads."""

import pytest

from repro.errors import MessagingError
from repro.dbms.inter_socket import InterSocketRouter
from repro.dbms.intra_socket import IntraSocketHub
from repro.dbms.messages import Message, WorkCost


def msg(partition: int) -> Message:
    return Message(query_id=0, target_partition=partition, cost=WorkCost(100))


@pytest.fixture
def router():
    hubs = {
        0: IntraSocketHub(0, [0, 2]),
        1: IntraSocketHub(1, [1, 3]),
    }
    return InterSocketRouter(hubs), hubs


class TestRouting:
    def test_local_delivery_immediate(self, router):
        r, hubs = router
        delivered = r.route(0, msg(0))
        assert delivered
        assert hubs[0].pending_messages == 1

    def test_remote_buffered(self, router):
        r, hubs = router
        delivered = r.route(0, msg(1))
        assert not delivered
        assert hubs[1].pending_messages == 0
        assert r.buffered_count(0, 1) == 1
        assert r.total_buffered == 1

    def test_home_socket(self, router):
        r, _ = router
        assert r.home_socket(0) == 0
        assert r.home_socket(3) == 1

    def test_unknown_partition(self, router):
        r, _ = router
        with pytest.raises(MessagingError):
            r.home_socket(9)

    def test_unknown_source(self, router):
        r, _ = router
        with pytest.raises(MessagingError):
            r.route(7, msg(0))

    def test_unknown_buffer(self, router):
        r, _ = router
        with pytest.raises(MessagingError):
            r.buffered_count(0, 0)

    def test_empty_router_rejected(self):
        with pytest.raises(MessagingError):
            InterSocketRouter({})


class TestFlush:
    def test_flush_delivers(self, router):
        r, hubs = router
        r.route(0, msg(1))
        r.route(0, msg(3))
        r.route(1, msg(0))
        stats = r.flush()
        assert stats.messages_moved == 3
        assert hubs[1].pending_messages == 2
        assert hubs[0].pending_messages == 1
        assert r.total_buffered == 0
        assert r.total_messages_moved == 3

    def test_flush_charges_both_sides(self, router):
        r, _ = router
        r.route(0, msg(1))
        stats = r.flush()
        assert stats.cost_by_socket[0].instructions > 0
        assert stats.cost_by_socket[1].instructions > 0
        # Sender pays the per-flush overhead on top.
        assert (
            stats.cost_by_socket[0].instructions
            > stats.cost_by_socket[1].instructions
        )

    def test_empty_flush_is_free(self, router):
        r, _ = router
        stats = r.flush()
        assert stats.messages_moved == 0
        assert stats.flushes == 0
        assert all(c.instructions == 0 for c in stats.cost_by_socket.values())

    def test_batching_amortizes_flush_overhead(self, router):
        r, _ = router
        for _ in range(10):
            r.route(0, msg(1))
        batched = r.flush().cost_by_socket[0].instructions
        r.route(0, msg(1))
        single = r.flush().cost_by_socket[0].instructions
        assert batched < 10 * single


class TestRehoming:
    def test_rehome_redirects_routing(self, router):
        r, hubs = router
        hubs[1].adopt_partition(0)  # the coordinator's hub-side half
        r.rehome_partition(0, 1)
        assert r.home_socket(0) == 1
        assert r.route(1, msg(0))  # now local to socket 1
        assert hubs[1].pending_messages == 1

    def test_rehome_validation(self, router):
        r, _ = router
        with pytest.raises(MessagingError):
            r.rehome_partition(9, 1)
        with pytest.raises(MessagingError):
            r.rehome_partition(0, 5)

    def test_buffered_from_counts_sender_side(self, router):
        r, _ = router
        r.route(0, msg(1))
        r.route(0, msg(3))
        r.route(1, msg(0))
        assert r.buffered_from(0) == 2
        assert r.buffered_from(1) == 1
        with pytest.raises(MessagingError):
            r.buffered_from(7)

    def test_buffered_from_matches_a_scan_of_every_route(self):
        """The per-sender count follows routing, flushes, forwarding and
        a migration's queue eviction."""
        hubs = {
            0: IntraSocketHub(0, [0, 3]),
            1: IntraSocketHub(1, [1, 4]),
            2: IntraSocketHub(2, [2, 5]),
        }
        r = InterSocketRouter(hubs)

        def check():
            for src in hubs:
                scan = sum(
                    r.buffered_count(src, dst) for dst in hubs if dst != src
                )
                assert r.buffered_from(src) == scan

        for src, pid in [(0, 1), (0, 2), (0, 4), (1, 0), (2, 3), (2, 1)]:
            r.route(src, msg(pid))
        check()
        assert r.buffered_from(0) == 3
        # Migrate partition 4 from socket 1 to socket 2 with two queued
        # messages: the eviction is buffered on the 1 -> 2 route, and
        # socket 0's message for 4 is forwarded on the next flush.
        hubs[1].enqueue(msg(4))
        hubs[1].enqueue(msg(4))
        queue = hubs[1].evict_partition(4)
        r.transfer_partition(4, 2, queue, data_bytes=0.0)
        hubs[2].adopt_partition(4)
        check()
        assert r.buffered_from(1) == 3
        stats = r.flush()
        assert stats.forwarded == 1
        check()
        assert r.buffered_from(1) == 1  # 0's message for 4, one hop on
        r.flush()
        check()
        assert r.total_buffered == 0


def _vector_router():
    hubs = {
        0: IntraSocketHub(0, [0, 2], vectorized=True),
        1: IntraSocketHub(1, [1, 3], vectorized=True),
    }
    return InterSocketRouter(hubs), hubs


#: One block routed from socket 0 as (targets, instructions, bytes, query
#: ids): locals for partitions 0 and 2, and remotes for partitions 1 and 3
#: of socket 1, interleaved.
BLOCK = (
    [1, 3, 0, 1, 3, 0, 3, 2, 1],
    [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0],
    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
    [100, 101, 102, 103, 104, 105, 106, 107, 108],
)


def _move_partition_3(r, hubs):
    """Rehome partition 3 to socket 0 while its rows are in flight."""
    hubs[0].adopt_partition(3)
    r.rehome_partition(3, 0)


def _drain(hub, partition_id):
    """(query id, instructions, bytes) of a partition's queue, in order."""
    assert hub.acquire_specific(99, partition_id)
    batch = hub.dequeue_batch(99, partition_id, batch_size=100)
    hub.release_partition(99, partition_id)
    return [
        (m.query_id, m.cost.instructions, m.cost.bytes_accessed)
        for m in batch
    ]


class TestForwarding:
    def test_in_flight_message_follows_the_partition(self, router):
        # Buffer toward the old home, migrate, then flush: the message is
        # forwarded (one extra hop), not delivered to the stale socket.
        r, hubs = router
        r.route(1, msg(0))  # buffered 1 -> 0
        hubs[1].adopt_partition(0)
        r.rehome_partition(0, 1)
        stats = r.flush()
        assert stats.forwarded == 1
        assert r.total_forwarded == 1
        assert hubs[0].pending_messages == 0
        assert r.total_buffered == 1  # waiting for the next hop
        second = r.flush()
        assert second.forwarded == 0
        assert second.messages_moved == 1
        assert hubs[1].pending_messages == 1  # delivered on the new home

    def test_bank_chunk_splits_when_a_target_moved(self):
        r, hubs = _vector_router()
        r.route_bank([0] * len(BLOCK[0]), *BLOCK)
        assert r.buffered_count(0, 1) == 6
        _move_partition_3(r, hubs)
        stats = r.flush()
        assert stats.messages_moved == 6
        assert stats.forwarded == 3
        assert r.total_forwarded == 3
        assert r.total_buffered == 3  # partition 3's rows, one hop behind
        assert hubs[1].queue_depth(1) == 3
        assert hubs[0].queue_depth(3) == 0
        second = r.flush()
        assert second.messages_moved == 3
        assert second.forwarded == 0
        assert hubs[0].queue_depth(3) == 3
        # Both halves keep block order, as do the local deliveries.
        assert [row[0] for row in _drain(hubs[1], 1)] == [100, 103, 108]
        assert [row[0] for row in _drain(hubs[0], 3)] == [101, 104, 106]
        assert [row[0] for row in _drain(hubs[0], 0)] == [102, 105]

    def test_bank_chunk_split_matches_routing_one_by_one(self):
        banked, banked_hubs = _vector_router()
        banked.route_bank([0] * len(BLOCK[0]), *BLOCK)
        single, single_hubs = _vector_router()
        for pid, instr, nbytes, qid in zip(*BLOCK):
            message = Message(
                query_id=qid, target_partition=pid, cost=WorkCost(instr, nbytes)
            )
            single.route(0, message)
        _move_partition_3(banked, banked_hubs)
        _move_partition_3(single, single_hubs)
        assert banked.flush() == single.flush()
        assert banked.flush() == single.flush()
        for sid, pids in ((0, [0, 2, 3]), (1, [1, 3])):
            for pid in pids:
                assert _drain(banked_hubs[sid], pid) == _drain(
                    single_hubs[sid], pid
                )


class TestTransferPartition:
    def test_transfer_rehomes_and_ships_queue(self, router):
        r, hubs = router
        queue = [msg(0), msg(0)]
        cost = r.transfer_partition(0, 1, queue, data_bytes=1000.0)
        assert r.home_socket(0) == 1
        assert r.buffered_count(0, 1) == 2
        assert cost.instructions > 0
        assert cost.bytes_accessed == 1000.0

    def test_transfer_cost_scales_with_bytes(self, router):
        r, _ = router
        small = r.transfer_partition(0, 1, [], data_bytes=1000.0)
        r.rehome_partition(0, 0)
        large = r.transfer_partition(0, 1, [], data_bytes=2_000_000.0)
        assert large.instructions > small.instructions

    def test_transfer_validation(self, router):
        r, _ = router
        with pytest.raises(MessagingError):
            r.transfer_partition(9, 1, [], 0.0)
        with pytest.raises(MessagingError):
            r.transfer_partition(0, 5, [], 0.0)
        with pytest.raises(MessagingError):
            r.transfer_partition(0, 0, [], 0.0)  # already home
        with pytest.raises(MessagingError):
            r.transfer_partition(0, 1, [], -1.0)
