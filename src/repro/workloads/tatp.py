"""TATP — the Telecom Application Transaction Processing benchmark.

The paper uses TATP [9] as its OLTP workload (Table 1).  We implement the
standard schema (``subscriber``, ``access_info``, ``special_facility``,
``call_forwarding``), hash-partitioned by subscriber id, and the standard
seven-transaction mix:

======================  =====  =======================================
transaction              mix    operations
======================  =====  =======================================
GET_SUBSCRIBER_DATA      35 %   1 point read (subscriber)
GET_NEW_DESTINATION      10 %   2 reads (special_facility ⋈ call_fwd)
GET_ACCESS_DATA          35 %   1 point read (access_info)
UPDATE_SUBSCRIBER_DATA    2 %   2 updates (subscriber, special_fac.)
UPDATE_LOCATION          14 %   1 secondary lookup + 1 update
INSERT_CALL_FORWARDING    2 %   1 read + 1 insert
DELETE_CALL_FORWARDING    2 %   1 delete (modeled as update)
======================  =====  =======================================

Transactions route to the partition owning their subscriber; a share of
them (secondary-key routing, UPDATE_LOCATION by ``sub_nbr``) needs a
second partition, which exercises the inter-socket message path — the
paper notes this cross-partition communication is what pushes TATP
toward more threads at medium frequency, shrinking its savings relative
to the pure key-value workload.
"""

from __future__ import annotations

import numpy as np

from repro.dbms.execution import (
    insert_op,
    lookup_op,
    modeled_lookup_cost,
    modeled_scan_cost,
    update_op,
)
from repro.dbms.messages import Message, WorkCost
from repro.dbms.queries import Query, QueryStage
from repro.hardware.perfmodel import WorkloadCharacteristics
from repro.storage.partition import PartitionMap, hash_partition
from repro.storage.schema import DataType, Schema
from repro.workloads.base import Workload, WorkloadVariant

SUBSCRIBER_SCHEMA = Schema.of(
    s_id=DataType.INT64,
    sub_nbr=DataType.INT64,
    bit_1=DataType.INT32,
    hex_1=DataType.INT32,
    byte2_1=DataType.INT32,
    msc_location=DataType.INT64,
    vlr_location=DataType.INT64,
)
ACCESS_INFO_SCHEMA = Schema.of(
    s_id=DataType.INT64,
    ai_type=DataType.INT32,
    data1=DataType.INT32,
    data2=DataType.INT32,
    data3=DataType.STRING,
    data4=DataType.STRING,
)
SPECIAL_FACILITY_SCHEMA = Schema.of(
    s_id=DataType.INT64,
    sf_type=DataType.INT32,
    is_active=DataType.INT32,
    error_cntrl=DataType.INT32,
    data_a=DataType.INT32,
    data_b=DataType.STRING,
)
CALL_FORWARDING_SCHEMA = Schema.of(
    s_id=DataType.INT64,
    sf_type=DataType.INT32,
    start_time=DataType.INT32,
    end_time=DataType.INT32,
    numberx=DataType.INT64,
)

#: (transaction name, probability, reads, writes, cross-partition probability)
TRANSACTION_MIX: tuple[tuple[str, float, int, int, float], ...] = (
    ("GET_SUBSCRIBER_DATA", 0.35, 1, 0, 0.0),
    ("GET_NEW_DESTINATION", 0.10, 2, 0, 0.0),
    ("GET_ACCESS_DATA", 0.35, 1, 0, 0.0),
    ("UPDATE_SUBSCRIBER_DATA", 0.02, 0, 2, 0.0),
    ("UPDATE_LOCATION", 0.14, 1, 1, 1.0),
    ("INSERT_CALL_FORWARDING", 0.02, 1, 1, 0.3),
    ("DELETE_CALL_FORWARDING", 0.02, 0, 1, 0.0),
)
#: Mix-weighted share of transactions that hop to a second partition.
CROSS_PARTITION_FRACTION = sum(p * x for _, p, _, _, x in TRANSACTION_MIX)

INDEXED_CHARACTERISTICS = WorkloadCharacteristics(
    name="tatp-indexed",
    base_cpi=0.75,
    ht_speedup=1.25,
    bytes_per_instr=0.35,
    miss_rate=0.003,
)

NON_INDEXED_CHARACTERISTICS = WorkloadCharacteristics(
    name="tatp-non-indexed",
    base_cpi=0.70,
    ht_speedup=1.10,
    bytes_per_instr=2.0,
)

#: Subscriber rows per partition used for modeled scan costs.
SUBSCRIBERS_PER_PARTITION = 20_000


class TatpWorkload(Workload):
    """TATP with client-side transaction batching (modeled mode)."""

    def __init__(
        self,
        variant: WorkloadVariant = WorkloadVariant.INDEXED,
        transactions_per_query: int | None = None,
    ):
        super().__init__(variant)
        if transactions_per_query is None:
            transactions_per_query = 20_000 if self.is_indexed else 200
        if transactions_per_query < 1:
            raise ValueError(
                f"transactions_per_query must be >= 1, got {transactions_per_query}"
            )
        self.transactions_per_query = transactions_per_query
        #: Per-query constants of :meth:`make_modeled_query`, which
        #: depend only on the variant: derived once here instead of once
        #: per query (each is a loop of ``WorkCost`` additions).
        self._average_cost = self.average_transaction_cost()
        self._hop_cost = self._transaction_cost(reads=1, writes=0)

    @property
    def name(self) -> str:
        return "tatp"

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        if self.is_indexed:
            return INDEXED_CHARACTERISTICS
        return NON_INDEXED_CHARACTERISTICS

    @property
    def nominal_peak_qps(self) -> float:
        if self.is_indexed:
            return 4700.0 * (20_000 / self.transactions_per_query)
        return 1900.0 * (200 / self.transactions_per_query)

    # -- modeled mode ---------------------------------------------------------

    def _transaction_cost(self, reads: int, writes: int) -> WorkCost:
        """Modeled cost of one transaction's partition-local work."""
        if self.is_indexed:
            read_cost = modeled_lookup_cost(probes=1.4)
            write_cost = WorkCost(instructions=520.0, bytes_accessed=192.0)
        else:
            read_cost = modeled_scan_cost(
                rows=SUBSCRIBERS_PER_PARTITION, row_bytes=8, selectivity=1e-4
            )
            write_cost = read_cost + WorkCost(instructions=180.0, bytes_accessed=64.0)
        total = WorkCost(instructions=0.0)
        for _ in range(reads):
            total = total + read_cost
        for _ in range(writes):
            total = total + write_cost
        return total

    def average_transaction_cost(self) -> WorkCost:
        """Mix-weighted cost of one transaction (used for calibration)."""
        total = WorkCost(instructions=0.0)
        for _, prob, reads, writes, _ in TRANSACTION_MIX:
            cost = self._transaction_cost(reads, writes)
            total = total + WorkCost(
                instructions=cost.instructions * prob,
                bytes_accessed=cost.bytes_accessed * prob,
            )
        return total

    def make_modeled_query(
        self, rng: np.random.Generator, arrival_s: float, partitions: PartitionMap
    ) -> Query:
        """One batch of transactions, fanned over a handful of partitions.

        Cross-partition transactions add a second stage routed to another
        partition (the secondary-key hop), mirroring the message flow of
        UPDATE_LOCATION in the real system.
        """
        avg = self._average_cost
        fan_out = min(8, len(partitions))
        per_partition = self.transactions_per_query / fan_out
        targets = [int(p) for p in rng.choice(len(partitions), fan_out, replace=False)]
        stage0 = [
            Message(
                query_id=-1,
                target_partition=pid,
                cost=WorkCost(
                    instructions=avg.instructions * per_partition,
                    bytes_accessed=avg.bytes_accessed * per_partition,
                ),
            )
            for pid in targets
        ]
        # Secondary-key hops: ~15 % of transactions touch a second partition.
        cross_fraction = CROSS_PARTITION_FRACTION
        hop_cost = self._hop_cost
        hop_partition = int(rng.integers(0, len(partitions)))
        stage1 = [
            Message(
                query_id=-1,
                target_partition=hop_partition,
                cost=WorkCost(
                    instructions=hop_cost.instructions
                    * self.transactions_per_query
                    * cross_fraction,
                    bytes_accessed=hop_cost.bytes_accessed
                    * self.transactions_per_query
                    * cross_fraction,
                ),
            )
        ]
        coordinator = int(rng.integers(0, partitions.socket_count))
        return Query(
            arrival_s=arrival_s,
            stages=[QueryStage(stage0), QueryStage(stage1)],
            coordinator_socket=coordinator,
        )

    # -- real mode ---------------------------------------------------------------

    def setup_real(
        self, partitions: PartitionMap, scale: int, rng: np.random.Generator
    ) -> None:
        """Load ``scale`` subscribers with their dependent rows."""
        partitions.create_table_everywhere("subscriber", SUBSCRIBER_SCHEMA)
        partitions.create_table_everywhere("access_info", ACCESS_INFO_SCHEMA)
        partitions.create_table_everywhere(
            "special_facility", SPECIAL_FACILITY_SCHEMA
        )
        partitions.create_table_everywhere(
            "call_forwarding", CALL_FORWARDING_SCHEMA
        )
        for s_id in range(1, scale + 1):
            partition = partitions.partition_for_key(s_id)
            partition.table("subscriber").insert(
                (
                    s_id,
                    s_id * 7919 % (10**10),
                    int(rng.integers(0, 2)),
                    int(rng.integers(0, 16)),
                    int(rng.integers(0, 256)),
                    int(rng.integers(0, 2**31)),
                    int(rng.integers(0, 2**31)),
                )
            )
            for ai_type in range(1, int(rng.integers(1, 5))):
                partition.table("access_info").insert(
                    (
                        s_id,
                        ai_type,
                        int(rng.integers(0, 256)),
                        int(rng.integers(0, 256)),
                        "data3",
                        "data4",
                    )
                )
            for sf_type in range(1, int(rng.integers(1, 5))):
                partition.table("special_facility").insert(
                    (
                        s_id,
                        sf_type,
                        int(rng.integers(0, 2)),
                        int(rng.integers(0, 256)),
                        int(rng.integers(0, 256)),
                        "data_b",
                    )
                )
                if rng.random() < 0.5:
                    start = int(rng.integers(0, 3)) * 8
                    partition.table("call_forwarding").insert(
                        (s_id, sf_type, start, start + 8, s_id * 13 % (10**10))
                    )
        if self.is_indexed:
            for partition in partitions:
                partition.table("subscriber").create_index("s_id")
                partition.table("access_info").create_index("s_id")
                partition.table("special_facility").create_index("s_id")
                partition.table("call_forwarding").create_index("s_id")

    def make_real_query(
        self, rng: np.random.Generator, arrival_s: float, partitions: PartitionMap
    ) -> Query:
        """One real TATP transaction drawn from the standard mix."""
        scale_hint = max(
            1, sum(p.table("subscriber").row_count for p in partitions)
        )
        s_id = int(rng.integers(1, scale_hint + 1))
        pid = hash_partition(s_id, len(partitions))
        pick = rng.random()
        cumulative = 0.0
        name = TRANSACTION_MIX[0][0]
        for txn_name, prob, _, _, _ in TRANSACTION_MIX:
            cumulative += prob
            if pick < cumulative:
                name = txn_name
                break

        messages: list[Message]
        if name == "GET_SUBSCRIBER_DATA":
            messages = [
                Message(
                    query_id=-1,
                    target_partition=pid,
                    operation=lookup_op("subscriber", "s_id", s_id),
                )
            ]
        elif name == "GET_NEW_DESTINATION":
            messages = [
                Message(
                    query_id=-1,
                    target_partition=pid,
                    operation=lookup_op("special_facility", "s_id", s_id),
                ),
                Message(
                    query_id=-1,
                    target_partition=pid,
                    operation=lookup_op("call_forwarding", "s_id", s_id),
                ),
            ]
        elif name == "GET_ACCESS_DATA":
            messages = [
                Message(
                    query_id=-1,
                    target_partition=pid,
                    operation=lookup_op("access_info", "s_id", s_id),
                )
            ]
        elif name == "UPDATE_SUBSCRIBER_DATA":
            messages = [
                Message(
                    query_id=-1,
                    target_partition=pid,
                    operation=update_op(
                        "subscriber", "s_id", s_id, "bit_1", int(rng.integers(0, 2))
                    ),
                ),
                Message(
                    query_id=-1,
                    target_partition=pid,
                    operation=update_op(
                        "special_facility",
                        "s_id",
                        s_id,
                        "data_a",
                        int(rng.integers(0, 256)),
                    ),
                ),
            ]
        elif name == "UPDATE_LOCATION":
            messages = [
                Message(
                    query_id=-1,
                    target_partition=pid,
                    operation=update_op(
                        "subscriber",
                        "s_id",
                        s_id,
                        "vlr_location",
                        int(rng.integers(0, 2**31)),
                    ),
                )
            ]
        elif name == "INSERT_CALL_FORWARDING":
            start = int(rng.integers(0, 3)) * 8
            messages = [
                Message(
                    query_id=-1,
                    target_partition=pid,
                    operation=insert_op(
                        "call_forwarding",
                        (s_id, 1, start, start + 8, s_id * 13 % (10**10)),
                    ),
                )
            ]
        else:  # DELETE_CALL_FORWARDING — modeled as deactivating update
            messages = [
                Message(
                    query_id=-1,
                    target_partition=pid,
                    operation=update_op(
                        "call_forwarding", "s_id", s_id, "end_time", 0
                    ),
                )
            ]
        coordinator = int(rng.integers(0, partitions.socket_count))
        return Query(
            arrival_s=arrival_s,
            stages=[QueryStage(messages)],
            coordinator_socket=coordinator,
        )
