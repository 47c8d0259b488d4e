"""Engine tuning knobs as one configuration object.

Historically the runtime's cost constants lived as module-level floats
(``WORKER_QUANTUM_INSTRUCTIONS`` in :mod:`repro.dbms.engine`, the
``TRANSFER_*`` family in :mod:`repro.dbms.inter_socket`), which made
per-run tuning require monkeypatching.  :class:`EngineConfig` promotes
them to fields with the historical values as defaults — a default-built
config reproduces the old constants bit-for-bit — and adds the knobs of
the partition-migration cost model.

``vector_messages`` selects the struct-of-arrays message plane: the
intra-socket hubs store modeled messages as rows of parallel numpy
columns and the workers drain the rows in place, without a ``Message``
object per operation.  The SoA plane is bit-identical to the scalar
object plane (same drain order, tie-breaks, and float folds), so the
flag is purely a kill switch / A-B oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import SimulationError


@dataclass(frozen=True)
class EngineConfig:
    """Cost-model knobs of the DBMS runtime, tunable per run.

    Attributes:
        worker_quantum_instructions: instruction quantum a worker receives
            per scheduling round inside a tick.
        transfer_instructions_per_message: instruction cost charged per
            transferred message on each side of an inter-socket flush.
        transfer_instructions_per_flush: fixed instruction cost per buffer
            flush (syscall-free polling transfer), charged to the sender.
        transfer_bytes_per_message: interconnect bytes per message
            (header + payload estimate).
        migration_instructions_per_byte: instruction cost, per side, of
            copying one byte of partition data across the interconnect
            during a partition migration.
        migration_floor_bytes: lower bound on the byte volume charged for
            a migration.  Modeled workloads keep their table fragments
            empty (costs are analytic), so this stands in for the
            partition's working set; real-mode partitions use
            ``max(bytes_used, floor)``.
        internode_instructions_per_message: per-message transfer cost on
            routes that cross a *node* boundary (network serialization +
            NIC doorbells instead of a QPI cacheline push).
        internode_instructions_per_flush: fixed per-flush cost of an
            inter-node transfer (syscall + NIC submission, far above the
            polling cost of the intra-node path).
        internode_migration_instructions_per_byte: per-byte, per-side
            cost of copying partition data across the network during an
            inter-node migration — several times the QPI copy cost.
        vector_messages: run the message plane on struct-of-arrays
            columns (the vectorized hot path).  ``False`` falls back to
            the scalar per-message object plane; both produce
            bit-identical results.
    """

    worker_quantum_instructions: float = 200_000.0
    transfer_instructions_per_message: float = 150.0
    transfer_instructions_per_flush: float = 600.0
    transfer_bytes_per_message: float = 128.0
    migration_instructions_per_byte: float = 0.5
    migration_floor_bytes: float = 2_800_000.0
    internode_instructions_per_message: float = 600.0
    internode_instructions_per_flush: float = 1800.0
    internode_migration_instructions_per_byte: float = 2.0
    vector_messages: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool" or isinstance(value, bool):
                continue
            if not value > 0:
                raise SimulationError(
                    f"EngineConfig.{f.name} must be > 0, got {value!r}"
                )


#: The canonical defaults; identical to the historical module constants.
DEFAULT_ENGINE_CONFIG = EngineConfig()
