"""First-class data placement: policies, registry, migration protocol.

Splits the "where do partitions live" decision out of
:class:`~repro.storage.partition.PartitionMap` so the control layer can
move data to match load — the prerequisite for draining whole sockets
into package sleep (see :mod:`repro.placement.policy` for the policies
and :mod:`repro.placement.migration` for the move protocol).
"""

from repro.placement.carbon import CarbonAwarePlacement
from repro.placement.migration import (
    MigrationCoordinator,
    MigrationRecord,
    MigrationState,
)
from repro.placement.policy import (
    DEFAULT_PLACEMENT,
    BalancePlacement,
    ConsolidatePlacement,
    MigrationRequest,
    PlacementInfo,
    PlacementPolicy,
    PlacementView,
    SocketView,
    StaticPlacement,
    build_placement,
    get_placement,
    register_placement,
    registered_placements,
    round_robin_assignment,
    unregister_placement,
    validate_placement_name,
)

__all__ = [
    "PlacementPolicy",
    "PlacementInfo",
    "PlacementView",
    "SocketView",
    "MigrationRequest",
    "StaticPlacement",
    "ConsolidatePlacement",
    "BalancePlacement",
    "CarbonAwarePlacement",
    "round_robin_assignment",
    "register_placement",
    "unregister_placement",
    "registered_placements",
    "get_placement",
    "build_placement",
    "validate_placement_name",
    "DEFAULT_PLACEMENT",
    "MigrationCoordinator",
    "MigrationRecord",
    "MigrationState",
]
