"""First-class control policies: the protocol and the name registry.

The paper's evaluation is *comparative* — the ECL against an
uncontrolled baseline and against governor-style single-knob controllers
(§7).  Every point in that comparison space is a :class:`ControlPolicy`:
an object that drives the machine's knobs once per simulation tick.
This module makes the set of policies open-ended:

* :class:`ControlPolicy` — the structural interface every policy
  implements (``build``, ``on_tick``, ``annotate_sample``);
* :func:`register_policy` / :func:`get_policy` — the name registry the
  runner, CLI, suite, and benchmarks resolve policies through;
* the built-in registrations at the bottom — the **only** place in
  ``src/`` where policy names appear as string literals.

Adding a policy is a one-file change::

    from repro.sim.policy import register_policy

    class MyPolicy:
        @classmethod
        def build(cls, engine, config):
            return cls(engine)

        def __init__(self, engine):
            self.machine = engine.machine
            self.charges = np.zeros(self.machine.topology.socket_count)
            ...  # set the start knobs here: the first tick runs under them

        def on_tick(self, now_s, dt_s):
            ...  # act when due: touch self.machine knobs

        def macro_view(self, now_s, dt_s):
            return float("inf"), self.charges  # on_tick never acts again

        def annotate_sample(self):
            return SampleAnnotations()

    register_policy("mine", MyPolicy.build, description="...")

after which ``RunConfiguration(policy="mine")``, ``repro run --policy
mine``, and every suite/benchmark helper accept it.  ``macro_view``
answers when ``on_tick`` next acts (``None``: on the next tick), best
from the function that gates ``on_tick``.  A policy without it runs
every tick live, and span-cut stats name it (``policy:MyPolicy``).  The
runner probes four optional members with ``getattr`` (see
:class:`ControlPolicy`): ``macro_view``, ``macro_step_tick``,
``macro_replay`` and ``macro_cut``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.hardware.frequency import EnergyPerformanceBias
from repro.sim.metrics import SampleAnnotations

if TYPE_CHECKING:
    from repro.dbms.engine import DatabaseEngine
    from repro.placement import PlacementPolicy
    from repro.sim.runner import RunConfiguration


@runtime_checkable
class ControlPolicy(Protocol):
    """What the simulation requires of a control policy.

    Structural (duck-typed): policies implement these three methods, they
    do not inherit from anything.
    """

    @classmethod
    def build(
        cls, engine: "DatabaseEngine", config: "RunConfiguration"
    ) -> "ControlPolicy":
        """Construct and initialize the policy for one run."""
        ...

    def on_tick(self, now_s: float, dt_s: float) -> None:
        """Reconfigure the hardware for the upcoming tick.

        Called once per tick *before* the engine advances, so decisions
        take effect for the tick they were made in.
        """
        ...

    def annotate_sample(self) -> SampleAnnotations:
        """Per-sample observations to attach to the next sample point."""
        ...

    # Policies may additionally implement the *optional* macro-stepping
    # protocol (the runner probes for each member with getattr)::
    #
    #     def macro_view(self, now_s: float, dt_s: float) \
    #             -> tuple[float, np.ndarray] | None: ...
    #
    # Returning ``(horizon_s, tick_charges)`` promises that for every
    # tick of width ``dt_s`` starting strictly before ``horizon_s`` on
    # which the simulation state does not otherwise change (no arrivals,
    # completions, message movement, or migrations — the runner and
    # engine guarantee those separately), ``on_tick`` is *exactly*
    # equivalent to calling ``engine.add_overhead_instructions(sid,
    # tick_charges[sid])`` for every socket id ``sid`` (``tick_charges``
    # is an array indexed by socket id, all zeros for a policy whose
    # control costs nothing; build it once, not per call): no hardware
    # knobs, no counter reads, no RNG.  ``None`` means "not right now" and forces
    # per-tick execution; policies without the method never macro-step.
    # ``macro_step_tick(now_s, dt_s) -> bool`` runs a refused tick's
    # control phase in place when it touches no hardware;
    # ``macro_replay(start_s, dt_s, n_ticks)`` folds periodic bookkeeping
    # over the ticks a span skipped; ``macro_cut`` names why
    # ``macro_view`` last refused.


#: Signature of a registry factory: builds a ready-to-run policy.
PolicyFactory = Callable[["DatabaseEngine", "RunConfiguration"], ControlPolicy]


@dataclass(frozen=True)
class PolicyInfo:
    """One registry entry.

    Attributes:
        name: the public lookup name (CLI ``--policy``, configs, caches).
        factory: builds the policy for a (engine, config) pair.
        description: one-liner for ``repro run --list-policies``.
        reference: True for the uncontrolled comparison point that
            savings are computed against (exactly one registered policy).
    """

    name: str
    factory: PolicyFactory
    description: str = ""
    reference: bool = False


_REGISTRY: dict[str, PolicyInfo] = {}


def register_policy(
    name: str,
    factory: PolicyFactory,
    description: str = "",
    reference: bool = False,
) -> PolicyInfo:
    """Register a control policy under a unique name.

    Raises:
        SimulationError: on duplicate names or a second reference policy.
    """
    if not name or not isinstance(name, str):
        raise SimulationError(f"policy name must be a non-empty string, got {name!r}")
    if name in _REGISTRY:
        raise SimulationError(f"policy {name!r} is already registered")
    if reference and any(info.reference for info in _REGISTRY.values()):
        current = next(n for n, i in _REGISTRY.items() if i.reference)
        raise SimulationError(
            f"reference policy already registered ({current!r})"
        )
    info = PolicyInfo(
        name=name, factory=factory, description=description, reference=reference
    )
    _REGISTRY[name] = info
    return info


def unregister_policy(name: str) -> None:
    """Remove a registration (out-of-tree policy development, tests)."""
    if name not in _REGISTRY:
        raise SimulationError(_unknown_message(name))
    del _REGISTRY[name]


def registered_policies() -> tuple[str, ...]:
    """All registered policy names, in registration order."""
    return tuple(_REGISTRY)


def get_policy(name: str) -> PolicyInfo:
    """Look up a registration by name.

    Raises:
        SimulationError: for unknown names; the message lists every
            registered policy.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SimulationError(_unknown_message(name)) from None


def validate_policy_name(name: str) -> str:
    """Check that a name is registered and return it unchanged."""
    get_policy(name)
    return name


def build_policy(
    name: str, engine: "DatabaseEngine", config: "RunConfiguration"
) -> ControlPolicy:
    """Resolve a name and build the ready-to-run policy."""
    return get_policy(name).factory(engine, config)


def reference_policy() -> str:
    """The registered uncontrolled comparison point.

    Raises:
        SimulationError: when no registration is marked ``reference``.
    """
    for name, info in _REGISTRY.items():
        if info.reference:
            return name
    raise SimulationError("no reference policy registered")


def _unknown_message(name: str) -> str:
    known = ", ".join(_REGISTRY) or "<none>"
    return f"unknown policy {name!r}; registered policies: {known}"


# --------------------------------------------------------------------------
# Built-in registrations.  These lines are the single source of truth for
# policy names: nothing else under src/ spells them out.
# --------------------------------------------------------------------------


def _build_ecl(
    engine: "DatabaseEngine", config: "RunConfiguration"
) -> ControlPolicy:
    # Imported lazily: repro.ecl.controller itself imports sim modules.
    from repro.ecl.controller import EnergyControlLoop

    return EnergyControlLoop.build(engine, config)


def _fixed_knobs(**knobs) -> PolicyFactory:
    """A preset of :class:`~repro.sim.baseline.FixedKnobPolicy`."""

    def build(
        engine: "DatabaseEngine", config: "RunConfiguration"
    ) -> ControlPolicy:
        from repro.sim.baseline import FixedKnobPolicy

        return FixedKnobPolicy(engine, **knobs)

    return build


def _build_ondemand(
    engine: "DatabaseEngine", config: "RunConfiguration"
) -> ControlPolicy:
    from repro.sim.governor import OndemandGovernorPolicy

    return OndemandGovernorPolicy.build(engine, config)


def _build_ecl_consolidate(
    engine: "DatabaseEngine", config: "RunConfiguration"
) -> ControlPolicy:
    from repro.sim.consolidate import ConsolidationController

    return ConsolidationController.build(engine, config)


def _build_node_consolidation(
    engine: "DatabaseEngine",
    config: "RunConfiguration",
    planner: "PlacementPolicy",
) -> ControlPolicy:
    from repro.ecl.controller import EnergyControlLoop
    from repro.sim.consolidate import ConsolidationController

    inner = EnergyControlLoop.build(engine, config)
    return ConsolidationController(engine, inner, planner, whole_nodes=True)


def _build_ecl_cluster(
    engine: "DatabaseEngine", config: "RunConfiguration"
) -> ControlPolicy:
    from repro.placement import ConsolidatePlacement

    return _build_node_consolidation(engine, config, ConsolidatePlacement())


def _build_ecl_carbon(
    engine: "DatabaseEngine", config: "RunConfiguration"
) -> ControlPolicy:
    from repro.placement import CarbonAwarePlacement

    planner = CarbonAwarePlacement(
        config.environment, config.profile.duration_s
    )
    return _build_node_consolidation(engine, config, planner)


register_policy(
    "ecl",
    _build_ecl,
    description="the paper's hierarchical Energy-Control Loop (§5): "
    "energy profiles, race-to-idle, uncore control, latency supervision",
)
register_policy(
    "baseline",
    _fixed_knobs(),
    description="uncontrolled race-to-idle deployment: all threads, "
    "nominal clocks, automatic UFS, OS tickless idle (§6)",
    reference=True,
)
register_policy(
    "ondemand",
    _build_ondemand,
    description="OS-style per-socket DVFS ladder governor — the "
    "single-knob feedback controllers of §7 (e.g. E²DBMS)",
)
register_policy(
    "performance",
    _fixed_knobs(
        turbo=True,
        epb=EnergyPerformanceBias.PERFORMANCE,
        idle_grace_s=0.0,
        label="turbo",
    ),
    description="static performance governor: immediate turbo on every "
    "core, race-to-idle parking the instant the machine runs dry",
)
register_policy(
    "epb-only",
    _fixed_knobs(
        epb=EnergyPerformanceBias.POWERSAVE,
        idle_grace_s=math.inf,
        label="epb-powersave",
    ),
    description="hardware-only energy management: EPB powersave hint, "
    "EET and the EPB-aware UFS heuristic are the only knobs (§4, Fig. 7)",
)
register_policy(
    "ecl-consolidate",
    _build_ecl_consolidate,
    description="the ECL plus placement-driven socket consolidation: "
    "migrate partitions off lightly loaded sockets and park the drained "
    "package into sleep (vacated memory lifts the Fig. 5 uncore "
    "dependency)",
)
register_policy(
    "ecl-cluster",
    _build_ecl_cluster,
    description="the ECL on every node plus node-granular consolidation: "
    "migrate partitions across node boundaries and power fully drained "
    "nodes off entirely (boot latency and residual off-state wattage "
    "modeled); on one node it degrades to the plain ECL",
)
register_policy(
    "ecl-carbon",
    _build_ecl_carbon,
    description="ecl-cluster with carbon/price-aware consolidation: the "
    "attached environment's signals modulate the node planner's pack/"
    "spread thresholds at each planning check (dirty or expensive hours "
    "consolidate harder, clean ones wake nodes sooner); without an "
    "environment it is exactly ecl-cluster",
)

#: The policy a :class:`RunConfiguration` uses when none is given.
DEFAULT_POLICY = registered_policies()[0]
