"""End-to-end simulation: load generation, policies, runner, metrics.

This package stitches everything together for the paper's §6 experiments:
a :class:`~repro.sim.loadgen.LoadGenerator` turns a (workload, load
profile) pair into query arrivals; a **control policy** — resolved by
name through the registry in :mod:`repro.sim.policy` (the full ECL, the
uncontrolled baseline, governor-style comparisons, or anything
registered out of tree) — drives the hardware knobs; the
:class:`~repro.sim.runner.SimulationRunner` advances everything through
a phased tick pipeline (arrivals → control → engine step → completions
→ sampling) with :mod:`~repro.sim.observers` hooks, and produces a
:class:`~repro.sim.metrics.RunResult` with time series and totals.
"""

from repro.sim.clock import OneShotDeadline, PeriodicDeadline, TickClock
from repro.sim.loadgen import LoadGenerator
from repro.sim.baseline import FixedKnobPolicy
from repro.sim.consolidate import ConsolidationController
from repro.sim.governor import OndemandGovernorPolicy
from repro.sim.metrics import RunResult, SampleAnnotations, SamplePoint
from repro.sim.observers import (
    ObserverList,
    RunObserver,
    SamplingObserver,
    WorkloadSwitchObserver,
)
from repro.sim.policy import (
    DEFAULT_POLICY,
    ControlPolicy,
    PolicyInfo,
    build_policy,
    get_policy,
    reference_policy,
    register_policy,
    registered_policies,
    unregister_policy,
    validate_policy_name,
)
from repro.sim.runner import RunConfiguration, SimulationRunner, run_experiment
from repro.sim.suite import (
    ExperimentSuite,
    RunProgress,
    config_signature,
    default_cache_dir,
    derive_seed,
    policy_grid,
    scenario_grid,
    suite_worker_count,
)

__all__ = [
    "TickClock",
    "PeriodicDeadline",
    "OneShotDeadline",
    "LoadGenerator",
    "FixedKnobPolicy",
    "ConsolidationController",
    "OndemandGovernorPolicy",
    "RunResult",
    "SampleAnnotations",
    "SamplePoint",
    "RunObserver",
    "ObserverList",
    "SamplingObserver",
    "WorkloadSwitchObserver",
    "ControlPolicy",
    "PolicyInfo",
    "DEFAULT_POLICY",
    "register_policy",
    "unregister_policy",
    "registered_policies",
    "get_policy",
    "build_policy",
    "reference_policy",
    "validate_policy_name",
    "RunConfiguration",
    "SimulationRunner",
    "run_experiment",
    "ExperimentSuite",
    "RunProgress",
    "config_signature",
    "default_cache_dir",
    "derive_seed",
    "policy_grid",
    "scenario_grid",
    "suite_worker_count",
]
