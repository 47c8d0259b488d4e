"""The benchmark's workloads: one simulator configuration each.

Each workload drives a different set of simulator layers hard and
leaves others idle, so that a change to one layer shows up on the
workload that exercises it and stays flat on the one that bypasses it
(see README.md for the layer table; BENCHMARK.json holds the one-line
reason for each).  The workload seed is the only
input the benchmark varies; everything else is fixed here.

This module must not import ``repro`` at import time: the benchmark
child times the package import itself as part of ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One named simulator configuration."""

    name: str
    policy: str
    #: KV operations per query (kv-non-indexed); 25 is the CLI default.
    ops_per_query: int
    #: ``twitter-day``, ``spike`` or ``constant``.
    profile: str
    #: Simulated seconds of one run.
    duration_s: float
    #: Seed used when ``--seed`` is not given.
    default_seed: int
    nodes: int = 1
    environment: str | None = None
    #: Load fraction of the ``constant`` profile.
    level: float = 1.0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="day-ecl",
            policy="ecl",
            ops_per_query=1000,
            profile="twitter-day",
            duration_s=86.4,
            default_seed=11,
        ),
        Workload(
            name="spike-consolidate",
            policy="ecl-consolidate",
            ops_per_query=25,
            profile="spike",
            duration_s=15.0,
            default_seed=0,
        ),
        Workload(
            name="saturate-kv",
            policy="baseline",
            ops_per_query=25,
            profile="constant",
            level=1.5,
            duration_s=6.0,
            default_seed=0,
        ),
        Workload(
            name="fleet-day",
            policy="ecl-carbon",
            ops_per_query=1000,
            profile="twitter-day",
            duration_s=8.64,
            default_seed=11,
            nodes=32,
            environment="diurnal-carbon",
        ),
    )
}


def build_config(workload: Workload, seed: int):
    """The :class:`~repro.sim.RunConfiguration` of one workload run."""
    from repro.environment import make_environment
    from repro.hardware.cluster import homogeneous_cluster
    from repro.loadprofiles import (
        constant_profile,
        spike_profile,
        twitter_day_profile,
    )
    from repro.sim import RunConfiguration
    from repro.workloads import KeyValueWorkload, WorkloadVariant

    duration = workload.duration_s
    if workload.profile == "twitter-day":
        profile = twitter_day_profile(duration_s=duration)
    elif workload.profile == "spike":
        profile = spike_profile(duration_s=duration)
    else:
        profile = constant_profile(workload.level, duration_s=duration)
    return RunConfiguration(
        workload=KeyValueWorkload(
            WorkloadVariant.NON_INDEXED, ops_per_query=workload.ops_per_query
        ),
        profile=profile,
        policy=workload.policy,
        seed=seed,
        cluster=(
            homogeneous_cluster(workload.nodes) if workload.nodes > 1 else None
        ),
        environment=(
            make_environment(workload.environment, duration)
            if workload.environment is not None
            else None
        ),
    )
