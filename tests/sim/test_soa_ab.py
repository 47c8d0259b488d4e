"""SoA message-plane A/B bit-identity across policies, arrivals, clusters.

``EngineConfig.vector_messages`` switches the intra-socket message plane
between the object queues (scalar path) and the struct-of-arrays compact
columns (vectorized drain, bank-fabricated arrivals).  The flag is a pure
execution strategy: every observable of a run — energy, query counts,
latencies, samples, machine clocks and counters — must be *bit-identical*
either way.  These tests A/B every registered control policy under both
arrival modes, both macro-stepping modes, and the cluster presets, and
compare the full result surface with ``==`` (no tolerances).
"""

import pytest

from repro.dbms.config import EngineConfig
from repro.hardware.cluster import homogeneous_cluster, mixed_cluster
from repro.loadprofiles import constant_profile, spike_profile
from repro.sim import RunConfiguration, SimulationRunner, registered_policies
from repro.workloads import KeyValueWorkload, WorkloadVariant


#: A growing backlog: baseline at 1.5x load drains compact head runs of
#: up to 116 messages, far longer than any the spike inputs drain.
SATURATING = constant_profile(1.5, duration_s=3.0)


def _runner(
    policy, *, vector, poisson=False, macro=True, cluster=None, profile=None
):
    config = RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=profile or spike_profile(duration_s=3.0),
        policy=policy,
        seed=5,
        macro_step=macro,
        poisson_arrivals=poisson,
        cluster=cluster,
        engine_config=EngineConfig(vector_messages=vector),
    )
    return SimulationRunner(config)


def _run(policy, **kwargs):
    runner = _runner(policy, **kwargs)
    result = runner.run()
    return result, runner


def _record_head_runs(runner):
    """Collect the compact head-run lengths the workers find, as a list."""
    runs = []
    for hub in runner.engine.hubs.values():

        def modeled_run(partition_id, _inner=hub.modeled_run):
            run = _inner(partition_id)
            runs.append(run)
            return run

        hub.modeled_run = modeled_run
    return runs


def _assert_identical(vec, obj):
    """Full-surface bitwise comparison of two RunResults."""
    assert vec.total_energy_j == obj.total_energy_j
    assert vec.queries_submitted == obj.queries_submitted
    assert vec.queries_completed == obj.queries_completed
    assert vec.latencies_s == obj.latencies_s
    assert vec.duration_s == obj.duration_s
    assert len(vec.samples) == len(obj.samples)
    for a, b in zip(vec.samples, obj.samples):
        assert a == b


class TestEveryPolicyBothArrivalModes:
    @pytest.mark.parametrize("policy", sorted(registered_policies()))
    @pytest.mark.parametrize("poisson", [False, True])
    def test_vector_scalar_identity(self, policy, poisson):
        vec, runner_vec = _run(policy, vector=True, poisson=poisson)
        obj, runner_obj = _run(policy, vector=False, poisson=poisson)
        _assert_identical(vec, obj)
        assert runner_vec.machine.time_s == runner_obj.machine.time_s
        assert (
            runner_vec.machine.true_total_energy_j()
            == runner_obj.machine.true_total_energy_j()
        )
        # Worker-pool counters fold the same messages either way.
        assert (
            runner_vec.engine.pool.total_stats()
            == runner_obj.engine.pool.total_stats()
        )

    def test_vector_run_actually_uses_banks(self):
        """The identity tests are vacuous if the vector run fabricated no
        compact banks: pin that arrivals took the bank path."""
        _, runner = _run("baseline", vector=True)
        assert runner.engine.tracker.dispatched_count > 0
        assert runner.engine.tracker.completed_count > 0
        # The object-lane dict of per-query state stays empty: every
        # query of this single-stage workload lived in the dense store.
        assert runner.engine.tracker._queries == {}


class TestPerTickModeAndClusters:
    @pytest.mark.parametrize(
        "policy, profile, longest_run",
        [
            pytest.param("baseline", None, 1, id="baseline"),
            pytest.param("ecl", None, 1, id="ecl"),
            pytest.param("baseline", SATURATING, 33, id="baseline-saturating"),
        ],
    )
    def test_identity_without_macro_stepping(self, policy, profile, longest_run):
        runner = _runner(policy, vector=True, macro=False, profile=profile)
        runs = _record_head_runs(runner)
        vec = runner.run()
        obj, _ = _run(policy, vector=False, macro=False, profile=profile)
        _assert_identical(vec, obj)
        # The vector run drained compact runs at least this long.
        assert max(runs) >= longest_run

    @pytest.mark.parametrize(
        "cluster_factory", [homogeneous_cluster, mixed_cluster]
    )
    def test_identity_on_cluster_presets(self, cluster_factory):
        cluster = cluster_factory(3)
        vec, _ = _run("ecl-cluster", vector=True, cluster=cluster)
        obj, _ = _run("ecl-cluster", vector=False, cluster=cluster)
        _assert_identical(vec, obj)


class TestMigrationInteraction:
    def test_identity_through_consolidation_waves(self):
        """Freeze/evict/adopt during migrations must preserve the SoA
        invariants: the consolidation policy drains sockets (evicting
        compact columns into the object transfer path) and wakes them
        again, and the result surface must not move a bit."""
        config_kwargs = dict(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=constant_profile(duration_s=4.0, fraction=0.18),
            policy="ecl-consolidate",
            seed=5,
        )
        results = {}
        for vector in (True, False):
            config = RunConfiguration(
                engine_config=EngineConfig(vector_messages=vector),
                **config_kwargs,
            )
            runner = SimulationRunner(config)
            runner.policy.cooldown_intervals = 0
            results[vector] = (runner.run(), runner)
        _assert_identical(results[True][0], results[False][0])
        assert len(results[True][1].engine.migration_log) == len(
            results[False][1].engine.migration_log
        )
