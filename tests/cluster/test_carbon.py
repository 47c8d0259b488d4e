"""Tests for the ecl-carbon policy (environment-modulated consolidation)."""

import pytest

from repro.placement.carbon import (
    PACK_MAX,
    PACK_MIN,
    RATIO_CEILING,
    RATIO_FLOOR,
    SPREAD_MAX,
    THRESHOLD_GAP,
    CarbonAwarePlacement,
)
from repro.environment import ConstantSignal, Environment, StepSignal, make_environment
from repro.hardware.cluster import homogeneous_cluster
from repro.loadprofiles import constant_profile
from repro.sim import RunConfiguration, SimulationRunner, registered_policies
from repro.workloads import KeyValueWorkload, WorkloadVariant


def carbon_config(environment=None, duration_s=2.0, nodes=2, **kwargs):
    return RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=constant_profile(duration_s=duration_s, fraction=0.1),
        policy="ecl-carbon",
        seed=0,
        cluster=homogeneous_cluster(nodes),
        environment=environment,
        **kwargs,
    )


class TestRegistration:
    def test_registered(self):
        assert "ecl-carbon" in registered_policies()

    def test_builds_carbon_controller(self):
        runner = SimulationRunner(carbon_config())
        assert isinstance(runner.policy.planner, CarbonAwarePlacement)
        assert runner.policy.whole_nodes

    def test_build_wires_environment_and_duration(self):
        env = make_environment("diurnal-carbon", 2.0)
        runner = SimulationRunner(carbon_config(environment=env))
        planner = runner.policy.planner
        assert planner.environment is env
        assert planner._carbon_ref == pytest.approx(
            env.carbon.average(0.0, 2.0)
        )


class TestWithoutEnvironment:
    def test_ratio_is_exactly_one(self):
        planner = SimulationRunner(carbon_config()).policy.planner
        assert planner.signal_ratio(0.0) == 1.0
        assert planner.signal_ratio(1.5) == 1.0

    def test_thresholds_collapse_to_cluster_defaults(self):
        planner = SimulationRunner(carbon_config()).policy.planner
        pack, spread = planner.planner_thresholds(0.0)
        assert pack == planner._base_pack
        assert spread == planner._base_spread

    def test_bit_identical_to_ecl_cluster(self):
        """No environment -> ratio 1.0 on every planning check -> the
        exact ecl-cluster trajectory, bitwise."""
        carbon = SimulationRunner(carbon_config(duration_s=4.0))
        cluster = SimulationRunner(
            RunConfiguration(
                workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
                profile=constant_profile(duration_s=4.0, fraction=0.1),
                policy="ecl-cluster",
                seed=0,
                cluster=homogeneous_cluster(2),
            )
        )
        a = carbon.run()
        b = cluster.run()
        assert a.total_energy_j == b.total_energy_j
        assert a.queries_completed == b.queries_completed
        assert a.latencies_s == b.latencies_s
        for x, y in zip(a.samples, b.samples):
            assert x == y


def _synthetic_planner(carbon_levels, price=0.12, duration_s=10.0):
    """The carbon planner over a synthetic step-carbon environment."""
    env = Environment(
        name="synthetic",
        carbon=StepSignal(carbon_levels),
        price=ConstantSignal(price),
    )
    runner = SimulationRunner(
        carbon_config(environment=env, duration_s=duration_s)
    )
    return runner.policy.planner


class TestModulation:
    def test_dirty_hours_raise_both_thresholds(self):
        # 100 then 300 around a 200 average: second half is dirty.
        planner = _synthetic_planner([(0.0, 100.0), (5.0, 300.0)])
        clean_pack, clean_spread = planner.planner_thresholds(2.0)
        dirty_pack, dirty_spread = planner.planner_thresholds(7.0)
        assert dirty_pack > planner._base_pack > clean_pack
        assert dirty_spread > clean_spread
        assert planner.signal_ratio(2.0) < 1.0 < planner.signal_ratio(7.0)

    def test_ratio_clamps(self):
        # A 1000x swing must clamp, not blow the thresholds up.  The
        # dwell is asymmetric so the run average sits near the low
        # level and the surge ratio far exceeds the ceiling.
        planner = _synthetic_planner([(0.0, 1.0), (9.0, 1000.0)])
        assert planner._ratio_of(
            planner.environment.carbon, 9.5, planner._carbon_ref
        ) == RATIO_CEILING
        assert planner._ratio_of(
            planner.environment.carbon, 2.0, planner._carbon_ref
        ) == RATIO_FLOOR

    def test_thresholds_stay_a_valid_planner_config(self):
        planner = _synthetic_planner([(0.0, 1.0), (9.0, 1000.0)])
        for t in (0.0, 2.0, 5.0, 9.0, 9.9):
            pack, spread = planner.planner_thresholds(t)
            assert PACK_MIN <= pack <= PACK_MAX
            assert spread <= SPREAD_MAX
            assert spread >= pack + THRESHOLD_GAP

    def test_replan_writes_thresholds_into_the_planner(self):
        env = make_environment("diurnal-carbon", 2.0)
        runner = SimulationRunner(carbon_config(environment=env))
        runner.run()
        policy = runner.policy
        # The planner holds whatever the most recent planning check set;
        # it must be a valid modulated pair.
        assert PACK_MIN <= policy.planner.pack_below <= PACK_MAX
        assert policy.planner.spread_above >= (
            policy.planner.pack_below + THRESHOLD_GAP
        )
