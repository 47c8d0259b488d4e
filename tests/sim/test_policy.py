"""Tests for the control-policy protocol and name registry."""

import pytest

from repro.errors import SimulationError
from repro.loadprofiles import constant_profile
from repro.sim import RunConfiguration, SimulationRunner, run_experiment
from repro.sim.metrics import SampleAnnotations
from repro.sim.policy import (
    DEFAULT_POLICY,
    ControlPolicy,
    build_policy,
    get_policy,
    reference_policy,
    register_policy,
    registered_policies,
    unregister_policy,
    validate_policy_name,
)
from repro.workloads import KeyValueWorkload, WorkloadVariant


def kv():
    return KeyValueWorkload(WorkloadVariant.NON_INDEXED)


class TestBuiltInRegistrations:
    def test_expected_policies_registered(self):
        names = registered_policies()
        for name in ("ecl", "baseline", "ondemand", "performance", "epb-only"):
            assert name in names

    def test_default_policy_is_first_registered(self):
        assert DEFAULT_POLICY == registered_policies()[0]

    def test_reference_policy_is_baseline(self):
        assert reference_policy() == "baseline"
        assert get_policy(reference_policy()).reference

    def test_descriptions_present(self):
        for name in registered_policies():
            assert get_policy(name).description

    def test_built_policies_satisfy_protocol(self):
        config = RunConfiguration(
            workload=kv(), profile=constant_profile(0.3, duration_s=1.0)
        )
        runner = SimulationRunner(config)
        for name in registered_policies():
            policy = build_policy(name, runner.engine, config)
            assert isinstance(policy, ControlPolicy)
            annotations = policy.annotate_sample()
            assert isinstance(annotations, SampleAnnotations)


class TestLookup:
    def test_unknown_name_lists_registered(self):
        with pytest.raises(SimulationError) as excinfo:
            get_policy("magic")
        message = str(excinfo.value)
        assert "magic" in message
        for name in registered_policies():
            assert name in message

    def test_validate_returns_name(self):
        for name in registered_policies():
            assert validate_policy_name(name) == name

    def test_validate_unknown_raises(self):
        with pytest.raises(SimulationError):
            validate_policy_name("magic")

    def test_unregister_unknown_raises(self):
        with pytest.raises(SimulationError):
            unregister_policy("magic")


class _NullPolicy:
    """Minimal out-of-tree policy: never touches the machine."""

    ticks = 0

    def __init__(self, engine):
        self.engine = engine

    @classmethod
    def build(cls, engine, config):
        return cls(engine)

    def on_tick(self, now_s, dt_s):
        type(self).ticks += 1

    def annotate_sample(self):
        return SampleAnnotations(applied=("null",))


class TestCustomRegistration:
    def test_register_build_run_unregister(self):
        register_policy(
            "test-null", _NullPolicy.build, description="does nothing"
        )
        try:
            assert "test-null" in registered_policies()
            _NullPolicy.ticks = 0
            result = run_experiment(
                RunConfiguration(
                    workload=kv(),
                    profile=constant_profile(0.2, duration_s=1.0),
                    policy="test-null",
                )
            )
            assert result.policy == "test-null"
            assert _NullPolicy.ticks == 500  # 1 s at 2 ms ticks
            # The uniform annotation plumbing reaches the samples.
            assert all(s.applied == ("null",) for s in result.samples)
        finally:
            unregister_policy("test-null")
        assert "test-null" not in registered_policies()

    def test_policy_without_macro_view_is_named_as_the_refusal(self):
        """Every live tick of a policy without ``macro_view`` counts as a
        refusal by ``policy:<ClassName>``, so the span-cut stats (and
        the trace's ``macro`` event) say why nothing was skipped."""
        register_policy("test-unaware", _NullPolicy.build)
        try:
            runner = SimulationRunner(
                RunConfiguration(
                    workload=kv(),
                    profile=constant_profile(0.2, duration_s=1.0),
                    policy="test-unaware",
                )
            )
            runner.run()
        finally:
            unregister_policy("test-unaware")
        stats = runner.span_cut_stats()
        assert stats["ticks_skipped"] == 0
        assert stats["refusals"] == 500  # 1 s at 2 ms ticks
        assert stats["cut_by"] == {"policy:_NullPolicy": 500}

    def test_duplicate_name_rejected(self):
        register_policy("test-dup", _NullPolicy.build)
        try:
            with pytest.raises(SimulationError):
                register_policy("test-dup", _NullPolicy.build)
        finally:
            unregister_policy("test-dup")

    def test_second_reference_rejected(self):
        with pytest.raises(SimulationError):
            register_policy("test-ref", _NullPolicy.build, reference=True)
        assert "test-ref" not in registered_policies()

    def test_empty_name_rejected(self):
        with pytest.raises(SimulationError):
            register_policy("", _NullPolicy.build)

    def test_configuration_accepts_registered_name_only(self):
        register_policy("test-cfg", _NullPolicy.build)
        try:
            RunConfiguration(
                workload=kv(),
                profile=constant_profile(0.3),
                policy="test-cfg",
            )
        finally:
            unregister_policy("test-cfg")
        with pytest.raises(SimulationError):
            RunConfiguration(
                workload=kv(), profile=constant_profile(0.3), policy="test-cfg"
            )
