"""Tests for configurations and measurements."""

import pytest

from repro.errors import ConfigurationError
from repro.profiles.configuration import Configuration, ConfigurationMeasurement


class TestConfiguration:
    def test_build_normalizes(self):
        c = Configuration.build(0, {0, 24}, {0: 2.6}, 3.0)
        assert c.active_threads == frozenset({0, 24})
        assert c.core_frequencies == ((0, 2.6),)
        assert c.thread_count == 2
        assert c.core_count == 1

    def test_idle(self):
        c = Configuration.idle(0, 1.2)
        assert c.is_idle
        assert c.thread_count == 0
        assert c.average_core_ghz == 0.0
        assert c.describe() == "idle"

    def test_average_core_ghz(self):
        c = Configuration.build(0, {0, 1}, {0: 1.2, 1: 2.6}, 3.0)
        assert c.average_core_ghz == pytest.approx(1.9)

    def test_frequency_of_core(self):
        c = Configuration.build(0, {0}, {0: 1.5}, 3.0)
        assert c.frequency_of_core(0) == pytest.approx(1.5)
        assert c.frequency_of_core(5) is None

    def test_hashable_and_equal(self):
        a = Configuration.build(0, {0, 24}, {0: 2.6}, 3.0)
        b = Configuration.build(0, {24, 0}, {0: 2.6}, 3.0)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_describe(self):
        c = Configuration.build(0, {0, 1}, {0: 1.2, 1: 2.6}, 2.1)
        assert c.describe() == "2t@1.9GHz/u2.1GHz"


class TestApplication:
    def test_apply_sets_machine_state(self, machine):
        c = Configuration.build(0, {0, 24, 1}, {0: 1.5, 1: 2.2}, 2.0)
        c.apply(machine)
        active_on_socket0 = machine.cstates.active_threads_on_socket(0)
        assert set(active_on_socket0) == {0, 1, 24}
        assert machine.frequency.requested_core_frequency(0, 0) == 1.5
        assert machine.frequency.requested_core_frequency(0, 1) == 2.2
        # Inactive cores fall to the minimum P-state.
        assert machine.frequency.requested_core_frequency(0, 5) == 1.2
        assert machine.frequency.effective_uncore_frequency(0, True) == 2.0

    def test_apply_leaves_other_socket(self, machine):
        c = Configuration.build(0, {0}, {0: 1.2}, 1.2)
        c.apply(machine)
        assert machine.cstates.active_threads_on_socket(1)

    def test_foreign_thread_rejected(self, machine):
        c = Configuration.build(0, {13}, {1: 1.2}, 1.2)
        with pytest.raises(ConfigurationError):
            c.apply(machine)

    def test_thread_without_core_frequency_rejected(self, machine):
        c = Configuration.build(0, {0}, {}, 1.2)
        with pytest.raises(ConfigurationError):
            c.validate_against(machine)

    def test_invalid_pstate_rejected(self, machine):
        c = Configuration.build(0, {0}, {0: 2.65}, 1.2)
        with pytest.raises(ConfigurationError):
            c.validate_against(machine)

    def test_unknown_core_rejected(self, machine):
        c = Configuration.build(0, {0}, {0: 1.2, 99: 1.2}, 1.2)
        with pytest.raises(ConfigurationError):
            c.validate_against(machine)


class TestValidationOnEveryApply:
    """An invalid configuration is rejected on every apply, with the
    validator's message, and leaves the machine untouched; a valid one is
    validated once per machine, before its first apply there."""

    @pytest.mark.parametrize(
        "configuration, message",
        [
            (
                Configuration.build(0, {0, 13}, {0: 1.2, 1: 1.2}, 1.2),
                "threads [13] not on socket 0",
            ),
            (
                Configuration.build(0, {0}, {0: 1.2, 99: 1.2}, 1.2),
                "unknown core 99 on socket 0",
            ),
            (
                Configuration.build(0, {0}, {0: 2.65}, 1.2),
                "2.65 GHz is not a valid P-state; ladder is 1.2-3.1 GHz",
            ),
            (
                Configuration.build(0, {0}, {0: 1.2}, 3.3),
                "3.3 GHz is not a valid P-state; ladder is 1.2-3.0 GHz",
            ),
        ],
        ids=["foreign-thread", "unknown-core", "core-clock", "uncore-clock"],
    )
    def test_rejected_on_every_apply_and_machine_untouched(
        self, machine, configuration, message
    ):
        Configuration.build(0, {0, 24}, {0: 2.6}, 3.0).apply(machine)
        freq, cstates = machine.frequency, machine.cstates

        def snapshot():
            return (
                freq.version,
                cstates.version,
                cstates.active_threads,
                [freq.requested_core_frequency(0, c) for c in range(12)],
                freq.effective_uncore_frequency(0, True),
                set(machine.validated_configurations),
            )

        before = snapshot()
        for _ in range(2):
            with pytest.raises(ConfigurationError) as err:
                configuration.apply(machine)
            assert str(err.value) == message
            assert snapshot() == before
        assert configuration not in machine.validated_configurations

    def test_validated_once_per_machine(self, machine, small_machine, monkeypatch):
        """Core 5 exists on the default socket but not on the 4-core one:
        a configuration applied on one machine is still checked on the
        next."""
        checks = []
        validate = Configuration.validate

        def counting(configuration, rules):
            checks.append(rules.socket_id)
            return validate(configuration, rules)

        monkeypatch.setattr(Configuration, "validate", counting)
        c = Configuration.build(0, {5}, {5: 2.0}, 2.0)
        c.apply(machine)
        c.apply(machine)
        assert checks == [0]
        assert set(machine.validated_configurations) == {c}
        with pytest.raises(ConfigurationError, match="threads \\[5\\] not on"):
            c.apply(small_machine)
        assert checks == [0, 0]
        assert c not in small_machine.validated_configurations


class TestMeasurement:
    def test_efficiency(self):
        m = ConfigurationMeasurement(
            power_w=50.0, performance_score=1e9, measured_at_s=0.0
        )
        assert m.energy_efficiency == pytest.approx(2e7)

    def test_invalid_power_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfigurationMeasurement(0.0, 1e9, 0.0)

    def test_negative_perf_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfigurationMeasurement(10.0, -1.0, 0.0)

    def test_blend(self):
        a = ConfigurationMeasurement(100.0, 1e9, 1.0)
        b = ConfigurationMeasurement(50.0, 2e9, 2.0)
        mixed = a.blended_with(b, 0.5)
        assert mixed.power_w == pytest.approx(75.0)
        assert mixed.performance_score == pytest.approx(1.5e9)
        assert mixed.measured_at_s == 2.0

    def test_blend_weight_validated(self):
        a = ConfigurationMeasurement(100.0, 1e9, 1.0)
        with pytest.raises(ConfigurationError):
            a.blended_with(a, 1.5)
