"""Tests for the full hierarchical ECL facade."""

import pytest

from repro.dbms.engine import DatabaseEngine
from repro.ecl.controller import EnergyControlLoop
from repro.errors import ControlError
from repro.hardware.machine import Machine
from repro.workloads.micro import COMPUTE_BOUND, MEMORY_BOUND


@pytest.fixture
def system():
    machine = Machine(seed=9)
    engine = DatabaseEngine(machine)
    engine.set_workload_characteristics(COMPUTE_BOUND)
    return machine, engine, EnergyControlLoop(engine)


class TestConstruction:
    def test_one_socket_ecl_per_socket(self, system):
        _, _, ecl = system
        assert set(ecl.sockets) == {0, 1}
        assert set(ecl.profiles) == {0, 1}

    def test_profiles_unevaluated_initially(self, system):
        _, _, ecl = system
        assert ecl.profiles[0].coverage() == 0.0


class TestWarmStart:
    def test_fills_every_entry(self, system):
        _, _, ecl = system
        ecl.warm_start_from_model(chars=COMPUTE_BOUND)
        for profile in ecl.profiles.values():
            assert profile.coverage() == 1.0
            assert profile.os_idle_power_w is not None

    def test_per_socket_characteristics(self, system):
        _, _, ecl = system
        ecl.warm_start_from_model(
            chars_by_socket={0: COMPUTE_BOUND, 1: MEMORY_BOUND}
        )
        opt0 = ecl.profiles[0].most_efficient().configuration
        opt1 = ecl.profiles[1].most_efficient().configuration
        # Compute-bound prefers the lowest uncore; bandwidth-bound the max.
        assert opt0.uncore_ghz < opt1.uncore_ghz

    def test_requires_characteristics(self, system):
        _, _, ecl = system
        with pytest.raises(ControlError):
            ecl.warm_start_from_model()

    def test_rejects_a_map_missing_sockets(self, system):
        machine, _, ecl = system
        machine.cstates.set_active_threads(set())
        with pytest.raises(ControlError, match=r"sockets \[1\]"):
            ecl.warm_start_from_model(chars_by_socket={0: COMPUTE_BOUND})
        for profile in ecl.profiles.values():
            assert profile.coverage() == 0.0
            assert profile.os_idle_power_w is None
        assert not machine.cstates.active_threads

    def test_applies_baseline(self, system):
        machine, _, ecl = system
        machine.cstates.set_active_threads(set())
        ecl.warm_start_from_model(chars=COMPUTE_BOUND)
        assert len(machine.cstates.active_threads) == machine.params.total_threads


class TestBootstrapMultiplexed:
    def test_everything_stale(self, system):
        _, _, ecl = system
        ecl.bootstrap_multiplexed()
        for profile in ecl.profiles.values():
            assert len(profile.stale_entries()) == len(profile)


class TestCalibrationIntegration:
    def test_calibrate_adopts_times(self):
        machine = Machine(seed=31)
        engine = DatabaseEngine(machine)
        ecl = EnergyControlLoop(engine)
        result = ecl.calibrate(0)
        assert ecl.params.apply_time_s == result.apply_time_s
        assert ecl.params.measure_time_s == result.measure_time_s
        assert ecl.calibration is result


class TestTickDispatch:
    def test_on_tick_drives_all_loops(self, system):
        machine, engine, ecl = system
        ecl.warm_start_from_model(chars=COMPUTE_BOUND)
        for _ in range(600):
            ecl.on_tick(machine.time_s, 0.002)
            engine.tick(0.002)
        assert all(s.decisions >= 1 for s in ecl.sockets.values())
