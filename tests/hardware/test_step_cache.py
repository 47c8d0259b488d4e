"""Memoized hardware step resolution must be invisible in results.

The machine caches per-socket (configuration, performance, power)
resolutions keyed on control state and demand.  These tests pin the
contract: with the cache on (default) every simulation output is
bit-identical to the exact, uncached path (``step_cache_size=0``).
"""

import pytest

from repro.hardware.machine import Machine
from repro.hardware.perfmodel import SocketLoad
from repro.loadprofiles import sine_profile
from repro.sim import RunConfiguration, run_experiment
from repro.workloads import KeyValueWorkload, TatpWorkload, WorkloadVariant


def config(policy, step_cache_size, workload=None, duration_s=3.0, seed=11):
    return RunConfiguration(
        workload=workload or KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=sine_profile(low=0.1, high=0.7, period_s=1.5, duration_s=duration_s),
        policy=policy,
        seed=seed,
        step_cache_size=step_cache_size,
    )


def assert_identical(cached, exact):
    assert cached.total_energy_j == exact.total_energy_j
    assert cached.latencies_s == exact.latencies_s
    assert cached.samples == exact.samples
    assert cached.queries_completed == exact.queries_completed
    assert cached.queries_submitted == exact.queries_submitted


@pytest.mark.parametrize("policy", ["ecl", "ondemand", "baseline"])
def test_run_bit_identical_with_and_without_cache(policy):
    cached = run_experiment(config(policy, step_cache_size=1024))
    exact = run_experiment(config(policy, step_cache_size=0))
    assert_identical(cached, exact)


def test_run_bit_identical_tatp_ecl():
    workload = TatpWorkload(WorkloadVariant.INDEXED)
    cached = run_experiment(config("ecl", 1024, workload=workload))
    exact = run_experiment(config("ecl", 0, workload=workload))
    assert_identical(cached, exact)


def test_tiny_cache_still_exact():
    """Heavy eviction (capacity 1) only costs speed, never correctness."""
    small = run_experiment(config("ecl", step_cache_size=1))
    exact = run_experiment(config("ecl", step_cache_size=0))
    assert_identical(small, exact)


def _set_loads(machine, chars, demand):
    for sock in machine.topology.sockets:
        machine.set_socket_load(
            sock.socket_id,
            SocketLoad(characteristics=chars, demand_instructions_per_s=demand),
        )


def test_machine_step_stats_count_hits():
    """Repeated steps under a stable configuration hit the full cache."""
    machine = Machine(seed=0)
    chars = KeyValueWorkload(WorkloadVariant.NON_INDEXED).characteristics
    _set_loads(machine, chars, 1e9)
    for _ in range(20):
        machine.step(0.001)
    stats = machine.step_cache_stats
    assert stats["misses"] >= 1
    assert stats["full_hits"] > 0


def test_machine_cache_disabled_records_no_hits():
    machine = Machine(seed=0, step_cache_size=0)
    chars = KeyValueWorkload(WorkloadVariant.NON_INDEXED).characteristics
    _set_loads(machine, chars, 1e9)
    for _ in range(5):
        machine.step(0.001)
    assert machine.step_cache_stats["full_hits"] == 0
    assert machine.step_cache_stats["capacity_hits"] == 0


def test_machine_steps_bit_identical():
    """Step-by-step outputs agree exactly between cached and exact paths."""
    cached = Machine(seed=5)
    exact = Machine(seed=5, step_cache_size=0)
    chars = KeyValueWorkload(WorkloadVariant.NON_INDEXED).characteristics
    demands = [None, 1e8, 5e9, 1e8, None, 2e9, 2e9, 2e9, 1e7, 1e12]
    for demand in demands:
        _set_loads(cached, chars, demand)
        _set_loads(exact, chars, demand)
        a = cached.step(0.001)
        b = exact.step(0.001)
        assert a.psu_power_w == b.psu_power_w
        assert a.rapl_power_w == b.rapl_power_w
        for sid in a.sockets:
            assert a.sockets[sid].performance == b.sockets[sid].performance
            assert a.sockets[sid].power == b.sockets[sid].power
            assert (
                a.sockets[sid].executed_instructions
                == b.sockets[sid].executed_instructions
            )


def _assert_same_step(a, b):
    assert a.psu_power_w == b.psu_power_w
    assert a.rapl_power_w == b.rapl_power_w
    for sid in a.sockets:
        assert a.sockets[sid] == b.sockets[sid]


def test_saturated_demands_share_one_dictionary_entry():
    """A return visit to a configuration under a new saturated demand is
    answered by that configuration's saturated entry in the dictionary
    (the reconfiguration invalidated the one-slot memo); a demand below
    capacity is a miss.  Every step equals the exact machine's."""
    cached = Machine(seed=5)
    exact = Machine(seed=5, step_cache_size=0)
    chars = KeyValueWorkload(WorkloadVariant.NON_INDEXED).characteristics
    every = [t.global_id for t in cached.topology.iter_threads()]
    few = [
        tid
        for sock in cached.topology.sockets
        for tid in sock.first_sibling_ids()[:2]
    ]
    # (threads, demand, added (full_hits, fast_hits, misses)); each
    # machine has two sockets.
    visits = [
        (every, None, (0, 0, 2)),
        (few, None, (0, 0, 2)),
        (every, 1e13, (2, 0, 0)),
        (every, 1e8, (0, 0, 2)),
        (few, 2e13, (2, 0, 0)),
        (every, 5e12, (2, 0, 0)),
    ]
    stats = cached.step_cache_stats
    for threads, demand, added in visits:
        before = dict(stats)
        for machine in (cached, exact):
            machine.cstates.set_active_threads(threads)
            _set_loads(machine, chars, demand)
        _assert_same_step(cached.step(0.001), exact.step(0.001))
        assert (
            stats["full_hits"] - before["full_hits"],
            stats["fast_hits"] - before["fast_hits"],
            stats["misses"] - before["misses"],
        ) == added, (threads is every, demand)
    assert stats["capacity_hits"] == 0
