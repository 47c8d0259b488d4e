"""Tests for the ecl-cluster control policy (drain, power-off, wake)."""

import pytest

from repro.hardware.cluster import (
    NodePowerState,
    homogeneous_cluster,
    mixed_cluster,
)
from repro.loadprofiles import constant_profile, spike_profile
from repro.sim import (
    ConsolidationController,
    RunConfiguration,
    SimulationRunner,
    registered_policies,
)
from repro.workloads import KeyValueWorkload, WorkloadVariant


def cluster_config(
    policy="ecl-cluster",
    duration_s=4.0,
    fraction=0.1,
    nodes=2,
    spec=None,
    **kwargs,
):
    return RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=constant_profile(duration_s=duration_s, fraction=fraction),
        policy=policy,
        seed=0,
        cluster=spec if spec is not None else homogeneous_cluster(nodes),
        **kwargs,
    )


class TestRegistration:
    def test_registered(self):
        assert "ecl-cluster" in registered_policies()

    def test_builds_cluster_controller(self):
        runner = SimulationRunner(cluster_config(duration_s=0.5))
        assert isinstance(runner.policy, ConsolidationController)
        assert runner.policy.whole_nodes
        assert runner.policy.planner.name == "consolidate"

    def test_annotations_delegate_to_inner_ecl(self):
        runner = SimulationRunner(cluster_config(duration_s=0.5))
        runner.run()
        assert runner.policy.annotate_sample() is not None


class TestNodeDrain:
    def test_low_load_powers_off_the_second_node(self):
        runner = SimulationRunner(cluster_config(duration_s=6.0))
        result = runner.run()
        policy = runner.policy
        machine = runner.machine
        engine = runner.engine
        assert policy.powered_off_nodes == frozenset({1})
        assert machine.node_power_state(1) is NodePowerState.OFF
        for sid in machine.node_sockets(1):
            assert sid in policy.drained_sockets
            assert not engine.hubs[sid].partition_ids
            assert not engine.socket_is_online(sid)
            assert machine.cstates.memory_is_vacated(sid)
        # Node 0 keeps all partitions and serves everything.
        assert machine.node_power_state(0) is NodePowerState.ON
        for sid in machine.node_sockets(0):
            assert engine.partitions.partitions_on_socket(sid)
        # The surviving node serves everything; only the run-end
        # in-flight tail (queries submitted on the final ticks) may be
        # outstanding when the clock stops.
        assert result.queries_submitted - result.queries_completed <= 2
        assert engine.pending_messages() <= 2

    def test_anchor_node_never_powers_off(self):
        # Near-zero load: even then, node 0 must stay on.
        runner = SimulationRunner(cluster_config(fraction=0.02))
        runner.run()
        assert 0 not in runner.policy.powered_off_nodes
        assert runner.machine.node_power_state(0) is NodePowerState.ON

    def test_mixed_cluster_parks_the_wimpy_satellites(self):
        runner = SimulationRunner(
            cluster_config(spec=mixed_cluster(3), duration_s=8.0)
        )
        runner.run()
        assert runner.policy.powered_off_nodes == frozenset({1, 2})

    def test_migrations_crossed_node_boundary(self):
        runner = SimulationRunner(cluster_config(duration_s=6.0))
        runner.run()
        machine = runner.machine
        crossings = [
            record
            for record in runner.engine.migration_log
            if machine.node_of_socket(record.source_socket)
            != machine.node_of_socket(record.target_socket)
        ]
        assert crossings

    def test_single_node_degrades_to_plain_ecl(self):
        # One node: nothing to pack toward, nothing to power off.
        runner = SimulationRunner(cluster_config(nodes=1, duration_s=3.0))
        runner.run()
        assert runner.policy.powered_off_nodes == frozenset()
        assert runner.policy.drained_sockets == frozenset()
        assert not runner.engine.migration_log


class TestWake:
    def test_load_spike_wakes_the_parked_node(self):
        config = RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=spike_profile(duration_s=12.0),
            policy="ecl-cluster",
            seed=0,
            cluster=homogeneous_cluster(2, power_up_s=0.5),
        )
        runner = SimulationRunner(config)
        result = runner.run()
        machine = runner.machine
        # The idle floor parks node 1; the full-load burst must bring it
        # back: a boot was observed (power version advanced past the
        # initial off transition) and partitions spread back.
        log = runner.engine.migration_log
        spreads = [
            r
            for r in log
            if machine.node_of_socket(r.target_socket) == 1
        ]
        assert spreads, "no partitions returned to the woken node"
        assert result.queries_completed > 0

    def test_boot_latency_is_respected(self):
        spec = homogeneous_cluster(2, power_up_s=1.0)
        runner = SimulationRunner(
            cluster_config(spec=spec, duration_s=2.0, fraction=0.05)
        )
        runner.run()
        machine = runner.machine
        policy = runner.policy
        assert policy.powered_off_nodes == frozenset({1})
        # Wake it manually: the node must pass through BOOTING, and the
        # controller must not reactivate its sockets before settle.
        machine.power_on_node(1)
        assert machine.node_power_state(1) is NodePowerState.BOOTING
        policy.on_tick(machine.time_s, 0.002)
        assert policy.drained_sockets  # still parked mid-boot
        machine.step(1.5)
        policy.on_tick(machine.time_s, 0.002)
        assert machine.node_power_state(1) is NodePowerState.ON
        assert not policy.drained_sockets  # reactivated after settle


class TestMacroProtocol:
    @pytest.mark.parametrize("nodes", [1, 2])
    def test_macro_stepping_is_bit_identical(self, nodes):
        energies = []
        for macro in (True, False):
            runner = SimulationRunner(
                cluster_config(
                    nodes=nodes, duration_s=4.0, macro_step=macro
                )
            )
            result = runner.run()
            energies.append(
                (
                    result.total_energy_j,
                    result.queries_completed,
                    tuple(result.latencies_s),
                )
            )
        assert energies[0] == energies[1]

    def test_boot_spans_but_refuses_replays(self):
        """A booting node folds into spans; only in-span replays refuse.

        The machine's event horizon caps every span at the boot
        deadline, so ``macro_view`` may offer a span — the settle tick
        still runs live.  ``macro_step_tick`` must refuse: the replay
        path never consults the machine horizon, so a replayed tick on
        the deadline would settle the node one tick late.
        """
        runner = SimulationRunner(cluster_config(duration_s=2.0))
        runner.run()
        policy = runner.policy
        machine = runner.machine
        machine.power_on_node(1)
        assert machine.node_power_state(1) is NodePowerState.BOOTING
        assert policy.macro_view(machine.time_s, 0.002) is not None
        assert not policy.macro_step_tick(machine.time_s, 0.002)
        # The boot deadline bounds the machine's own span horizon.
        deadline = machine.time_s + machine.cluster.nodes[1].power_up_s
        assert machine.next_internal_event_s() <= deadline


class TestEnergy:
    def test_cluster_policy_beats_plain_ecl_on_the_fleet(self):
        results = {}
        for policy in ("ecl", "ecl-cluster"):
            runner = SimulationRunner(
                cluster_config(policy=policy, duration_s=6.0)
            )
            results[policy] = runner.run()
        assert (
            results["ecl-cluster"].total_energy_j
            < results["ecl"].total_energy_j
        )
        # The energy saving must not come out of throughput.
        assert (
            results["ecl-cluster"].queries_completed
            >= results["ecl"].queries_completed
        )
