"""Tests for the ecl-consolidate control policy (drain, sleep, wake)."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.hardware.cluster import mixed_cluster
from repro.loadprofiles import constant_profile
from repro.placement import MigrationRequest, round_robin_assignment
from repro.sim import (
    ConsolidationController,
    RunConfiguration,
    RunObserver,
    SimulationRunner,
    registered_policies,
)
from repro.workloads import KeyValueWorkload, WorkloadVariant

from .golden_config import golden_configuration, run_recording_lifecycle


def low_load_config(policy="ecl-consolidate", duration_s=2.5, **kwargs):
    return RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=constant_profile(duration_s=duration_s, fraction=0.18),
        policy=policy,
        seed=0,
        **kwargs,
    )


class TestRegistration:
    def test_registered(self):
        assert "ecl-consolidate" in registered_policies()

    def test_default_planner_is_consolidate(self):
        runner = SimulationRunner(low_load_config())
        assert isinstance(runner.policy, ConsolidationController)
        assert not runner.policy.whole_nodes
        assert runner.policy.planner.name == "consolidate"

    def test_configured_placement_becomes_planner(self):
        runner = SimulationRunner(low_load_config(placement="balance"))
        assert runner.policy.planner.name == "balance"


class TestDrain:
    def test_low_load_drains_one_socket(self):
        runner = SimulationRunner(low_load_config())
        result = runner.run()
        policy = runner.policy
        engine = runner.engine
        machine = runner.machine
        # One socket fully drained: no partitions, workers parked, query
        # intake redirected, memory vacated, package allowed to sleep.
        assert policy.drained_sockets == frozenset({1})
        assert not engine.hubs[1].partition_ids
        assert not engine.socket_is_online(1)
        assert machine.cstates.memory_is_vacated(1)
        assert machine.resolve_uncore(1)[1]  # uncore halted
        assert engine.partitions.partitions_on_socket(0)
        # One wave: every socket-1 partition moved exactly once.
        moved = [r.partition_id for r in engine.migration_log]
        assert sorted(moved) == sorted(
            pid
            for pid, sid in enumerate(round_robin_assignment(48, [0, 1]))
            if sid == 1
        )
        # Conservation through the wave.
        assert result.queries_completed == result.queries_submitted
        assert engine.pending_messages() == 0

    def test_drained_socket_ecl_stands_down(self):
        runner = SimulationRunner(low_load_config())
        runner.run()
        assert runner.policy.inner.sockets[1].drained

    def test_annotations_delegate_to_inner_ecl(self):
        runner = SimulationRunner(low_load_config(duration_s=0.5))
        runner.run()
        assert runner.policy.annotate_sample() is not None


class _MoveBackPlanner:
    """Stub planner: first pack onto socket 0, then demand socket 1 back."""

    name = "move-back"

    def __init__(self):
        self.phase = 0

    def initial_assignment(self, partition_count, socket_ids):
        return round_robin_assignment(partition_count, socket_ids)

    def plan(self, view):
        self.phase += 1
        if self.phase == 1:
            return [
                MigrationRequest(pid, 0, reason="pack")
                for pid in view.socket(1).partition_ids
            ]
        return [MigrationRequest(0, 1, reason="spread")]


class TestWake:
    def test_planning_toward_drained_socket_wakes_it(self):
        runner = SimulationRunner(low_load_config(duration_s=4.0))
        policy = runner.policy
        policy.planner = _MoveBackPlanner()
        policy.cooldown_intervals = 0
        result = runner.run()
        engine = runner.engine
        # The second plan targeted the drained socket: it must be back
        # online, unparked, with its memory no longer vacated.
        assert policy.drained_sockets == frozenset()
        assert engine.socket_is_online(1)
        assert not runner.machine.cstates.memory_is_vacated(1)
        assert not policy.inner.sockets[1].drained
        assert engine.partitions.socket_of(0) == 1
        # Conservation through the wave: nothing lost — every submitted
        # query either completed or is still legitimately in flight
        # (arrivals continue until the very last tick).
        in_flight = engine.tracker.in_flight
        assert result.queries_completed + in_flight == result.queries_submitted
        assert in_flight <= 5


class _EmptySocketZeroPlanner:
    """Stub planner: move every partition of socket 0 to socket 1."""

    name = "empty-socket-zero"

    def initial_assignment(self, partition_count, socket_ids):
        return round_robin_assignment(partition_count, socket_ids)

    def plan(self, view):
        return [
            MigrationRequest(pid, 1, reason="empty the anchor")
            for pid in view.socket(0).partition_ids
        ]


class TestUnitSemantics:
    def test_anchor_socket_never_parks(self):
        """Unit 0 is the anchor at the socket level too: emptied of every
        partition, socket 0 still stays online and unparked."""
        runner = SimulationRunner(low_load_config(duration_s=3.0))
        policy = runner.policy
        policy.planner = _EmptySocketZeroPlanner()
        runner.run()
        assert not runner.engine.hubs[0].partition_ids  # the stub bit
        assert 0 not in policy.drained_sockets
        assert runner.engine.socket_is_online(0)
        assert not policy.inner.sockets[0].drained

    def test_power_off_comes_from_the_preset(self):
        """On a mixed fleet ``ecl-consolidate`` parks a socket that is a
        whole one-socket wimpy node, yet never powers a node off."""
        config = RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=constant_profile(duration_s=4.0, fraction=0.1),
            policy="ecl-consolidate",
            seed=0,
            cluster=mixed_cluster(3),
        )
        runner, _, calls = run_recording_lifecycle(config)
        machine = runner.machine
        assert calls["park"]
        for sid in calls["park"]:
            assert machine.node_sockets(machine.node_of_socket(sid)) == (sid,)
        assert machine.node_power_version == 0


class _AppliedThreadsProbe(RunObserver):
    """Counts, per socket, the control phases after which a live socket
    runs a thread set other than its loop's applied configuration."""

    def on_run_start(self, runner, result):
        self.cstates = runner.machine.cstates
        self.loops = runner.policy.inner.sockets
        self.mismatches = Counter()

    def after_control(self, now_s, dt_s):
        for sid, loop in self.loops.items():
            applied = loop.applied_configuration
            if loop.drained or applied is None:
                continue
            threads = frozenset(self.cstates.active_threads_on_socket(sid))
            if threads != applied.active_threads:
                self.mismatches[sid] += 1


class TestResume:
    @pytest.mark.parametrize("policy", ["ecl-consolidate", "ecl-cluster"])
    def test_resumed_loop_reapplies_its_plan(self, policy):
        """A resume unparks every thread behind the socket loop's back;
        the loop must re-apply its plan instead of trusting the
        configuration it applied before the park."""
        config = replace(golden_configuration(policy), macro_step=False)
        probe = _AppliedThreadsProbe()
        _, _, calls = run_recording_lifecycle(config, observers=[probe])
        assert calls["resume"]  # the golden configuration resumes a socket
        assert not probe.mismatches
