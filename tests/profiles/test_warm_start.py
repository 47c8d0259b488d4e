"""Tests for the shared warm start: one model evaluation per socket class."""

import dataclasses

import pytest

import repro.profiles.evaluate as evaluate
from repro.dbms.engine import DatabaseEngine
from repro.ecl.controller import EnergyControlLoop
from repro.hardware.cluster import (
    ClusterSpec,
    NodeSpec,
    homogeneous_cluster,
    mixed_cluster,
)
from repro.hardware.machine import Machine
from repro.hardware.perfmodel import SocketLoad
from repro.hardware.presets import haswell_ep_two_socket
from repro.profiles.configuration import Configuration, ConfigurationMeasurement
from repro.profiles.evaluate import measure_configuration
from repro.workloads.kv import INDEXED_CHARACTERISTICS
from repro.workloads.micro import COMPUTE_BOUND, MEMORY_BOUND


def _hotter_second_node() -> ClusterSpec:
    """Two nodes with equal clock ladders but different package power."""
    params = haswell_ep_two_socket()
    hotter = dataclasses.replace(params, package_base_w=params.package_base_w + 5)
    return ClusterSpec(
        nodes=(NodeSpec(node_id=0, params=params), NodeSpec(node_id=1, params=hotter))
    )


def _ecl(cluster):
    machine = Machine(seed=3, cluster=cluster)
    return machine, EnergyControlLoop(DatabaseEngine(machine))


def _local_rows(profile):
    """Each entry by its socket-independent shape, in generation order."""
    return [
        (
            c.core_frequencies,
            c.thread_count,
            c.uncore_ghz,
            profile.entry(c).measurement,
        )
        for c in profile.configurations()
    ]


class TestOracleIdentity:
    """Every entry equals the single-configuration model path, bit for bit."""

    @pytest.mark.parametrize(
        "cluster",
        [homogeneous_cluster(4), mixed_cluster(3), _hotter_second_node()],
        ids=["homogeneous-4", "mixed-3", "hotter-node-2"],
    )
    @pytest.mark.parametrize("by_socket", [False, True], ids=["chars", "map"])
    def test_every_entry_equals_measure_configuration(self, cluster, by_socket):
        machine, ecl = _ecl(cluster)
        chars = {sid: COMPUTE_BOUND for sid in ecl.profiles}
        if by_socket:
            # The last socket shares its class (parameters and node-local
            # index) with a socket of an earlier node, but not its workload.
            chars[max(chars)] = MEMORY_BOUND
            ecl.warm_start_from_model(chars_by_socket=chars)
        else:
            ecl.warm_start_from_model(chars=COMPUTE_BOUND)

        for sid, profile in ecl.profiles.items():
            own = set(machine.topology.socket(sid).thread_ids())
            for configuration in profile.configurations():
                assert configuration.socket_id == sid
                assert configuration.active_threads <= own
                got = profile.entry(configuration).measurement
                want = measure_configuration(machine, configuration, chars[sid])
                assert (
                    got.power_w,
                    got.performance_score,
                    got.measured_at_s,
                ) == (
                    want.power_w,
                    want.performance_score,
                    want.measured_at_s,
                )
            os_idle = measure_configuration(
                machine,
                profile.idle_configuration,
                chars[sid],
                assume_machine_idle_for_idle=False,
            )
            assert profile.os_idle_power_w == os_idle.power_w


class TestSharing:
    def test_first_sockets_of_two_nodes_share_measurements(self):
        machine, ecl = _ecl(homogeneous_cluster(8))
        ecl.warm_start_from_model(chars=COMPUTE_BOUND)
        a, b = (machine.node_sockets(node)[0] for node in (0, 1))
        pa, pb = ecl.profiles[a], ecl.profiles[b]
        for ca, cb in zip(pa.configurations(), pb.configurations()):
            assert (ca.core_frequencies, ca.thread_count, ca.uncore_ghz) == (
                cb.core_frequencies,
                cb.thread_count,
                cb.uncore_ghz,
            )
            assert ca != cb
            assert pa.entry(ca).measurement is pb.entry(cb).measurement

    def test_blending_one_socket_leaves_the_other(self):
        machine, ecl = _ecl(homogeneous_cluster(8))
        ecl.warm_start_from_model(chars=COMPUTE_BOUND)
        a, b = (machine.node_sockets(node)[0] for node in (0, 1))
        pa, pb = ecl.profiles[a], ecl.profiles[b]
        index = [c.is_idle for c in pa.configurations()].index(False)
        ca = list(pa.configurations())[index]
        cb = list(pb.configurations())[index]
        shared = pb.entry(cb).measurement
        assert pa.entry(ca).measurement is shared

        pa.record(
            ca,
            ConfigurationMeasurement(
                power_w=1.0, performance_score=0.0, measured_at_s=5.0
            ),
            blend_weight=0.5,
        )
        assert pa.entry(ca).measurement != shared
        assert pb.entry(cb).measurement is shared
        assert pb.entry(cb).measurement.power_w == shared.power_w

    @pytest.mark.parametrize(
        "cluster", [None, homogeneous_cluster(8)], ids=["one-node", "8-nodes"]
    )
    def test_one_evaluation_per_class_and_shape(self, cluster, monkeypatch):
        # Both machines have two classes (node-local socket 0 and 1) of
        # 145 configurations plus the OS-idle point, evaluated on node 0.
        calls = []
        original = evaluate._evaluate

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluate, "_evaluate", counted)
        _, ecl = _ecl(cluster)
        ecl.warm_start_from_model(chars=COMPUTE_BOUND)
        assert len(calls) == 2 * 146
        assert set(calls) == {0, 1}


class TestHeterogeneousFleet:
    """A wimpy socket of a mixed fleet is modeled with its own parameters.

    With a latency-bound workload (``miss_rate > 0``) the node-0
    parameters would change the socket's power: it must equal the same
    socket's on an all-wimpy fleet.
    """

    def test_warm_start_profile(self):
        _, mixed = _ecl(mixed_cluster(2))
        _, wimpy = _ecl(homogeneous_cluster(2, "wimpy_node"))
        for ecl in (mixed, wimpy):
            ecl.warm_start_from_model(chars=INDEXED_CHARACTERISTICS)
        # Node 1's only socket: global id 2 behind the brawny node's two.
        assert _local_rows(mixed.profiles[2]) == _local_rows(wimpy.profiles[1])
        assert mixed.profiles[2].os_idle_power_w == wimpy.profiles[1].os_idle_power_w

    def test_live_step_power(self):
        def saturated_power(cluster, sid):
            machine = Machine(seed=3, cluster=cluster)
            params = machine.params_for(sid)
            socket = machine.topology.socket(sid)
            Configuration.build(
                sid,
                set(socket.thread_ids()),
                {core.core_id: params.core_nominal_ghz for core in socket.cores},
                params.uncore_min_ghz,
            ).apply(machine)
            machine.set_socket_load(
                sid, SocketLoad(characteristics=INDEXED_CHARACTERISTICS)
            )
            return machine.step(0.002).sockets[sid].power.socket_total_w

        assert saturated_power(mixed_cluster(2), 2) == saturated_power(
            homogeneous_cluster(2, "wimpy_node"), 1
        )
