"""Reconfiguration memos must be invisible: an oracle over random sequences.

An RTI flip reconfigures a socket through memoized state: the C-state
model's per-socket active-thread tuple, the interned fingerprints of the
clock and C-state models (with the clock model's interned EPB part), the
expanded request map of every validated configuration, and the worker
pool's last-synced thread tuple.  The oracle drives random sequences of
every knob setter on cluster machines, mirrors each operation in a
plain-Python shadow of the control state, and after every step checks
each memo against a reference rebuilt from that shadow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dbms.elasticity import ElasticWorkerPool
from repro.dbms.engine import DatabaseEngine
from repro.dbms.intra_socket import IntraSocketHub
from repro.errors import ConfigurationError
from repro.hardware.cluster import homogeneous_cluster, mixed_cluster
from repro.hardware.frequency import EnergyPerformanceBias
from repro.hardware.machine import Machine
from repro.hardware.topology import Topology
from repro.profiles.configuration import Configuration

#: A frequency no preset's ladder holds.
OFF_LADDER_GHZ = 9.9


@dataclass
class Shadow:
    """The control state, kept by the operations' plain semantics."""

    active: set[int]
    shallow: set[int] = field(default_factory=set)
    vacated: set[int] = field(default_factory=set)
    requests: dict[tuple[int, int], float] = field(default_factory=dict)
    uncore: dict[int, float | None] = field(default_factory=dict)
    epb: dict[int, EnergyPerformanceBias] = field(default_factory=dict)

    @classmethod
    def of(cls, machine: Machine) -> "Shadow":
        freq = machine.frequency
        shadow = cls(active=set(machine.cstates.active_threads))
        for sock in machine.topology.sockets:
            sid = sock.socket_id
            for core in sock.cores:
                shadow.requests[(sid, core.core_id)] = (
                    freq.requested_core_frequency(sid, core.core_id)
                )
            shadow.uncore[sid] = None
            for tid in sock.thread_ids():
                shadow.epb[tid] = freq.epb(tid)
        return shadow

    def set_threads(self, own: frozenset[int], ids: frozenset[int]) -> None:
        self.active = (self.active - own) | ids
        self.shallow -= ids


def active_tuple(machine: Machine, shadow: Shadow, sid: int) -> tuple[int, ...]:
    """Reference active-thread tuple of a socket, from the shadow."""
    return tuple(
        t for t in machine.topology.threads_on_socket(sid) if t in shadow.active
    )


def frequency_content(machine: Machine, shadow: Shadow, sid: int) -> tuple:
    sock = machine.topology.socket(sid)
    return (
        tuple(shadow.requests[(sid, c.core_id)] for c in sock.cores),
        shadow.uncore[sid],
        tuple(shadow.epb[t] for t in sock.thread_ids()),
    )


def cstate_content(machine: Machine, shadow: Shadow, sid: int) -> tuple:
    node = machine.node_of_socket(sid)
    node_idle = not any(
        active_tuple(machine, shadow, peer) for peer in machine.node_sockets(node)
    )
    return (
        active_tuple(machine, shadow, sid),
        tuple(
            t for t in machine.topology.threads_on_socket(sid) if t in shadow.shallow
        ),
        sid in shadow.vacated,
        node_idle,
    )


class InternOracle:
    """Fingerprint ids must be equal exactly when reference contents are."""

    def __init__(self) -> None:
        self.content_of: dict[int, tuple] = {}
        self.id_of: dict[tuple, int] = {}

    def check(self, fingerprint: int, content: tuple) -> None:
        assert self.content_of.setdefault(fingerprint, content) == content
        assert self.id_of.setdefault(content, fingerprint) == fingerprint


def fresh_pool_states(machine: Machine, shadow: Shadow) -> dict[int, tuple]:
    """Worker states of a new pool synced once to the reference sets."""
    topology = machine.topology
    hubs = {
        s.socket_id: IntraSocketHub(s.socket_id, [s.socket_id])
        for s in topology.sockets
    }
    pool = ElasticWorkerPool(topology, hubs)
    for sock in topology.sockets:
        pool.sync_with_threads(
            sock.socket_id, active_tuple(machine, shadow, sock.socket_id)
        )
    return pool_states(pool, machine)


def pool_states(pool: ElasticWorkerPool, machine: Machine) -> dict[int, tuple]:
    return {
        s.socket_id: (
            tuple(w.worker_id for w in pool.active_workers(s.socket_id)),
            tuple(w.state for w in pool.workers_on_socket(s.socket_id)),
        )
        for s in machine.topology.sockets
    }


def check_memos(
    machine: Machine,
    engine: DatabaseEngine,
    shadow: Shadow,
    freq_ids: InternOracle,
    cstate_ids: InternOracle,
) -> None:
    cstates = machine.cstates
    assert cstates.active_threads == frozenset(shadow.active)
    for sock in machine.topology.sockets:
        sid = sock.socket_id
        assert cstates.active_threads_on_socket(sid) == active_tuple(
            machine, shadow, sid
        )
        freq_ids.check(
            machine.frequency.state_fingerprint(sid),
            frequency_content(machine, shadow, sid),
        )
        cstate_ids.check(
            cstates.state_fingerprint(sid), cstate_content(machine, shadow, sid)
        )
    engine.sync_workers()
    assert pool_states(engine.pool, machine) == fresh_pool_states(machine, shadow)


def draw_configuration(data, machine: Machine) -> tuple[Configuration, bool]:
    """A random configuration of one socket, and whether it is valid."""
    topology = machine.topology
    sid = data.draw(st.integers(0, topology.socket_count - 1))
    sock = topology.socket(sid)
    ladder = machine.frequency.core_ladder_for(sid).steps
    uncore = machine.frequency.uncore_ladder_for(sid).steps
    threads = data.draw(st.sets(st.sampled_from(sock.thread_ids())))
    cores = {topology.thread(t).core_id for t in threads}
    freqs = {c: data.draw(st.sampled_from(ladder)) for c in cores}
    uncore_ghz = data.draw(st.sampled_from(uncore))
    fault = data.draw(
        st.sampled_from(
            ("none", "none", "none", "foreign", "core", "core-ghz", "uncore-ghz")
        )
    )
    if fault == "foreign":
        other = (sid + 1) % topology.socket_count
        threads = set(threads) | {topology.threads_on_socket(other)[0]}
    elif fault == "core":
        freqs[sock.core_count] = ladder[0]
    elif fault == "core-ghz":
        freqs[data.draw(st.integers(0, sock.core_count - 1))] = OFF_LADDER_GHZ
    elif fault == "uncore-ghz":
        uncore_ghz = OFF_LADDER_GHZ
    return Configuration.build(sid, threads, freqs, uncore_ghz), fault == "none"


def run_operation(data, machine: Machine, shadow: Shadow) -> None:
    """Draw one knob operation, run it on ``machine`` and mirror it."""
    topology = machine.topology
    cstates = machine.cstates
    freq = machine.frequency
    sid = data.draw(st.integers(0, topology.socket_count - 1))
    sock = topology.socket(sid)
    own = frozenset(sock.thread_ids())
    tid = data.draw(st.sampled_from(sock.thread_ids()))
    op = data.draw(
        st.sampled_from(
            (
                "socket-threads",
                "socket-threads",
                "park",
                "unpark",
                "all-threads",
                "vacate",
                "cores",
                "uncore",
                "epb",
                "epb-all",
                "apply",
                "apply",
                "step",
            )
        )
    )
    if op == "socket-threads":
        ids = frozenset(data.draw(st.sets(st.sampled_from(sock.thread_ids()))))
        cstates.set_socket_threads(sid, ids)
        shadow.set_threads(own, ids)
    elif op == "park":
        shallow = data.draw(st.booleans())
        cstates.park_thread(tid, shallow=shallow)
        shadow.active.discard(tid)
        if shallow:
            shadow.shallow.add(tid)
        else:
            shadow.shallow.discard(tid)
    elif op == "unpark":
        cstates.unpark_thread(tid)
        shadow.active.add(tid)
        shadow.shallow.discard(tid)
    elif op == "all-threads":
        everything = sorted(t.global_id for t in topology.iter_threads())
        ids = set(data.draw(st.sets(st.sampled_from(everything))))
        cstates.set_active_threads(ids)
        shadow.active = ids
        shadow.shallow -= ids
    elif op == "vacate":
        vacated = data.draw(st.booleans())
        cstates.set_memory_vacated(sid, vacated)
        if vacated:
            shadow.vacated.add(sid)
        else:
            shadow.vacated.discard(sid)
    elif op == "cores":
        ladder = freq.core_ladder_for(sid).steps  # the top step is turbo
        batch = data.draw(
            st.dictionaries(
                st.integers(0, sock.core_count),
                st.sampled_from(ladder + (OFF_LADDER_GHZ,)),
            )
        )
        valid = all(
            core < sock.core_count and ghz != OFF_LADDER_GHZ
            for core, ghz in batch.items()
        )
        if valid:
            freq.set_socket_core_frequencies(sid, batch, machine.time_s)
            for core, ghz in batch.items():
                shadow.requests[(sid, core)] = ghz
        else:
            before = freq.version
            with pytest.raises(ConfigurationError):
                freq.set_socket_core_frequencies(sid, batch, machine.time_s)
            assert freq.version == before
    elif op == "uncore":
        ghz = data.draw(
            st.one_of(st.none(), st.sampled_from(freq.uncore_ladder_for(sid).steps))
        )
        if ghz is None:
            freq.set_uncore_auto(sid)
        else:
            freq.set_uncore_frequency(sid, ghz)
        shadow.uncore[sid] = ghz
    elif op == "epb":
        bias = data.draw(st.sampled_from(EnergyPerformanceBias))
        freq.set_epb(tid, bias)
        shadow.epb[tid] = bias
    elif op == "epb-all":
        bias = data.draw(st.sampled_from(EnergyPerformanceBias))
        machine.set_epb_all(bias)
        for thread in shadow.epb:
            shadow.epb[thread] = bias
    elif op == "apply":
        configuration, valid = draw_configuration(data, machine)
        csid = configuration.socket_id
        if valid:
            configuration.apply(machine)
            csock = topology.socket(csid)
            shadow.set_threads(
                frozenset(csock.thread_ids()), configuration.active_threads
            )
            minimum = freq.core_ladder_for(csid).minimum
            chosen = dict(configuration.core_frequencies)
            for core in csock.cores:
                shadow.requests[(csid, core.core_id)] = chosen.get(
                    core.core_id, minimum
                )
            shadow.uncore[csid] = configuration.uncore_ghz
        else:
            versions = (freq.version, cstates.version)
            with pytest.raises(ConfigurationError):
                configuration.apply(machine)
            assert (freq.version, cstates.version) == versions
            assert configuration not in machine.validated_configurations
    else:
        machine.step(0.001)


@pytest.mark.parametrize(
    "cluster",
    [homogeneous_cluster(2), mixed_cluster(3)],
    ids=["homogeneous-2", "mixed-3"],
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_memos_match_a_reference_rebuilt_from_state(cluster, data):
    machine = Machine(seed=0, cluster=cluster)
    engine = DatabaseEngine(machine)
    shadow = Shadow.of(machine)
    freq_ids, cstate_ids = InternOracle(), InternOracle()
    check_memos(machine, engine, shadow, freq_ids, cstate_ids)
    for _ in range(data.draw(st.integers(1, 30))):
        run_operation(data, machine, shadow)
        check_memos(machine, engine, shadow, freq_ids, cstate_ids)


class TestIdentity:
    def test_resync_of_an_unchanged_set_keeps_the_worker_tuple(self, engine):
        machine = engine.machine
        engine.sync_workers()
        workers = engine.pool.active_workers(0)
        assert workers
        # Re-declaring the same threads bumps the socket's version, so
        # the engine syncs socket 0 again with an equal thread tuple.
        machine.apply_socket_threads(0, frozenset(machine.topology.threads_on_socket(0)))
        engine.sync_workers()
        assert engine.pool.active_workers(0) is workers

    def test_node_idle_flip_does_not_rebuild_the_peer_tuple(
        self, engine, monkeypatch
    ):
        machine = engine.machine
        cstates = machine.cstates
        machine.apply_socket_threads(1, frozenset())
        engine.sync_workers()
        peer_fingerprint = cstates.state_fingerprint(1)
        assert cstates.active_threads_on_socket(1) == ()

        rebuilt = []
        threads_on_socket = Topology.threads_on_socket

        def spy(topology, socket_id):
            if socket_id == 1:
                rebuilt.append(socket_id)
            return threads_on_socket(topology, socket_id)

        monkeypatch.setattr(Topology, "threads_on_socket", spy)
        # Parking socket 0 idles the node: socket 1's idle bit flips.
        machine.apply_socket_threads(0, frozenset())
        assert cstates.state_fingerprint(1) != peer_fingerprint
        assert cstates.active_threads_on_socket(1) == ()
        engine.sync_workers()
        assert rebuilt == []
