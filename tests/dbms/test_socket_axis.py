"""The per-socket tick state lives in arrays over the socket axis.

Engine overhead balances, the machine's declared loads and the
utilization samples are arrays the tick folds at once; the per-socket
APIs are thin views on them.  The oracle drives random interleavings of
those views (and the engine's bulk records) on a 3-node machine and
checks every call against a plain dict-and-deque shadow of the old
per-socket semantics.  The counting test pins what the arrays buy: a
live fleet tick makes no per-socket Python call for a socket that is
not due, not busy, not reconfigured and not a resolve-memo miss.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dbms.elasticity import ElasticWorkerPool
from repro.dbms.engine import DatabaseEngine
from repro.dbms.intra_socket import IntraSocketHub
from repro.dbms.stats import UtilizationTracker
from repro.ecl.socket_ecl import SocketEcl
from repro.errors import ControlError, SimulationError
from repro.hardware.cluster import homogeneous_cluster
from repro.hardware.machine import IDLE_CHARACTERISTICS, Machine
from repro.hardware.perfmodel import SocketLoad, WorkloadCharacteristics
from repro.loadprofiles import twitter_day_profile
from repro.sim import RunConfiguration, SimulationRunner
from repro.workloads import KeyValueWorkload, WorkloadVariant

CHARS = (
    IDLE_CHARACTERISTICS,
    WorkloadCharacteristics(name="a", base_cpi=0.7),
    WorkloadCharacteristics(name="b", base_cpi=1.9),
)
#: Utilization window of the oracle's tracker, in seconds.
WINDOW_S = 0.05


class ShadowUtilization:
    """Per-socket deques with the eviction and folds of a deque tracker."""

    def __init__(self, socket_ids):
        self.ticks = {sid: deque() for sid in socket_ids}
        self.pending = dict.fromkeys(socket_ids, 0.0)

    def record(self, sid, now, offered, consumed, pending):
        ticks = self.ticks[sid]
        ticks.append((now, offered, consumed))
        self.pending[sid] = pending
        while ticks and ticks[0][0] < now - WINDOW_S:
            ticks.popleft()

    def sums(self, sid, now):
        offered = consumed = 0.0
        for t, off, con in self.ticks[sid]:
            if t >= now - WINDOW_S:
                offered += off
                consumed += con
        return offered, consumed

    def utilization(self, sid, now):
        offered, consumed = self.sums(sid, now)
        backlog = self.pending[sid]
        if offered <= 0:
            return 1.0 if backlog > 0 else 0.0
        return min(1.0, (consumed + backlog) / offered)

    def busy_fraction(self, sid, now):
        offered, consumed = self.sums(sid, now)
        if offered <= 0:
            return 0.0
        return min(1.0, consumed / offered)


amounts = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
steps = st.floats(min_value=0.0, max_value=0.03, allow_nan=False)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_views_match_a_per_socket_shadow(data):
    machine = Machine(seed=0, cluster=homogeneous_cluster(3))
    engine = DatabaseEngine(machine)
    tracker = UtilizationTracker(tuple(engine.hubs), window_s=WINDOW_S)
    sids = list(engine.hubs)
    balances = dict.fromkeys(sids, 0.0)
    online = set(sids)
    loads = {sid: machine.socket_load(sid) for sid in sids}
    shadow = ShadowUtilization(sids)
    now = 0.0
    socket = st.sampled_from(sids)
    for _ in range(data.draw(st.integers(1, 60))):
        op = data.draw(
            st.sampled_from(
                ["charge", "online", "load", "tick", "span", "all", "read"]
            )
        )
        sid = data.draw(socket)
        if op == "charge":
            amount = data.draw(amounts)
            engine.add_overhead_instructions(sid, amount)
            balances[sid] += amount
        elif op == "online":
            flag = data.draw(st.booleans())
            if not flag and online == {sid}:
                with pytest.raises(SimulationError):
                    engine.set_socket_online(sid, flag)
            else:
                engine.set_socket_online(sid, flag)
                if flag:
                    online.add(sid)
                else:
                    online.discard(sid)
                    balances[sid] = 0.0
            assert engine.socket_is_online(sid) == (sid in online)
        elif op == "load":
            demand = data.draw(st.none() | amounts)
            load = SocketLoad(data.draw(st.sampled_from(CHARS)), demand)
            machine.set_socket_load(sid, load)
            loads[sid] = load
        elif op == "tick":
            now += data.draw(steps)
            offered, consumed, pending = (data.draw(amounts) for _ in range(3))
            tracker.record_tick(sid, now, offered, consumed, pending)
            shadow.record(sid, now, offered, consumed, pending)
        elif op == "span":
            # Spans up to four windows long: most of their samples are
            # evicted by their own last one.
            count = data.draw(st.integers(0, 100))
            times = []
            for _ in range(count):
                now += data.draw(st.floats(0.0, 0.002, allow_nan=False))
                times.append(now)
            offered, consumed, pending = (data.draw(amounts) for _ in range(3))
            tracker.record_span(sid, times, offered, consumed, pending)
            for t in times:
                shadow.record(sid, t, offered, consumed, pending)
        elif op == "all":
            now += data.draw(steps)
            columns = [
                np.array([data.draw(amounts) for _ in sids]) for _ in range(3)
            ]
            tracker.record_all(now, *columns)
            for index, each in enumerate(sids):
                shadow.record(each, now, *(float(c[index]) for c in columns))
        else:
            at = data.draw(st.floats(0.0, now + 0.1, allow_nan=False))
            assert tracker.utilization(sid, at) == shadow.utilization(sid, at)
            assert tracker.busy_fraction(sid, at) == (
                shadow.busy_fraction(sid, at)
            )
        for each in sids:
            assert engine.overhead_balances()[each] == balances[each]
            declared = machine.socket_load(each)
            assert declared.characteristics is loads[each].characteristics
            assert declared.demand_instructions_per_s == (
                loads[each].demand_instructions_per_s
            )
    if now > 0.0:
        with pytest.raises(ControlError):
            tracker.record_tick(sids[0], now / 2, 1.0, 1.0)


#: Per-socket entry points that used to run for every socket on every
#: live tick, with how each call names its socket.
PER_SOCKET_CALLS = (
    (IntraSocketHub, "pending_cost_instructions", lambda self, *a: self.socket_id),
    (DatabaseEngine, "_blended_characteristics", lambda self, sid, *a: sid),
    (Machine, "set_socket_load", lambda self, sid, *a: sid),
    (Machine, "socket_load", lambda self, sid, *a: sid),
    (Machine, "thermal_steady", lambda self, sid, *a: sid),
    (UtilizationTracker, "record_tick", lambda self, sid, *a, **k: sid),
    (UtilizationTracker, "record_span", lambda self, sid, *a, **k: sid),
    (SocketEcl, "is_due", lambda self, *a: self.socket_id),
    (ElasticWorkerPool, "sync_with_threads", lambda self, sid, *a: sid),
)


def test_a_live_fleet_tick_visits_only_the_sockets_that_change(monkeypatch):
    config = RunConfiguration(
        workload=KeyValueWorkload(
            WorkloadVariant.NON_INDEXED, ops_per_query=1000
        ),
        profile=twitter_day_profile(duration_s=4.0),
        # Plain ECL: the consolidation planner reads every unit once per
        # interval by design.
        policy="ecl",
        cluster=homogeneous_cluster(16),
        seed=11,
    )
    runner = SimulationRunner(config)
    engine, machine = runner.engine, runner.machine
    sids = list(engine.hubs)
    touched: set[int] = set()
    allowed: set[int] = set()
    collecting = [False]

    def spy(owner, name, socket_of):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            if collecting[0]:
                touched.add(socket_of(self, *args, **kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name, socket_of in PER_SOCKET_CALLS:
        spy(owner, name, socket_of)

    def allow(owner, name):
        original = getattr(owner, name)

        def wrapper(self, sid, *args, **kwargs):
            if collecting[0]:
                allowed.add(sid)
            return original(self, sid, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    allow(Machine, "_resolve_socket")  # memo misses

    def snapshot():
        """Per socket: hub tag version and clock / C-state versions."""
        return {
            sid: (
                engine.hubs[sid].tag_version,
                machine.frequency.socket_mutation_version(sid),
                machine.cstates.socket_mutation_version(sid),
            )
            for sid in sids
        }

    policy_on_tick = runner.policy.on_tick
    engine_tick = engine.tick
    before: dict = {}
    quiet_ticks = []

    def on_tick(now_s, dt_s):
        if not before:
            before.update(snapshot())
        touched.clear()
        allowed.clear()
        # Busy: work queued when the tick starts.
        allowed.update(s for s in sids if engine.hubs[s].pending_messages)
        collecting[0] = True
        inner_on_tick = SocketEcl.on_tick

        def due_visit(loop, now):
            allowed.add(loop.socket_id)
            inner_on_tick(loop, now)

        monkeypatch.setattr(SocketEcl, "on_tick", due_visit)
        try:
            policy_on_tick(now_s, dt_s)
        finally:
            monkeypatch.setattr(SocketEcl, "on_tick", inner_on_tick)

    def tick(dt_s):
        try:
            result = engine_tick(dt_s)
        finally:
            collecting[0] = False
        after = snapshot()
        # Reconfigured sockets, and hubs that changed (messages in or
        # out) since the last live tick: arrivals land before control.
        allowed.update(s for s in sids if after[s] != before[s])
        before.update(after)
        assert touched <= allowed, sorted(touched - allowed)
        if len(allowed) < len(sids) // 2:
            quiet_ticks.append(len(allowed))
        return result

    runner.policy.on_tick = on_tick
    engine.tick = tick
    runner.run()
    # The check bit on ticks where most of the fleet was quiet.
    assert len(quiet_ticks) > 100
