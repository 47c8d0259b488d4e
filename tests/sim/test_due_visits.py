"""Due-time visits of the socket-level ECL against a visit-every-tick oracle.

The control loop visits a socket loop only on ticks where it is due
(``SocketEcl.is_due``, decided for every loop at once by
``EnergyControlLoop._due_slots``); every other visit is promised to be a
no-op.  The oracle here makes every loop due on every tick, checks that each
visit the shipped loop would have skipped leaves the loop's state — and
its RAPL noise generators — untouched, and requires the two runs to be
bit-identical, with macro stepping on and off, for every policy that
runs socket loops: ``ecl`` (RTI flips and counter windows, and
multiplexed slots under overload), ``ecl-consolidate`` (sockets drain
and wake), ``ecl-cluster`` and ``ecl-carbon`` (whole nodes park and
boot).
"""

import copy
import dataclasses

import pytest

from repro.ecl.controller import EnergyControlLoop
from repro.ecl.rti import RtiPlan
from repro.ecl.socket_ecl import EclParameters, SocketEcl
from repro.environment import make_environment
from repro.hardware.cluster import homogeneous_cluster
from repro.hardware.rapl import RaplDomain
from repro.loadprofiles import (
    constant_profile,
    spike_profile,
    twitter_day_profile,
)
from repro.sim import RunConfiguration, SimulationRunner
from repro.workloads import KeyValueWorkload, WorkloadVariant

#: Run configuration per case, beyond workload, seed and stepping mode.
#: ``ecl-mux`` overloads the sockets and tightens the drift threshold,
#: so multiplexed slots start and some end their prepare phase early,
#: saturated by the backlog that live ticks build.
CASES = {
    "ecl": dict(policy="ecl", profile=spike_profile(duration_s=5.0)),
    "ecl-mux": dict(
        policy="ecl",
        profile=constant_profile(1.2, duration_s=3.0),
        ecl_params=EclParameters(drift_threshold=0.02),
    ),
    "ecl-consolidate": dict(
        policy="ecl-consolidate", profile=spike_profile(duration_s=4.0)
    ),
    "ecl-cluster": dict(
        policy="ecl-cluster",
        profile=twitter_day_profile(duration_s=8.0),
        cluster=homogeneous_cluster(2),
    ),
    "ecl-carbon": dict(
        policy="ecl-carbon",
        profile=twitter_day_profile(duration_s=12.0),
        cluster=homogeneous_cluster(4),
        environment=make_environment("diurnal-carbon", 12.0),
    ),
}
#: The fleet case, where skipping pays the most; it runs the bench
#: day's heavy queries (1000 KV operations each).
FLEET = "ecl-carbon"


def _run(case, macro):
    config = RunConfiguration(
        workload=KeyValueWorkload(
            WorkloadVariant.NON_INDEXED,
            ops_per_query=1000 if case == FLEET else 25,
        ),
        seed=3,
        macro_step=macro,
        **CASES[case],
    )
    return SimulationRunner(config).run()


#: Per attribute type: whether a snapshot must copy the value (dicts
#: and mutable dataclass records change in place).
_MUTABLE: dict[type, bool] = {}


def _mutable(kind):
    if kind not in _MUTABLE:
        _MUTABLE[kind] = kind is dict or (
            dataclasses.is_dataclass(kind)
            and not kind.__dataclass_params__.frozen
        )
    return _MUTABLE[kind]


def _state(loop):
    """Everything a visit can change: the loop's attributes (with copies
    of its small mutable records), its slot of the due-time bank and its
    sockets' RAPL noise draws."""
    state = {
        key: copy.copy(value) if _mutable(type(value)) else value
        for key, value in vars(loop).items()
    }
    state["due_s"] = loop.due_s
    state["drained"] = loop.drained
    state["rng"] = [
        loop.machine.rapl_counter(loop.socket_id, domain)._rng.bit_generator.state
        for domain in RaplDomain
    ]
    return state


def _count_visits(monkeypatch):
    visits = {"all": 0}
    on_tick = SocketEcl.on_tick

    def counted(self, now_s):
        visits["all"] += 1
        on_tick(self, now_s)

    monkeypatch.setattr(SocketEcl, "on_tick", counted)
    return visits


def _visit_every_tick(monkeypatch):
    """Make every loop due on every tick, and check each visit the
    shipped loop would have skipped."""
    visits = {"all": 0, "skipped": 0}
    on_tick = SocketEcl.on_tick
    is_due = SocketEcl.is_due

    def checked(self, now_s):
        visits["all"] += 1
        if is_due(self, now_s):
            on_tick(self, now_s)
            return
        visits["skipped"] += 1
        before = _state(self)
        on_tick(self, now_s)
        assert _state(self) == before, (
            f"socket {self.socket_id} acted at t={now_s!r}, before its "
            f"due time {self.due_s!r}"
        )

    monkeypatch.setattr(
        EnergyControlLoop,
        "_due_slots",
        lambda self, now_s: self.loop_bank.active.nonzero()[0].tolist(),
    )
    monkeypatch.setattr(SocketEcl, "on_tick", checked)
    return visits


def _assert_identical(a, b):
    assert a.total_energy_j == b.total_energy_j
    assert a.queries_submitted == b.queries_submitted
    assert a.queries_completed == b.queries_completed
    assert a.latencies_s == b.latencies_s
    assert a.samples == b.samples


@pytest.mark.parametrize("macro", [True, False], ids=["macro", "per-tick"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_skipped_visits_are_no_ops(case, macro):
    with pytest.MonkeyPatch.context() as patch:
        shipped_visits = _count_visits(patch)
        shipped = _run(case, macro)
    with pytest.MonkeyPatch.context() as patch:
        oracle_visits = _visit_every_tick(patch)
        oracle = _run(case, macro)
    _assert_identical(shipped, oracle)
    assert oracle_visits["skipped"] > 0
    assert (
        shipped_visits["all"]
        == oracle_visits["all"] - oracle_visits["skipped"]
    )
    if case == FLEET:
        assert 4 * shipped_visits["all"] < oracle_visits["all"]


class TestReplayRule:
    """``EnergyControlLoop.macro_step_tick`` reads replayability from the
    due loops' horizons: a counter-window open replays, but not when the
    interval decision falls on the same tick."""

    def _ecl_with_window_pending(self):
        config = RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=spike_profile(duration_s=2.0),
            policy="ecl",
            seed=5,
        )
        ecl = SimulationRunner(config).policy
        for loop in ecl.sockets.values():
            # Plan applied at t=0 with no RTI; the online window opens
            # once the apply-settle time has passed.
            active = loop.profile.most_efficient().configuration
            loop._plan = RtiPlan(
                active_configuration=active, duty=1.0, period_s=1.0
            )
            loop._applied = active
            loop._applied_at_s = 0.0
        return ecl, config.tick_s

    def test_window_open_replays(self):
        ecl, dt = self._ecl_with_window_pending()
        assert ecl.macro_view(0.5, dt) is None
        assert ecl.macro_cut == "window-open"
        assert ecl.macro_step_tick(0.5, dt)
        assert all(
            loop._online_window is not None for loop in ecl.sockets.values()
        )

    def test_window_open_with_a_due_decision_runs_live(self):
        ecl, dt = self._ecl_with_window_pending()
        assert ecl.macro_view(1.0, dt) is None
        assert ecl.macro_cut == "decide"
        state = [_state(loop) for loop in ecl.sockets.values()]
        assert not ecl.macro_step_tick(1.0, dt)
        assert [_state(loop) for loop in ecl.sockets.values()] == state


def test_control_loop_visits_only_due_loops():
    """Direct driving: ``EnergyControlLoop.on_tick`` calls a loop's
    ``on_tick`` only when it is due, charges overhead regardless, and a
    loop resumed after a drain is due at once."""
    config = RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=spike_profile(duration_s=1.0),
        policy="ecl",
        seed=5,
    )
    runner = SimulationRunner(config)
    ecl = runner.policy
    assert isinstance(ecl, EnergyControlLoop)
    ecl.on_tick(0.0, config.tick_s)
    # Before the first interval decision nothing is planned: every loop
    # is next due at t = interval.
    assert all(
        loop.due_s == ecl.params.interval_s for loop in ecl.sockets.values()
    )
    overhead = runner.engine.overhead_balances().copy()
    with pytest.MonkeyPatch.context() as patch:
        visits = _count_visits(patch)
        ecl.on_tick(0.002, config.tick_s)
    assert visits["all"] == 0
    assert all(
        runner.engine.overhead_balances()[sid] > overhead[sid]
        for sid in ecl.sockets
    )
    loop = ecl.sockets[0]
    loop.set_drained(True)
    loop.set_drained(False)
    assert loop.is_due(0.004)
    assert not ecl.sockets[1].is_due(0.004)
