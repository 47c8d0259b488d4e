"""Edge cases of the macro-stepping span program and its horizons.

The A/B matrix in ``test_macro_ab.py`` proves whole-run bit-identity;
these tests pin the *mechanisms* at the edges the composite span
executor leans on: RTI phase boundaries landing exactly at a span
start, the multiplexed-measurement budget crossing the slot cost
mid-span, the online counter window opening on the first skipped tick
(replayed in-span instead of forcing a live tick), drained sockets
standing their loop down, and the exact tick grid of the system-check
replay.  Each integration scenario also re-asserts macro on/off
bit-identity, so a regression in any one mechanism fails loudly here
with its name on the test rather than somewhere in the matrix.
"""

import pytest

from repro.ecl.rti import RtiPlan
from repro.ecl.socket_ecl import EclParameters
from repro.loadprofiles import constant_profile, spike_profile
from repro.profiles.configuration import Configuration
from repro.sim import RunConfiguration, SimulationRunner
from repro.sim.macro import SpanCutStats, bucket_for
from repro.workloads import KeyValueWorkload, WorkloadVariant


def _run(policy, *, macro, profile, seed=5, ecl_params=None):
    config = RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=profile,
        policy=policy,
        seed=seed,
        macro_step=macro,
        **({"ecl_params": ecl_params} if ecl_params is not None else {}),
    )
    runner = SimulationRunner(config)
    result = runner.run()
    return result, runner


def _assert_identical(on, off):
    assert on.total_energy_j == off.total_energy_j
    assert on.queries_submitted == off.queries_submitted
    assert on.queries_completed == off.queries_completed
    assert on.latencies_s == off.latencies_s
    assert len(on.samples) == len(off.samples)
    for a, b in zip(on.samples, off.samples):
        assert a == b


def _any_config():
    return Configuration.build(
        socket_id=0,
        active_threads={0},
        core_frequencies={0: 1.2},
        uncore_ghz=2.0,
    )


class TestRtiPlanHorizons:
    """The RTI phase predicate and its event horizon at the edges."""

    def test_disabled_duty_has_unbounded_horizon(self):
        plan = RtiPlan(_any_config(), duty=1.0, period_s=0.2)
        assert not plan.uses_rti
        assert plan.is_active_phase(0.137)
        assert plan.next_phase_change_s(0.137) == float("inf")

    def test_zero_duty_never_flips(self):
        plan = RtiPlan(_any_config(), duty=0.0, period_s=0.2)
        assert plan.uses_rti
        assert not plan.is_active_phase(0.0)
        assert not plan.is_active_phase(0.19)
        # Constant-False predicate: no flip, no span fence.
        assert plan.next_phase_change_s(0.05) == float("inf")

    @pytest.mark.parametrize("now_s", [0.05, 0.1501, 0.199, 3.73])
    def test_predicate_constant_until_returned_instant(self, now_s):
        """``next_phase_change_s`` is exactly the first time the phase
        predicate can change value — the contract the span executor's
        straggler logic relies on when a boundary lands one tick ahead
        of a span start."""
        plan = RtiPlan(_any_config(), duty=0.5, period_s=0.2)
        flip = plan.next_phase_change_s(now_s)
        phase_now = plan.is_active_phase(now_s)
        # Constant strictly before the horizon...
        probe = now_s
        while probe < flip - 1e-6:
            assert plan.is_active_phase(probe) == phase_now
            probe += 1e-3
        assert plan.is_active_phase(flip - 1e-6) == phase_now
        # ...and flipped at (or within float-epsilon of) the horizon.
        assert plan.is_active_phase(flip + 1e-6) != phase_now


class TestSpanCutStats:
    def test_replays_accumulate_by_reason(self):
        stats = SpanCutStats()
        stats.record_replay("window-open")
        stats.record_replay("window-open")
        stats.record_replay("mux-window-open")
        summary = stats.as_dict(spans=0, ticks_skipped=0)
        assert summary["in_span_replays"] == {
            "window-open": 2,
            "mux-window-open": 1,
        }

    def test_single_tick_spans_have_a_bucket(self):
        # Composite spans commit lone straggler ticks; the histogram
        # must not lose them.
        assert bucket_for(1) == "1-9"
        stats = SpanCutStats()
        stats.record_span(1, "policy")
        assert stats.lengths["1-9"] == 1

    def test_refusal_reasons_and_components(self):
        stats = SpanCutStats()
        stats.record_refusal("policy", "reconfig")
        stats.record_refusal("policy", "reconfig")
        stats.record_refusal("loadgen")
        stats.record_span(12, "engine")
        summary = stats.as_dict(spans=1, ticks_skipped=12)
        assert summary["refusals"] == 3
        assert summary["cut_by"] == {"policy": 2, "engine": 1, "loadgen": 1}
        assert summary["policy_reasons"] == {"reconfig": 2}
        assert summary["span_lengths"]["10-29"] == 1


class _FakeSystem:
    """Deadline-driven stand-in for the system-level latency check."""

    def __init__(self, next_check_s, interval_s):
        self.next_check_s = next_check_s
        self.interval_s = interval_s
        self.fired_at = []

    def on_tick(self, now_s):
        if now_s + 1e-12 >= self.next_check_s:
            self.fired_at.append(now_s)
            self.next_check_s += self.interval_s


class TestMacroReplayGrid:
    """The system-check replay fires on the exact per-tick time grid."""

    def _policy(self):
        config = RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=spike_profile(duration_s=1.0),
            policy="ecl",
            seed=5,
        )
        return SimulationRunner(config).policy

    def test_fires_on_the_engine_tick_grid(self):
        policy = self._policy()
        dt = 0.002
        start = 0.123456789
        # The per-tick path would run the control phase at the left-fold
        # times start, start+dt, ... — replay must hit those exactly.
        grid = []
        t = start
        for _ in range(50):
            grid.append(t)
            t = t + dt
        fake = _FakeSystem(next_check_s=grid[17], interval_s=23 * dt)
        policy.system = fake
        policy.macro_replay(start, dt, 50)
        assert fake.fired_at == [grid[17], grid[40]]

    def test_check_due_at_span_start_fires_at_start(self):
        policy = self._policy()
        dt = 0.002
        fake = _FakeSystem(next_check_s=0.5, interval_s=1.0)
        policy.system = fake
        policy.macro_replay(0.5, dt, 10)
        assert fake.fired_at == [0.5]

    def test_far_future_check_skips_replay_entirely(self):
        policy = self._policy()
        fake = _FakeSystem(next_check_s=99.0, interval_s=1.0)
        policy.system = fake
        policy.macro_replay(0.0, 0.002, 100)
        assert fake.fired_at == []


class TestWindowOpenReplayedInSpan:
    """The online counter window opening on the first skipped tick is a
    hardware-inert action: the composite executor replays it mid-span
    instead of cutting to per-tick mode."""

    def test_replays_happen_and_identity_holds(self):
        profile = constant_profile(duration_s=4.0, fraction=0.3)
        on, runner_on = _run("ecl", macro=True, profile=profile)
        off, _ = _run("ecl", macro=False, profile=profile)
        _assert_identical(on, off)
        replays = runner_on.span_cuts.replays
        assert replays.get("window-open", 0) > 0


class TestMuxBudgetCrossesSlotCostMidSpan:
    """The multiplexed-measurement budget accrues during spans; the slot
    start (which applies a probe configuration) must land on a live tick
    and still leave the run bit-identical."""

    def test_slots_start_under_macro_stepping(self):
        # The spike drifts the profile hard enough (with a tightened
        # drift threshold) that the maintainer schedules multiplexed
        # re-measurement slots within a short run.
        profile = spike_profile(duration_s=4.0)
        params = EclParameters(drift_threshold=0.02)
        on, runner_on = _run(
            "ecl", macro=True, profile=profile, ecl_params=params
        )
        off, runner_off = _run(
            "ecl", macro=False, profile=profile, ecl_params=params
        )
        _assert_identical(on, off)
        started_on = sum(
            s.mux_slots_started for s in runner_on.policy.sockets.values()
        )
        started_off = sum(
            s.mux_slots_started for s in runner_off.policy.sockets.values()
        )
        assert started_on > 0
        assert started_on == started_off
        # The macro run really spanned around the slots rather than
        # dropping to per-tick mode for the whole event.
        assert runner_on.macro_ticks_skipped > 0


class TestRtiFlipAtSpanBoundary:
    """RTI duty cycling produces phase flips that repeatedly land exactly
    one tick after a span ends (the horizon stops the span short of the
    boundary; the flip runs live; the next span resumes behind it)."""

    def test_flips_run_live_and_identity_holds(self):
        profile = constant_profile(duration_s=4.0, fraction=0.25)
        on, runner_on = _run("ecl", macro=True, profile=profile)
        off, _ = _run("ecl", macro=False, profile=profile)
        _assert_identical(on, off)
        stats = runner_on.span_cut_stats()
        # Flips force live reconfiguration ticks, attributed to the
        # policy with the "reconfig" reason.
        assert stats["policy_reasons"].get("reconfig", 0) > 0
        assert runner_on.macro_ticks_skipped > 0


class TestDrainedSocketHorizon:
    """A drained socket's loop stands down: unbounded horizon, trivially
    replayable, and a consolidation run that drains (and the matrix's
    wave test wakes) sockets stays bit-identical."""

    def test_drained_loop_is_inert(self):
        config = RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=spike_profile(duration_s=1.0),
            policy="ecl",
            seed=5,
        )
        ecl = SimulationRunner(config).policy
        socket_ecl = ecl.sockets[0]
        socket_ecl.set_drained(True)
        assert socket_ecl.macro_horizon_s(0.25) == float("inf")
        state = dict(vars(socket_ecl))
        assert ecl.macro_step_tick(0.25, config.tick_s)
        assert vars(socket_ecl) == state
        socket_ecl.set_drained(False)

    def test_consolidation_drain_identity(self):
        profile = constant_profile(duration_s=4.0, fraction=0.05)
        on, runner_on = _run("ecl-consolidate", macro=True, profile=profile)
        off, runner_off = _run("ecl-consolidate", macro=False, profile=profile)
        _assert_identical(on, off)
        # The low-load run must actually consolidate, and both paths
        # must agree on which sockets ended up drained.
        assert runner_on.policy.drained_sockets
        assert (
            runner_on.policy.drained_sockets
            == runner_off.policy.drained_sockets
        )
        assert runner_on.macro_ticks_skipped > 0


class TestBootDeadlineSpans:
    """Node boots fold into macro spans; the settle tick must not slip.

    The machine's event horizon caps every span at the earliest boot
    deadline, so the tick on which ``settle_node_power`` flips the node
    runs live in macro mode too.  The edge: a deadline landing *exactly*
    on the tick grid (a span may end precisely there) versus one landing
    between ticks (the settle belongs to the following tick).  Either
    way the macro run must be bit-identical to per-tick stepping — a
    one-tick-late settle shifts the reactivation, the wake-hold window,
    and every joule after it.
    """

    def _cluster_run(self, *, macro, power_up_s):
        from repro.hardware.cluster import homogeneous_cluster
        from repro.telemetry import TraceRecorder

        config = RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=spike_profile(duration_s=12.0),
            policy="ecl-cluster",
            seed=5,
            macro_step=macro,
            cluster=homogeneous_cluster(2, power_up_s=power_up_s),
        )
        recorder = TraceRecorder()
        runner = SimulationRunner(config, observers=[recorder])
        result = runner.run()
        return result, runner, recorder

    @pytest.mark.parametrize(
        "power_up_s",
        [
            2.0,  # deadline on the tick grid: 2.0 / 0.002 = 1000 ticks
            2.0007,  # deadline between ticks: settles on the next tick
        ],
    )
    def test_boot_settle_tick_identical(self, power_up_s):
        on, runner_on, rec = self._cluster_run(
            macro=True, power_up_s=power_up_s
        )
        off, runner_off, _ = self._cluster_run(
            macro=False, power_up_s=power_up_s
        )
        _assert_identical(on, off)
        # The spike must actually boot the parked satellite, and the
        # macro path must fold ticks across the boot window instead of
        # pinning the whole boot live.
        states = set()
        for event in rec.events():
            if event.get("event") == "node_power":
                states.update((event.get("states") or {}).values())
        assert "booting" in states
        assert runner_on.macro_ticks_skipped > 0
        assert (
            runner_on.policy.powered_off_nodes
            == runner_off.policy.powered_off_nodes
        )
