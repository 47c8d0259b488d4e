"""Tests for the phased tick pipeline's observer hooks."""

import pytest

from repro.loadprofiles import constant_profile, spike_profile
from repro.sim import RunConfiguration, SimulationRunner
from repro.sim.observers import ObserverList, RunObserver, SamplingObserver
from repro.workloads import KeyValueWorkload, WorkloadVariant


def kv(variant=WorkloadVariant.NON_INDEXED):
    return KeyValueWorkload(variant)


def config(duration_s=1.0, **kwargs):
    return RunConfiguration(
        workload=kv(),
        profile=constant_profile(0.3, duration_s=duration_s),
        **kwargs,
    )


class RecordingObserver(RunObserver):
    """Records every hook invocation in order."""

    def __init__(self):
        self.events = []
        self.runner = None
        self.result = None

    def on_run_start(self, runner, result):
        self.runner = runner
        self.result = result
        self.events.append("run_start")

    def before_arrivals(self, now_s, dt_s):
        self.events.append("before_arrivals")

    def on_arrival(self, now_s, query):
        self.events.append("arrival")

    def after_control(self, now_s, dt_s):
        self.events.append("after_control")

    def after_step(self, now_s, tick_result):
        self.events.append("after_step")

    def on_completion(self, now_s, completion):
        self.events.append("completion")

    def end_tick(self, now_s, tick_result):
        self.events.append("end_tick")

    def on_run_end(self, result):
        self.events.append("run_end")


class TestPipelineHooks:
    def test_hook_order_within_each_tick(self):
        observer = RecordingObserver()
        SimulationRunner(config(duration_s=0.5), observers=[observer]).run()

        assert observer.events[0] == "run_start"
        assert observer.events[-1] == "run_end"
        # Per-tick phase markers appear once per tick, in pipeline order.
        ticks = 250  # 0.5 s at 2 ms
        assert observer.events.count("before_arrivals") == ticks
        assert observer.events.count("after_control") == ticks
        assert observer.events.count("after_step") == ticks
        assert observer.events.count("end_tick") == ticks
        phases = [
            e
            for e in observer.events
            if e in ("before_arrivals", "after_control", "after_step", "end_tick")
        ]
        expected = ["before_arrivals", "after_control", "after_step", "end_tick"]
        assert phases == expected * ticks

    def test_arrivals_and_completions_hooked(self):
        observer = RecordingObserver()
        result = SimulationRunner(config(), observers=[observer]).run()
        assert observer.events.count("arrival") == result.queries_submitted
        assert observer.events.count("completion") == result.queries_completed
        assert result.queries_submitted > 0

    def test_arrival_lands_in_phase_one(self):
        observer = RecordingObserver()
        SimulationRunner(config(duration_s=0.2), observers=[observer]).run()
        markers = ("before_arrivals", "after_control", "after_step", "end_tick")
        last_marker = None
        saw_arrival = False
        for event in observer.events:
            if event in markers:
                last_marker = event
            elif event == "arrival":
                saw_arrival = True
                # Phase 1: between before_arrivals and after_control.
                assert last_marker == "before_arrivals"
        assert saw_arrival

    def test_add_observer_after_construction(self):
        observer = RecordingObserver()
        runner = SimulationRunner(config(duration_s=0.2))
        runner.add_observer(observer)
        runner.run()
        assert "run_start" in observer.events

    def test_observer_sees_final_totals(self):
        class TotalCheck(RunObserver):
            def __init__(self):
                self.energy = None

            def on_run_end(self, result):
                self.energy = result.total_energy_j

        check = TotalCheck()
        result = SimulationRunner(config(), observers=[check]).run()
        assert check.energy == result.total_energy_j
        assert check.energy > 0


class TestSamplingObserver:
    def test_sampling_is_phase_anchored(self):
        result = SimulationRunner(config(duration_s=2.0)).run()
        times = [s.time_s for s in result.samples]
        assert times[0] == pytest.approx(0.0)
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d == pytest.approx(0.25, abs=1e-9) for d in deltas)

    def test_standalone_observer_composes(self):
        # A second sampler at a different cadence runs independently.
        extra_result_holder = {}

        class SecondSampler(SamplingObserver):
            def on_run_start(self, runner, result):
                import copy

                # Sample into a private result so the runs don't mix.
                private = copy.deepcopy(result)
                extra_result_holder["result"] = private
                super().on_run_start(runner, private)

        runner = SimulationRunner(
            config(duration_s=1.0), observers=[SecondSampler(0.5)]
        )
        result = runner.run()
        assert len(result.samples) == 4  # 0, .25, .5, .75
        assert len(extra_result_holder["result"].samples) == 2  # 0, .5


class TestObserverList:
    def test_dispatch_order(self):
        first, second = RecordingObserver(), RecordingObserver()
        observers = ObserverList([first, second])
        observers.before_arrivals(0.0, 0.002)
        assert first.events == ["before_arrivals"]
        assert second.events == ["before_arrivals"]

    def test_iteration(self):
        first, second = RecordingObserver(), RecordingObserver()
        assert list(ObserverList([first, second])) == [first, second]


class TestMacroUnawareObserver:
    """An observer that keeps the default ``macro_horizon_s`` turns span
    stepping off for the whole run, and the run names it."""

    def test_bare_observer_disables_spans_and_is_named(self):
        class MyProbe(RunObserver):
            pass

        runner = SimulationRunner(
            RunConfiguration(
                workload=kv(), profile=spike_profile(duration_s=5.0)
            ),
            observers=[MyProbe()],
        )
        runner.run()
        stats = runner.span_cut_stats()
        assert stats["ticks_skipped"] == 0
        assert "observer:MyProbe" in stats["cut_by"]

    def test_explicit_labels_are_kept(self):
        class Probe(RunObserver):
            macro_label = "probe"

        observers = ObserverList([SamplingObserver(0.25), Probe()])
        assert observers.attributed_macro_horizon_s(0.0) == (None, "probe")
