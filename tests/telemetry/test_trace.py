"""Tests for the structured trace recorder."""

import json

import pytest

from repro.errors import SimulationError
from repro.loadprofiles import constant_profile
from repro.sim import RunConfiguration, SimulationRunner
from repro.telemetry import TraceRecorder, read_trace
from repro.workloads import KeyValueWorkload, WorkloadVariant


def kv():
    return KeyValueWorkload(WorkloadVariant.NON_INDEXED)


def config(policy="ecl", duration_s=2.0):
    return RunConfiguration(
        workload=kv(),
        profile=constant_profile(0.3, duration_s=duration_s),
        policy=policy,
    )


def run_with_tracer(policy="ecl", duration_s=2.0, **recorder_kwargs):
    recorder = TraceRecorder(**recorder_kwargs)
    result = SimulationRunner(
        config(policy, duration_s), observers=[recorder]
    ).run()
    return recorder, result


class TestEventStream:
    def test_stream_structure_matches_run_totals(self):
        recorder, result = run_with_tracer()
        events = recorder.events()
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"
        kinds = [e["event"] for e in events]
        assert kinds.count("arrival") == result.queries_submitted
        assert kinds.count("completion") == result.queries_completed
        assert kinds.count("sample") == len(result.samples)
        assert recorder.dropped_events == 0

    def test_events_are_time_ordered(self):
        recorder, _ = run_with_tracer(duration_s=1.0)
        times = [e["t"] for e in recorder.events() if "t" in e]
        assert times == sorted(times)

    def test_reconfig_events_carry_before_after_state(self):
        recorder, _ = run_with_tracer(policy="ecl", duration_s=3.0)
        reconfigs = [
            e for e in recorder.events() if e["event"] == "reconfig"
        ]
        assert reconfigs, "the ECL must reconfigure within 3 s"
        for event in reconfigs:
            for side in ("before", "after"):
                assert set(event[side]) == {
                    "active_threads",
                    "core_ghz",
                    "uncore_ghz",
                    "uncore_halted",
                }
        assert any(e["before"] != e["after"] for e in reconfigs)

    def test_baseline_reconfigures_rarely(self):
        """The uncontrolled baseline touches knobs at most on idle
        transitions — orders of magnitude below the ECL."""
        ecl, _ = run_with_tracer(policy="ecl", duration_s=2.0)
        base, _ = run_with_tracer(policy="baseline", duration_s=2.0)

        def reconfigs(recorder):
            return sum(
                1 for e in recorder.events() if e["event"] == "reconfig"
            )

        assert reconfigs(base) <= reconfigs(ecl)

    def test_record_arrivals_off_drops_only_arrivals(self):
        recorder, result = run_with_tracer(record_arrivals=False)
        kinds = [e["event"] for e in recorder.events()]
        assert "arrival" not in kinds
        assert kinds.count("completion") == result.queries_completed
        assert result.queries_submitted > 0

    def test_ring_buffer_bounds_memory(self):
        recorder, _ = run_with_tracer(capacity=50)
        events = recorder.events()
        assert len(events) == 50
        assert recorder.total_events > 50
        assert recorder.dropped_events == recorder.total_events - 50
        # The newest events survive; the oldest were evicted.
        assert events[-1]["event"] == "run_end"
        assert events[0]["event"] != "run_start"

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            TraceRecorder(capacity=0)

    def test_tracing_does_not_change_the_run(self):
        plain_runner = SimulationRunner(config(duration_s=1.5))
        plain = plain_runner.run()
        traced_runner = SimulationRunner(
            config(duration_s=1.5), observers=[TraceRecorder()]
        )
        traced = traced_runner.run()
        assert traced.total_energy_j == plain.total_energy_j
        assert traced.latencies_s == plain.latencies_s
        assert traced.samples == plain.samples
        # The recorder is macro-aware: attaching it keeps span stepping on.
        assert traced_runner.macro_ticks_skipped == (
            plain_runner.macro_ticks_skipped
        )
        assert plain_runner.macro_ticks_skipped > 0


class TestJsonlRoundTrip:
    def test_export_and_read_back(self, tmp_path):
        recorder, _ = run_with_tracer(duration_s=1.0)
        path = tmp_path / "trace.jsonl"
        count = recorder.to_jsonl(path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert count == len(lines) == len(recorder.events())
        # The in-memory stream is already JSON-faithful: a round trip
        # through disk reproduces it exactly.
        assert read_trace(path) == recorder.events()
        for line in lines:
            assert isinstance(json.loads(line), dict)

    def test_read_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(SimulationError):
            read_trace(path)

    def test_read_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(SimulationError):
            read_trace(path)

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "a"}\n\n{"event": "b"}\n', encoding="utf-8")
        assert len(read_trace(path)) == 2
