"""Structured event tracing over the simulation tick pipeline.

:class:`TraceRecorder` is a :class:`~repro.sim.observers.RunObserver`
that records what the control loop *did and when* — the evidence behind
every §5–6 claim.  One event is a plain dict (cheap to buffer while the
run is hot, trivially JSON-serializable afterwards):

``run_start``
    run identity: policy, workload, profile, tick width, durations.
``arrival``
    one query entered the engine (``t``, ``query_id``).
``reconfig``
    the control policy changed the hardware control state during phase 2
    — detected via the frequency/C-state version counters, so unchanged
    ticks cost two integer compares — with ``before``/``after`` snapshots
    from :func:`control_state`.
``completion``
    one query finished (``t``, ``query_id``, ``latency_s``).
``sample``
    mirror of each periodic :class:`~repro.sim.metrics.SamplePoint`.
``migration``
    one partition finished moving between sockets — mirror of the
    engine's :attr:`~repro.dbms.engine.DatabaseEngine.migration_log`
    entry (source/target socket, bytes copied, messages shipped,
    per-side instruction cost).
``node_power``
    a node power transition (cluster runs only) — detected via the
    machine's ``node_power_version`` counter, with the full per-node
    state map (``on`` / ``booting`` / ``off``) after the transition.
``environment``
    an exogenous signal change (environment-attached runs only): the
    first tick seeing a new carbon/price level records both values.
    The runner cuts macro spans at signal changes, so the recording
    tick is always live.
``run_end``
    final totals, including how many events the ring buffer dropped
    (plus wall energy / gCO₂ / cost when an environment is attached).

The buffer is a bounded ring (``capacity`` events, default 200k): a
multi-minute high-QPS run cannot exhaust memory, at the price of losing
the *oldest* events — :attr:`TraceRecorder.dropped_events` says how many.
Export with :meth:`TraceRecorder.to_jsonl`, read back (for ``repro
report``) with :func:`read_trace`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.observers import RunObserver
from repro.units import at_or_after

if TYPE_CHECKING:
    import os

    from repro.dbms.engine import EngineTickResult
    from repro.dbms.queries import Query, QueryCompletion
    from repro.hardware.machine import Machine
    from repro.sim.metrics import RunResult
    from repro.sim.runner import SimulationRunner

#: Default ring-buffer capacity, in events.
DEFAULT_CAPACITY = 200_000


def control_state(machine: "Machine") -> dict[str, object]:
    """JSON-ready snapshot of the machine's control state.

    Core/uncore clocks are the *effective* frequencies (EET dwell and
    throttling included), keyed as ``"socket.core"`` strings so the dict
    survives a JSON round trip unchanged.
    """
    state = machine.state()
    return {
        "active_threads": len(state.active_threads),
        "core_ghz": {
            f"{sid}.{cid}": round(freq, 4)
            for (sid, cid), freq in sorted(state.core_frequencies_ghz.items())
        },
        "uncore_ghz": {
            str(sid): round(freq, 4)
            for sid, freq in sorted(state.uncore_frequencies_ghz.items())
        },
        "uncore_halted": {
            str(sid): halted
            for sid, halted in sorted(state.uncore_halted.items())
        },
    }


class TraceRecorder(RunObserver):
    """Records a bounded structured event stream of one run.

    Attach via ``SimulationRunner(config, observers=[recorder])`` (or
    ``repro run --trace PATH``); after the run, :meth:`events` holds the
    retained stream and :meth:`to_jsonl` exports it.

    Args:
        capacity: ring-buffer size in events; the oldest events are
            dropped beyond it.
        record_arrivals: per-arrival events dominate trace volume on
            high-QPS runs; disable to keep only control-plane activity.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        record_arrivals: bool = True,
    ):
        if capacity <= 0:
            raise SimulationError(
                f"trace capacity must be > 0, got {capacity}"
            )
        self.capacity = capacity
        self.record_arrivals = record_arrivals
        self.total_events = 0
        self._buffer: deque[dict[str, object]] = deque(maxlen=capacity)
        self._runner: "SimulationRunner | None" = None
        self._result: "RunResult | None" = None
        self._versions: tuple[int, int] | None = None
        self._node_version: int | None = None
        self._state: dict[str, object] | None = None
        self._samples_seen = 0
        self._migrations_seen = 0
        self._environment = None
        self._env_next_s = float("inf")

    # -- buffer accessors --------------------------------------------------

    @property
    def dropped_events(self) -> int:
        """Events evicted by the ring buffer (oldest first)."""
        return self.total_events - len(self._buffer)

    def events(self) -> list[dict[str, object]]:
        """The retained event stream, in emission order."""
        return list(self._buffer)

    def _emit(self, event: dict[str, object]) -> None:
        self.total_events += 1
        self._buffer.append(event)

    # -- pipeline hooks ----------------------------------------------------

    def on_run_start(self, runner: "SimulationRunner", result: "RunResult") -> None:
        self._runner = runner
        self._result = result
        self._samples_seen = 0
        self._migrations_seen = 0
        machine = runner.machine
        self._versions = (machine.frequency.version, machine.cstates.version)
        self._node_version = machine.node_power_version
        self._state = control_state(machine)
        event: dict[str, object] = {
            "event": "run_start",
            "policy": result.policy,
            "workload": result.workload_name,
            "profile": result.profile_name,
            "tick_s": runner.config.tick_s,
            "duration_s": result.duration_s,
            "requested_duration_s": result.requested_duration_s,
            "initial_state": self._state,
        }
        # Single-node runs keep the historical event schema untouched.
        if machine.node_count > 1:
            event["nodes"] = self._node_power_states(machine)
        # Likewise, only environment-attached runs add the schema keys.
        environment = runner.config.environment
        self._environment = environment
        if environment is not None:
            event["environment"] = environment.name
            event["pue"] = environment.pue
            self._env_next_s = environment.next_change_s(machine.time_s)
        else:
            self._env_next_s = float("inf")
        self._emit(event)

    def on_arrival(self, now_s: float, query: "Query") -> None:
        if self.record_arrivals:
            self._emit(
                {"event": "arrival", "t": now_s, "query_id": query.query_id}
            )

    @staticmethod
    def _node_power_states(machine: "Machine") -> dict[str, str]:
        return {
            str(node): machine.node_power_state(node).name.lower()
            for node in range(machine.node_count)
        }

    def _check_node_power(self, now_s: float) -> None:
        runner = self._runner
        assert runner is not None
        machine = runner.machine
        if machine.node_power_version == self._node_version:
            return
        self._node_version = machine.node_power_version
        self._emit(
            {
                "event": "node_power",
                "t": now_s,
                "states": self._node_power_states(machine),
            }
        )

    def after_control(self, now_s: float, dt_s: float) -> None:
        runner = self._runner
        assert runner is not None
        machine = runner.machine
        self._check_node_power(now_s)
        versions = (machine.frequency.version, machine.cstates.version)
        if versions == self._versions:
            return
        after = control_state(machine)
        self._emit(
            {
                "event": "reconfig",
                "t": now_s,
                "before": self._state,
                "after": after,
            }
        )
        self._versions = versions
        self._state = after

    def on_completion(self, now_s: float, completion: "QueryCompletion") -> None:
        self._emit(
            {
                "event": "completion",
                "t": now_s,
                "query_id": completion.query_id,
                "latency_s": completion.latency_s,
            }
        )

    def end_tick(self, now_s: float, tick_result: "EngineTickResult") -> None:
        result = self._result
        runner = self._runner
        assert result is not None and runner is not None
        # A BOOTING -> ON settle happens inside the engine phase.
        self._check_node_power(now_s)
        # Mirror samples the SamplingObserver appended this tick.
        for sample in result.samples[self._samples_seen :]:
            record = asdict(sample)
            record["performance_levels"] = list(sample.performance_levels)
            record["applied"] = list(sample.applied)
            record["event"] = "sample"
            self._emit(record)
        self._samples_seen = len(result.samples)
        # Mirror partition migrations the engine completed this tick.
        migrations = runner.engine.migration_log
        for migration in migrations[self._migrations_seen :]:
            event = migration.to_event()
            event["event"] = "migration"
            event["t"] = migration.completed_at_s
            self._emit(event)
        self._migrations_seen = len(migrations)
        # Record exogenous signal changes as they become visible: the
        # first tick starting at/after a change reads the new levels.
        # The runner cuts spans at signal changes, so that tick is live.
        environment = self._environment
        if environment is not None and at_or_after(now_s, self._env_next_s):
            self._emit(
                {
                    "event": "environment",
                    "t": now_s,
                    "carbon_g_per_kwh": environment.carbon.value(now_s),
                    "price_usd_per_kwh": environment.price.value(now_s),
                }
            )
            # Advance from the change just passed, not from ``now_s``:
            # when the tick clock lands an epsilon *short* of the knot,
            # rearming on ``now_s`` would find the same knot again and
            # double-report it.
            self._env_next_s = environment.next_change_s(
                max(now_s, self._env_next_s)
            )

    def macro_horizon_s(self, now_s: float) -> float | None:
        # Always skippable: on skipped ticks there are no arrivals,
        # completions, or migrations; after_control early-returns on
        # unchanged version counters (a span never reconfigures); and
        # end_tick only mirrors samples/migrations appended since the
        # last call — none appear while ticks are skipped.  Environment
        # events need no horizon here either: the runner itself cuts
        # spans at signal changes, so the change tick reaches end_tick.
        return float("inf")

    def on_run_end(self, result: "RunResult") -> None:
        runner = self._runner
        if runner is not None and runner.config.macro_step:
            self._emit(
                {
                    "event": "macro",
                    "ticks": round(
                        result.requested_duration_s / runner.config.tick_s
                    ),
                    **runner.span_cut_stats(),
                }
            )
        end: dict[str, object] = {
            "event": "run_end",
            "duration_s": result.duration_s,
            "queries_submitted": result.queries_submitted,
            "queries_completed": result.queries_completed,
            "total_energy_j": result.total_energy_j,
            "sample_count": len(result.samples),
            "total_events": self.total_events + 1,
            "dropped_events": self.dropped_events,
        }
        if result.environment_name is not None:
            end["environment"] = result.environment_name
            end["wall_energy_j"] = result.wall_energy_j
            end["gco2_total_g"] = result.gco2_total_g
            end["cost_usd"] = result.cost_usd
        self._emit(end)

    # -- export ------------------------------------------------------------

    def to_jsonl(self, path: "str | os.PathLike[str]") -> int:
        """Write the retained events as JSON Lines; returns the count."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True))
                fh.write("\n")
        return len(events)


def read_trace(path: "str | os.PathLike[str]") -> list[dict[str, object]]:
    """Load a JSONL trace written by :meth:`TraceRecorder.to_jsonl`.

    Raises:
        SimulationError: when a line is not a JSON object.
    """
    events: list[dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SimulationError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from None
            if not isinstance(event, dict):
                raise SimulationError(
                    f"{path}:{lineno}: expected a JSON object, "
                    f"got {type(event).__name__}"
                )
            events.append(event)
    return events
