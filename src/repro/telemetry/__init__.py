"""Run observability: event tracing and metrics export.

The runner's phased tick pipeline (arrivals → control → engine step →
completions → sampling) exposes observer hooks; this package puts
first-class instrumentation behind them:

* :class:`~repro.telemetry.trace.TraceRecorder` — a bounded, structured
  per-tick event stream (arrivals, policy reconfigurations with
  before/after hardware control state, completions, samples) with JSONL
  export;
* :mod:`~repro.telemetry.export` — suite-level summary tables
  (CSV / markdown) over :class:`~repro.sim.metrics.RunResult` objects,
  cache-directory loading, and markdown reports rendered from a trace.

Everything here is observation-only: attaching any of it must not change
a single float of the simulation (the A/B goldens pin that).  The CLI
front ends are ``repro run --trace PATH`` and ``repro report``.  Host
time is measured elsewhere: per layer, with span stepping on, by
``perfbench/run.py --trace 1``; per function by ``repro run
--profile-out PATH`` (a cProfile dump).
"""

from repro.telemetry.export import (
    cached_results,
    render_trace_report,
    summary_csv,
    summary_table_markdown,
    trace_samples_csv,
    write_summary_csv,
)
from repro.telemetry.trace import TraceRecorder, control_state, read_trace

__all__ = [
    "TraceRecorder",
    "control_state",
    "read_trace",
    "cached_results",
    "render_trace_report",
    "summary_csv",
    "summary_table_markdown",
    "trace_samples_csv",
    "write_summary_csv",
]
