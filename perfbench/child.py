"""One benchmark simulation in a fresh interpreter.

Run by ``run.py``, once per repetition, so every repetition pays the
package import and construction a ``repro run`` user pays.  Prints one
JSON line: monotonic timestamps (comparable with the parent's launch
time), the host seconds of the reference computation (the mean of one
timing before and one after the run), the output check, the result
digest, the peak RSS and, when traced, the per-layer metrics.

    python3 perfbench/child.py --workload day-ecl --seed 11 [--traced]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def monotonic() -> float:
    """System-wide monotonic clock, shared with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest(result, in_flight: int) -> str:
    """Short hash of the run's model outputs (energy, counts, p99)."""
    p99 = result.percentile_latency_s(99)
    key = (
        float(result.total_energy_j).hex(),
        result.queries_submitted,
        result.queries_completed,
        in_flight,
        None if p99 is None else float(p99).hex(),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def reference_s() -> float:
    """Host seconds of a fixed computation that does not use ``repro``.

    Dict, float and small-array work like the simulator's hot loops;
    timed next to the simulation, it measures how fast the host runs
    such code at that moment.  The collector is paused so that the
    simulation's heap does not change the measured work.
    """
    import numpy as np

    column = np.arange(32, dtype=np.float64)
    table: dict[int, float] = {}
    total = 0.0
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(500_000):
            key = i % 97
            table[key] = table.get(key, 0.0) + i * 0.5
            total += table[key] - key
            if i % 16 == 0:
                total += float(np.subtract.accumulate(column)[-1])
        return time.perf_counter() - start
    finally:
        gc.enable()


def check(result, in_flight: int) -> list[str]:
    """The run's output check; returns the violated conditions."""
    problems = []
    if result.queries_submitted != result.queries_completed + in_flight:
        problems.append(
            f"query conservation: {result.queries_submitted} submitted != "
            f"{result.queries_completed} completed + {in_flight} in flight"
        )
    energy = result.total_energy_j
    if not (math.isfinite(energy) and energy > 0):
        problems.append(f"total energy {energy!r} is not finite and positive")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import repro.sim  # noqa: F401  (the import is part of set-up)

    t_imported = monotonic()

    from repro.sim import SimulationRunner

    from tracer import LayerTracer
    from workloads import WORKLOADS, build_config

    workload = WORKLOADS[args.workload]
    tracer = LayerTracer() if args.traced else None
    if tracer is not None:
        tracer.wrap_constructors()
    t_config = monotonic()
    config = build_config(workload, args.seed)
    t_built_config = monotonic()
    runner = SimulationRunner(config)
    if tracer is not None:
        tracer.restore()
        tracer.attach(runner)
    # Set-up ends here; the reference is timed outside both intervals.
    t_ready = monotonic()
    reference = reference_s()
    t_first_tick = monotonic()
    try:
        result = tracer.run(runner) if tracer is not None else runner.run()
    finally:
        if tracer is not None:
            tracer.restore()
    t_done = monotonic()
    reference = (reference + reference_s()) / 2

    in_flight = runner.engine.tracker.in_flight
    out = {
        "t_imported": t_imported,
        "t_ready": t_ready,
        "t_first_tick": t_first_tick,
        "reference_s": reference,
        "t_done": t_done,
        "problems": check(result, in_flight),
        "digest": digest(result, in_flight),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim": {
            "sim.energy_j": [result.total_energy_j, "J"],
            "sim.queries_submitted": [result.queries_submitted, "count"],
            "sim.queries_completed": [result.queries_completed, "count"],
            "sim.in_flight": [in_flight, "count"],
            "sim.p99_ms": [1000 * (result.percentile_latency_s(99) or 0.0), "sim-ms"],
        },
    }
    if tracer is not None:
        setup = tracer.setup_s
        layers = {
            "setup.config_s": (t_built_config - t_config, "s"),
            "setup.machine_s": (setup["machine"], "s"),
            "setup.engine_s": (setup["engine"], "s"),
            "setup.loadgen_s": (setup["loadgen"], "s"),
            "setup.policy_s": (setup["policy"], "s"),
        }
        layers.update(tracer.layer_metrics(runner))
        out["layers"] = {k: [v, unit] for k, (v, unit) in layers.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
