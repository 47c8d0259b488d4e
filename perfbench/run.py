"""Run the simulator benchmark on one workload, or on all of them.

    python3 perfbench/run.py --workload day-ecl --seed 11 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, default seeds
    python3 perfbench/run.py --workload fleet-day --trace 1

Every repetition is a fresh single-threaded interpreter (``child.py``)
that imports ``repro`` from ``src/``, builds the run and simulates it;
repetitions run one at a time until ``--seconds`` is used up (at least
``MIN_REPS``).  An untraced run covers ``SEEDS_PER_RUN`` simulation
seeds derived from ``--seed`` (see ``run_seeds``), its repetitions
cycling through them, so that one seed's cost does not decide the run.

Host times are reported in reference seconds: each repetition also
times a fixed computation that does not use ``repro`` (see
``child.reference_s``), and its host times are scaled by
``REFERENCE_S / measured reference``.  On a shared host whose speed
drifts by tens of percent over minutes, this cancels the drift that no
run length can average away; the table also prints the raw host
seconds.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as
medians over the repetitions.  ``--trace 1`` simulates ``--seed``
itself, alternating untraced and traced repetitions, and reports the
per-layer metrics of BENCHMARK.json; its table also prints the layer
times that read zero on workloads that bypass the layer.  Every
repetition passes the output check in ``child.py`` and reproduces the
digest of the first repetition of its seed, or it counts as failed.
Standard output ends with one JSON line per workload,
``{"correct", "attempted", "failed", "metrics"}``; a workload on which
no repetition completed reports ``correct: false`` and no metrics.
The exit code is 2, with no result, only when ``src/repro`` is missing.

``end_to_end`` and ``traced`` take the checkout root as a parameter,
so ``sets.py`` measures other checkouts with the same code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Simulation seeds one untraced run covers.
SEEDS_PER_RUN = 3
#: Distance between the seeds of one run (``run_seeds``).
SEED_STRIDE = 1000
#: Every seed of an untraced run runs at least once.
MIN_REPS = SEEDS_PER_RUN
MAX_REPS = 25
#: Host seconds after which one workload's repetitions stop, however
#: many ran: an invocation must end well within three minutes.
HARD_STOP_S = 150.0
#: Host seconds the reference computation takes on the reference host
#: (README.md); it defines the reference second.
REFERENCE_S = 0.2
#: One thread per child: numpy's BLAS pools stay off the other core.
#: No child writes bytecode, so every repetition compiles ``src/repro``
#: the same way, whatever the calling shell sets.
CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


@dataclass
class Measurement:
    """One workload's repetitions and what they measured."""

    reps: list[dict]
    failed: int
    #: Result digest per simulation seed, in ``run_seeds`` order.
    digests: list[str] = field(default_factory=list)
    #: ``name -> (value, unit)``; empty when no repetition completed.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def monotonic() -> float:
    """System-wide monotonic clock, shared with the child processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_seeds(seed: int) -> list[int]:
    """The simulation seeds of an untraced run of ``--seed seed``."""
    return [seed + SEED_STRIDE * j for j in range(SEEDS_PER_RUN)]


def launch(root: str, name: str, seed: int, traced: bool, timeout_s: float) -> dict:
    """Run one child in checkout ``root``; returns its report plus timings.

    A child that crashes, times out or prints no report yields
    ``{"error": ...}``; a timed out child is killed and reaped before
    this returns.
    """
    args = ["--workload", name, "--seed", str(seed)] + (["--traced"] if traced else [])
    t_launch = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "child.py"), *args],
            cwd=root,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"timed out after {timeout_s:.0f} s",
                "elapsed": monotonic() - t_launch}
    elapsed = monotonic() - t_launch
    report = None
    if proc.returncode == 0:
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            pass
    if report is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no report"]
        return {"seed": seed, "error": f"exit {proc.returncode}: {tail[0]}",
                "elapsed": elapsed}
    report["seed"] = seed
    report["elapsed"] = elapsed
    report["host_setup_s"] = report["t_ready"] - t_launch
    report["host_wall_s"] = report["t_done"] - report["t_first_tick"]
    scale = REFERENCE_S / report["reference_s"]
    report["scale"] = scale
    report["setup_s"] = report["host_setup_s"] * scale
    report["import_s"] = (report["t_imported"] - t_launch) * scale
    report["wall_s"] = report["host_wall_s"] * scale
    return report


def repetitions(launch_rep, seconds: float, min_reps: int) -> list[dict]:
    """Call ``launch_rep(i, timeout_s)`` until the time budget is spent."""
    start = monotonic()
    deadline = start + seconds
    hard_stop = start + HARD_STOP_S
    reps: list[dict] = []
    while len(reps) < MAX_REPS:
        reps.append(launch_rep(len(reps), max(hard_stop - monotonic(), 1.0)))
        if monotonic() >= hard_stop:
            break
        if len(reps) < min_reps:
            continue
        typical = statistics.median(r["elapsed"] for r in reps)
        if monotonic() + typical > deadline:
            break
    return reps


def judge(reps: list[dict], reference: dict[int, str]) -> int:
    """Mark each repetition ok or failed; returns the failures.

    ``reference`` maps a simulation seed to its digest and is filled
    from the first completed repetition of each seed not in it; a
    completed repetition with another digest fails.
    """
    failures = 0
    for rep in reps:
        if "error" not in rep:
            expected = reference.setdefault(rep["seed"], rep["digest"])
            if rep["problems"]:
                rep["error"] = "; ".join(rep["problems"])
            elif rep["digest"] != expected:
                rep["error"] = f"digest {rep['digest']} != {expected}"
        if "error" in rep:
            failures += 1
    return failures


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def listing(reps: list[dict], key: str) -> str:
    return f"{key:<13}" + " ".join(f"{r[key]:.4f}" for r in reps)


def error_notes(reps: list[dict]) -> list[str]:
    return [f"repetition {i}: {r['error']}" for i, r in enumerate(reps) if "error" in r]


def end_to_end(root: str, name: str, seed: int, seconds: float) -> Measurement:
    seeds = run_seeds(seed)
    reps = repetitions(
        lambda i, timeout: launch(root, name, seeds[i % len(seeds)], False, timeout),
        seconds,
        MIN_REPS,
    )
    reference: dict[int, str] = {}
    out = Measurement(reps, judge(reps, reference))
    out.digests = [reference.get(s, "missing") for s in seeds]
    out.notes = [f"{len(reps)} repetitions of seeds {seeds}, digests {out.digests}"]
    out.notes += error_notes(reps)
    timed = [r for r in reps if "error" not in r]
    if not timed:
        return out
    out.metrics = {
        "wall_s": (median_of(timed, "wall_s"), "s"),
        "setup_s": (median_of(timed, "setup_s"), "s"),
        "peak_rss_mb": (median_of(timed, "peak_rss_mb"), "MB"),
        "failed_share": (out.failed / len(reps), "share"),
        "host.wall_s": (median_of(timed, "host_wall_s"), "s"),
        "host.setup_s": (median_of(timed, "host_setup_s"), "s"),
        "host.reference_s": (median_of(timed, "reference_s"), "s"),
    }
    # Model outputs of ``--seed`` itself, when its repetitions completed.
    for rep in timed:
        if rep["seed"] == seed:
            out.metrics.update((k, tuple(v)) for k, v in rep["sim"].items())
            break
    out.notes += [listing(timed, key) for key in ("wall_s", "setup_s", "reference_s")]
    return out


def traced(root: str, name: str, seed: int, seconds: float) -> Measurement:
    """Alternate untraced and traced repetitions of one seed (untraced first)."""
    reps = repetitions(
        lambda i, timeout: launch(root, name, seed, i % 4 in (1, 2), timeout),
        seconds,
        2,
    )
    untraced = [r for r in reps if "error" not in r and "layers" not in r]
    # Every repetition, traced or not, must reproduce the untraced digest.
    reference = {seed: untraced[0]["digest"]} if untraced else {}
    out = Measurement(reps, judge(reps, reference))
    out.digests = [reference.get(seed, "missing")]
    untraced = [r for r in untraced if "error" not in r]
    with_layers = [r for r in reps if "error" not in r and "layers" in r]
    if with_layers:
        first = with_layers[0]["layers"]
        for rep in with_layers[1:]:
            for key, (value, unit) in rep["layers"].items():
                if unit != "s" and value != first[key][0] and "error" not in rep:
                    rep["error"] = f"{key} {value} != {first[key][0]}"
                    out.failed += 1
    out.notes = [
        f"{len(untraced)} untraced + {len(with_layers)} traced repetitions, "
        f"digest {out.digests[0]}"
    ]
    out.notes += error_notes(reps)
    if not untraced or not with_layers:
        return out
    # Layer times are reference seconds too; counts come from one run.
    out.metrics = {
        key: (
            statistics.median(r["layers"][key][0] * r["scale"] for r in with_layers)
            if unit == "s"
            else value,
            unit,
        )
        for key, (value, unit) in first.items()
    }
    out.metrics["setup.import_s"] = (median_of(with_layers, "import_s"), "s")
    out.metrics["trace.overhead_share"] = (
        median_of(with_layers, "wall_s") / median_of(untraced, "wall_s") - 1.0,
        "share",
    )
    out.metrics.update((k, tuple(v)) for k, v in untraced[0]["sim"].items())
    out.notes += [
        "untraced " + listing(untraced, "wall_s"),
        "traced   " + listing(with_layers, "wall_s"),
    ]
    return out


def report(name: str, seed: int, trace: bool, measured: Measurement, spec: dict) -> dict:
    """Print the human-readable table; return the result object."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'})")
    for note in measured.notes:
        print(f"   {note}")
    for key, (value, unit) in measured.metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {key:<32} {shown:>14} {unit}")
    return {
        "correct": measured.failed == 0 and bool(measured.metrics),
        "attempted": len(measured.reps),
        "failed": measured.failed,
        "metrics": {
            m["name"]: {"value": measured.metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        } if measured.metrics else {},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", choices=["all", *WORKLOADS]
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: the workload's own)",
    )
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"benchmark failed: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = traced if args.trace else end_to_end
    results = []
    for name in names:
        seed = args.seed if args.seed is not None else WORKLOADS[name].default_seed
        results.append(
            report(name, seed, bool(args.trace), measure(ROOT, name, seed, seconds), spec)
        )
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
