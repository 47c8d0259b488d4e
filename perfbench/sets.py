"""Sets of benchmark runs: steadiness of one checkout, or an A/B comparison.

    python3 perfbench/sets.py steady [--workload W ...] [--out FILE]
    python3 perfbench/sets.py compare BASE_DIR HEAD_DIR [--workload W ...] [--out FILE]

A run is one ``run.end_to_end`` measurement of ``run_seconds`` on one
seed; every set holds ``RUNS`` runs, on seeds 1 to ``RUNS``.

``steady`` makes ``SETS`` sets per workload, interleaving them seed by
seed and alternating which set goes first.  For every end-to-end
metric it records each set's median and quartiles and the spread
(interquartile distance over the median) against the metric's bound in
BENCHMARK.json, and how far each later set's median lies from the
first's, in either direction.

``compare`` runs the same benchmark code (``perfbench/`` and
BENCHMARK.json must be identical in both checkouts) on two checkouts,
one seed per pair, alternating which side runs first.  Per metric it
reports both medians and quartiles, the pairs the head side won, and a
verdict: ``gain`` (wins at least 9 of 10 pairs and the medians differ
by more than the base's own spread), ``regression`` (head median worse
than base by more than the bound), ``unresolved`` (base spread wider
than the bound and not every head run better) or ``no change``.

Every result set carries the host fingerprint (python, numpy, CPU
count and model), a hash of the simulator sources, and each run's
result digests: ``steady`` requires every set's run of one seed to
reproduce the same digests, and ``compare`` counts the seeds on which
both sides' model outputs are bit-identical.  ``steady`` also keeps
every run's repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run
from run import ROOT

#: Runs per set, on seeds 1 to RUNS.
RUNS = 10
#: Sets ``steady`` makes of one checkout.
SETS = 2


def fingerprint() -> dict:
    """Host description recorded with every result set."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            capture_output=True, text=True, timeout=60,
        ).stdout.strip()
    except subprocess.TimeoutExpired:
        numpy = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def tree_hash(root: str, sub: str) -> str:
    """Content hash of the ``.py`` files under ``root/sub``."""
    digest = hashlib.sha256()
    base = os.path.join(root, sub)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run in checkout ``root``: metric values, digests, repetitions."""
    measured = run.end_to_end(root, workload, seed, seconds)
    if measured.failed or not measured.metrics:
        raise RuntimeError(
            f"{root}: {workload} seed {seed}: {measured.failed} of "
            f"{len(measured.reps)} repetitions failed: {measured.notes}"
        )
    return {
        "seed": seed,
        "digests": measured.digests,
        **{k: value for k, (value, _unit) in measured.metrics.items()},
        "repetitions": [
            {k: r[k] for k in ("seed", "wall_s", "setup_s", "reference_s")}
            for r in measured.reps
        ],
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def steady(workloads: list[str], spec: dict) -> dict:
    metrics = spec["end_to_end"]
    out = {"fingerprint": fingerprint(), "src": tree_hash(ROOT, "src"),
           "runs": RUNS, "sets": SETS, "workloads": {}}
    for workload in workloads:
        runs: list[list[dict]] = [[] for _ in range(SETS)]
        for seed in range(1, RUNS + 1):
            order = range(SETS) if seed % 2 else reversed(range(SETS))
            for s in order:
                runs[s].append(run_once(ROOT, workload, seed, spec["run_seconds"]))
                print(f"{workload} set {s}: {runs[s][-1]}", flush=True)
        # Every set's run of one seed must reproduce the same digests.
        rows = {"runs": runs, "digests_agree": all(
            len({tuple(r["digests"]) for r in group}) == 1 for group in zip(*runs))}
        for metric in metrics:
            sets = [summary([r[metric["name"]] for r in runs[s]]) for s in range(SETS)]
            bound = metric["bound"]
            change = [(s["median"] - sets[0]["median"]) / sets[0]["median"]
                      for s in sets[1:]]
            rows[metric["name"]] = {
                "unit": metric["unit"],
                "bound": bound,
                "sets": sets,
                "spread_ok": all(s["spread"] <= bound for s in sets),
                "steady": all(s["spread"] <= bound / 3 for s in sets),
                "median_drift": change,
                "drift_ok": all(abs(d) <= bound for d in change),
            }
        out["workloads"][workload] = rows
    return out


def compare(base: str, head: str, workloads: list[str], spec: dict) -> dict:
    if tree_hash(base, "perfbench") != tree_hash(head, "perfbench"):
        raise SystemExit(f"perfbench/ differs between {base} and {head}")
    for root in (base, head):
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            if json.load(fh) != spec:
                raise SystemExit(f"BENCHMARK.json differs in {root}")
    metrics = spec["end_to_end"]
    out = {"fingerprint": fingerprint(), "base": base, "head": head,
           "base_src": tree_hash(base, "src"), "head_src": tree_hash(head, "src"),
           "runs": RUNS, "workloads": {}}
    for workload in workloads:
        sides: dict[str, list[dict]] = {"base": [], "head": []}
        for seed in range(1, RUNS + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                root = base if side == "base" else head
                sides[side].append(run_once(root, workload, seed, spec["run_seconds"]))
                print(f"{workload} seed {seed} {side}: {sides[side][-1]}", flush=True)
        # A pure speed change leaves every model output bit-identical.
        rows = {"identical_outputs": sum(
            b["digests"] == h["digests"] for b, h in zip(sides["base"], sides["head"]))}
        for metric in metrics:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            b = [r[name] for r in sides["base"]]
            h = [r[name] for r in sides["head"]]
            wins = sum(
                1 for x, y in zip(b, h)
                if (y < x if better == "lower" else y > x)
            )
            sb, sh = summary(b), summary(h)
            worse = worse_by(sb["median"], sh["median"], better)
            all_better = all(
                (y < min(b) if better == "lower" else y > max(b)) for y in h
            )
            if wins >= 0.9 * len(b) and abs(sh["median"] - sb["median"]) > sb["q3"] - sb["q1"]:
                verdict = "gain"
            elif worse > bound:
                verdict = "regression"
            elif sb["spread"] > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "no change"
            rows[name] = {"unit": metric["unit"], "bound": bound, "base": sb,
                          "head": sh, "head_wins": wins, "worse_by": worse,
                          "verdict": verdict}
        out["workloads"][workload] = rows
    return out


def print_table(out: dict) -> None:
    print(json.dumps(out["fingerprint"]))
    for workload, rows in out["workloads"].items():
        for name, row in rows.items():
            if name == "runs":
                continue
            if not isinstance(row, dict):
                print(f"{workload:<18} {name}: {row}")
            elif "sets" in row:
                cells = "  ".join(
                    f"med {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                    f"spread {s['spread']:.3f}"
                    for s in row["sets"]
                )
                drift = ", ".join(f"{d:+.3f}" for d in row["median_drift"])
                print(f"{workload:<18} {name:<12} bound {row['bound']:.2f}  {cells}"
                      f"  drift {drift or '-'}  steady={row['steady']} "
                      f"ok={row['spread_ok'] and row['drift_ok']}")
            else:
                print(f"{workload:<18} {name:<12} base {row['base']['median']:.4g} "
                      f"head {row['head']['median']:.4g} worse_by {row['worse_by']:+.3f} "
                      f"wins {row['head_wins']}/{len(row['base']['values'])} "
                      f"-> {row['verdict']}")


def main() -> int:
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("steady", "compare"):
        p = sub.add_parser(mode)
        if mode == "compare":
            p.add_argument("base")
            p.add_argument("head")
        p.add_argument("--workload", nargs="+", default=names, choices=names)
        p.add_argument("--out", help="write the result set as JSON here")
    args = parser.parse_args()
    if args.mode == "steady":
        out = steady(args.workload, spec)
    else:
        out = compare(os.path.abspath(args.base), os.path.abspath(args.head),
                      args.workload, spec)
    print_table(out)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
