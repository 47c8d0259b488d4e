"""Command-line interface: run experiments without writing code.

Examples::

    python -m repro run --workload kv-non-indexed --profile spike
    python -m repro run --workload tatp-indexed --profile twitter \\
        --policy baseline --duration 60
    python -m repro run --profile spike --trace trace.jsonl
    python -m repro compare --workload kv-non-indexed --profile spike
    python -m repro report --trace trace.jsonl
    python -m repro report --cache-dir .repro_cache --format csv
    python -m repro profile --workload memory-bound
    python -m repro calibrate
"""

from __future__ import annotations

import argparse
import cProfile
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import comparison_table
from repro.ecl.calibration import MetaCalibrator
from repro.ecl.socket_ecl import EclParameters
from repro.environment import (
    Environment,
    get_environment,
    load_signal,
    make_environment,
    registered_environments,
)
from repro.errors import SimulationError
from repro.hardware.cluster import CLUSTER_PRESETS, ClusterSpec, build_cluster
from repro.hardware.machine import Machine
from repro.loadprofiles import get_profile, load_replay_trace, registered_profiles
from repro.loadprofiles import make_profile as build_registered_profile
from repro.loadprofiles.base import LoadProfile
from repro.placement import (
    DEFAULT_PLACEMENT,
    get_placement,
    registered_placements,
)
from repro.profiles.evaluate import build_profile
from repro.sim import (
    DEFAULT_POLICY,
    ExperimentSuite,
    RunConfiguration,
    SimulationRunner,
    get_policy,
    policy_grid,
    reference_policy,
    registered_policies,
    run_experiment,
)
from repro.sim.metrics import RunResult, energy_saving_fraction
from repro.telemetry import (
    TraceRecorder,
    cached_results,
    read_trace,
    render_trace_report,
    summary_csv,
    summary_table_markdown,
    trace_samples_csv,
)
from repro.workloads import (
    KeyValueWorkload,
    SsbWorkload,
    TatpWorkload,
    WorkloadVariant,
)
from repro.workloads.base import Workload
from repro.workloads.micro import MICRO_WORKLOADS

WORKLOADS = {
    "kv-indexed": lambda: KeyValueWorkload(WorkloadVariant.INDEXED),
    "kv-non-indexed": lambda: KeyValueWorkload(WorkloadVariant.NON_INDEXED),
    "tatp-indexed": lambda: TatpWorkload(WorkloadVariant.INDEXED),
    "tatp-non-indexed": lambda: TatpWorkload(WorkloadVariant.NON_INDEXED),
    "ssb-indexed": lambda: SsbWorkload(WorkloadVariant.INDEXED),
    "ssb-non-indexed": lambda: SsbWorkload(WorkloadVariant.NON_INDEXED),
}

#: One-liners for ``repro run --list-workloads`` (keys match WORKLOADS).
WORKLOAD_DESCRIPTIONS = {
    "kv-indexed": "key-value point lookups through the index (§6.1)",
    "kv-non-indexed": "key-value lookups by partition scan (§6.1)",
    "tatp-indexed": "TATP telecom mix, index-supported (§6.1)",
    "tatp-non-indexed": "TATP telecom mix, scan-heavy (§6.1)",
    "ssb-indexed": "Star-Schema-Benchmark joins with index support (§6.1)",
    "ssb-non-indexed": "Star-Schema-Benchmark full-scan joins (§6.1)",
}

def print_policies() -> None:
    """List every registered control policy with its description."""
    names = registered_policies()
    width = max(len(name) for name in names)
    ref = reference_policy()
    for name in names:
        info = get_policy(name)
        marker = " (reference)" if name == ref else ""
        print(f"{name:<{width}}  {info.description}{marker}")


def print_placements() -> None:
    """List every registered placement policy with its description."""
    names = registered_placements()
    width = max(len(name) for name in names)
    for name in names:
        info = get_placement(name)
        marker = " (default)" if name == DEFAULT_PLACEMENT else ""
        print(f"{name:<{width}}  {info.description}{marker}")


def print_workloads() -> None:
    """List every benchmark workload with its description."""
    width = max(len(name) for name in WORKLOADS)
    for name in WORKLOADS:
        print(f"{name:<{width}}  {WORKLOAD_DESCRIPTIONS.get(name, '')}")


def print_profiles() -> None:
    """List every registered load profile with its description."""
    names = registered_profiles()
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name:<{width}}  {get_profile(name).description}")


def print_environments() -> None:
    """List every registered environment preset with its description."""
    names = registered_environments()
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name:<{width}}  {get_environment(name).description}")


def make_workload(name: str) -> Workload:
    """Instantiate a benchmark workload by CLI name."""
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        ) from None


#: ``--level`` of a profile that takes one, when the flag is not given.
DEFAULT_LEVEL = 0.5


def make_profile(name: str, duration_s: float, level: float) -> LoadProfile:
    """Instantiate a load profile by CLI name."""
    try:
        return build_registered_profile(name, duration_s, level)
    except SimulationError as exc:
        raise SystemExit(str(exc)) from None


def resolve_profile(args: argparse.Namespace) -> LoadProfile:
    """The run's load profile: ``--replay-trace`` wins over ``--profile``."""
    if getattr(args, "replay_trace", None):
        try:
            return load_replay_trace(args.replay_trace)
        except SimulationError as exc:
            raise SystemExit(str(exc)) from None
    if args.level is None:
        return make_profile(args.profile, args.duration, DEFAULT_LEVEL)
    try:
        takes_level = get_profile(args.profile).takes_level
    except SimulationError as exc:
        raise SystemExit(str(exc)) from None
    if not takes_level:
        raise SystemExit(
            f"profile {args.profile!r} takes no --level: it runs its own "
            f"load shape"
        )
    return make_profile(args.profile, args.duration, args.level)


def make_environment_from_args(
    args: argparse.Namespace, duration_s: float
) -> Environment | None:
    """Build the run environment from the ``--environment`` /
    ``--carbon-trace`` / ``--price-trace`` / ``--pue`` knobs.

    ``None`` when no knob is given — the run stays environment-free and
    bit-identical to the historical path.  Trace/PUE overrides start
    from the named preset (or ``flat`` when only overrides are given)
    and replace the corresponding signal.
    """
    overridden = bool(
        args.carbon_trace or args.price_trace or args.pue is not None
    )
    if args.environment is None and not overridden:
        return None
    try:
        env = make_environment(args.environment or "flat", duration_s)
        if not overridden:
            return env
        carbon = (
            load_signal(args.carbon_trace, name="carbon-trace")
            if args.carbon_trace
            else env.carbon
        )
        price = (
            load_signal(args.price_trace, name="price-trace")
            if args.price_trace
            else env.price
        )
        return Environment(
            name=f"{env.name}+custom" if args.environment else "custom",
            carbon=carbon,
            price=price,
            pue=args.pue if args.pue is not None else env.pue,
            description="CLI-overridden environment",
        )
    except SimulationError as exc:
        raise SystemExit(str(exc)) from None


def make_cluster(nodes: int, preset: str | None) -> ClusterSpec | None:
    """Build the fleet description from the ``--nodes``/``--cluster-preset``
    knobs; ``None`` keeps the historical single-node machine bit-for-bit."""
    if nodes == 1 and preset is None:
        return None
    try:
        return build_cluster(preset or "haswell_ep", nodes)
    except SimulationError as exc:
        raise SystemExit(str(exc)) from None


def print_result(result: RunResult) -> None:
    """Human-readable summary of one run."""
    print(f"policy            : {result.policy}")
    print(f"workload          : {result.workload_name}")
    print(f"load profile      : {result.profile_name} ({result.duration_s:.0f} s)")
    print(f"queries           : {result.queries_completed}/{result.queries_submitted}")
    print(f"total energy      : {result.total_energy_j:.0f} J")
    print(f"average power     : {result.average_power_w():.1f} W")
    mean = result.mean_latency_s()
    if mean is not None:
        print(f"mean latency      : {1000 * mean:.1f} ms")
        print(f"p99 latency       : {1000 * result.percentile_latency_s(99):.1f} ms")
        print(f"limit violations  : {result.violation_fraction():.1%}")
    if result.environment_name is not None:
        print(f"environment       : {result.environment_name}")
        print(f"wall energy       : {result.wall_energy_j:.0f} J (PUE applied)")
        print(f"carbon            : {result.gco2_total_g:.2f} gCO2")
        print(f"cost              : ${result.cost_usd:.4f}")
        gco2_per_query = result.gco2_per_query()
        if gco2_per_query is not None:
            print(f"carbon/query      : {1000 * gco2_per_query:.4f} mgCO2")
        cost_per_query = result.cost_per_query_usd()
        if cost_per_query is not None:
            print(f"cost/query        : ${cost_per_query:.3e}")


def cmd_run(args: argparse.Namespace) -> int:
    if args.list_policies:
        print_policies()
        return 0
    if args.list_placements:
        print_placements()
        return 0
    if args.list_workloads:
        print_workloads()
        return 0
    if args.list_profiles:
        print_profiles()
        return 0
    if args.list_environments:
        print_environments()
        return 0
    workload = make_workload(args.workload)
    profile = resolve_profile(args)
    params = EclParameters(
        interval_s=args.interval,
        latency_limit_s=args.latency_limit,
        adaptation=args.adaptation,
    )
    config = RunConfiguration(
        workload=workload,
        profile=profile,
        policy=args.policy,
        placement=args.placement,
        ecl_params=params,
        seed=args.seed,
        macro_step=not args.no_macro_step,
        cluster=make_cluster(args.nodes, args.cluster_preset),
        environment=make_environment_from_args(args, profile.duration_s),
    )
    tracer = TraceRecorder() if args.trace else None
    observers = [tracer] if tracer is not None else []
    if args.profile_out:
        profiler = cProfile.Profile()
        runner = SimulationRunner(config, observers=observers)
        profiler.enable()
        result = runner.run()
        profiler.disable()
        profiler.dump_stats(args.profile_out)
        print(
            f"profile           : pstats -> {args.profile_out} "
            "(inspect with python -m pstats)",
            file=sys.stderr,
        )
    elif observers:
        result = SimulationRunner(config, observers=observers).run()
    else:
        result = run_experiment(config)
    print_result(result)
    if tracer is not None:
        count = tracer.to_jsonl(args.trace)
        dropped = f" ({tracer.dropped_events} dropped)" if tracer.dropped_events else ""
        print(f"trace             : {count} events{dropped} -> {args.trace}",
              file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    profile = resolve_profile(args)
    policies = registered_policies()
    configs = policy_grid(
        lambda: make_workload(args.workload),
        profile,
        policies=policies,
        placement=args.placement,
        seed=args.seed,
        macro_step=not args.no_macro_step,
        cluster=make_cluster(args.nodes, args.cluster_preset),
        environment=make_environment_from_args(args, profile.duration_s),
    )

    def report_progress(p):
        print(
            f"[{p.completed}/{p.total}] {p.policy} "
            f"({p.source}, {p.wall_s:.1f} s)",
            file=sys.stderr,
        )

    suite = ExperimentSuite(
        workers=args.workers,
        use_cache=not args.no_cache,
        progress=report_progress,
    )
    print(f"running {', '.join(policies)} ...", file=sys.stderr)
    results = dict(zip(policies, suite.run(configs)))
    if suite.cache_hits:
        print(
            f"({suite.cache_hits} of {len(configs)} runs served from "
            f"{suite.cache_dir}/)",
            file=sys.stderr,
        )
    if suite.pool_utilization is not None:
        print(
            f"(pool utilization {suite.pool_utilization:.0%})",
            file=sys.stderr,
        )
    print(comparison_table(results))
    reference = reference_policy()
    base = results[reference]
    for policy in policies:
        if policy == reference:
            continue
        saving = energy_saving_fraction(base, results[policy])
        print(f"{policy} saving vs {reference}: {saving:.1%}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if bool(args.trace) == bool(args.cache_dir):
        raise SystemExit("report needs exactly one of --trace or --cache-dir")
    if args.trace:
        trace_path = Path(args.trace)
        if trace_path.is_dir():
            # A directory of runs: one report per trace, each rendered
            # independently so single-node and cluster traces can mix
            # without one run's schema assumptions breaking another's.
            traces = sorted(trace_path.glob("*.jsonl"))
            if not traces:
                raise SystemExit(f"no .jsonl traces under {trace_path}")
            if args.format == "csv":
                raise SystemExit(
                    "csv format needs a single trace file, "
                    f"not the directory {trace_path}"
                )
            parts = []
            for trace in traces:
                report = render_trace_report(read_trace(trace))
                parts.append(f"# {trace.name}\n\n{report}")
            text = "\n\n---\n\n".join(parts)
        else:
            events = read_trace(trace_path)
            if args.format == "csv":
                text = trace_samples_csv(events)
            else:
                text = render_trace_report(events)
    else:
        results = cached_results(args.cache_dir)
        if not results:
            raise SystemExit(f"no cached run results under {args.cache_dir}")
        if args.format == "csv":
            text = summary_csv(results)
        else:
            text = summary_table_markdown(results)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.workload in MICRO_WORKLOADS:
        chars = MICRO_WORKLOADS[args.workload]
    else:
        chars = make_workload(args.workload).characteristics
    machine = Machine(seed=args.seed)
    profile = build_profile(machine, 0, chars)
    optimal = profile.most_efficient()
    baseline = profile.baseline_entry()
    print(f"workload               : {chars.name}")
    print(f"configurations         : {len(profile)}")
    print(f"optimal configuration  : {optimal.configuration.describe()}")
    print(
        f"optimal perf / power   : {optimal.measurement.performance_score:.3e} "
        f"instr/s @ {optimal.measurement.power_w:.1f} W"
    )
    print(f"baseline configuration : {baseline.configuration.describe()}")
    print(f"max energy saving      : {profile.max_rti_saving():.1%}")
    print("\nskyline (performance ascending):")
    for point in profile.skyline():
        print(
            f"  {point.configuration.describe():>22}  "
            f"{point.performance_score:.3e} instr/s  "
            f"{point.power_w:6.1f} W  eff {point.energy_efficiency:.3e}"
        )
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    machine = Machine(seed=args.seed)
    result = MetaCalibrator(machine, 0).run()
    print(f"apply time   : {1000 * result.apply_time_s:.1f} ms")
    print(f"measure time : {1000 * result.measure_time_s:.1f} ms")
    print("\nmeasure-window deviations:")
    for window, dev in sorted(result.measure_deviation.items(), reverse=True):
        print(f"  {1000 * window:7.1f} ms : {dev:.2%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive Energy-Control for In-Memory Database Systems "
        "(SIGMOD 2018) — reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="kv-non-indexed",
                       help=f"one of {', '.join(WORKLOADS)}")
        p.add_argument("--profile", default="spike",
                       help=f"one of {', '.join(registered_profiles())} "
                            "(see --list-profiles)")
        p.add_argument("--duration", type=float, default=45.0,
                       help="profile duration in seconds (paper: 180)")
        p.add_argument("--level", type=float, default=None,
                       help="load fraction for profiles that take one "
                            f"(constant; default {DEFAULT_LEVEL})")
        p.add_argument("--replay-trace", metavar="PATH",
                       help="replay a recorded arrival stream instead of "
                            "--profile: a JSONL telemetry trace (repro run "
                            "--trace) or a time_s[,count] CSV arrival curve")
        p.add_argument("--environment", default=None,
                       help=f"one of {', '.join(registered_environments())} "
                            "(see --list-environments); attaches carbon/"
                            "price/PUE accounting to the run")
        p.add_argument("--carbon-trace", metavar="PATH",
                       help="override the carbon-intensity signal with a "
                            "JSONL/CSV (time_s, gCO2-per-kWh) curve")
        p.add_argument("--price-trace", metavar="PATH",
                       help="override the electricity-price signal with a "
                            "JSONL/CSV (time_s, $-per-kWh) curve")
        p.add_argument("--pue", type=float, default=None,
                       help="override the facility PUE (cooling/"
                            "distribution overhead multiplier, >= 1.0)")
        p.add_argument("--placement", default=DEFAULT_PLACEMENT,
                       choices=registered_placements(),
                       help="initial data placement policy "
                            "(see --list-placements)")
        p.add_argument("--nodes", type=int, default=1,
                       help="cluster size in nodes; 1 without "
                            "--cluster-preset keeps the historical "
                            "single-node machine bit-for-bit")
        p.add_argument("--cluster-preset", default=None,
                       choices=sorted(CLUSTER_PRESETS),
                       help="fleet composition for --nodes > 1 "
                            "(default: homogeneous haswell_ep)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-macro-step", action="store_true",
                       help="kill switch: run every tick live instead of "
                            "leaping over steady-state spans (bit-identical "
                            "results, much slower)")

    run_p = sub.add_parser("run", help="run one experiment")
    common(run_p)
    run_p.add_argument("--policy", default=DEFAULT_POLICY,
                       choices=registered_policies())
    run_p.add_argument("--list-policies", action="store_true",
                       help="list registered control policies and exit")
    run_p.add_argument("--list-placements", action="store_true",
                       help="list registered placement policies and exit")
    run_p.add_argument("--list-workloads", action="store_true",
                       help="list benchmark workloads and exit")
    run_p.add_argument("--list-profiles", action="store_true",
                       help="list load profiles and exit")
    run_p.add_argument("--list-environments", action="store_true",
                       help="list environment presets and exit")
    run_p.add_argument("--interval", type=float, default=1.0,
                       help="socket-ECL period in seconds")
    run_p.add_argument("--latency-limit", type=float, default=0.1,
                       help="query latency limit in seconds")
    run_p.add_argument("--adaptation", default="multiplexed",
                       choices=("static", "online", "multiplexed"))
    run_p.add_argument("--trace", metavar="PATH",
                       help="record a structured event trace (arrivals, "
                            "reconfigurations, completions, samples) to "
                            "this JSONL file")
    run_p.add_argument("--profile-out", metavar="PATH",
                       help="profile the tick loop with cProfile and write "
                            "the pstats dump to PATH")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run all policies and compare")
    common(cmp_p)
    cmp_p.add_argument("--workers", type=int, default=None,
                       help="parallel run processes (default: "
                            "REPRO_SUITE_WORKERS or 1)")
    cmp_p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
    cmp_p.set_defaults(func=cmd_compare)

    rep_p = sub.add_parser(
        "report",
        help="render a recorded trace or a cached suite into a report",
    )
    rep_p.add_argument("--trace", metavar="PATH",
                       help="JSONL trace written by `repro run --trace`, or "
                            "a directory of such traces (one report each)")
    rep_p.add_argument("--cache-dir", metavar="DIR",
                       help="experiment-suite result cache to summarize")
    rep_p.add_argument("--format", choices=("markdown", "csv"),
                       default="markdown",
                       help="markdown report/table (default) or CSV "
                            "(sample series for --trace, summary rows "
                            "for --cache-dir)")
    rep_p.add_argument("--out", metavar="PATH",
                       help="write to a file instead of stdout")
    rep_p.set_defaults(func=cmd_report)

    prof_p = sub.add_parser("profile", help="print a workload's energy profile")
    prof_p.add_argument("--workload", default="memory-bound",
                        help=f"micro workload ({', '.join(MICRO_WORKLOADS)}) "
                             f"or benchmark ({', '.join(WORKLOADS)})")
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.set_defaults(func=cmd_profile)

    cal_p = sub.add_parser("calibrate", help="run the meta calibration")
    cal_p.add_argument("--seed", type=int, default=0)
    cal_p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Reports get piped through `head` and friends; a closed pipe is
        # not an error.  Point stdout at devnull so the interpreter's
        # exit-time flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
