"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import (
    WORKLOADS,
    build_parser,
    main,
    make_profile,
    make_workload,
    resolve_profile,
)
from repro.placement import DEFAULT_PLACEMENT, registered_placements
from repro.sim import DEFAULT_POLICY, registered_policies


class TestParsing:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == DEFAULT_POLICY
        assert args.workload == "kv-non-indexed"
        assert args.profile == "spike"

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "magic"])

    def test_every_registered_policy_accepted(self):
        for name in registered_policies():
            args = build_parser().parse_args(["run", "--policy", name])
            assert args.policy == name

    def test_out_of_tree_policy_reaches_parser(self):
        from repro.sim import register_policy, unregister_policy
        from repro.sim.metrics import SampleAnnotations

        class Null:
            @classmethod
            def build(cls, engine, config):
                return cls()

            def on_tick(self, now_s, dt_s):
                pass

            def annotate_sample(self):
                return SampleAnnotations()

        register_policy("cli-test-null", Null.build)
        try:
            args = build_parser().parse_args(
                ["run", "--policy", "cli-test-null"]
            )
            assert args.policy == "cli-test-null"
        finally:
            unregister_policy("cli-test-null")


class TestFactories:
    def test_all_workloads_constructible(self):
        for name in WORKLOADS:
            workload = make_workload(name)
            assert workload.nominal_peak_qps > 0

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            make_workload("oracle")

    def test_profiles(self):
        for name in ("spike", "twitter", "constant", "sine"):
            profile = make_profile(name, 30.0, 0.5)
            assert profile.duration_s > 0

    def test_unknown_profile(self):
        with pytest.raises(SystemExit):
            make_profile("square", 30.0, 0.5)

    @pytest.mark.parametrize("name", ["spike", "twitter", "twitter-day", "sine"])
    def test_level_on_a_shaped_profile_is_refused(self, name):
        args = build_parser().parse_args(
            ["run", "--profile", name, "--level", "0.5", "--duration", "1"]
        )
        with pytest.raises(SystemExit, match=f"profile {name!r} takes no --level"):
            resolve_profile(args)

    def test_level_on_an_unknown_profile_lists_the_registry(self):
        args = build_parser().parse_args(
            ["run", "--profile", "square", "--level", "0.3", "--duration", "1"]
        )
        with pytest.raises(SystemExit, match="registered profiles"):
            resolve_profile(args)

    def test_run_with_a_refused_level_exits_with_its_message(self):
        with pytest.raises(SystemExit, match="'twitter-day' takes no --level"):
            main(["run", "--profile", "twitter-day", "--level", "0.5",
                  "--duration", "1"])

    def test_constant_level_defaults_to_half(self):
        args = build_parser().parse_args(
            ["run", "--profile", "constant", "--duration", "1"]
        )
        assert args.level is None
        assert resolve_profile(args).peak_fraction() == 0.5


class TestCommands:
    def test_run_constant(self, capsys):
        rc = main(
            [
                "run",
                "--workload",
                "kv-non-indexed",
                "--profile",
                "constant",
                "--level",
                "0.3",
                "--duration",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "total energy" in out
        assert "mean latency" in out

    def test_profile_micro(self, capsys):
        rc = main(["profile", "--workload", "compute-bound"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal configuration" in out
        assert "skyline" in out

    def test_profile_benchmark(self, capsys):
        rc = main(["profile", "--workload", "ssb-non-indexed"])
        assert rc == 0
        assert "u3.0GHz" in capsys.readouterr().out

    def test_list_policies(self, capsys):
        rc = main(["run", "--list-policies"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in registered_policies():
            assert name in out
        assert "(reference)" in out

    def test_list_placements(self, capsys):
        rc = main(["run", "--list-placements"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in registered_placements():
            assert name in out
        assert "(default)" in out

    def test_placement_flag_parses(self):
        for name in registered_placements():
            args = build_parser().parse_args(["run", "--placement", name])
            assert args.placement == name
        args = build_parser().parse_args(["run"])
        assert args.placement == DEFAULT_PLACEMENT

    def test_unknown_placement_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--placement", "magic"])

    def test_compare_accepts_placement(self):
        args = build_parser().parse_args(
            ["compare", "--placement", "consolidate"]
        )
        assert args.placement == "consolidate"

    def test_run_with_placement(self, capsys):
        rc = main(
            [
                "run",
                "--workload",
                "kv-non-indexed",
                "--profile",
                "constant",
                "--level",
                "0.2",
                "--duration",
                "1",
                "--placement",
                "balance",
            ]
        )
        assert rc == 0
        assert "total energy" in capsys.readouterr().out


class TestTelemetryCommands:
    RUN_ARGS = [
        "run",
        "--workload",
        "kv-non-indexed",
        "--profile",
        "constant",
        "--level",
        "0.3",
        "--duration",
        "2",
    ]

    def test_run_with_trace_and_timings(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = main(self.RUN_ARGS + ["--trace", str(trace)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "total energy" in captured.out
        assert "trace" in captured.err
        lines = trace.read_text(encoding="utf-8").strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"

    def test_report_from_trace_markdown(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        main(self.RUN_ARGS + ["--trace", str(trace)])
        capsys.readouterr()
        rc = main(["report", "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# Run trace report" in out
        assert "## Events" in out
        assert "## Totals" in out

    def test_report_trace_csv_to_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        main(self.RUN_ARGS + ["--trace", str(trace)])
        capsys.readouterr()
        out_file = tmp_path / "samples.csv"
        rc = main(
            [
                "report",
                "--trace",
                str(trace),
                "--format",
                "csv",
                "--out",
                str(out_file),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out_file.read_text(encoding="utf-8").startswith("time_s,")

    def test_report_on_mixed_trace_directory(self, capsys, tmp_path):
        """Single-node and cluster traces mix without crashing the report."""
        single = tmp_path / "a_single.jsonl"
        cluster = tmp_path / "b_cluster.jsonl"
        main(self.RUN_ARGS + ["--trace", str(single)])
        main(
            self.RUN_ARGS
            + ["--nodes", "2", "--policy", "ecl-cluster", "--trace", str(cluster)]
        )
        capsys.readouterr()
        rc = main(["report", "--trace", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# a_single.jsonl" in out
        assert "# b_cluster.jsonl" in out
        # The cluster run reports node power; the single-node run's
        # report simply lacks the section rather than crashing on the
        # missing schema additions.
        assert "## Node power" in out.split("# b_cluster.jsonl")[1]
        assert "## Node power" not in out.split("# b_cluster.jsonl")[0]

    def test_report_trace_directory_rejects_csv(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        main(self.RUN_ARGS + ["--trace", str(trace)])
        with pytest.raises(SystemExit):
            main(["report", "--trace", str(tmp_path), "--format", "csv"])

    def test_report_empty_trace_directory(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--trace", str(tmp_path)])

    def test_report_single_node_trace_has_no_node_power_section(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        main(self.RUN_ARGS + ["--trace", str(trace)])
        capsys.readouterr()
        rc = main(["report", "--trace", str(trace)])
        assert rc == 0
        assert "## Node power" not in capsys.readouterr().out

    def test_report_from_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        main(
            [
                "compare",
                "--workload",
                "kv-non-indexed",
                "--profile",
                "constant",
                "--level",
                "0.3",
                "--duration",
                "1",
            ]
        )
        capsys.readouterr()
        rc = main(["report", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("| policy |")
        rc = main(["report", "--cache-dir", str(tmp_path), "--format", "csv"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("policy,")

    def test_report_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report"])
        with pytest.raises(SystemExit):
            main(
                [
                    "report",
                    "--trace",
                    str(tmp_path / "t.jsonl"),
                    "--cache-dir",
                    str(tmp_path),
                ]
            )

    def test_report_empty_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--cache-dir", str(tmp_path)])


class TestEnvironmentFlags:
    RUN_ARGS = [
        "run",
        "--workload",
        "kv-non-indexed",
        "--profile",
        "constant",
        "--level",
        "0.3",
        "--duration",
        "2",
    ]

    def test_list_environments(self, capsys):
        from repro.environment import registered_environments

        rc = main(["run", "--list-environments"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in registered_environments():
            assert name in out

    def test_list_profiles_renders_registry(self, capsys):
        from repro.loadprofiles import registered_profiles

        rc = main(["run", "--list-profiles"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in registered_profiles():
            assert name in out

    def test_no_knobs_means_no_environment(self):
        from repro.cli import build_parser, make_environment_from_args

        args = build_parser().parse_args(self.RUN_ARGS)
        assert make_environment_from_args(args, 2.0) is None

    def test_named_preset(self):
        from repro.cli import build_parser, make_environment_from_args

        args = build_parser().parse_args(
            self.RUN_ARGS + ["--environment", "diurnal-carbon"]
        )
        env = make_environment_from_args(args, 2.0)
        assert env.name == "diurnal-carbon"
        assert env.pue > 1.0

    def test_pue_override_builds_custom_environment(self):
        from repro.cli import build_parser, make_environment_from_args

        args = build_parser().parse_args(self.RUN_ARGS + ["--pue", "1.5"])
        env = make_environment_from_args(args, 2.0)
        assert env.name == "custom"
        assert env.pue == 1.5

    def test_carbon_trace_override(self, tmp_path):
        from repro.cli import build_parser, make_environment_from_args

        trace = tmp_path / "carbon.csv"
        trace.write_text("time_s,value\n0,100\n1,900\n")
        args = build_parser().parse_args(
            self.RUN_ARGS
            + ["--environment", "flat", "--carbon-trace", str(trace)]
        )
        env = make_environment_from_args(args, 2.0)
        assert env.name == "flat+custom"
        assert env.carbon.value(0.5) == 100.0
        assert env.carbon.value(1.5) == 900.0

    def test_unknown_environment_rejected(self):
        from repro.cli import build_parser, make_environment_from_args

        args = build_parser().parse_args(
            self.RUN_ARGS + ["--environment", "venus"]
        )
        with pytest.raises(SystemExit):
            make_environment_from_args(args, 2.0)

    def test_run_prints_environment_lines(self, capsys):
        rc = main(self.RUN_ARGS + ["--environment", "diurnal-carbon"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "environment       : diurnal-carbon" in out
        assert "gCO2" in out
        assert "carbon/query" in out

    def test_run_without_environment_prints_no_lines(self, capsys):
        rc = main(self.RUN_ARGS)
        assert rc == 0
        assert "environment       :" not in capsys.readouterr().out

    def test_environment_report_section(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = main(
            self.RUN_ARGS
            + ["--environment", "diurnal-carbon", "--trace", str(trace)]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["report", "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "## Environment" in out
        assert "diurnal-carbon" in out

    def test_plain_trace_has_no_environment_section(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        main(self.RUN_ARGS + ["--trace", str(trace)])
        capsys.readouterr()
        main(["report", "--trace", str(trace)])
        assert "## Environment" not in capsys.readouterr().out


class TestReplayFlag:
    def test_replay_trace_wins_over_profile(self, tmp_path):
        from repro.cli import build_parser, resolve_profile

        trace = tmp_path / "arrivals.csv"
        trace.write_text("time_s,count\n0.5,2\n1.5,1\n")
        args = build_parser().parse_args(
            ["run", "--profile", "spike", "--replay-trace", str(trace)]
        )
        profile = resolve_profile(args)
        assert profile.name == "replay:arrivals"
        assert profile.arrival_count == 3

    def test_missing_replay_trace_exits(self, tmp_path):
        from repro.cli import build_parser, resolve_profile

        args = build_parser().parse_args(
            ["run", "--replay-trace", str(tmp_path / "nope.csv")]
        )
        with pytest.raises(SystemExit):
            resolve_profile(args)

    def test_run_from_replay_trace(self, capsys, tmp_path):
        trace = tmp_path / "arrivals.csv"
        rows = ["time_s,count"] + [f"{0.1 * i:.1f},2" for i in range(1, 11)]
        trace.write_text("\n".join(rows) + "\n")
        rc = main(["run", "--replay-trace", str(trace), "--duration", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total energy" in out
        # The trace defines the run: its name and its own duration
        # (the last arrival), not the --duration flag.
        assert "replay:arrivals (1 s)" in out
