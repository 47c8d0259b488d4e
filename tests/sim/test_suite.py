"""Tests for the parallel experiment suite and its on-disk result cache."""

import pickle

import pytest

from repro.errors import SimulationError
from repro.loadprofiles import constant_profile
from repro.sim import (
    ExperimentSuite,
    RunConfiguration,
    config_signature,
    default_cache_dir,
    derive_seed,
    run_experiment,
    suite_worker_count,
)
from repro.workloads import KeyValueWorkload, WorkloadVariant


def kv():
    return KeyValueWorkload(WorkloadVariant.NON_INDEXED)


def short_config(policy="ecl", seed=0, duration_s=2.0):
    return RunConfiguration(
        workload=kv(),
        profile=constant_profile(0.3, duration_s=duration_s),
        policy=policy,
        seed=seed,
    )


class TestSignature:
    def test_stable_across_rebuilds(self):
        assert config_signature(short_config()) == config_signature(short_config())

    def test_changes_with_seed(self):
        assert config_signature(short_config(seed=1)) != config_signature(
            short_config(seed=2)
        )

    def test_changes_with_policy(self):
        assert config_signature(short_config("ecl")) != config_signature(
            short_config("baseline")
        )

    def test_changes_with_duration_override(self):
        config = short_config()
        assert config_signature(config, 1.0) != config_signature(config, None)

    def test_changes_with_profile(self):
        a = RunConfiguration(workload=kv(), profile=constant_profile(0.3))
        b = RunConfiguration(workload=kv(), profile=constant_profile(0.4))
        assert config_signature(a) != config_signature(b)

    def test_changes_with_cache_version(self, monkeypatch):
        import repro.sim.suite as suite_module

        before = config_signature(short_config())
        monkeypatch.setattr(
            suite_module, "CACHE_VERSION", suite_module.CACHE_VERSION + 1
        )
        assert config_signature(short_config()) != before


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, 3) == derive_seed(0, 3)

    def test_distinct_across_indices(self):
        seeds = {derive_seed(42, i) for i in range(32)}
        assert len(seeds) == 32

    def test_distinct_across_base_seeds(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestWorkerCount:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SUITE_WORKERS", raising=False)
        assert suite_worker_count() == 1
        assert suite_worker_count(default=4) == 4

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "3")
        assert suite_worker_count() == 3

    def test_env_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "0")
        assert suite_worker_count() == 1

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE_WORKERS", "many")
        with pytest.raises(SimulationError):
            suite_worker_count()

    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"


class TestCaching:
    def test_cached_rerun_equals_uncached(self, tmp_path):
        """A second suite run must replay byte-for-byte identical results."""
        configs = [short_config("ecl"), short_config("ondemand")]
        first = ExperimentSuite(workers=1, cache_dir=tmp_path)
        uncached = first.run(configs)
        assert first.cache_hits == 0
        assert first.cache_misses == 2

        second = ExperimentSuite(workers=1, cache_dir=tmp_path)
        cached = second.run([short_config("ecl"), short_config("ondemand")])
        assert second.cache_hits == 2
        assert second.cache_misses == 0
        for fresh, replayed in zip(uncached, cached):
            assert replayed.total_energy_j == fresh.total_energy_j
            assert replayed.latencies_s == fresh.latencies_s
            assert replayed.samples == fresh.samples
            assert replayed.queries_completed == fresh.queries_completed

    def test_cache_matches_direct_run(self, tmp_path):
        config = short_config("baseline")
        direct = run_experiment(short_config("baseline"))
        suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
        (result,) = suite.run([config])
        assert result.total_energy_j == direct.total_energy_j
        assert result.latencies_s == direct.latencies_s

    def test_use_cache_false_writes_nothing(self, tmp_path):
        suite = ExperimentSuite(workers=1, cache_dir=tmp_path, use_cache=False)
        suite.run([short_config(duration_s=1.0)])
        assert not any(tmp_path.iterdir()) or not list(tmp_path.glob("*.pkl"))
        assert suite.cache_hits == 0
        assert suite.cache_misses == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        config = short_config(duration_s=1.0)
        suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
        suite.run([config])
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(b"not a pickle")
        again = ExperimentSuite(workers=1, cache_dir=tmp_path)
        (result,) = again.run([short_config(duration_s=1.0)])
        assert again.cache_misses == 1
        assert result.queries_completed >= 0

    def test_wrong_type_entry_is_a_miss(self, tmp_path):
        config = short_config(duration_s=1.0)
        signature = config_signature(config, None)
        tmp_path.mkdir(exist_ok=True)
        with open(tmp_path / f"{signature}.pkl", "wb") as fh:
            pickle.dump({"not": "a RunResult"}, fh)
        suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
        suite.run([config])
        assert suite.cache_misses == 1

    def test_no_tmp_files_left_behind(self, tmp_path):
        suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
        suite.run([short_config(duration_s=1.0)])
        assert not list(tmp_path.glob("*.tmp"))


class ExplodingWorkload(KeyValueWorkload):
    """Raises when the runner asks for its execution characteristics.

    Module-level so it pickles into pool workers by reference.
    """

    @property
    def characteristics(self):
        raise RuntimeError("boom: injected workload failure")


def failing_config(duration_s=1.0):
    return RunConfiguration(
        workload=ExplodingWorkload(WorkloadVariant.NON_INDEXED),
        profile=constant_profile(0.3, duration_s=duration_s),
        policy="baseline",
    )


class TestFaultPaths:
    def test_inline_failure_carries_run_identity(self, tmp_path):
        suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
        with pytest.raises(SimulationError) as err:
            suite.run([failing_config()])
        message = str(err.value)
        assert "baseline" in message
        assert "kv" in message
        assert "RuntimeError" in message
        assert "boom" in message
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_pool_failure_still_publishes_completed_results(self, tmp_path):
        """A worker crash must not drop the siblings that finished."""
        configs = [short_config("baseline", duration_s=1.0), failing_config()]
        suite = ExperimentSuite(workers=2, cache_dir=tmp_path)
        with pytest.raises(SimulationError) as err:
            suite.run(configs)
        assert "RuntimeError" in str(err.value)
        # The healthy run's result reached the cache before the raise.
        replay = ExperimentSuite(workers=1, cache_dir=tmp_path)
        (result,) = replay.run([short_config("baseline", duration_s=1.0)])
        assert replay.cache_hits == 1
        assert result.queries_completed > 0

    def test_pool_failure_alone_in_batch(self, tmp_path):
        suite = ExperimentSuite(workers=2, cache_dir=tmp_path)
        with pytest.raises(SimulationError):
            suite.run([failing_config(), failing_config(duration_s=1.5)])

    def test_failure_without_cache_is_still_wrapped(self, tmp_path):
        suite = ExperimentSuite(workers=1, cache_dir=tmp_path, use_cache=False)
        with pytest.raises(SimulationError) as err:
            suite.run([failing_config()])
        # Identity is derivable even though no signature was cached.
        assert "signature=" in str(err.value)
        assert not list(tmp_path.glob("*.pkl"))


class TestProgress:
    def test_callback_sees_every_run_in_completion_order(self, tmp_path):
        seen = []
        configs = [
            short_config("baseline", duration_s=1.0),
            short_config("ondemand", duration_s=1.0),
        ]
        suite = ExperimentSuite(
            workers=1, cache_dir=tmp_path, progress=seen.append
        )
        suite.run(configs)
        assert [p.source for p in seen] == ["inline", "inline"]
        assert [p.completed for p in seen] == [1, 2]
        assert all(p.total == 2 for p in seen)
        assert [p.policy for p in seen] == ["baseline", "ondemand"]
        assert all(p.wall_s > 0 for p in seen)
        assert suite.run_stats == seen

    def test_cache_replays_report_as_hits(self, tmp_path):
        configs = [short_config("baseline", duration_s=1.0)]
        ExperimentSuite(workers=1, cache_dir=tmp_path).run(configs)
        seen = []
        again = ExperimentSuite(
            workers=1, cache_dir=tmp_path, progress=seen.append
        )
        again.run([short_config("baseline", duration_s=1.0)])
        assert [p.source for p in seen] == ["cache"]
        assert seen[0].wall_s >= 0

    def test_pool_utilization_recorded(self, tmp_path):
        configs = [
            short_config("baseline", seed=derive_seed(0, i), duration_s=1.0)
            for i in range(2)
        ]
        suite = ExperimentSuite(workers=2, cache_dir=tmp_path)
        suite.run(configs)
        assert suite.pool_utilization is not None
        assert 0.0 < suite.pool_utilization <= 1.5
        assert [p.source for p in suite.run_stats] == ["pool", "pool"]

    def test_inline_runs_leave_no_pool_utilization(self, tmp_path):
        suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
        suite.run([short_config("baseline", duration_s=1.0)])
        assert suite.pool_utilization is None


class TestParallel:
    def test_pool_results_match_inline(self, tmp_path):
        """Fanning out across processes must not change any result."""
        configs = [
            short_config("baseline", seed=derive_seed(0, i), duration_s=1.5)
            for i in range(3)
        ]
        inline = ExperimentSuite(workers=1, cache_dir=tmp_path / "a").run(configs)
        pooled = ExperimentSuite(workers=2, cache_dir=tmp_path / "b").run(configs)
        for one, two in zip(inline, pooled):
            assert two.total_energy_j == one.total_energy_j
            assert two.latencies_s == one.latencies_s
            assert two.samples == one.samples

    def test_results_keep_input_order(self, tmp_path):
        configs = [
            short_config(policy, duration_s=1.5)
            for policy in ("baseline", "ondemand", "ecl")
        ]
        results = ExperimentSuite(workers=2, cache_dir=tmp_path).run(configs)
        assert [r.policy for r in results] == ["baseline", "ondemand", "ecl"]

    def test_duration_override(self, tmp_path):
        config = short_config(duration_s=6.0)
        (result,) = ExperimentSuite(workers=1, cache_dir=tmp_path).run(
            [config], durations=[1.0]
        )
        assert result.duration_s == pytest.approx(1.0)

    def test_duration_length_mismatch(self, tmp_path):
        suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
        with pytest.raises(SimulationError):
            suite.run([short_config()], durations=[1.0, 2.0])
