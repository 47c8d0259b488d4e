"""Parallel experiment suite with an on-disk result cache.

The paper's evaluation (§6) is a grid of independent (workload, load
profile, policy) runs.  :class:`ExperimentSuite` executes such a batch:

* runs fan out across a :class:`~concurrent.futures.ProcessPoolExecutor`
  (each simulation is CPU-bound single-thread Python, so processes are
  the only way to use more than one core);
* every run is keyed by a content hash over its full
  :class:`~repro.sim.runner.RunConfiguration` (plus duration), and the
  resulting :class:`~repro.sim.metrics.RunResult` is pickled into a cache
  directory — re-running an experiment script recomputes only what
  changed.

Determinism is unaffected: a configuration fully determines its run (the
simulation is seeded), so executing in a pool, inline, or from the cache
yields the same result object.

Environment knobs:

* ``REPRO_SUITE_WORKERS`` — default pool size (default 1: inline, no
  subprocesses).
* ``REPRO_CACHE_DIR`` — cache directory (default ``.repro_cache/`` under
  the current working directory).
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.environment import Environment
from repro.errors import SimulationError
from repro.loadprofiles.base import LoadProfile
from repro.sim.metrics import RunResult
from repro.sim.policy import registered_policies, validate_policy_name
from repro.sim.runner import RunConfiguration, run_experiment
from repro.workloads.base import Workload

#: Bump to invalidate every cached result (e.g. after changing the
#: simulation model in a way that alters run outcomes).  v2: run results
#: record the realized (tick-grid) duration plus ``requested_duration_s``.
#: v3: configurations gained ``placement`` and ``engine_config`` (default
#: runs are unchanged, but the signature schema is new).
#: v4: the load generator pre-draws arrival blocks on a vectorized grid,
#: which changes every arrival stream (and configurations gained
#: ``macro_step``).
#: v5: configurations gained ``cluster`` (default runs are unchanged, but
#: the signature schema is new).
#: v6: configurations gained ``environment`` and results carry
#: carbon/cost accounting fields (default runs are unchanged, but the
#: signature and result schemas are new).
#: v7: the step resolution and the warm start use each socket's own
#: parameter set, which changes results on heterogeneous fleets
#: (homogeneous machines are unchanged).
#: v8: a socket loop resumed from a park re-applies its plan instead of
#: trusting its pre-park configuration, which changes consolidation
#: results wherever a resumed socket's plan matched that configuration.
CACHE_VERSION = 8

DEFAULT_CACHE_DIR = ".repro_cache"


def suite_worker_count(default: int = 1) -> int:
    """Worker-process count from ``REPRO_SUITE_WORKERS`` (min 1)."""
    raw = os.environ.get("REPRO_SUITE_WORKERS", "")
    if not raw:
        return max(1, default)
    try:
        return max(1, int(raw))
    except ValueError:
        raise SimulationError(
            f"REPRO_SUITE_WORKERS must be an integer, got {raw!r}"
        ) from None


def default_cache_dir() -> Path:
    """Cache directory from ``REPRO_CACHE_DIR`` (default .repro_cache/)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def derive_seed(base_seed: int, index: int) -> int:
    """A stable, well-mixed per-run seed for building config batches."""
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def policy_grid(
    workload_factory: Callable[[], Workload],
    profile: LoadProfile,
    policies: Sequence[str] | None = None,
    **config_kwargs: Any,
) -> list[RunConfiguration]:
    """One :class:`RunConfiguration` per policy — the §6 comparison axis.

    The registry is the source of truth: with ``policies=None`` every
    registered policy (including out-of-tree registrations) gets a
    configuration, in registration order.  ``workload_factory`` is called
    once per configuration so runs never share workload instances, and
    ``config_kwargs`` forwards to every :class:`RunConfiguration`.
    """
    names = registered_policies() if policies is None else tuple(policies)
    return [
        RunConfiguration(
            workload=workload_factory(),
            profile=profile,
            policy=validate_policy_name(name),
            **config_kwargs,
        )
        for name in names
    ]


def scenario_grid(
    workload_factory: Callable[[], Workload],
    profile: LoadProfile,
    environments: "Sequence[Environment | None]",
    policies: Sequence[str] | None = None,
    **config_kwargs: Any,
) -> list[RunConfiguration]:
    """The scenario × policy grid: every environment crossed with every
    policy (environment-major order, matching nested loops).

    ``None`` entries in ``environments`` are legal and mean "no
    environment attached" — the natural control column of a carbon/price
    ablation.  Everything else behaves like :func:`policy_grid`.
    """
    return [
        config
        for environment in environments
        for config in policy_grid(
            workload_factory,
            profile,
            policies=policies,
            environment=environment,
            **config_kwargs,
        )
    ]


@dataclass(frozen=True)
class RunProgress:
    """One progress notification from :meth:`ExperimentSuite.run`.

    Emitted once per run as it finishes (cache replays included), in
    completion order.  ``completed``/``total`` drive progress displays;
    ``wall_s`` is the run's own wall time (the cache load time for
    hits), and ``source`` says where the result came from.

    Attributes:
        index: position of the run in the submitted batch.
        total: batch size.
        policy / workload / profile: run identity.
        source: ``"cache"``, ``"inline"``, or ``"pool"``.
        wall_s: wall seconds this run took.
        completed: runs finished so far, including this one.
    """

    index: int
    total: int
    policy: str
    workload: str
    profile: str
    source: str
    wall_s: float
    completed: int


def _timed_run(
    config: RunConfiguration, duration_s: float | None
) -> tuple[RunResult, float]:
    """Pool worker: run one experiment and report its own wall time."""
    start = time.perf_counter()
    result = run_experiment(config, duration_s)
    return result, time.perf_counter() - start


def _canonical(obj: Any) -> Any:
    """Reduce an object to a deterministic, repr-stable structure.

    Covers everything a :class:`RunConfiguration` transitively contains:
    dataclasses (by field), enums (by name), numpy arrays (by bytes),
    floats (by ``repr``, so -0.0 and precision survive), callables (by
    qualified name), and plain objects (by sorted ``__dict__``).
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        return ("float", repr(obj))
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__qualname__, obj.name)
    if isinstance(obj, np.ndarray):
        return ("ndarray", str(obj.dtype), obj.shape, obj.tobytes())
    if is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__qualname__,
            tuple(
                (f.name, _canonical(getattr(obj, f.name)))
                for f in fields(obj)
            ),
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canonical(v)) for v in obj)))
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(
                sorted(
                    (repr(_canonical(k)), _canonical(v))
                    for k, v in obj.items()
                )
            ),
        )
    if callable(obj):
        return (
            "callable",
            getattr(obj, "__module__", ""),
            getattr(obj, "__qualname__", repr(obj)),
        )
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return (
            type(obj).__qualname__,
            tuple(
                sorted((k, repr(_canonical(v))) for k, v in state.items())
            ),
        )
    return ("repr", repr(obj))


def config_signature(
    config: RunConfiguration, duration_s: float | None = None
) -> str:
    """Content hash identifying one experiment run."""
    payload = repr(
        (CACHE_VERSION, _canonical(config), _canonical(duration_s))
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ExperimentSuite:
    """Executes a batch of experiment configurations.

    Args:
        workers: process-pool size; ``None`` reads ``REPRO_SUITE_WORKERS``
            (default 1 = run inline in this process).
        cache_dir: result cache directory; ``None`` reads
            ``REPRO_CACHE_DIR`` (default ``.repro_cache/``).
        use_cache: disable to always recompute (results are still not
            written).
        progress: optional callback receiving one :class:`RunProgress`
            per finished run (cache replays included), in completion
            order.

    After :meth:`run`, :attr:`run_stats` holds the same
    :class:`RunProgress` records, and :attr:`pool_utilization` the
    fraction of pool capacity that was busy (``None`` for inline runs).
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        use_cache: bool = True,
        progress: Callable[[RunProgress], None] | None = None,
    ):
        self.workers = suite_worker_count() if workers is None else max(1, workers)
        self.cache_dir = (
            default_cache_dir() if cache_dir is None else Path(cache_dir)
        )
        self.use_cache = use_cache
        self.progress = progress
        self.cache_hits = 0
        self.cache_misses = 0
        self.run_stats: list[RunProgress] = []
        self.pool_utilization: float | None = None

    # -- cache -----------------------------------------------------------

    def _cache_path(self, signature: str) -> Path:
        return self.cache_dir / f"{signature}.pkl"

    def _load(self, signature: str) -> RunResult | None:
        path = self._cache_path(signature)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except Exception:
            # Missing, corrupt, or version-incompatible entries are misses.
            return None
        return result if isinstance(result, RunResult) else None

    def _store(self, signature: str, result: RunResult) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(signature)
        # Atomic publish: concurrent suites may race on the same key.
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- execution --------------------------------------------------------

    def run(
        self,
        configs: Sequence[RunConfiguration],
        durations: Sequence[float | None] | None = None,
    ) -> list[RunResult]:
        """Run every configuration, returning results in input order.

        ``durations`` optionally overrides each run's duration (same
        meaning as the second argument of
        :func:`~repro.sim.runner.run_experiment`).
        """
        configs = list(configs)
        if durations is None:
            durations = [None] * len(configs)
        else:
            durations = list(durations)
            if len(durations) != len(configs):
                raise SimulationError(
                    f"{len(durations)} durations for {len(configs)} configs"
                )

        results: list[RunResult | None] = [None] * len(configs)
        signatures: list[str | None] = [None] * len(configs)
        pending: list[int] = []
        for index, (config, duration) in enumerate(zip(configs, durations)):
            if self.use_cache:
                start = time.perf_counter()
                signature = config_signature(config, duration)
                signatures[index] = signature
                cached = self._load(signature)
                if cached is not None:
                    self.cache_hits += 1
                    results[index] = cached
                    self._note(
                        index, len(configs), config,
                        "cache", time.perf_counter() - start,
                    )
                    continue
                self.cache_misses += 1
            pending.append(index)

        if pending:
            if self.workers <= 1 or len(pending) == 1:
                self._run_inline(configs, durations, signatures, results, pending)
            else:
                self._run_pooled(configs, durations, signatures, results, pending)

        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise SimulationError(
                f"suite finished without a result for run(s) {missing}"
            )
        return results  # type: ignore[return-value]

    def _run_inline(
        self,
        configs: list[RunConfiguration],
        durations: list[float | None],
        signatures: list[str | None],
        results: list[RunResult | None],
        pending: list[int],
    ) -> None:
        for index in pending:
            try:
                result, wall_s = _timed_run(configs[index], durations[index])
            except Exception as exc:
                raise self._wrap_failure(index, configs, signatures, exc) from exc
            results[index] = result
            self._publish(signatures[index], result)
            self._note(index, len(configs), configs[index], "inline", wall_s)

    def _run_pooled(
        self,
        configs: list[RunConfiguration],
        durations: list[float | None],
        signatures: list[str | None],
        results: list[RunResult | None],
        pending: list[int],
    ) -> None:
        """Fan pending runs across a process pool.

        A worker failure does not strand the batch: every completed
        result (including runs that finish after the failure) is still
        published to the cache, the remaining futures are cancelled, and
        the error re-raises wrapped with the failing configuration's
        identity.
        """
        pool_size = min(self.workers, len(pending))
        busy_s = 0.0
        failure: tuple[int, BaseException] | None = None
        pool_start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = {
                pool.submit(_timed_run, configs[index], durations[index]): index
                for index in pending
            }
            outstanding = set(futures)
            while outstanding:
                if failure is None:
                    done, outstanding = wait(
                        outstanding, return_when=FIRST_COMPLETED
                    )
                else:
                    # Drain after cancellation: publish whatever the
                    # already-running workers still deliver.
                    done, _ = wait(outstanding)
                    outstanding = set()
                for future in done:
                    index = futures[future]
                    if future.cancelled():
                        continue
                    try:
                        result, wall_s = future.result()
                    except Exception as exc:
                        if failure is None:
                            failure = (index, exc)
                        continue
                    busy_s += wall_s
                    results[index] = result
                    self._publish(signatures[index], result)
                    self._note(
                        index, len(configs), configs[index], "pool", wall_s
                    )
                if failure is not None:
                    for future in outstanding:
                        future.cancel()
        elapsed = time.perf_counter() - pool_start
        if elapsed > 0:
            self.pool_utilization = busy_s / (elapsed * pool_size)
        if failure is not None:
            index, exc = failure
            raise self._wrap_failure(index, configs, signatures, exc) from exc

    def _wrap_failure(
        self,
        index: int,
        configs: list[RunConfiguration],
        signatures: list[str | None],
        exc: BaseException,
    ) -> SimulationError:
        """A worker error, annotated with the failing run's identity."""
        config = configs[index]
        signature = signatures[index] or config_signature(config)
        return SimulationError(
            f"experiment {index} failed "
            f"(policy={config.policy!r}, "
            f"workload={config.workload.full_name!r}, "
            f"profile={config.profile.name!r}, "
            f"signature={signature[:12]}): "
            f"{type(exc).__name__}: {exc}"
        )

    def _note(
        self,
        index: int,
        total: int,
        config: RunConfiguration,
        source: str,
        wall_s: float,
    ) -> None:
        record = RunProgress(
            index=index,
            total=total,
            policy=config.policy,
            workload=config.workload.full_name,
            profile=config.profile.name,
            source=source,
            wall_s=wall_s,
            completed=len(self.run_stats) + 1,
        )
        self.run_stats.append(record)
        if self.progress is not None:
            self.progress(record)

    def _publish(self, signature: str | None, result: RunResult) -> None:
        if self.use_cache and signature is not None:
            self._store(signature, result)
