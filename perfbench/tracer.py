"""Per-layer tracing from outside the simulator.

:class:`LayerTracer` wraps the public entry points of each simulator
layer on one :class:`~repro.sim.SimulationRunner` and records, per
entry point, the call count and the *self* time: the span's duration
minus the time spent in wrapped spans nested inside it.  The runner's
own self time is the run's wall time minus every top-level span.

Instance wrappers are set after construction and before ``run()`` (the
runner reads ``macro_view``/``macro_step_tick`` once per run); class-
and module-level wrappers are restored by :meth:`LayerTracer.restore`.
Nothing inside ``src/`` changes, so a traced run must reproduce the
untraced result digest bit for bit.
"""

from __future__ import annotations

import time

#: Instance entry points, as (attribute path on the runner, method, key).
_INSTANCE_POINTS = (
    ("engine", "tick", "engine.tick"),
    ("engine", "span_tick", "engine.span_tick"),
    ("engine", "submit_bank", "engine.submit"),
    ("machine", "step", "machine.step"),
    ("machine", "span_step", "machine.span_step"),
    ("policy", "on_tick", "policy.on_tick"),
    ("policy", "macro_view", "policy.macro"),
    ("policy", "macro_step_tick", "policy.macro"),
    ("policy", "macro_replay", "policy.macro"),
    ("loadgen", "arrivals", "loadgen.arrivals"),
    ("engine.router", "flush", "router.flush"),
    ("engine.latency", "average_latency_s", "ecl.latency_window"),
    ("engine.latency", "trend_s_per_s", "ecl.latency_window"),
    ("engine.tracker", "on_compact_done", "tracker.settle"),
    ("engine.migrations", "tick", "migration.tick"),
)


def _resolve(root, path: str):
    for name in path.split("."):
        root = getattr(root, name)
    return root


class LayerTracer:
    """Self time and call counts per wrapped entry point of one run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Nested-span time per open span; index 0 is the untraced root.
        self._stack: list[float] = [0.0]
        self._undo: list = []
        self.setup_s: dict[str, float] = {}
        self.hub_runs = 0
        self.hub_long_runs = 0
        self.hub_messages = 0

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key: str, fn, observe=None):
        self_s = self.self_s
        calls = self.calls
        stack = self._stack
        self_s.setdefault(key, 0.0)
        calls.setdefault(key, 0)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        calls = self.calls
        calls.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, name: str, wrapper) -> None:
        """Replace a class or module attribute, restored by :meth:`restore`."""
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _patch_instance(self, obj, name: str, wrapper) -> None:
        setattr(obj, name, wrapper)
        self._undo.append((obj, name, None))

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- set-up split --------------------------------------------------------

    def wrap_constructors(self) -> None:
        """Time the constructors ``SimulationRunner.__init__`` calls.

        Patches the names in :mod:`repro.sim.runner`'s namespace, so
        only the runner's own calls are timed (a policy that builds a
        scratch machine is charged to the policy).
        """
        import repro.sim.runner as runner_module

        setup_s = self.setup_s
        for name, key in (
            ("Machine", "machine"),
            ("DatabaseEngine", "engine"),
            ("LoadGenerator", "loadgen"),
            ("build_policy", "policy"),
        ):
            original = getattr(runner_module, name)

            def timed(*args, _original=original, _key=key, **kwargs):
                start = time.perf_counter()
                try:
                    return _original(*args, **kwargs)
                finally:
                    setup_s[_key] = time.perf_counter() - start

            self._patch(runner_module, name, timed)

    # -- run -----------------------------------------------------------------

    def attach(self, runner) -> None:
        """Wrap the runner's layer entry points; call before ``run()``."""
        from repro.dbms.intra_socket import SMALL_RUN
        from repro.dbms.worker import Worker
        from repro.environment import EnvironmentAccounting
        from repro.hardware.machine import Machine

        for path, name, key in _INSTANCE_POINTS:
            obj = _resolve(runner, path)
            method = getattr(obj, name, None)
            if method is not None:
                self._patch_instance(obj, name, self._timed(key, method))

        def on_run(run: int) -> None:
            if run:
                self.hub_runs += 1
                if run > SMALL_RUN:
                    self.hub_long_runs += 1

        def on_consume(query_ids) -> None:
            self.hub_messages += len(query_ids)

        for hub in runner.engine.hubs.values():
            self._patch_instance(
                hub, "modeled_run", self._timed("hub.drain", hub.modeled_run, on_run)
            )
            self._patch_instance(
                hub,
                "consume_modeled",
                self._timed("hub.drain", hub.consume_modeled, on_consume),
            )

        self._patch(
            Worker,
            "process_quantum",
            self._timed("worker.drain", Worker.process_quantum),
        )
        for name in ("power_off_node", "power_on_node"):
            self._patch(
                Machine, name, self._counted("cluster.node_power", getattr(Machine, name))
            )
        for name in ("account_tick", "account_span"):
            self._patch(
                EnvironmentAccounting,
                name,
                self._timed("accounting", getattr(EnvironmentAccounting, name)),
            )

    def run(self, runner):
        """Run the simulation, timing it as the root span; returns the result."""
        start = time.perf_counter()
        result = runner.run()
        self.run_wall_s = time.perf_counter() - start
        return result

    def layer_metrics(self, runner) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced run, as ``name -> (value, unit)``."""
        s, n = self.self_s, self.calls
        live = n["engine.tick"]
        spans = runner.macro_ticks_skipped
        cuts = runner.span_cut_stats()
        cut_by = cuts["cut_by"]
        cache = runner.machine.step_cache_stats
        out: dict[str, tuple[float, str]] = {
            "runner.live_ticks": (live, "count"),
            "runner.span_ticks": (spans, "count"),
            "runner.live_share": (live / (live + spans), "share"),
            "runner.spans": (runner.macro_spans, "count"),
            "runner.replays": (sum(cuts["in_span_replays"].values()), "count"),
        }
        for component in (
            "policy", "sampler", "machine", "loadgen", "engine",
            "environment", "run-end",
        ):
            out[f"runner.cut.{component}"] = (cut_by.get(component, 0), "count")
        out.update({
            "runner.self_s": (self.run_wall_s - self._stack[0], "s"),
            "loadgen.arrivals_s": (s["loadgen.arrivals"], "s"),
            "loadgen.queries": (runner.loadgen.generated_count, "count"),
            "engine.submit_s": (s["engine.submit"], "s"),
            "policy.on_tick_s": (s["policy.on_tick"], "s"),
            "policy.macro_s": (s.get("policy.macro", 0.0), "s"),
            "ecl.latency_window_calls": (n["ecl.latency_window"], "count"),
            "ecl.latency_window_s": (s["ecl.latency_window"], "s"),
            "engine.tick_self_s": (s["engine.tick"], "s"),
            "engine.span_tick_s": (s["engine.span_tick"], "s"),
            "worker.quanta": (n["worker.drain"], "count"),
            "worker.drain_s": (s["worker.drain"], "s"),
            "hub.drain_s": (s["hub.drain"], "s"),
            "hub.runs": (self.hub_runs, "count"),
            "hub.long_run_share": (
                self.hub_long_runs / self.hub_runs if self.hub_runs else 0.0,
                "share",
            ),
            "hub.messages_drained": (self.hub_messages, "count"),
            "router.flush_s": (s["router.flush"], "s"),
            "tracker.settle_s": (s["tracker.settle"], "s"),
            "machine.steps": (n["machine.step"], "count"),
            "machine.step_s": (s["machine.step"], "s"),
            "machine.span_step_s": (s["machine.span_step"], "s"),
            "machine.resolve_misses": (cache["misses"], "count"),
            "machine.resolve_capacity_hits": (cache["capacity_hits"], "count"),
            "machine.resolve_full_hits": (cache["full_hits"], "count"),
            "machine.resolve_fast_hits": (cache["fast_hits"], "count"),
            "migration.count": (len(runner.engine.migration_log), "count"),
            "migration.tick_s": (s["migration.tick"], "s"),
            "cluster.node_power_events": (n["cluster.node_power"], "count"),
            "accounting.s": (s["accounting"], "s"),
        })
        return out
