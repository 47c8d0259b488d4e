"""The full hierarchical Energy-Control Loop, wired to a database engine.

``EnergyControlLoop`` owns one :class:`~repro.ecl.socket_ecl.SocketEcl`
per processor plus the single :class:`~repro.ecl.system_ecl.SystemEcl`,
builds the per-socket energy profiles from the configuration generator,
and charges its own (small) compute overhead against the engine.

Two ways to initialize the profiles:

* :meth:`EnergyControlLoop.bootstrap_multiplexed` — the honest runtime
  path: every configuration starts stale and the multiplexed adaptation
  sweeps through them using real (noisy) counter measurements.  This is
  what happens after any major workload change anyway.
* :meth:`EnergyControlLoop.warm_start_from_model` — fills the profiles
  from the analytical models in one shot.  Used by benchmarks that study
  steady-state behaviour and don't want to simulate the initial sweep;
  online adaptation keeps the entries honest afterwards.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ControlError
from repro.dbms.engine import DatabaseEngine
from repro.hardware.perfmodel import WorkloadCharacteristics
from repro.profiles.configuration import Configuration
from repro.profiles.evaluate import warm_start_profiles
from repro.profiles.generator import ConfigurationGenerator, GeneratorParameters
from repro.profiles.profile import EnergyProfile
from repro.sim.metrics import SampleAnnotations
from repro.ecl.calibration import CalibrationResult, MetaCalibrator
from repro.ecl.socket_ecl import (
    READ_ONLY_CUTS,
    EclParameters,
    SocketEcl,
    SocketLoopBank,
)
from repro.ecl.system_ecl import SystemEcl
from repro.units import EPSILON_S, at_or_after

if TYPE_CHECKING:
    from repro.sim.runner import RunConfiguration


class EnergyControlLoop:
    """Hierarchical ECL (socket-level loops + system-level loop)."""

    def __init__(
        self,
        engine: DatabaseEngine,
        params: EclParameters | None = None,
        generator_params: GeneratorParameters | None = None,
    ):
        self.engine = engine
        self.machine = engine.machine
        self.params = params or EclParameters()
        self.generator_params = generator_params or GeneratorParameters()

        self.system = SystemEcl(
            engine.latency,
            latency_limit_s=self.params.latency_limit_s,
            check_interval_s=min(0.1, self.params.interval_s / 2),
        )
        #: The ECL's own compute overhead in instructions/s per socket,
        #: indexed by socket id — constant over a run (params and the
        #: nominal clock never change).  Per-socket because wimpy and
        #: brawny nodes clock their control threads differently.
        socket_ids = [sock.socket_id for sock in self.machine.topology.sockets]
        self._overhead_rate_ips = np.array(
            [
                self.params.overhead_thread_fraction
                * self.machine.params_for(sid).core_nominal_ghz
                * 1e9
                for sid in socket_ids
            ]
        )
        #: Every loop's due time and stand-down flag, over the socket axis.
        self.loop_bank = SocketLoopBank(len(socket_ids))
        #: Per-tick overhead charges (0.0 for stood-down loops) for the
        #: last ``(dt, bank version)`` they were built for.
        self._charges_key: tuple[float, int] | None = None
        self._charges = np.zeros(len(socket_ids))
        #: Why :meth:`macro_view` last refused a span (telemetry), and
        #: the tick time of that refusal.
        self.macro_cut: str = ""
        self._refused_at_s: float | None = None

        self.profiles: dict[int, EnergyProfile] = {}
        self.sockets: dict[int, SocketEcl] = {}
        for sock in self.machine.topology.sockets:
            sid = sock.socket_id
            generator = ConfigurationGenerator(
                self.machine.topology, self.machine.params_for(sid), sid,
                self.generator_params,
            )
            profile = EnergyProfile(generator.generate())
            self.profiles[sid] = profile
            self.sockets[sid] = SocketEcl(
                machine=self.machine,
                socket_id=sid,
                profile=profile,
                params=self.params,
                utilization_fn=self._utilization_fn(sid),
                time_to_violation_fn=self.system.time_to_violation_s,
                busy_fraction_fn=self._busy_fraction_fn(sid),
                backlog_fn=self._backlog_fn(sid),
                bank=self.loop_bank,
                slot=sid,
            )
        #: The loops in socket order (slot ``i`` of the bank is loop ``i``).
        self._loops = [self.sockets[sid] for sid in socket_ids]
        self.calibration: CalibrationResult | None = None

    @classmethod
    def build(
        cls, engine: DatabaseEngine, config: "RunConfiguration"
    ) -> "EnergyControlLoop":
        """Control-policy factory (see :mod:`repro.sim.policy`).

        Initializes the profiles the way the run configuration asks:
        warm-started from the analytical model, or left stale for the
        honest multiplexed runtime sweep.
        """
        ecl = cls(
            engine,
            params=config.ecl_params,
            generator_params=config.generator_params,
        )
        if config.warm_start:
            ecl.warm_start_from_model(chars=config.workload.characteristics)
        else:
            ecl.bootstrap_multiplexed()
        return ecl

    def _utilization_fn(self, socket_id: int):
        def read(now_s: float) -> float:
            return self.engine.utilization.utilization(socket_id, now_s)

        return read

    def _busy_fraction_fn(self, socket_id: int):
        def read(now_s: float) -> float:
            return self.engine.utilization.busy_fraction(socket_id, now_s)

        return read

    def _backlog_fn(self, socket_id: int):
        hub = self.engine.hubs[socket_id]

        def read() -> float:
            return hub.pending_cost_instructions()

        return read

    # -- initialization -----------------------------------------------------------

    def calibrate(self, socket_id: int = 0) -> CalibrationResult:
        """Run the meta calibration and adopt its apply/measure times.

        Mutates the machine (it steps time); run before query processing
        starts, as the paper's ECL does once at startup.
        """
        result = MetaCalibrator(self.machine, socket_id).run()
        self.calibration = result
        object.__setattr__(self.params, "apply_time_s", result.apply_time_s)
        object.__setattr__(self.params, "measure_time_s", result.measure_time_s)
        return result

    def apply_baseline(self) -> None:
        """Start from the uncontrolled state: everything on, max clocks."""
        for sock in self.machine.topology.sockets:
            params = self.machine.params_for(sock.socket_id)
            socket = self.machine.topology.socket(sock.socket_id)
            config = Configuration.build(
                sock.socket_id,
                set(socket.thread_ids()),
                {c.core_id: params.core_nominal_ghz for c in socket.cores},
                params.uncore_max_ghz,
            )
            config.apply(self.machine)

    def bootstrap_multiplexed(self) -> None:
        """Leave all profile entries stale for the runtime sweep."""
        for profile in self.profiles.values():
            profile.mark_all_stale()
        self.apply_baseline()

    def warm_start_from_model(
        self,
        chars: WorkloadCharacteristics | None = None,
        chars_by_socket: dict[int, WorkloadCharacteristics] | None = None,
    ) -> None:
        """Fill every profile from the analytical models (fast start).

        Sockets of one evaluation class share their measurements (see
        :func:`~repro.profiles.evaluate.warm_start_profiles`).

        Raises:
            ControlError: when neither characteristics source is given,
                or ``chars_by_socket`` misses sockets; no profile is
                touched then.
        """
        if chars_by_socket is None:
            if chars is None:
                raise ControlError(
                    "warm start needs chars= or chars_by_socket="
                )
            chars_by_socket = dict.fromkeys(self.profiles, chars)
        missing = sorted(set(self.profiles) - set(chars_by_socket))
        if missing:
            raise ControlError(
                f"chars_by_socket has no characteristics for sockets {missing}"
            )
        warm_start_profiles(self.machine, self.profiles, chars_by_socket)
        self.apply_baseline()

    # -- main loop -----------------------------------------------------------------

    def _due_slots(self, now_s: float) -> list[int]:
        """The slots of the loops due at ``now_s`` (:meth:`SocketEcl.is_due`
        for every loop that has not stood down): the one place dueness
        is decided.  On a tick before the earliest due time no loop is
        due, and that is one comparison."""
        bank = self.loop_bank
        reached = now_s + EPSILON_S
        if reached < bank.earliest_due_s():
            return []
        return (bank.active & (reached >= bank.due_s)).nonzero()[0].tolist()

    def _tick_charges(self, dt_s: float) -> np.ndarray:
        """Each socket's loop overhead for one tick of ``dt_s``, indexed
        by socket id: 0.0 where the loop stands down (its thread is
        parked along with its socket)."""
        key = (dt_s, self.loop_bank.version)
        if key != self._charges_key:
            self._charges = np.where(
                self.loop_bank.active, self._overhead_rate_ips * dt_s, 0.0
            )
            self._charges_key = key
        return self._charges

    def on_tick(self, now_s: float, dt_s: float) -> None:
        """Run the due loops for the upcoming tick; call before engine.tick.
        Every live socket pays the loop overhead on every tick."""
        self.system.on_tick(now_s)
        loops = self._loops
        for index in self._due_slots(now_s):
            loops[index].on_tick(now_s)
        # Adding 0.0 leaves a stood-down socket's balance (never -0.0)
        # exactly as it is.
        overhead = self.engine.overhead_balances()
        overhead += self._tick_charges(dt_s)

    def macro_view(
        self, now_s: float, dt_s: float
    ) -> tuple[float, np.ndarray] | None:
        """Steady-state span program for the macro-stepping runner.

        Returns ``(horizon_s, tick_charges)`` promising that for every
        tick starting strictly before ``horizon_s`` on which the
        simulation state does not otherwise change, :meth:`on_tick` is
        exactly equivalent to charging ``tick_charges[sid]`` overhead
        instructions per socket — no decisions, no reconfigurations, no
        counter or RNG activity.  The horizon is the earliest socket-loop
        horizon (:meth:`SocketEcl.macro_horizon_s`, evaluated only for
        due loops; the others report the due time their last visit
        recorded).  ``None`` means some loop acts on the very next tick
        and it must run live; the reason is left in :attr:`macro_cut`
        for span-cut attribution.

        The system-level latency check deliberately does NOT bound the
        horizon: it is exactly replayable after the fact (see
        :meth:`macro_replay`), so spans leap across it.
        """
        due = self._due_slots(now_s)
        bank = self.loop_bank
        if not due:
            return bank.earliest_due_s(), self._tick_charges(dt_s)
        horizon = float("inf")
        loops = self._loops
        for index in due:
            socket_ecl = loops[index]
            h = socket_ecl.macro_horizon_s(now_s)
            if h is None:
                self.macro_cut = socket_ecl.macro_cut
                self._refused_at_s = now_s
                return None
            if h < horizon:
                horizon = h
        waiting = bank.active.copy()
        waiting[due] = False
        earliest = float(bank.due_s.min(initial=np.inf, where=waiting))
        return min(horizon, earliest), self._tick_charges(dt_s)

    def macro_step_tick(self, now_s: float, dt_s: float) -> bool:
        """Replay one hardware-inert control tick inside a macro span.

        Called by the composite span executor when :meth:`macro_view`
        refuses because some loop acts on the very next tick.  A due
        loop's tick is replayable when its horizon lies past the tick or
        is ``None`` for a :data:`READ_ONLY_CUTS` reason (a refusal
        :meth:`macro_view` made at this tick for another reason answers
        at once).  If every due loop's tick is replayable, this runs the
        control phase at ``now_s`` exactly as the live pipeline would
        (system check first, then the due loops in dict order, keeping
        the RNG draw order) and returns True; otherwise it returns
        False, touching nothing, and the tick runs live.

        No overhead is charged here: the tick itself is committed by the
        *following* span segment, whose per-tick charges cover it — or
        by the live fallback, where :meth:`on_tick` re-runs as a pure
        no-op (every action taken here is idempotent at the same
        timestamp) and charges normally.
        """
        if (
            now_s == self._refused_at_s
            and self.macro_cut not in READ_ONLY_CUTS
        ):
            return False
        loops = self._loops
        due = [loops[i] for i in self._due_slots(now_s)]
        for socket_ecl in due:
            h = socket_ecl.macro_horizon_s(now_s)
            if h is None:
                if socket_ecl.macro_cut not in READ_ONLY_CUTS:
                    return False
            elif at_or_after(now_s, h):
                return False
        self.system.on_tick(now_s)
        for socket_ecl in due:
            socket_ecl.on_tick(now_s)
        return True

    def macro_replay(self, start_s: float, dt_s: float, n_ticks: int) -> None:
        """Replay the system-level latency checks of a committed span.

        The socket loops are provably inert across a span (that is what
        :meth:`macro_view`'s horizon promised), but the system check has
        its own cadence and *does* fire inside long spans.  Firing it at
        the exact tick times the per-tick path would have used is
        bit-identical to ticking through: the latency tracker is frozen
        in-span (no completions), non-fire ticks are pure deadline
        comparisons, and its published time-to-violation is only read at
        the socket loops' interval decisions — which always land on live
        ticks.  The tick grid is the same left fold of ``+ dt_s`` the
        engine commits (``np.add.accumulate`` is a strict left-to-right
        fold), so the fire times match bit for bit.
        """
        system = self.system
        # Fast exit with a coarse overestimate of the span end; the 1 ms
        # slack dwarfs the fold's accumulated rounding error.
        if system.next_check_s > start_s + (n_ticks + 1) * dt_s + 1e-3:
            return
        # The skipped control phases ran at start_s, start_s + dt_s, ...:
        # the span's first tick replaces the control phase at ``start_s``
        # itself (the attempt happens where that phase would have run),
        # so the grid starts there — not one tick later, which would
        # fire a check due exactly at the span boundary one tick late.
        times = np.add.accumulate(
            np.concatenate(([start_s], np.full(n_ticks - 1, dt_s)))
        ).tolist()
        j = 0
        while True:
            target = system.next_check_s
            # Land at or just before the first due tick, then settle on
            # it with the deadline's own predicate (bisect alone could
            # land one tick off within float rounding).
            j = bisect_left(times, target - 2e-12, j)
            while j < n_ticks and not at_or_after(times[j], target):
                j += 1
            if j >= n_ticks:
                return
            system.on_tick(times[j])
            j += 1

    def annotate_sample(self) -> SampleAnnotations:
        """Per-socket demanded levels and applied configurations."""
        return SampleAnnotations(
            performance_levels=tuple(
                self.sockets[sid].performance_level
                for sid in sorted(self.sockets)
            ),
            applied=tuple(
                (
                    cfg.describe()
                    if (cfg := self.sockets[sid].applied_configuration)
                    else "none"
                )
                for sid in sorted(self.sockets)
            ),
        )
