"""The fixed-knob policies: the uncontrolled baseline and its variants.

"The baseline uses all available hardware threads with CPU and OS
frequency control resembling ... a race-to-idle strategy" (§6).  A
fixed-knob policy sets its knobs once, when it is built: every hardware
thread active (the runtime's polling-based messaging never lets a core
sleep on its own, §3), one clock on every core, one energy-performance
bias (EPB) on every thread, and the uncore in automatic UFS mode (the
maximum whenever a core is active, Fig. 8, unless every thread carries
the powersave bias).  Its only runtime decision is the OS's tickless
idle: once the machine has been out of work for an idle grace, every
thread parks into the deep C-state, and the next work wakes them.

The registry (:mod:`repro.sim.policy`) builds three presets:

* ``baseline`` — nominal clocks, balanced EPB, a 0.25 s grace: power
  falls at zero load (Fig. 13(a)) without ever reaching the ECL's
  synchronized deep sleep under *partial* load;
* ``performance`` — turbo on every core, the performance EPB (no
  energy-efficient-turbo dwell, Fig. 7), and a zero grace: it parks the
  instant the machine runs dry;
* ``epb-only`` — the processor's own energy management (§4, Fig. 7):
  nominal clocks and the powersave EPB, under which the UFS heuristic
  settles mid-ladder; it never parks.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.dbms.engine import DatabaseEngine
from repro.hardware.frequency import EnergyPerformanceBias
from repro.sim.metrics import SampleAnnotations

if TYPE_CHECKING:
    from repro.hardware.machine import Machine
    from repro.sim.runner import RunConfiguration


def apply_start_state(
    machine: "Machine", core_ghz: dict[int, float], epb: EnergyPerformanceBias
) -> None:
    """Wake every thread, request ``core_ghz[socket]`` on every core of
    each socket, set ``epb`` on every thread, and hand every uncore to
    automatic UFS."""
    machine.cstates.set_active_threads(
        {t.global_id for t in machine.topology.iter_threads()}
    )
    for sock in machine.topology.sockets:
        ghz = core_ghz[sock.socket_id]
        machine.frequency.set_socket_core_frequencies(
            sock.socket_id,
            {core.core_id: ghz for core in sock.cores},
            machine.time_s,
        )
    machine.set_epb_all(epb)
    for sock in machine.topology.sockets:
        machine.frequency.set_uncore_auto(sock.socket_id)


class FixedKnobPolicy:
    """Fixed knobs set at build; park a dry machine after an idle grace.

    Args:
        engine: the engine whose machine the policy drives.
        turbo: every core requests turbo instead of the nominal clock.
        epb: the bias set on every thread.
        idle_grace_s: how long the machine must be dry before it parks;
            ``math.inf`` never parks.
        label: the per-socket ``applied`` sample annotation, ``parked``
            while parked; empty for none.
    """

    def __init__(
        self,
        engine: DatabaseEngine,
        turbo: bool = False,
        epb: EnergyPerformanceBias = EnergyPerformanceBias.BALANCED,
        idle_grace_s: float = 0.25,
        label: str = "",
    ):
        self.engine = engine
        self.machine = engine.machine
        self.epb = epb
        self.idle_grace_s = idle_grace_s
        self.label = label
        self._core_ghz = {}
        for sock in self.machine.topology.sockets:
            params = self.machine.params_for(sock.socket_id)
            self._core_ghz[sock.socket_id] = (
                params.core_turbo_ghz if turbo else params.core_nominal_ghz
            )
        self._idle_since: float | None = None
        self._parked = False
        #: The policy costs no overhead on a skipped tick.
        self._charges = np.zeros(self.machine.topology.socket_count)
        apply_start_state(self.machine, self._core_ghz, epb)

    @classmethod
    def build(
        cls, engine: DatabaseEngine, config: "RunConfiguration"
    ) -> "FixedKnobPolicy":
        """Control-policy factory: the ``baseline`` preset."""
        return cls(engine)

    def _has_work(self) -> bool:
        engine = self.engine
        return engine.pending_messages() > 0 or engine.tracker.in_flight > 0

    def _next_action_s(self, now_s: float, dt_s: float) -> float:
        """When :meth:`on_tick` next changes anything: ``now_s`` when it
        acts on this tick, else a later time (``inf`` until the work
        predicate flips).  Within a macro span the predicate is frozen:
        no messages move and no queries complete."""
        if self.idle_grace_s == math.inf:
            return math.inf  # never parks, so nothing to undo either
        if self._has_work():
            if self._parked or self._idle_since is not None:
                return now_s  # wake, and forget the idle spell
            return math.inf
        if self._parked:
            return math.inf
        if (
            self._idle_since is None
            or now_s - self._idle_since >= self.idle_grace_s
        ):
            return now_s  # start the grace timer, or park
        parks_at = self._idle_since + self.idle_grace_s
        # The sum can round to ``now_s`` or below while the difference
        # above still falls short of the grace: the park is a tick away.
        return parks_at if parks_at > now_s else now_s + dt_s

    def on_tick(self, now_s: float, dt_s: float) -> None:
        """Park after the idle grace; wake on work."""
        if self._next_action_s(now_s, dt_s) > now_s:
            return
        if self._has_work():
            self._idle_since = None
            if self._parked:
                apply_start_state(self.machine, self._core_ghz, self.epb)
                self._parked = False
            return
        if self._idle_since is None:
            self._idle_since = now_s
        if now_s - self._idle_since >= self.idle_grace_s:
            # Tickless OS idle: cores C6; automatic UFS drops the uncore.
            self.machine.cstates.set_active_threads(set())
            self._parked = True

    def macro_view(
        self, now_s: float, dt_s: float
    ) -> tuple[float, np.ndarray] | None:
        """Steady-state view for the macro-stepping runner: the time of
        the next action, or ``None`` when the next tick acts."""
        due = self._next_action_s(now_s, dt_s)
        return None if due <= now_s else (due, self._charges)

    def annotate_sample(self) -> SampleAnnotations:
        """The preset's label per socket (``parked`` while parked)."""
        if not self.label:
            return SampleAnnotations()
        state = "parked" if self._parked else self.label
        return SampleAnnotations(
            applied=tuple(state for _ in self.machine.topology.sockets),
        )
