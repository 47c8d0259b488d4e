"""An OS-style ondemand DVFS governor — the related-work comparison.

The paper's §7 discusses prior feedback controllers (e.g. Tu et al.'s
E²DBMS) that adjust *one DVFS setting per processor* based on load,
without uncore control, C-state orchestration, race-to-idle, or an
energy profile.  This policy reproduces that class of control as an
additional comparison point between the uncontrolled baseline and the
full ECL:

* every hardware thread stays active (the DBMS polls);
* each socket's core clocks step up when utilization is high and down
  when it is low (the classic ondemand ladder walk);
* the uncore clock stays in automatic (hardware) UFS mode;
* there is no latency feedback and no idle orchestration.

Expectation (and what the ablation bench asserts): the governor lands
between baseline and ECL — it saves core DVFS power at partial load but
cannot touch the uncore, cannot park threads, and mis-clocks
bandwidth-bound workloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dbms.engine import DatabaseEngine
from repro.errors import ControlError
from repro.hardware.frequency import EnergyPerformanceBias
from repro.sim.baseline import apply_start_state
from repro.sim.clock import PeriodicDeadline
from repro.sim.metrics import SampleAnnotations

if TYPE_CHECKING:
    from repro.sim.runner import RunConfiguration


class OndemandGovernorPolicy:
    """Per-socket DVFS ladder walking on a fixed period."""

    def __init__(
        self,
        engine: DatabaseEngine,
        period_s: float = 0.1,
        up_threshold: float = 0.80,
        down_threshold: float = 0.40,
    ):
        if period_s <= 0:
            raise ControlError(f"period must be > 0, got {period_s}")
        if not 0 < down_threshold < up_threshold <= 1:
            raise ControlError(
                f"need 0 < down < up <= 1, got {down_threshold}, {up_threshold}"
            )
        self.engine = engine
        self.machine = engine.machine
        self.period_s = period_s
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        #: Sustained steps only, per socket: ondemand does not request
        #: turbo itself, and wimpy/brawny sockets walk different ladders.
        self._steps = {
            sock.socket_id: tuple(
                f
                for f in self.machine.frequency.core_ladder_for(
                    sock.socket_id
                ).steps
                if f
                <= self.machine.params_for(sock.socket_id).core_nominal_ghz
            )
            for sock in self.machine.topology.sockets
        }
        #: Ladder position per socket; every socket starts at the top.
        self._index = {
            sid: len(steps) - 1 for sid, steps in self._steps.items()
        }
        #: The governor costs no overhead on a skipped tick.
        self._charges = np.zeros(self.machine.topology.socket_count)
        apply_start_state(
            self.machine,
            {sid: steps[-1] for sid, steps in self._steps.items()},
            EnergyPerformanceBias.BALANCED,
        )
        self._decision = PeriodicDeadline(
            period_s, first_due_s=self.machine.time_s + period_s
        )

    @classmethod
    def build(
        cls, engine: DatabaseEngine, config: "RunConfiguration"
    ) -> "OndemandGovernorPolicy":
        """Control-policy factory (see :mod:`repro.sim.policy`)."""
        return cls(engine)

    def _set_socket_frequency(self, socket_id: int) -> None:
        freq = self._steps[socket_id][self._index[socket_id]]
        socket = self.machine.topology.socket(socket_id)
        for core in socket.cores:
            self.machine.frequency.set_core_frequency(
                socket_id, core.core_id, freq, self.machine.time_s
            )

    def socket_frequency_ghz(self, socket_id: int) -> float:
        """The frequency the governor currently applies to a socket."""
        return self._steps[socket_id][self._index[socket_id]]

    def on_tick(self, now_s: float, dt_s: float) -> None:
        """Walk the frequency ladder once per period."""
        if not self._decision.due(now_s):
            return
        self._decision.restart(now_s)

        for sock in self.machine.topology.sockets:
            sid = sock.socket_id
            utilization = self.engine.utilization.utilization(sid, now_s)
            index = self._index[sid]
            if utilization > self.up_threshold:
                # Classic ondemand: jump straight to the top on pressure.
                index = len(self._steps[sid]) - 1
            elif utilization < self.down_threshold and index > 0:
                index -= 1
            if index != self._index[sid]:
                self._index[sid] = index
                self._set_socket_frequency(sid)
                self.machine.note_configuration_switch(sid)

    def macro_view(
        self, now_s: float, dt_s: float
    ) -> tuple[float, np.ndarray] | None:
        """Steady-state view for the macro-stepping runner.

        Between decision deadlines :meth:`on_tick` is a pure deadline
        comparison, so the next decision time bounds the span.
        """
        return self._decision.next_due_s, self._charges

    def annotate_sample(self) -> SampleAnnotations:
        """No annotations: pinned by the pre-registry A/B goldens.

        The governor *could* annotate its per-socket ladder position, but
        the refactor contract is bit-identical results for the original
        three policies — their sample annotations stay empty.
        """
        return SampleAnnotations()
