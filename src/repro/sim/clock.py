"""Discrete tick timekeeping for the simulation pipeline.

* :class:`TickClock` — the authoritative tick count of a run;
* :class:`PeriodicDeadline` — a repeating deadline (sampling, governor
  decision periods);
* :class:`OneShotDeadline` — a single deadline (the workload switch).

Accumulated float error across thousands of non-divisible ticks makes a
bare ``>=`` fire one tick late, so every deadline comparison in the
tree — these helpers, the control loops' own deadlines, the runner's
span guards — goes through one predicate, :func:`repro.units.at_or_after`
(re-exported here with its slack :data:`EPSILON_S`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.units import EPSILON_S, at_or_after


def span_ticks_until(now_s: float, deadline_s: float, tick_s: float) -> int:
    """How many whole ticks fit strictly before ``deadline_s``.

    Used by the macro-stepping runner to size a steady-state span: the
    count is one tick *short* of the arithmetic floor, so the tick on
    which the deadline fires — and the tick before it — always execute
    live.  The margin absorbs both the :data:`EPSILON_S` slack of
    :func:`at_or_after` and the ULP-level drift of folded tick
    timestamps, making "strictly before" robust rather than exact.
    """
    if deadline_s == float("inf"):
        raise SimulationError("span_ticks_until needs a finite deadline")
    return int((deadline_s - now_s) / tick_s) - 1


@dataclass(frozen=True)
class TickClock:
    """The fixed-step time base of one simulation run.

    Attributes:
        tick_s: simulation step width.
        duration_s: requested run length.
    """

    tick_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise SimulationError(f"tick_s must be > 0, got {self.tick_s}")
        if self.duration_s < 0:
            raise SimulationError(
                f"duration_s must be >= 0, got {self.duration_s}"
            )

    @property
    def tick_count(self) -> int:
        """Number of whole ticks in the run.

        A non-divisible ``duration_s / tick_s`` ratio rounds to the
        nearest tick (not down): a 1.0 s run at 0.3 s ticks executes 3
        ticks, a 1.0 s run at 0.4 s ticks executes 2 — the run length is
        matched as closely as the step width allows, and a duration that
        is one ULP short of a whole multiple still yields that multiple.
        """
        return int(round(self.duration_s / self.tick_s))

    @property
    def realized_duration_s(self) -> float:
        """The duration actually simulated (``tick_count * tick_s``)."""
        return self.tick_count * self.tick_s


class PeriodicDeadline:
    """A repeating deadline checked against the simulation clock.

    Two advancement styles cover every periodic schedule in the tree:

    * :meth:`advance` steps the deadline by exactly one period — the
      sampling cadence: deadlines stay anchored to the original phase
      (0, T, 2T, ...) no matter when the check happens;
    * :meth:`restart` re-anchors the deadline at ``now + period`` — the
      ondemand governor's decision timer: the next decision is a full
      period after the previous one *fired*.
    """

    def __init__(self, period_s: float, first_due_s: float = 0.0):
        if period_s <= 0:
            raise SimulationError(f"period_s must be > 0, got {period_s}")
        self.period_s = period_s
        self._next_due_s = first_due_s

    @property
    def next_due_s(self) -> float:
        """The deadline currently armed."""
        return self._next_due_s

    def due(self, now_s: float) -> bool:
        """Whether the deadline has been reached (epsilon-tolerant)."""
        return at_or_after(now_s, self._next_due_s)

    def advance(self) -> None:
        """Arm the next phase-anchored deadline (one period later)."""
        self._next_due_s += self.period_s

    def restart(self, now_s: float) -> None:
        """Re-anchor: next deadline one full period after ``now_s``."""
        self._next_due_s = now_s + self.period_s


class OneShotDeadline:
    """A deadline that fires exactly once (or never, when unset).

    ``OneShotDeadline(None)`` is the disarmed schedule: :meth:`poll`
    always returns False.  This lets callers model optional events (the
    workload switch) without special-casing ``None`` at every check.
    """

    def __init__(self, at_s: float | None):
        self._at_s = at_s
        self._fired = at_s is None

    @property
    def fired(self) -> bool:
        """Whether the deadline has already fired (or was never armed)."""
        return self._fired

    @property
    def at_s(self) -> float | None:
        """The armed deadline time (None when disarmed)."""
        return self._at_s

    def poll(self, now_s: float) -> bool:
        """True exactly once: the first check at or after the deadline."""
        if self._fired:
            return False
        assert self._at_s is not None
        if at_or_after(now_s, self._at_s):
            self._fired = True
            return True
        return False
