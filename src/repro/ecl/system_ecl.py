"""The system-level ECL: latency supervision (§5.2).

Query latency is a *global* metric — every socket contributes — so one
system-level ECL monitors the sliding-window average against the
user-defined maximum response time (a soft constraint; a reactive loop
cannot guarantee it).  From the average and its trend it estimates the
time until the limit would be violated and publishes that number to the
socket-level ECLs, which use it to

1. raise their discovery aggressiveness under full utilization, and
2. shorten or disable race-to-idle stints (idling costs latency).

A low time-to-violation does **not** make sockets ramp to maximum — load
can be skewed across sockets, so each socket still scales with its own
utilization, just more eagerly.
"""

from __future__ import annotations

from repro.errors import ControlError
from repro.dbms.stats import LatencyTracker
from repro.units import at_or_after


class SystemEcl:
    """Monitors the latency limit and publishes time-to-violation."""

    def __init__(
        self,
        latency_tracker: LatencyTracker,
        latency_limit_s: float = 0.1,
        check_interval_s: float = 0.1,
    ):
        if latency_limit_s <= 0:
            raise ControlError(
                f"latency limit must be > 0, got {latency_limit_s}"
            )
        if check_interval_s <= 0:
            raise ControlError(
                f"check interval must be > 0, got {check_interval_s}"
            )
        self.latency = latency_tracker
        self.latency_limit_s = latency_limit_s
        self.check_interval_s = check_interval_s
        self._next_check_s = 0.0
        self._time_to_violation_s = float("inf")
        self._average_latency_s: float | None = None
        self.violations = 0
        self._checks = 0

    def on_tick(self, now_s: float) -> None:
        """Refresh the cached estimate once per check interval."""
        if not at_or_after(now_s, self._next_check_s):
            return
        self._next_check_s = now_s + self.check_interval_s
        self._checks += 1
        average = self.latency.average_latency_s(now_s)
        self._average_latency_s = average
        self._time_to_violation_s = self.latency.violation_eta_s(
            self.latency_limit_s, now_s, average
        )
        if (
            self._average_latency_s is not None
            and self._average_latency_s > self.latency_limit_s
        ):
            self.violations += 1

    @property
    def next_check_s(self) -> float:
        """When the next latency check fires (macro-stepping horizon).

        Between checks :meth:`on_tick` is a pure deadline comparison, so
        the macro runner may skip any tick strictly before this time.
        """
        return self._next_check_s

    def time_to_violation_s(self) -> float:
        """Latest estimate; ``inf`` when latency is flat/shrinking."""
        return self._time_to_violation_s

    def average_latency_s(self) -> float | None:
        """Latest window-average latency (None without samples)."""
        return self._average_latency_s

    @property
    def limit_violated(self) -> bool:
        """Whether the latest average exceeds the limit."""
        return (
            self._average_latency_s is not None
            and self._average_latency_s > self.latency_limit_s
        )

    def violation_fraction(self) -> float:
        """Fraction of checks that found the limit violated."""
        if self._checks == 0:
            return 0.0
        return self.violations / self._checks
