"""Runtime statistics consumed by the Energy-Control Loop.

Two signal sources feed the ECL (paper §5):

* **worker utilization** per socket — the socket-level ECL's demand
  signal.  It is measured relative to the *currently active* worker set:
  1.0 means the active workers never ran out of messages during the
  observation window.
* **query latency** — the system-level ECL's constraint signal: a sliding
  window average plus a linear trend used to estimate the time until the
  user-defined latency limit would be violated.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

import numpy as np

from repro.errors import ControlError


class LatencyTracker:
    """Sliding-window average latency and its trend.

    Completion times and latencies live in two parallel float deques, so
    each window sum is one C-level ``sum()`` over a deque: the same left
    fold, in the same order, as a sum over per-sample records.
    """

    def __init__(self, window_s: float = 5.0):
        if window_s <= 0:
            raise ControlError(f"window must be > 0, got {window_s}")
        self.window_s = window_s
        self._times: deque[float] = deque()
        self._latencies: deque[float] = deque()
        self.total_completed = 0
        self._max_latency_s = 0.0

    def record(self, completion_s: float, latency_s: float) -> None:
        """Record one completed query."""
        if latency_s < 0:
            raise ControlError(f"negative latency {latency_s}")
        self._times.append(completion_s)
        self._latencies.append(latency_s)
        self.total_completed += 1
        self._max_latency_s = max(self._max_latency_s, latency_s)

    def prune(self, now_s: float) -> None:
        """Drop samples older than the window."""
        horizon = now_s - self.window_s
        times = self._times
        while times and times[0] < horizon:
            times.popleft()
            self._latencies.popleft()

    def sample_count(self) -> int:
        """Samples currently inside the window."""
        return len(self._times)

    @property
    def max_latency_s(self) -> float:
        """Largest latency ever observed (for reports)."""
        return self._max_latency_s

    def average_latency_s(self, now_s: float) -> float | None:
        """Window-average latency, or None with no samples."""
        self.prune(now_s)
        if not self._latencies:
            return None
        return sum(self._latencies) / len(self._latencies)

    def trend_s_per_s(
        self, now_s: float, mean_latency_s: float | None = None
    ) -> float:
        """Least-squares slope of latency over completion time.

        Positive slope = latencies are growing.  Returns 0.0 when fewer
        than two samples are available or the window has no time spread.
        ``mean_latency_s`` is :meth:`average_latency_s` at the same
        ``now_s``, when the caller already has it (saves one window sum).
        """
        self.prune(now_s)
        times = self._times
        n = len(times)
        if n < 2:
            return 0.0
        latencies = self._latencies
        mean_t = sum(times) / n
        mean_l = (
            sum(latencies) / n if mean_latency_s is None else mean_latency_s
        )
        sxx = sum((t - mean_t) ** 2 for t in times)
        if sxx <= 0:
            return 0.0
        sxy = sum(
            (t - mean_t) * (latency - mean_l)
            for t, latency in zip(times, latencies)
        )
        return sxy / sxx

    def time_to_violation_s(self, limit_s: float, now_s: float) -> float:
        """Estimated seconds until the average latency crosses ``limit_s``.

        Returns 0.0 when the limit is already violated and ``inf`` when
        latency is flat or shrinking (or no data exists yet).
        """
        return self.violation_eta_s(
            limit_s, now_s, self.average_latency_s(now_s)
        )

    def violation_eta_s(
        self, limit_s: float, now_s: float, average_s: float | None
    ) -> float:
        """:meth:`time_to_violation_s` from the window average at
        ``now_s`` the caller already read."""
        if limit_s <= 0:
            raise ControlError(f"latency limit must be > 0, got {limit_s}")
        if average_s is None:
            return float("inf")
        if average_s >= limit_s:
            return 0.0
        slope = self.trend_s_per_s(now_s, average_s)
        if slope <= 0:
            return float("inf")
        return (limit_s - average_s) / slope


class UtilizationTracker:
    """Per-socket utilization of the active worker set.

    The samples of every socket live in one table over (tick, socket):
    a row per recorded time, holding each socket's offered and consumed
    instructions and whether that socket recorded in it.  The engine
    records a whole tick (:meth:`record_all`) or span
    (:meth:`record_span_all`) as rows; :meth:`record_tick` and
    :meth:`record_span` are views that fill one socket's column.  Each
    socket keeps its own eviction point, moved only when it records,
    exactly as a per-socket deque would pop its front (a bulk record
    moves one eviction point shared by all sockets; a socket's own is
    the later of the two); reads fold the socket's window with the same
    left fold a loop over that deque would run.  Samples must be
    recorded in time order.
    """

    def __init__(self, socket_ids: tuple[int, ...], window_s: float = 1.0):
        if window_s <= 0:
            raise ControlError(f"window must be > 0, got {window_s}")
        self.window_s = window_s
        self._slot = {sid: index for index, sid in enumerate(socket_ids)}
        count = len(self._slot)
        capacity = 16
        self._times = np.empty(capacity)
        self._offered = np.empty((capacity, count))
        self._consumed = np.empty((capacity, count))
        self._present = np.zeros((capacity, count), dtype=bool)
        #: Rows in use; each socket's first row not yet evicted by its
        #: own records, and the first not yet evicted by bulk records.
        self._rows = 0
        self._start = np.zeros(count, dtype=np.int64)
        self._floor = 0
        #: Time of the last row (rows are in time order).
        self._last_s = -np.inf
        self._pending = np.zeros(count)

    # -- recording ----------------------------------------------------------

    def _slot_of(self, socket_id: int) -> int:
        slot = self._slot.get(socket_id)
        if slot is None:
            raise ControlError(f"unknown socket id {socket_id}")
        return slot

    @staticmethod
    def _check(offered: float, consumed: float, pending: float) -> None:
        if offered < 0 or consumed < 0:
            raise ControlError("instruction budgets must be >= 0")
        if pending < 0:
            raise ControlError("pending instructions must be >= 0")

    def _append(self, first_s: float, count: int) -> int:
        """Reserve ``count`` rows from time ``first_s`` on; returns the
        first.  Rows every socket has evicted are dropped to make room."""
        rows = self._rows
        if first_s < self._last_s:
            raise ControlError(
                f"utilization sample at {first_s} s precedes the last one "
                f"at {self._last_s} s"
            )
        if rows + count > len(self._times):
            drop = max(
                int(self._start.min()) if len(self._start) else rows,
                self._floor,
            )
            keep = rows - drop
            capacity = max(len(self._times), 2 * (keep + count))
            for name in ("_times", "_offered", "_consumed", "_present"):
                old = getattr(self, name)
                new = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
                new[:keep] = old[drop:rows]
                setattr(self, name, new)
            self._start -= drop
            self._floor -= drop
            rows = keep
        self._rows = rows + count
        return rows

    def _first_row(self, horizon: float) -> int:
        """The first row at or past ``horizon``: rows are in time order,
        so every row before it is older (other sockets' rows in between
        are not evicted for a socket that did not record them)."""
        return int(self._times[: self._rows].searchsorted(horizon))

    def record_tick(
        self,
        socket_id: int,
        now_s: float,
        offered_instructions: float,
        consumed_instructions: float,
        pending_instructions: float = 0.0,
    ) -> None:
        """Record one tick's budgets plus the backlog left afterwards."""
        slot = self._slot_of(socket_id)
        self._check(
            offered_instructions, consumed_instructions, pending_instructions
        )
        row = self._append(now_s, 1)
        self._times[row] = now_s
        self._present[row] = False
        self._present[row, slot] = True
        self._offered[row, slot] = offered_instructions
        self._consumed[row, slot] = consumed_instructions
        self._pending[slot] = pending_instructions
        self._last_s = now_s
        self._start[slot] = max(
            self._start[slot], self._first_row(now_s - self.window_s)
        )

    def record_span(
        self,
        socket_id: int,
        times: list[float],
        offered_instructions: float,
        consumed_instructions: float,
        pending_instructions: float = 0.0,
    ) -> None:
        """Record one identical sample for every tick time in ``times``.

        Bit-identical to calling :meth:`record_tick` once per time:
        eviction only removes entries older than the horizon, and the
        horizon grows monotonically, so one sweep at the final time
        removes exactly what the per-tick sweeps would have — including
        the span's own samples before it, which are never stored.
        """
        slot = self._slot_of(socket_id)
        self._check(
            offered_instructions, consumed_instructions, pending_instructions
        )
        if not times:
            return
        horizon = times[-1] - self.window_s
        kept = times[bisect_left(times, horizon):]
        row = self._append(times[0], len(kept))
        end = row + len(kept)
        self._times[row:end] = kept
        self._present[row:end] = False
        self._present[row:end, slot] = True
        self._offered[row:end, slot] = offered_instructions
        self._consumed[row:end, slot] = consumed_instructions
        self._pending[slot] = pending_instructions
        self._last_s = kept[-1]
        self._start[slot] = max(self._start[slot], self._first_row(horizon))

    def record_all(
        self,
        now_s: float,
        offered: np.ndarray,
        consumed: np.ndarray,
        pending: np.ndarray,
    ) -> None:
        """:meth:`record_tick` for every socket at once, with arrays in
        socket order (the engine's own, already valid budgets)."""
        row = self._append(now_s, 1)
        self._times[row] = now_s
        self._present[row] = True
        self._offered[row] = offered
        self._consumed[row] = consumed
        self._pending[:] = pending
        self._last_s = now_s
        self._floor = max(self._floor, self._first_row(now_s - self.window_s))

    def record_span_all(
        self,
        times: list[float],
        offered: np.ndarray,
        consumed: np.ndarray,
        pending: np.ndarray,
        leading: dict[int, list[float]] | None = None,
    ) -> None:
        """:meth:`record_span` for every socket at once.

        Every tick records ``offered`` and ``consumed`` (arrays in socket
        order), except that a socket in ``leading`` consumed
        ``leading[sid][k]`` on the span's ``k``-th tick for as many ticks
        as the list holds.
        """
        if not times:
            return
        horizon = times[-1] - self.window_s
        skip = bisect_left(times, horizon)
        count = len(times) - skip
        row = self._append(times[0], count)
        end = row + count
        self._times[row:end] = times[skip:]
        self._present[row:end] = True
        self._offered[row:end] = offered
        self._consumed[row:end] = consumed
        for sid, uses in (leading or {}).items():
            slot = self._slot[sid]
            for k in range(skip, min(len(uses), len(times))):
                self._consumed[row + k - skip, slot] = uses[k]
        self._pending[:] = pending
        self._last_s = times[-1]
        self._floor = max(self._floor, self._first_row(horizon))

    # -- reading ------------------------------------------------------------

    def _window_sums(self, socket_id: int, now_s: float) -> tuple[float, float]:
        """(offered, consumed) of the socket's samples at or after
        ``now_s - window``, each a left fold from 0.0 in record order."""
        slot = self._slot_of(socket_id)
        first = max(int(self._start[slot]), self._floor)
        rows = self._rows
        selected = self._present[first:rows, slot] & (
            self._times[first:rows] >= now_s - self.window_s
        )
        if not selected.any():
            return 0.0, 0.0
        offered = self._offered[first:rows, slot][selected]
        consumed = self._consumed[first:rows, slot][selected]
        # ``+ 0.0`` gives an all-zero fold the sign a fold from 0.0 has.
        return (
            float(np.add.accumulate(offered)[-1]) + 0.0,
            float(np.add.accumulate(consumed)[-1]) + 0.0,
        )

    def utilization(self, socket_id: int, now_s: float) -> float:
        """Demand relative to the offered capacity over the window.

        ``(consumed + backlog) / offered``, clamped to 1.0 — a remaining
        backlog means the active workers could not keep up, so utilization
        must saturate even though idle RTI phases offered no capacity.  A
        fully parked socket reports 1.0 when work is waiting (it must be
        woken) and 0.0 otherwise.
        """
        offered, consumed = self._window_sums(socket_id, now_s)
        backlog = float(self._pending[self._slot[socket_id]])
        if offered <= 0:
            return 1.0 if backlog > 0 else 0.0
        return min(1.0, (consumed + backlog) / offered)

    def busy_fraction(self, socket_id: int, now_s: float) -> float:
        """Consumed / offered over the window, *without* the backlog term.

        This answers a different question than :meth:`utilization`:
        whether the active workers ever ran out of messages (< 1.0) or
        stayed saturated.  The ECL's online profile adaptation gates on
        this — a measurement taken while workers ran dry reflects missing
        demand, not the configuration's capacity.
        """
        offered, consumed = self._window_sums(socket_id, now_s)
        if offered <= 0:
            return 0.0
        return min(1.0, consumed / offered)
