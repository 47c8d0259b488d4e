"""Unit conventions and small numeric helpers used across the library.

The simulator works in plain SI floats to keep the hot paths cheap:

* time      — seconds
* frequency — gigahertz (``GHz``); stored as floats such as ``2.6``
* power     — watts
* energy    — joules
* bandwidth — gigabytes per second
* rates     — events per second (queries/s, instructions/s)

This module centralizes conversions and a few validation helpers so the
rest of the code never hand-rolls them.
"""

from __future__ import annotations

import math

# Scale factors.
GHZ = 1e9
"""Hertz per gigahertz (for converting GHz clock values to cycles/s)."""

GIB = 1 << 30
"""Bytes per gibibyte."""

GB = 1e9
"""Bytes per (decimal) gigabyte; bandwidths are quoted in GB/s."""

MS = 1e-3
"""Seconds per millisecond."""

US = 1e-6
"""Seconds per microsecond."""


def ghz_to_hz(freq_ghz: float) -> float:
    """Convert a clock in GHz to cycles per second."""
    return freq_ghz * GHZ


def hz_to_ghz(freq_hz: float) -> float:
    """Convert a clock in cycles per second to GHz."""
    return freq_hz / GHZ


def joules(power_watts: float, duration_s: float) -> float:
    """Energy consumed by drawing ``power_watts`` for ``duration_s``."""
    return power_watts * duration_s


def watt_hours(energy_j: float) -> float:
    """Convert joules to watt-hours (used only for human-facing reports)."""
    return energy_j / 3600.0


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``.

    Raises:
        ValueError: if ``lo > hi``.
    """
    if lo > hi:
        raise ValueError(f"empty clamp interval [{lo}, {hi}]")
    return max(lo, min(hi, value))


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number > 0 and return it."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number >= 0 and return it."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def require_fraction(value: float, name: str) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` and return it."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


#: Slack for comparing accumulated simulation times against deadlines.
#: Tick timestamps are sums of thousands of float ``dt`` additions, so a
#: deadline that is *mathematically* on a tick boundary may be missed by
#: a few ULPs without it.
EPSILON_S = 1e-12


def at_or_after(now_s: float, deadline_s: float) -> bool:
    """Whether ``now_s`` has reached ``deadline_s``, within float slack
    (defined here, in a module that imports nothing from ``repro``, so
    the ECL's socket loop can use it without an import cycle)."""
    return now_s + EPSILON_S >= deadline_s


def approx_equal(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Tolerant float comparison used by tests and profile staleness checks."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)
