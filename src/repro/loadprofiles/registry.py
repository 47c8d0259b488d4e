"""The load-profile name registry.

Mirrors :mod:`repro.sim.policy` and :mod:`repro.placement`: profiles
register by name with a factory and a description, out-of-tree profiles
hook in via :func:`register_profile`, and the CLI (``--profile`` /
``--list-profiles``) just renders the table.  Factories take
``(duration_s, level)`` — every built-in stretches its shape onto the
requested duration, and ``level`` parameterizes the flat profile; each
entry says whether its profile takes a level (``takes_level``), so the
CLI can refuse a ``--level`` the profile would ignore.

The built-in registrations at the bottom are the single source of truth
for profile names: nothing else under ``src/`` spells them out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import SimulationError
from repro.loadprofiles.base import LoadProfile
from repro.loadprofiles.spike import spike_profile
from repro.loadprofiles.synthetic import constant_profile, sine_profile
from repro.loadprofiles.twitter import twitter_day_profile, twitter_profile

#: Signature of a registry factory: (duration_s, level) -> profile.
ProfileFactory = Callable[[float, float], LoadProfile]


@dataclass(frozen=True)
class ProfileInfo:
    """One registry entry.

    Attributes:
        name: the public lookup name (CLI ``--profile``, suite scripts).
        factory: builds the profile for a (duration_s, level) pair.
        description: one-liner for ``repro run --list-profiles``.
        takes_level: whether ``factory`` reads its ``level`` argument.
    """

    name: str
    factory: ProfileFactory
    description: str = ""
    takes_level: bool = True


_REGISTRY: dict[str, ProfileInfo] = {}


def register_profile(
    name: str,
    factory: ProfileFactory,
    description: str = "",
    takes_level: bool = True,
) -> ProfileInfo:
    """Register a load profile under a unique name.

    ``takes_level=False`` declares that the factory ignores its
    ``level`` argument.

    Raises:
        SimulationError: on empty or duplicate names.
    """
    if not name or not isinstance(name, str):
        raise SimulationError(
            f"profile name must be a non-empty string, got {name!r}"
        )
    if name in _REGISTRY:
        raise SimulationError(f"profile {name!r} is already registered")
    info = ProfileInfo(
        name=name,
        factory=factory,
        description=description,
        takes_level=takes_level,
    )
    _REGISTRY[name] = info
    return info


def unregister_profile(name: str) -> None:
    """Remove a registration (out-of-tree profile development, tests)."""
    if name not in _REGISTRY:
        raise SimulationError(_unknown_message(name))
    del _REGISTRY[name]


def registered_profiles() -> tuple[str, ...]:
    """All registered profile names, in registration order."""
    return tuple(_REGISTRY)


def get_profile(name: str) -> ProfileInfo:
    """Look up a registration by name.

    Raises:
        SimulationError: for unknown names; the message lists every
            registered profile.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SimulationError(_unknown_message(name)) from None


def make_profile(name: str, duration_s: float, level: float) -> LoadProfile:
    """Resolve a name and build the profile."""
    return get_profile(name).factory(duration_s, level)


def _unknown_message(name: str) -> str:
    known = ", ".join(_REGISTRY) or "<none>"
    return f"unknown profile {name!r}; registered profiles: {known}"


# --------------------------------------------------------------------------
# Built-in registrations.
# --------------------------------------------------------------------------

register_profile(
    "spike",
    lambda duration_s, level: spike_profile(duration_s=duration_s),
    description="idle floor with one short full-load burst (Fig. 13 shape)",
    takes_level=False,
)
register_profile(
    "twitter",
    lambda duration_s, level: twitter_profile(duration_s=duration_s),
    description="one hour of the Twitter trace, compressed (§6.2)",
    takes_level=False,
)
register_profile(
    "twitter-day",
    lambda duration_s, level: twitter_day_profile(duration_s=duration_s),
    description="the full diurnal Twitter day: deep trough, evening peak (§6.2)",
    takes_level=False,
)
register_profile(
    "constant",
    lambda duration_s, level: constant_profile(level, duration_s=duration_s),
    description="flat load at --level of nominal peak throughput",
)
register_profile(
    "sine",
    lambda duration_s, level: sine_profile(duration_s=duration_s),
    description="smooth full-swing oscillation (controller step response)",
    takes_level=False,
)
