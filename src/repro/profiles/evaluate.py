"""Model-based configuration evaluation (the measurement "oracle").

Two ways exist to fill an energy profile with measurements:

* the **runtime path** — what the ECL itself does: apply the
  configuration to the machine, wait the calibrated apply/measure
  intervals, and read RAPL + instruction counters (noisy, costs real
  time); implemented in :mod:`repro.ecl.adaptation`;
* the **model path** (this module) — query the power and performance
  models directly for a hypothetical configuration without perturbing the
  machine.  It is exact and fast, which is what the profile *figures*
  (Fig. 9/10/17–20) need, and serves as ground truth for testing that the
  runtime path converges to the right numbers.

On a fleet most sockets are interchangeable for the models: a
configuration's measurement depends on its socket only through the
socket's parameter set, its index inside its node (the static power
asymmetry of :class:`~repro.hardware.power.PowerModel`) and the workload.
Sockets agreeing on all three form one *evaluation class*, and
:func:`warm_start_profiles` evaluates each configuration shape once per
class instead of once per socket.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ProfileError
from repro.hardware.machine import Machine
from repro.hardware.perfmodel import ActiveCore, SocketLoad, WorkloadCharacteristics
from repro.hardware.power import CorePowerState
from repro.profiles.configuration import (
    Configuration,
    ConfigurationMeasurement,
    SocketRules,
)
from repro.profiles.generator import ConfigurationGenerator, GeneratorParameters
from repro.profiles.profile import EnergyProfile

#: Active cores of a configuration as ``(socket-local core id, active
#: siblings)`` pairs in core order.
Siblings = tuple[tuple[int, int], ...]
#: A configuration as the models see it: its core frequencies (keyed by
#: socket-local core id), its sibling counts and its uncore clock.
#: Socket-independent, so the sockets of one evaluation class share it.
Shape = tuple[tuple[tuple[int, float], ...], Siblings, float]


def _validate(
    machine: Machine,
    configuration: Configuration,
    rules: SocketRules | None = None,
) -> SocketRules:
    """Validate one configuration and return its socket's rules.

    Raises:
        ProfileError: if the configuration is invalid for the machine.
    """
    try:
        if rules is None:
            rules = SocketRules.of(machine, configuration.socket_id)
        configuration.validate(rules)
    except Exception as exc:  # noqa: BLE001 - rewrap with profile context
        raise ProfileError(
            f"cannot evaluate {configuration.describe()}: {exc}"
        ) from exc
    return rules


def _siblings(threads: frozenset[int], rules: SocketRules) -> Siblings:
    """Per-core active sibling counts of a validated thread set."""
    core_of = rules.core_of_thread
    counts: dict[int, int] = {}
    for tid in threads:
        core_id = core_of[tid]
        counts[core_id] = counts.get(core_id, 0) + 1
    return tuple(sorted(counts.items()))


def _evaluate(
    machine: Machine,
    socket_id: int,
    shape: Shape,
    chars: WorkloadCharacteristics,
    uncore_halted: bool,
    at_time_s: float,
) -> ConfigurationMeasurement:
    """Evaluate one shape on one socket under saturating demand."""
    perf_model = machine.perf_model
    params = machine.params_for(socket_id)
    core_frequencies, siblings, uncore_ghz = shape
    freq_map = dict(core_frequencies)
    active_cores = [
        ActiveCore(
            socket_id=socket_id,
            core_id=core_id,
            frequency_ghz=freq_map[core_id],
            sibling_count=count,
        )
        for core_id, count in siblings
    ]
    perf = perf_model.resolve(
        active_cores,
        uncore_ghz,
        SocketLoad(characteristics=chars, demand_instructions_per_s=None),
    )
    parallel = perf_model.parallel_throughput_ips(
        active_cores, uncore_ghz, chars, params
    )
    scale = 0.0 if parallel <= 0 else perf.executed_ips / parallel

    core_states = [
        CorePowerState(
            frequency_ghz=core.frequency_ghz,
            active_sibling_count=core.sibling_count,
            activity=perf_model.core_activity(
                core, uncore_ghz, chars, scale, params
            ),
        )
        for core in active_cores
    ]
    power = machine.power_model.socket_power(
        socket_id=socket_id,
        core_states=core_states,
        uncore_ghz=uncore_ghz,
        uncore_halted=uncore_halted,
        traffic_gbs=perf.traffic_gbs,
    )
    return ConfigurationMeasurement(
        power_w=power.socket_total_w,
        performance_score=perf.capacity_ips,
        measured_at_s=at_time_s,
    )


def measure_configuration(
    machine: Machine,
    configuration: Configuration,
    chars: WorkloadCharacteristics,
    assume_machine_idle_for_idle: bool = True,
    at_time_s: float | None = None,
) -> ConfigurationMeasurement:
    """Evaluate one configuration under saturating demand via the models.

    ``assume_machine_idle_for_idle`` controls whether the idle
    configuration is charged the halted-uncore power (legal only when
    every socket idles simultaneously — which the RTI controllers
    synchronize for) or the active-uncore-at-minimum power.

    Raises:
        ProfileError: if the configuration is invalid for the machine.
    """
    rules = _validate(machine, configuration)
    shape = (
        configuration.core_frequencies,
        _siblings(configuration.active_threads, rules),
        configuration.uncore_ghz,
    )
    return _evaluate(
        machine,
        configuration.socket_id,
        shape,
        chars,
        uncore_halted=configuration.is_idle and assume_machine_idle_for_idle,
        at_time_s=machine.time_s if at_time_s is None else at_time_s,
    )


def warm_start_profiles(
    machine: Machine,
    profiles: Mapping[int, EnergyProfile],
    chars_by_socket: Mapping[int, WorkloadCharacteristics],
) -> None:
    """Fill every socket's profile from the model path.

    Each configuration shape, and the OS-idle point, is evaluated once
    per evaluation class (equal :meth:`Machine.params_for`, node-local
    socket index and workload) and the same frozen measurement is
    recorded into every member socket's own entry: the result equals
    :func:`measure_configuration` on each socket alone, bit for bit.
    Every socket keeps its own profile and configurations, because
    online adaptation blends measurements per socket.

    Raises:
        ProfileError: if any configuration is invalid for the machine;
            raised before any profile is touched.
    """
    at_time_s = machine.time_s
    classes: dict[tuple, dict[tuple[Shape, bool], ConfigurationMeasurement]] = {}
    plan = []
    for sid, profile in profiles.items():
        rules = SocketRules.of(machine, sid)
        # Generated configurations share a thread set per activation
        # prefix: count each set's siblings once.
        siblings: dict[frozenset[int], Siblings] = {}
        shapes = []
        for configuration in profile.configurations():
            _validate(machine, configuration, rules)
            threads = configuration.active_threads
            if threads not in siblings:
                siblings[threads] = _siblings(threads, rules)
            shape = (
                configuration.core_frequencies,
                siblings[threads],
                configuration.uncore_ghz,
            )
            shapes.append((configuration, shape))
        idle = profile.idle_configuration
        idle_shape = (idle.core_frequencies, (), idle.uncore_ghz)
        chars = chars_by_socket[sid]
        local_index = machine.node_sockets(machine.node_of_socket(sid)).index(sid)
        memo = classes.setdefault(
            (machine.params_for(sid), local_index, chars), {}
        )
        plan.append((sid, profile, shapes, idle_shape, chars, memo))

    for sid, profile, shapes, idle_shape, chars, memo in plan:

        def measured(shape: Shape, halted: bool) -> ConfigurationMeasurement:
            measurement = memo.get((shape, halted))
            if measurement is None:
                measurement = memo[(shape, halted)] = _evaluate(
                    machine, sid, shape, chars, halted, at_time_s
                )
            return measurement

        for configuration, shape in shapes:
            profile.record(configuration, measured(shape, configuration.is_idle))
        # The uncontrolled baseline cannot reach the synchronized deep
        # sleep: its out-of-work power keeps the uncore awake at its
        # minimum clock.
        profile.os_idle_power_w = measured(idle_shape, False).power_w


def build_profile(
    machine: Machine,
    socket_id: int,
    chars: WorkloadCharacteristics,
    generator_params: GeneratorParameters | None = None,
) -> EnergyProfile:
    """Generate and fully evaluate an energy profile via the model path."""
    generator = ConfigurationGenerator(
        machine.topology, machine.params_for(socket_id), socket_id, generator_params
    )
    profile = EnergyProfile(generator.generate())
    warm_start_profiles(machine, {socket_id: profile}, {socket_id: chars})
    return profile
