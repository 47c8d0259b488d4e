"""Hardware configurations and their measurements (paper §4.1).

A configuration is expressed as

    c = ({hardware threads}, {(core, f_core)}, f_uncore)

for one socket.  Configurations are *workload-agnostic*; evaluating one
under a concrete workload enriches it with (power, performance score,
energy efficiency) — kept separately in
:class:`ConfigurationMeasurement` so the same configuration can carry
different measurements in different profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ConfigurationError
from repro.hardware.frequency import FrequencyLadder
from repro.hardware.machine import Machine


@dataclass(frozen=True)
class Configuration:
    """One socket-level hardware state.

    Attributes:
        socket_id: socket this configuration applies to.
        active_threads: global hardware-thread ids to keep unparked.
        core_frequencies: ``core_id -> GHz`` for the *active* physical
            cores; inactive cores are implicitly at the minimum P-state.
        uncore_ghz: pinned uncore frequency.
    """

    socket_id: int
    active_threads: frozenset[int]
    core_frequencies: tuple[tuple[int, float], ...]
    uncore_ghz: float

    @staticmethod
    def build(
        socket_id: int,
        active_threads: frozenset[int] | set[int],
        core_frequencies: Mapping[int, float],
        uncore_ghz: float,
    ) -> "Configuration":
        """Normalize inputs into a hashable configuration."""
        return Configuration(
            socket_id=socket_id,
            active_threads=frozenset(active_threads),
            core_frequencies=tuple(sorted(core_frequencies.items())),
            uncore_ghz=uncore_ghz,
        )

    @staticmethod
    def idle(socket_id: int, uncore_ghz: float) -> "Configuration":
        """The idle configuration: every thread parked."""
        return Configuration(
            socket_id=socket_id,
            active_threads=frozenset(),
            core_frequencies=(),
            uncore_ghz=uncore_ghz,
        )

    # -- derived facts ------------------------------------------------------

    @property
    def is_idle(self) -> bool:
        """True when no hardware thread is active."""
        return not self.active_threads

    @property
    def thread_count(self) -> int:
        """Number of active hardware threads."""
        return len(self.active_threads)

    @property
    def core_count(self) -> int:
        """Number of active physical cores."""
        return len(self.core_frequencies)

    @property
    def average_core_ghz(self) -> float:
        """Mean frequency of the active cores (0.0 when idle)."""
        if not self.core_frequencies:
            return 0.0
        return sum(f for _, f in self.core_frequencies) / len(self.core_frequencies)

    def frequency_of_core(self, core_id: int) -> float | None:
        """Frequency of one active core, or None if the core is inactive."""
        for cid, freq in self.core_frequencies:
            if cid == core_id:
                return freq
        return None

    # -- application ----------------------------------------------------------

    def validate_against(self, machine: Machine) -> None:
        """Check the configuration is applicable to ``machine``.

        Raises:
            ConfigurationError: on foreign threads, unknown cores, invalid
                P-states, or threads on cores without a frequency.
        """
        self.validate(SocketRules.of(machine, self.socket_id))

    def validate(self, rules: "SocketRules") -> None:
        """Check the configuration against its socket's rules.

        Raises:
            ConfigurationError: on another socket's rules, foreign
                threads, unknown cores, invalid P-states, or threads on
                cores without a frequency.
        """
        if rules.socket_id != self.socket_id:
            raise ConfigurationError(
                f"configuration of socket {self.socket_id} checked against "
                f"socket {rules.socket_id}"
            )
        core_of = rules.core_of_thread
        if not core_of.keys() >= self.active_threads:
            foreign = sorted(t for t in self.active_threads if t not in core_of)
            raise ConfigurationError(
                f"threads {foreign} not on socket {self.socket_id}"
            )
        rules.uncore_ladder.validate(self.uncore_ghz)
        freq_map = dict(self.core_frequencies)
        for core_id in freq_map:
            if not 0 <= core_id < rules.core_count:
                raise ConfigurationError(
                    f"unknown core {core_id} on socket {self.socket_id}"
                )
        for freq in set(freq_map.values()):
            rules.core_ladder.validate(freq)
        for tid in self.active_threads:
            if core_of[tid] not in freq_map:
                raise ConfigurationError(
                    f"thread {tid} active but core {core_of[tid]} has no frequency"
                )

    def apply(self, machine: Machine) -> None:
        """Drive ``machine``'s knobs into this configuration.

        Parks/unparks threads, sets active cores to their frequencies and
        inactive cores to the minimum P-state, and pins the uncore clock.
        The configuration is validated before its first apply on each
        machine; an invalid one raises on every apply and changes nothing.

        Raises:
            ConfigurationError: as :meth:`validate`.
        """
        requests = machine.validated_configurations.get(self)
        if requests is None:
            requests = self._core_requests(machine)
            machine.validated_configurations[self] = requests
        machine.apply_socket_threads(self.socket_id, self.active_threads)
        machine.frequency.set_socket_core_frequencies(
            self.socket_id, requests, machine.time_s
        )
        machine.frequency.set_uncore_frequency(self.socket_id, self.uncore_ghz)

    def _core_requests(self, machine: Machine) -> dict[int, float]:
        """Validate against ``machine`` and expand into the request of
        every core of the socket: active cores at their frequencies,
        inactive cores at the minimum P-state.

        Both depend only on (self, machine topology and ladders), all
        immutable, so :meth:`apply` derives them once per machine and
        keeps them in ``machine.validated_configurations``; the RTI duty
        cycle re-applies the same two configurations every period.
        """
        self.validate_against(machine)
        freq_map = dict(self.core_frequencies)
        minimum = machine.frequency.core_ladder_for(self.socket_id).minimum
        return {
            core.core_id: freq_map.get(core.core_id, minimum)
            for core in machine.topology.socket(self.socket_id).cores
        }

    def describe(self) -> str:
        """Short human-readable form, e.g. ``"8t@2.1GHz/u1.2GHz"``."""
        if self.is_idle:
            return "idle"
        return (
            f"{self.thread_count}t@{self.average_core_ghz:.1f}GHz/"
            f"u{self.uncore_ghz:.1f}GHz"
        )


@dataclass(frozen=True)
class SocketRules:
    """What every configuration of one socket is validated against.

    Built once per socket with :meth:`of`, so validating a whole profile
    looks the socket's threads and clock ladders up once, not once per
    configuration.

    Attributes:
        socket_id: the socket.
        core_of_thread: socket-local core id of each of the socket's own
            hardware threads, keyed by global thread id.
        core_count: physical cores on the socket.
        core_ladder: the socket's core P-states.
        uncore_ladder: the socket's uncore P-states.
    """

    socket_id: int
    core_of_thread: Mapping[int, int]
    core_count: int
    core_ladder: FrequencyLadder
    uncore_ladder: FrequencyLadder

    @staticmethod
    def of(machine: Machine, socket_id: int) -> "SocketRules":
        """The rules of one socket of ``machine``."""
        socket = machine.topology.socket(socket_id)
        return SocketRules(
            socket_id=socket_id,
            core_of_thread={
                thread.global_id: core.core_id
                for core in socket.cores
                for thread in core.threads
            },
            core_count=socket.core_count,
            core_ladder=machine.frequency.core_ladder_for(socket_id),
            uncore_ladder=machine.frequency.uncore_ladder_for(socket_id),
        )


@dataclass(frozen=True)
class ConfigurationMeasurement:
    """Power and performance of one configuration under one workload.

    Attributes:
        power_w: socket power (RAPL package + DRAM domains).
        performance_score: instructions retired per second on the socket.
        measured_at_s: simulation time of the measurement.
    """

    power_w: float
    performance_score: float
    measured_at_s: float

    def __post_init__(self) -> None:
        if self.power_w <= 0:
            raise ConfigurationError(f"power must be > 0, got {self.power_w}")
        if self.performance_score < 0:
            raise ConfigurationError(
                f"performance score must be >= 0, got {self.performance_score}"
            )

    @property
    def energy_efficiency(self) -> float:
        """Performance per watt (the paper's efficiency metric, W⁻¹)."""
        return self.performance_score / self.power_w

    def blended_with(
        self, other: "ConfigurationMeasurement", weight: float
    ) -> "ConfigurationMeasurement":
        """EWMA-style blend used by online profile adaptation."""
        if not 0.0 <= weight <= 1.0:
            raise ConfigurationError(f"blend weight must be in [0,1], got {weight}")
        return ConfigurationMeasurement(
            power_w=self.power_w * (1 - weight) + other.power_w * weight,
            performance_score=self.performance_score * (1 - weight)
            + other.performance_score * weight,
            measured_at_s=max(self.measured_at_s, other.measured_at_s),
        )
