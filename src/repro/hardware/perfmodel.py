"""Performance model: instructions retired for a configuration + workload.

The ECL observes performance exclusively through *instructions retired*
(paper §4.1), so this model maps

``(active cores with frequencies, uncore frequency) × workload``

to a socket's instruction throughput capacity, memory traffic, and the
resulting per-core pipeline activity.  Four mechanisms shape the energy
profiles of §4.2:

1. **Compute throughput** — each core retires ``f / cpi_eff`` instructions
   per second; an active HyperThread sibling multiplies core throughput by
   the workload's SMT speedup (≈1.3 for compute, ≈1.0 when a shared
   resource is already saturated).
2. **Memory-latency stalls** — ``cpi_eff`` includes
   ``miss_rate × latency_cycles`` where the DRAM latency has an
   uncore-clock-dependent component (LLC/ring/memory controller).  This
   makes IPC saturate in the core clock for latency-bound (indexed)
   workloads — the paper's "medium frequencies win" effect.
3. **Bandwidth cap** — aggregate traffic is limited by the uncore-governed
   socket bandwidth (Fig. 6); excess demand stalls all cores
   proportionally, which is why high core clocks are wasted on scans
   (Fig. 10(a)).
4. **Cache-line contention** — workloads with a contended atomic section
   are capped by the serial hand-off rate of the hot cache line.  When all
   contending threads share one physical core the hand-off stays core-local
   (uncore-independent and fast); once multiple cores contend, each
   hand-off crosses the LLC at uncore speed and queues behind the other
   contenders.  This reproduces Fig. 10(b): two HyperThreads of one core at
   turbo beat 48 threads by ~3× while the uncore can sit at its minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import ConfigurationError
from repro.hardware.presets import HaswellEPParameters
from repro.hardware.topology import Topology
from repro.units import GHZ, require_fraction, require_non_negative, require_positive


@dataclass(frozen=True)
class WorkloadCharacteristics:
    """Low-level execution characteristics of a workload.

    These are the only facts the hardware model needs about a workload;
    the concrete benchmarks in :mod:`repro.workloads` derive them from
    their operator mixes.

    Attributes:
        name: human-readable identifier.
        base_cpi: cycles per instruction with all memory hits in-core.
        ht_speedup: core throughput with two active siblings relative to
            one (1.0 = SMT useless, 2.0 = perfect scaling).
        bytes_per_instr: DRAM traffic generated per retired instruction.
        miss_rate: long-latency (DRAM) accesses per instruction.
        atomic_ops_per_instr: contended critical-section entries per
            instruction (0 = uncontended).
        atomic_local_ns: hand-off latency of the contended cache line when
            every contender shares one physical core.
        contention_queue_factor: growth of the cross-core hand-off latency
            per extra contending core.  High for tight atomic loops (the
            line is always in flight, arbitration queues), low for
            workloads that only touch the hot line occasionally.
    """

    name: str
    base_cpi: float
    ht_speedup: float = 1.3
    bytes_per_instr: float = 0.0
    miss_rate: float = 0.0
    atomic_ops_per_instr: float = 0.0
    atomic_local_ns: float = 20.0
    contention_queue_factor: float = 0.1
    #: Transaction-oriented systems spin on latches: waiting threads keep
    #: *retiring* instructions without making progress, so the hardware
    #: instruction counters overreport useful throughput (the paper's
    #: §5.3 caveat about applying the ECL to such architectures).
    spinlock_retirement: bool = False

    def __post_init__(self) -> None:
        require_positive(self.base_cpi, "base_cpi")
        if not 1.0 <= self.ht_speedup <= 2.0:
            raise ConfigurationError(
                f"ht_speedup must lie in [1, 2], got {self.ht_speedup}"
            )
        require_non_negative(self.bytes_per_instr, "bytes_per_instr")
        require_non_negative(self.miss_rate, "miss_rate")
        require_non_negative(self.atomic_ops_per_instr, "atomic_ops_per_instr")
        require_positive(self.atomic_local_ns, "atomic_local_ns")
        require_non_negative(self.contention_queue_factor, "contention_queue_factor")

    def blended_with(
        self, other: "WorkloadCharacteristics", other_weight: float
    ) -> "WorkloadCharacteristics":
        """Instruction-weighted blend of two workloads.

        Used when a socket concurrently serves heterogeneous partitions;
        the profile then reflects the interference mix, matching the
        paper's requirement that profiles "take query interferences into
        account".
        """
        w = require_fraction(other_weight, "other_weight")
        if w == 0.0:
            return self
        if w == 1.0:
            return other

        def mix(a: float, b: float) -> float:
            return a * (1.0 - w) + b * w

        return WorkloadCharacteristics(
            name=f"{self.name}+{other.name}",
            base_cpi=mix(self.base_cpi, other.base_cpi),
            ht_speedup=mix(self.ht_speedup, other.ht_speedup),
            bytes_per_instr=mix(self.bytes_per_instr, other.bytes_per_instr),
            miss_rate=mix(self.miss_rate, other.miss_rate),
            atomic_ops_per_instr=mix(
                self.atomic_ops_per_instr, other.atomic_ops_per_instr
            ),
            atomic_local_ns=mix(self.atomic_local_ns, other.atomic_local_ns),
            contention_queue_factor=mix(
                self.contention_queue_factor, other.contention_queue_factor
            ),
            spinlock_retirement=self.spinlock_retirement
            or other.spinlock_retirement,
        )

    def scaled_intensity(self, factor: float) -> "WorkloadCharacteristics":
        """Return a variant with memory traffic scaled by ``factor``."""
        require_non_negative(factor, "factor")
        return replace(
            self,
            name=self.name,
            bytes_per_instr=self.bytes_per_instr * factor,
            miss_rate=self.miss_rate * factor,
        )


@dataclass(frozen=True)
class ActiveCore:
    """One active physical core as seen by the performance model."""

    socket_id: int
    core_id: int
    frequency_ghz: float
    sibling_count: int

    def __post_init__(self) -> None:
        require_positive(self.frequency_ghz, "frequency_ghz")
        if self.sibling_count < 1:
            raise ConfigurationError(
                f"active core needs >= 1 sibling, got {self.sibling_count}"
            )


@dataclass(frozen=True)
class SocketLoad:
    """Demand placed on one socket during a simulation step.

    ``demand_instructions_per_s = None`` means unbounded demand (the
    saturation case used when evaluating profile configurations).
    """

    characteristics: WorkloadCharacteristics
    demand_instructions_per_s: float | None = None


@dataclass(frozen=True)
class SocketPerformance:
    """Resolved performance of one socket for a step.

    Attributes:
        capacity_ips: instruction throughput if demand were unbounded.
        executed_ips: throughput actually delivered given the demand.
        traffic_gbs: DRAM traffic at the executed throughput.
        utilization: executed / capacity (1.0 when saturated).
        bandwidth_limited: whether the bandwidth cap was binding.
        contention_limited: whether the atomic hand-off cap was binding.
    """

    capacity_ips: float
    executed_ips: float
    traffic_gbs: float
    utilization: float
    bandwidth_limited: bool
    contention_limited: bool
    #: Instructions the hardware counters *see* retiring.  Equal to
    #: ``executed_ips`` for data-oriented execution; inflated by spinning
    #: threads under contention when the workload has
    #: ``spinlock_retirement`` (transaction-oriented latching).
    retired_ips: float = 0.0


class PerformanceModel:
    """Maps (configuration, workload) to socket instruction throughput."""

    #: Share of the cross-core hand-off latency that scales with the
    #: inverse uncore clock (the LLC/ring traversal).
    CONTENTION_UNCORE_FRACTION = 0.5

    def __init__(
        self,
        topology: Topology,
        params: HaswellEPParameters,
        socket_params: "tuple[HaswellEPParameters, ...] | None" = None,
    ):
        self._topology = topology
        self._params = params
        #: Per-socket parameter sets (the owning node's, on clusters).
        #: Single-node machines repeat the one ``params`` object.
        if socket_params is None:
            socket_params = tuple(params for _ in topology.sockets)
        self._socket_params = socket_params

    def params_for(self, socket_id: int) -> HaswellEPParameters:
        """The parameter set governing one socket."""
        return self._socket_params[socket_id]

    # -- memory system ----------------------------------------------------------

    def bandwidth_gbs(
        self,
        uncore_ghz: float,
        params: HaswellEPParameters | None = None,
    ) -> float:
        """Socket memory bandwidth as a function of the uncore clock.

        Linear between ``min_uncore_bandwidth_fraction × peak`` at the
        lowest and the full peak at the highest uncore step (Fig. 6).
        """
        p = params if params is not None else self._params
        span = p.uncore_max_ghz - p.uncore_min_ghz
        t = 0.0 if span <= 0 else (uncore_ghz - p.uncore_min_ghz) / span
        t = min(max(t, 0.0), 1.0)
        frac = p.min_uncore_bandwidth_fraction + t * (
            1.0 - p.min_uncore_bandwidth_fraction
        )
        return p.peak_bandwidth_gbs * frac

    def memory_latency_ns(
        self,
        uncore_ghz: float,
        params: HaswellEPParameters | None = None,
    ) -> float:
        """Average DRAM access latency; stretches as the uncore slows."""
        p = params if params is not None else self._params
        w = p.mem_latency_uncore_fraction
        scale = (1.0 - w) + w * (p.uncore_max_ghz / uncore_ghz)
        return p.mem_latency_ns * scale

    # -- core throughput ----------------------------------------------------------

    def core_throughput_ips(
        self,
        core: ActiveCore,
        uncore_ghz: float,
        chars: WorkloadCharacteristics,
        params: HaswellEPParameters | None = None,
    ) -> float:
        """Instruction throughput of one core, before socket-level caps."""
        latency_cycles = chars.miss_rate * (
            self.memory_latency_ns(uncore_ghz, params) * core.frequency_ghz
        )
        cpi_eff = chars.base_cpi + latency_cycles
        single = core.frequency_ghz * GHZ / cpi_eff
        if core.sibling_count >= 2:
            return single * chars.ht_speedup
        return single

    # -- contention ----------------------------------------------------------------

    def atomic_handoff_ns(
        self,
        contending_cores: int,
        uncore_ghz: float,
        chars: WorkloadCharacteristics,
        core_ghz: float | None = None,
        params: HaswellEPParameters | None = None,
    ) -> float:
        """Serial hand-off latency of the contended cache line.

        One core (any number of its siblings): the line never leaves the
        core's private caches, so the hand-off runs at core speed —
        ``atomic_local_ns`` is quoted at the nominal clock and shrinks
        with a faster core (this is why turbo wins in Fig. 10(b)).
        Multiple cores: every hand-off crosses the LLC at uncore speed and
        queues behind the other contenders.
        """
        p = params if params is not None else self._params
        if contending_cores <= 1:
            freq = core_ghz if core_ghz is not None else p.core_nominal_ghz
            return chars.atomic_local_ns * (p.core_nominal_ghz / freq)
        w = self.CONTENTION_UNCORE_FRACTION
        uncore_scale = (1.0 - w) + w * (p.uncore_max_ghz / uncore_ghz)
        queue = 1.0 + chars.contention_queue_factor * (contending_cores - 1)
        return p.cacheline_transfer_ns * uncore_scale * queue

    def contention_cap_ips(
        self,
        contending_cores: int,
        uncore_ghz: float,
        chars: WorkloadCharacteristics,
        core_ghz: float | None = None,
        params: HaswellEPParameters | None = None,
    ) -> float:
        """Socket instruction-throughput cap due to the atomic section."""
        if chars.atomic_ops_per_instr <= 0:
            return float("inf")
        handoff_s = (
            self.atomic_handoff_ns(
                contending_cores, uncore_ghz, chars, core_ghz, params
            )
            * 1e-9
        )
        ops_per_s = 1.0 / handoff_s
        return ops_per_s / chars.atomic_ops_per_instr

    # -- socket resolution ------------------------------------------------------------

    def socket_capacity(
        self,
        active_cores: Sequence[ActiveCore],
        uncore_ghz: float,
        chars: WorkloadCharacteristics,
    ) -> SocketPerformance:
        """Throughput capacity of a socket under unbounded demand."""
        return self.resolve(
            active_cores, uncore_ghz, SocketLoad(characteristics=chars)
        )

    def resolve(
        self,
        active_cores: Sequence[ActiveCore],
        uncore_ghz: float,
        load: SocketLoad,
    ) -> SocketPerformance:
        """Resolve the executed throughput of a socket for one step."""
        chars = load.characteristics
        if not active_cores:
            return SocketPerformance(
                capacity_ips=0.0,
                executed_ips=0.0,
                traffic_gbs=0.0,
                utilization=0.0,
                bandwidth_limited=False,
                contention_limited=False,
                retired_ips=0.0,
            )

        p = self._socket_params[active_cores[0].socket_id]
        parallel = sum(
            self.core_throughput_ips(core, uncore_ghz, chars, p)
            for core in active_cores
        )

        bandwidth_limited = False
        capacity = parallel
        if chars.bytes_per_instr > 0:
            bandwidth = self.bandwidth_gbs(uncore_ghz, p) * 1e9
            demand = parallel * chars.bytes_per_instr
            if demand > bandwidth:
                # Memory-controller thrashing: over-subscription degrades
                # the *delivered* bandwidth (queueing, row-buffer misses)
                # once more request streams than physical cores pile on —
                # the reason the all-threads baseline is slower than the
                # ECL's lean configuration on scans (section 6.1).
                ratio = demand / bandwidth
                streams = sum(c.sibling_count for c in active_cores)
                excess = max(0, streams - p.cores_per_socket) / p.cores_per_socket
                efficiency = max(
                    p.bandwidth_contention_floor,
                    1.0
                    / (
                        1.0
                        + p.bandwidth_contention_penalty
                        * excess
                        * (ratio - 1.0)
                    ),
                )
                capacity = bandwidth * efficiency / chars.bytes_per_instr
                bandwidth_limited = True

        contention_limited = False
        mean_core_ghz = sum(c.frequency_ghz for c in active_cores) / len(
            active_cores
        )
        contention_cap = self.contention_cap_ips(
            len(active_cores), uncore_ghz, chars, mean_core_ghz, p
        )
        if contention_cap < capacity:
            capacity = contention_cap
            contention_limited = True

        demand = load.demand_instructions_per_s
        executed = capacity if demand is None else min(demand, capacity)
        utilization = 0.0 if capacity <= 0 else executed / capacity
        traffic = executed * chars.bytes_per_instr / 1e9
        retired = executed
        if (
            chars.spinlock_retirement
            and contention_limited
            and executed >= capacity * (1.0 - 1e-9)
        ):
            # Threads blocked on the contended latch spin at full IPC:
            # the counters retire the *parallel* rate, not the useful one.
            retired = max(executed, parallel)
        return SocketPerformance(
            capacity_ips=capacity,
            executed_ips=executed,
            traffic_gbs=traffic,
            utilization=utilization,
            bandwidth_limited=bandwidth_limited,
            contention_limited=contention_limited,
            retired_ips=retired,
        )

    def core_activity(
        self,
        core: ActiveCore,
        uncore_ghz: float,
        chars: WorkloadCharacteristics,
        socket_scale: float,
        params: HaswellEPParameters | None = None,
    ) -> float:
        """Pipeline activity of a core for the power model.

        ``socket_scale`` is executed/parallel throughput of the socket —
        cores stalled by the bandwidth or contention cap (or lacking
        demand) switch less and therefore draw less dynamic power.
        Memory-latency stalls additionally reduce activity.
        """
        latency_cycles = chars.miss_rate * (
            self.memory_latency_ns(uncore_ghz, params) * core.frequency_ghz
        )
        compute_share = chars.base_cpi / (chars.base_cpi + latency_cycles)
        return require_fraction(
            min(1.0, max(0.0, socket_scale)) * compute_share, "activity"
        )

    def parallel_throughput_ips(
        self,
        active_cores: Sequence[ActiveCore],
        uncore_ghz: float,
        chars: WorkloadCharacteristics,
        params: HaswellEPParameters | None = None,
    ) -> float:
        """Uncapped sum of per-core throughputs (helper for activity)."""
        return sum(
            self.core_throughput_ips(core, uncore_ghz, chars, params)
            for core in active_cores
        )


def blend_characteristics(
    parts: Sequence[tuple[WorkloadCharacteristics, float]],
) -> WorkloadCharacteristics:
    """Blend several workloads by instruction weight.

    Args:
        parts: (characteristics, weight) pairs; weights need not sum to 1.

    Raises:
        ConfigurationError: if ``parts`` is empty or weights sum to 0.
    """
    if not parts:
        raise ConfigurationError("cannot blend an empty workload list")
    total = sum(weight for _, weight in parts)
    if total <= 0:
        raise ConfigurationError("blend weights must sum to > 0")
    result: WorkloadCharacteristics | None = None
    accumulated = 0.0
    for chars, weight in parts:
        if weight < 0:
            raise ConfigurationError(f"negative blend weight {weight}")
        if weight == 0:
            continue
        if result is None:
            result = chars
            accumulated = weight
        else:
            share = weight / (accumulated + weight)
            result = result.blended_with(chars, share)
            accumulated += weight
    assert result is not None  # guarded by the total > 0 check
    return result
