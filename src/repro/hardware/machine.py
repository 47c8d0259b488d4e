"""The :class:`Machine` facade — the simulated server as one object.

A ``Machine`` owns the topology, clock domains, C-state tracker, power and
performance models, and the RAPL / instruction counters.  Everything the
DBMS runtime and the ECL do to "hardware" goes through this facade:

* the DBMS reports per-socket demand via :meth:`Machine.set_socket_load`,
* the ECL applies hardware configurations via the frequency / C-state
  setters (or :meth:`repro.profiles.configuration.Configuration.apply`),
* the simulation advances via :meth:`Machine.step`, which resolves the
  performance model, burns energy into the RAPL counters, and retires
  instructions into the performance counters.

The machine is deterministic for a fixed seed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec, NodePowerState
from repro.hardware.counters import (
    CounterReading,
    InstructionCounter,
    InstructionCounterBank,
)
from repro.hardware.cstates import CState, CStateModel
from repro.hardware.frequency import EnergyPerformanceBias, FrequencyDomains
from repro.hardware.perfmodel import (
    ActiveCore,
    PerformanceModel,
    SocketLoad,
    SocketPerformance,
    WorkloadCharacteristics,
)
from repro.hardware.power import CorePowerState, PowerBreakdown, PowerModel
from repro.hardware.presets import HaswellEPParameters, haswell_ep_two_socket
from repro.hardware.rapl import (
    RaplCounter,
    RaplCounterBank,
    RaplDomain,
    RaplReading,
)
from repro.hardware.topology import Topology

#: Placeholder characteristics for a socket with no assigned workload.
IDLE_CHARACTERISTICS = WorkloadCharacteristics(name="idle", base_cpi=1.0)

#: Resolution of a socket whose node is powered off or booting: no cores,
#: no work, no traffic.  Identical to the empty-``active_cores`` result of
#: :meth:`PerformanceModel.resolve`.
_DARK_PERFORMANCE = SocketPerformance(
    capacity_ips=0.0,
    executed_ips=0.0,
    traffic_gbs=0.0,
    utilization=0.0,
    bandwidth_limited=False,
    contention_limited=False,
    retired_ips=0.0,
)


@dataclass(frozen=True)
class SocketStepResult:
    """Outcome of one simulation step for a single socket."""

    performance: SocketPerformance
    power: PowerBreakdown
    executed_instructions: float
    uncore_ghz: float
    uncore_halted: bool


@dataclass(frozen=True)
class StepResult:
    """Outcome of one :meth:`Machine.step` call."""

    time_s: float
    dt_s: float
    sockets: Mapping[int, SocketStepResult]
    psu_power_w: float

    @property
    def rapl_power_w(self) -> float:
        """Total power visible to RAPL across all sockets."""
        return sum(s.power.socket_total_w for s in self.sockets.values())


@dataclass(frozen=True)
class MachineState:
    """Introspection snapshot of the machine's control state."""

    time_s: float
    active_threads: frozenset[int]
    core_frequencies_ghz: Mapping[tuple[int, int], float]
    uncore_frequencies_ghz: Mapping[int, float]
    uncore_halted: Mapping[int, bool]


class Machine:
    """Simulated NUMA server — or an N-node fleet of them.

    Without ``cluster`` this is the paper's single 2-socket box,
    bit-for-bit.  With a :class:`~repro.hardware.cluster.ClusterSpec`
    every node's sockets are concatenated onto one flat (node, socket)
    axis — global socket ids are node-major — so stepping an N-node
    fleet runs the very same per-socket loop as the 2-socket machine.
    Per-socket parameter sets make mixed wimpy/brawny fleets possible,
    and whole nodes can be powered off (residual wall draw) and on again
    (boot latency + boot power) via :meth:`power_off_node` /
    :meth:`power_on_node`.
    """

    def __init__(
        self,
        params: HaswellEPParameters | None = None,
        seed: int = 0,
        step_cache_size: int = 1024,
        cluster: ClusterSpec | None = None,
    ):
        self.cluster = cluster
        if cluster is None:
            self.params = params if params is not None else haswell_ep_two_socket()
            self.topology = Topology.build(
                self.params.socket_count,
                self.params.cores_per_socket,
                self.params.threads_per_core,
            )
            self._socket_params = tuple(
                self.params for _ in self.topology.sockets
            )
            self._socket_node = (0,) * len(self.topology.sockets)
            self._node_sockets = (
                tuple(s.socket_id for s in self.topology.sockets),
            )
            self.frequency = FrequencyDomains(self.topology, self.params)
            self.cstates = CStateModel(self.topology, self.params)
            self.power_model = PowerModel(self.topology, self.params)
            self.perf_model = PerformanceModel(self.topology, self.params)
        else:
            if params is not None:
                raise ConfigurationError(
                    "pass either params or cluster to Machine, not both"
                )
            self.params = cluster.nodes[0].params
            self.topology = Topology.build(
                cluster.total_sockets,
                cluster.cores_per_socket(),
                cluster.nodes[0].params.threads_per_core,
            )
            self._socket_params = cluster.socket_params()
            self._socket_node = cluster.socket_node_map()
            self._node_sockets = cluster.node_socket_ids()
            self.frequency = FrequencyDomains(
                self.topology, self.params, self._socket_params
            )
            self.cstates = CStateModel(
                self.topology, self.params, self._socket_node
            )
            self.power_model = PowerModel(
                self.topology,
                self.params,
                self._socket_params,
                self._socket_node,
            )
            self.perf_model = PerformanceModel(
                self.topology, self.params, self._socket_params
            )

        #: Node power states: every node starts ON.  ``cluster=None``
        #: machines are one always-ON node and never transition.
        self._node_state: list[NodePowerState] = [
            NodePowerState.ON for _ in self._node_sockets
        ]
        self._node_boot_until: list[float] = [
            float("-inf") for _ in self._node_sockets
        ]
        #: BOOTING nodes and their deadlines — the O(1) index behind
        #: :meth:`settle_node_power` / :meth:`next_internal_event_s`.
        self._booting: dict[int, float] = {}
        #: Monotonic counter bumped on every node power transition
        #: (telemetry watches it the way it watches frequency versions).
        self.node_power_version = 0
        #: Per-socket power breakdowns while the owning node is OFF or
        #: BOOTING: the node-level residual/boot wattage split evenly
        #: over the node's sockets and charged as RAPL *package* power.
        self._dark_power: dict[tuple[int, NodePowerState], PowerBreakdown] = {}
        if cluster is not None:
            for node_index, node in enumerate(cluster.nodes):
                count = len(self._node_sockets[node_index])
                for state, watts in (
                    (NodePowerState.OFF, node.off_residual_w),
                    (NodePowerState.BOOTING, node.boot_power_w),
                ):
                    share = watts / count
                    for sid in self._node_sockets[node_index]:
                        self._dark_power[(sid, state)] = PowerBreakdown(
                            cores_w=0.0,
                            uncore_w=0.0,
                            package_w=share,
                            dram_w=0.0,
                        )

        #: Node-major struct-of-arrays buffers: every per-socket scalar
        #: the hot step path folds — counter state, per-tick powers,
        #: thermal credit — lives at index ``socket_id`` of a numpy
        #: array (global socket ids are node-major), so a fleet tick is
        #: one vectorized pass over the socket axis instead of N
        #: per-socket Python loops.
        socket_count = len(self.topology.sockets)
        self._socket_count = socket_count
        self._socket_ids = tuple(s.socket_id for s in self.topology.sockets)
        params_by_sid = [self._socket_params[sid] for sid in self._socket_ids]
        self._tdp_w_arr = np.array([p.tdp_w for p in params_by_sid])
        self._budget_arr = np.array(
            [p.thermal_budget_s for p in params_by_sid]
        )
        self._half_budget_arr = 0.5 * self._budget_arr
        self._recovery_arr = np.array(
            [p.thermal_recovery_rate for p in params_by_sid]
        )

        rng = np.random.default_rng(seed)
        self._instr_bank = InstructionCounterBank(socket_count)
        #: RAPL bank slot layout: ``2 * socket_id + domain`` with the
        #: :class:`RaplDomain` enum order (PACKAGE even, DRAM odd).
        self._rapl_bank = RaplCounterBank(
            np.array(
                [
                    p.rapl_update_period_s
                    for p in params_by_sid
                    for _ in RaplDomain
                ]
            )
        )
        self._rapl: dict[tuple[int, RaplDomain], RaplCounter] = {}
        self._instructions: dict[int, InstructionCounter] = {}
        for sock in self.topology.sockets:
            sid = sock.socket_id
            for index, domain in enumerate(RaplDomain):
                child = np.random.default_rng(rng.integers(0, 2**63))
                self._rapl[(sid, domain)] = self._rapl_bank.view(
                    2 * sid + index, self._socket_params[sid], domain, child
                )
            self._instructions[sid] = self._instr_bank.view(sid)

        self._loads: dict[int, SocketLoad] = {
            sock.socket_id: SocketLoad(
                characteristics=IDLE_CHARACTERISTICS, demand_instructions_per_s=0.0
            )
            for sock in self.topology.sockets
        }
        self._time_s = 0.0
        self._last_step: StepResult | None = None
        #: Remaining above-TDP headroom per socket (thermal throttling).
        self._thermal_credit = np.array(
            [p.thermal_budget_s for p in params_by_sid]
        )
        self._throttled = np.zeros(socket_count, dtype=bool)

        #: Per-tick scratch buffers.  ``_buf_rapl_w`` mirrors the RAPL
        #: bank layout (package even, DRAM odd); after every step they
        #: hold exactly the powers/rates of :attr:`last_step` (dark
        #: slots are pre-filled by :meth:`_refresh_dark` and only
        #: rewritten on node power transitions).
        self._buf_retired = np.zeros(socket_count)
        self._buf_rapl_w = np.zeros(2 * socket_count)
        self._total_w: list[float] = [0.0] * socket_count
        self._results: list[SocketStepResult | None] = [None] * socket_count
        #: Per-socket memo of the last built :class:`SocketStepResult`,
        #: keyed by the identity of the cached (performance, power)
        #: resolution — steady states rebuild no result objects.
        self._sres_memo: list[tuple | None] = [None] * socket_count
        #: One-slot per-socket fast path over :meth:`_resolve_socket`:
        #: the last resolution together with the monotonic version
        #: counters it was taken under.  Versions are strictly monotone,
        #: so equality implies the content fingerprints are unchanged —
        #: a hit skips fingerprinting and LRU hashing entirely and
        #: returns the very same (performance, power) objects the LRU
        #: would.  Disabled with the LRU by ``step_cache_size``.
        self._resolve_fast: list[tuple | None] = [None] * socket_count
        #: Thermal fast path: True when the last thermal update was a
        #: fixpoint (credit and throttle flags reproduced themselves), so
        #: replaying it under the same dt and unchanged powers is a
        #: provable no-op the step can skip.
        self._thermal_settled = False
        self._thermal_settled_dt = 0.0
        #: Node-power version observed by the last step; a transition
        #: rewrites dark buffer slots, so the step after it must rebuild
        #: its result set even if every live resolution is memo-stable.
        self._last_npv = -1
        self._dark_results: dict[
            tuple[int, NodePowerState], SocketStepResult
        ] = {}
        self._dark_mask = np.zeros(socket_count, dtype=bool)
        self._live_sids: tuple[int, ...] = self._socket_ids
        self._refresh_dark()

        #: Step-resolution memoization (see :meth:`_resolve_socket`).  The
        #: inputs of a socket's per-step resolution are piecewise-constant
        #: — the ECL holds one configuration between decision intervals —
        #: so the (configuration, workload, demand) → (performance, power)
        #: mapping is cached in one LRU dictionary.  ``step_cache_size <= 0``
        #: disables memoization entirely (the exact uncached path).
        self._step_cache_size = step_cache_size
        self._step_cache: OrderedDict = OrderedDict()
        #: Hit/miss counters for tests and performance introspection.
        #: ``capacity_hits`` always reads 0; the key stays because the
        #: perfbench tracer reports it.
        self.step_cache_stats: dict[str, int] = {
            "full_hits": 0,
            "capacity_hits": 0,
            "misses": 0,
            "fast_hits": 0,
        }
        #: Configurations already validated against this machine
        #: (immutable value objects, so a one-time check suffices; the
        #: RTI duty cycle re-applies the same two configurations every
        #: period).
        self.validated_configurations: set = set()

    # -- cluster axis ---------------------------------------------------------

    def params_for(self, socket_id: int) -> HaswellEPParameters:
        """The parameter set governing one socket (its node's, on clusters)."""
        return self._socket_params[socket_id]

    @property
    def node_count(self) -> int:
        """Number of nodes (1 for the classic single-server machine)."""
        return len(self._node_sockets)

    def node_of_socket(self, socket_id: int) -> int:
        """Node index owning a global socket id."""
        return self._socket_node[socket_id]

    def node_sockets(self, node: int) -> tuple[int, ...]:
        """Global socket ids of one node."""
        return tuple(self._node_sockets[node])

    def node_power_state(self, node: int) -> NodePowerState:
        """Current power state of one node."""
        return self._node_state[node]

    def node_is_dark(self, socket_id: int) -> bool:
        """Whether a socket's node is OFF or BOOTING (not serving work)."""
        return self._node_state[self._socket_node[socket_id]] is not (
            NodePowerState.ON
        )

    def power_off_node(self, node: int) -> None:
        """Power a whole node off.

        Requires a cluster machine and a fully drained node: every
        hardware thread of the node parked.  While OFF the node draws
        its :attr:`~repro.hardware.cluster.NodeSpec.off_residual_w` at
        the wall (split over its sockets' RAPL package domains).
        """
        if self.cluster is None:
            raise ConfigurationError(
                "node power control requires a cluster machine"
            )
        if self._node_state[node] is not NodePowerState.ON:
            raise ConfigurationError(
                f"node {node} is {self._node_state[node].value}, not on"
            )
        for sid in self._node_sockets[node]:
            if self.cstates.active_threads_on_socket(sid):
                raise ConfigurationError(
                    f"cannot power off node {node}: socket {sid} still has "
                    f"active threads"
                )
        self._node_state[node] = NodePowerState.OFF
        self.node_power_version += 1
        self._refresh_dark()
        for sid in self._node_sockets[node]:
            self._note_switch(sid)

    def power_on_node(self, node: int) -> None:
        """Begin powering an OFF node back on.

        The node BOOTs for its
        :attr:`~repro.hardware.cluster.NodeSpec.power_up_s` (drawing
        ``boot_power_w``), then transitions to ON at the first step
        boundary past the deadline.
        """
        if self.cluster is None:
            raise ConfigurationError(
                "node power control requires a cluster machine"
            )
        if self._node_state[node] is not NodePowerState.OFF:
            raise ConfigurationError(
                f"node {node} is {self._node_state[node].value}, not off"
            )
        power_up = self.cluster.nodes[node].power_up_s
        if power_up <= 0.0:
            self._node_state[node] = NodePowerState.ON
        else:
            self._node_state[node] = NodePowerState.BOOTING
            self._node_boot_until[node] = self._time_s + power_up
            self._booting[node] = self._node_boot_until[node]
        self.node_power_version += 1
        self._refresh_dark()
        for sid in self._node_sockets[node]:
            self._note_switch(sid)

    def settle_node_power(self) -> None:
        """Flip BOOTING nodes whose deadline has passed to ON.

        Idempotent; :meth:`step` calls it automatically, and controllers
        call it at the top of their control phase so a boot completing on
        the previous tick is visible before decisions are made.  O(1)
        when nothing is booting (the common case on every tick).
        """
        if not self._booting:
            return
        settled = [
            node
            for node, deadline in self._booting.items()
            if self._time_s >= deadline
        ]
        for node in settled:
            del self._booting[node]
            self._node_state[node] = NodePowerState.ON
            self.node_power_version += 1
            for sid in self._node_sockets[node]:
                self._note_switch(sid)
        if settled:
            self._refresh_dark()

    @property
    def booting_node_count(self) -> int:
        """Number of nodes currently BOOTING (O(1))."""
        return len(self._booting)

    def _refresh_dark(self) -> None:
        """Rebuild the dark-socket mask and pre-fill dark buffer slots.

        Called on every node power transition.  Dark sockets (node OFF
        or BOOTING) contribute constants to the step fold — zero work,
        the node-level residual/boot share as package power — so their
        buffer slots and :class:`SocketStepResult` are written once here
        and the per-tick pass only touches live sockets.
        """
        mask = self._dark_mask
        mask[:] = False
        dark: list[int] = []
        for node, state in enumerate(self._node_state):
            if state is not NodePowerState.ON:
                for sid in self._node_sockets[node]:
                    mask[sid] = True
                    dark.append(sid)
        self._live_sids = tuple(
            sid for sid in self._socket_ids if not mask[sid]
        )
        for sid in dark:
            state = self._node_state[self._socket_node[sid]]
            key = (sid, state)
            sres = self._dark_results.get(key)
            if sres is None:
                sres = SocketStepResult(
                    performance=_DARK_PERFORMANCE,
                    power=self._dark_power[key],
                    executed_instructions=0.0,
                    uncore_ghz=0.0,
                    uncore_halted=True,
                )
                self._dark_results[key] = sres
            power = sres.power
            self._results[sid] = sres
            self._buf_retired[sid] = 0.0
            self._buf_rapl_w[2 * sid] = power.package_w
            self._buf_rapl_w[2 * sid + 1] = power.dram_w
            self._total_w[sid] = power.socket_total_w

    # -- time ---------------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Current simulation time."""
        return self._time_s

    @property
    def last_step(self) -> StepResult | None:
        """Result of the most recent :meth:`step` call (None before any)."""
        return self._last_step

    # -- load ---------------------------------------------------------------

    def set_socket_load(self, socket_id: int, load: SocketLoad) -> None:
        """Declare the demand a socket faces until changed again."""
        if socket_id not in self._loads:
            raise ConfigurationError(f"unknown socket id {socket_id}")
        self._loads[socket_id] = load

    def socket_load(self, socket_id: int) -> SocketLoad:
        """The load currently declared for a socket."""
        if socket_id not in self._loads:
            raise ConfigurationError(f"unknown socket id {socket_id}")
        return self._loads[socket_id]

    def set_idle(self, socket_id: int) -> None:
        """Clear a socket's demand."""
        self.set_socket_load(
            socket_id,
            SocketLoad(
                characteristics=IDLE_CHARACTERISTICS, demand_instructions_per_s=0.0
            ),
        )

    # -- configuration shortcuts ------------------------------------------------

    def apply_socket_threads(
        self, socket_id: int, active_thread_ids: frozenset[int] | set[int]
    ) -> None:
        """Set exactly this active-thread set on one socket.

        Threads of other sockets are left untouched.  Notifies the RAPL
        counters that a reconfiguration happened (transient read noise).
        """
        self.cstates.set_socket_threads(socket_id, active_thread_ids)
        self._note_switch(socket_id)

    def set_epb_all(self, bias: EnergyPerformanceBias) -> None:
        """Set the EPB of every hardware thread."""
        self.frequency.set_epb_all(bias)

    def _note_switch(self, socket_id: int) -> None:
        for domain in RaplDomain:
            self._rapl[(socket_id, domain)].note_configuration_switch(self._time_s)

    def note_configuration_switch(self, socket_id: int) -> None:
        """Record an external reconfiguration (frequency changes etc.)."""
        self._note_switch(socket_id)

    # -- counters ---------------------------------------------------------------

    def read_rapl(self, socket_id: int, domain: RaplDomain) -> RaplReading:
        """Read a RAPL counter (published value — lagged, quantized, noisy)."""
        key = (socket_id, domain)
        if key not in self._rapl:
            raise ConfigurationError(f"unknown socket id {socket_id}")
        return self._rapl[key].read()

    def rapl_counter(self, socket_id: int, domain: RaplDomain) -> RaplCounter:
        """Direct access to a RAPL counter object (for windowed helpers)."""
        key = (socket_id, domain)
        if key not in self._rapl:
            raise ConfigurationError(f"unknown socket id {socket_id}")
        return self._rapl[key]

    def read_instructions(self, socket_id: int) -> CounterReading:
        """Read a socket's instructions-retired counter."""
        if socket_id not in self._instructions:
            raise ConfigurationError(f"unknown socket id {socket_id}")
        return self._instructions[socket_id].read()

    def true_socket_energy_j(self, socket_id: int) -> float:
        """Ground-truth package+DRAM energy of a socket (for evaluation)."""
        return (
            self._rapl[(socket_id, RaplDomain.PACKAGE)].true_energy_j
            + self._rapl[(socket_id, RaplDomain.DRAM)].true_energy_j
        )

    def true_total_energy_j(self) -> float:
        """Ground-truth energy across all sockets (RAPL-visible domains)."""
        return sum(
            self.true_socket_energy_j(s.socket_id) for s in self.topology.sockets
        )

    # -- stepping ----------------------------------------------------------------

    def thermally_throttled(self, socket_id: int) -> bool:
        """Whether the socket currently caps turbo at the nominal clock."""
        return bool(self._throttled[socket_id])

    def thermal_credit_s(self, socket_id: int) -> float:
        """Remaining above-TDP operation budget of a socket."""
        return float(self._thermal_credit[socket_id])

    def _active_cores(self, socket_id: int) -> list[ActiveCore]:
        """Active physical cores of a socket with their effective clocks.

        Thermal throttling caps turbo-clocked cores at the nominal
        frequency once the socket's above-TDP budget is exhausted (the
        paper's 500 W turbo peak "can only endure for about 1 s").
        """
        cores = []
        socket = self.topology.socket(socket_id)
        active = set(self.cstates.active_threads_on_socket(socket_id))
        nominal = self._socket_params[socket_id].core_nominal_ghz
        for core in socket.cores:
            siblings = [tid for tid in core.thread_ids() if tid in active]
            if not siblings:
                continue
            freq = self.frequency.effective_core_frequency(
                socket_id, core.core_id, self._time_s
            )
            if self._throttled[socket_id] and freq > nominal:
                freq = nominal
            cores.append(
                ActiveCore(
                    socket_id=socket_id,
                    core_id=core.core_id,
                    frequency_ghz=freq,
                    sibling_count=len(siblings),
                )
            )
        return cores

    def resolve_uncore(self, socket_id: int) -> tuple[float, bool]:
        """Effective (uncore frequency, halted) of a socket right now."""
        has_active = not self.cstates.socket_is_idle(socket_id)
        freq = self.frequency.effective_uncore_frequency(socket_id, has_active)
        halted = self.cstates.uncore_may_halt(socket_id)
        return freq, halted

    def _hardware_signature(self, socket_id: int):
        """Key fragment capturing everything that shapes a socket's step
        resolution besides the declared load: content fingerprints of the
        clock and C-state models, the EET dwell phase (the only
        time-dependence of effective clocks), and the thermal-throttle
        flag.  Content fingerprints — not the monotonic version counters —
        so that recurring control states (RTI duty cycling between the
        same active and idle configurations, multiplexed measurement
        slots) hit the cache instead of missing on every reconfiguration.
        """
        return (
            self.frequency.state_fingerprint(socket_id),
            self.cstates.state_fingerprint(socket_id),
            self.frequency.turbo_dwell_signature(socket_id, self._time_s),
            bool(self._throttled[socket_id]),
        )

    def _compute_socket(
        self, sid: int, load: SocketLoad
    ) -> tuple[SocketPerformance, PowerBreakdown, float, bool]:
        """Exact (uncached) per-socket step resolution."""
        chars = load.characteristics
        active_cores = self._active_cores(sid)
        uncore_ghz, uncore_halted = self.resolve_uncore(sid)

        params = self._socket_params[sid]
        perf = self.perf_model.resolve(active_cores, uncore_ghz, load)
        parallel = self.perf_model.parallel_throughput_ips(
            active_cores, uncore_ghz, chars, params
        )
        socket_scale = 0.0 if parallel <= 0 else perf.executed_ips / parallel

        core_states = [
            CorePowerState(
                frequency_ghz=core.frequency_ghz,
                active_sibling_count=core.sibling_count,
                activity=self.perf_model.core_activity(
                    core, uncore_ghz, chars, socket_scale, params
                ),
            )
            for core in active_cores
        ]
        # Shallow-parked (C1) cores draw a residual.
        for core in self.topology.socket(sid).cores:
            state = self.cstates.core_state(sid, core.core_id)
            if state is CState.C1:
                freq = self.frequency.effective_core_frequency(
                    sid, core.core_id, self._time_s
                )
                core_states.append(
                    CorePowerState(
                        frequency_ghz=freq,
                        active_sibling_count=0,
                        shallow=True,
                    )
                )

        power = self.power_model.socket_power(
            socket_id=sid,
            core_states=core_states,
            uncore_ghz=uncore_ghz,
            uncore_halted=uncore_halted,
            traffic_gbs=perf.traffic_gbs,
        )
        return perf, power, uncore_ghz, uncore_halted

    def _resolve_socket(
        self, sid: int, load: SocketLoad
    ) -> tuple[SocketPerformance, PowerBreakdown, float, bool]:
        """Resolve one socket's step through the step-resolution LRU.

        The key is (socket, hardware signature, characteristics,
        demand).  Demands at or above capacity all resolve to the same
        saturated result, so they share the ``None`` bucket: a lookup
        tries the exact demand, then that bucket, which answers any
        demand at or above its entry's capacity.  Bit-identical to the
        uncached path, which ``step_cache_size <= 0`` selects.
        """
        if self._step_cache_size <= 0:
            return self._compute_socket(sid, load)

        cache = self._step_cache
        demand = load.demand_instructions_per_s
        key = (sid, self._hardware_signature(sid), load.characteristics, demand)
        entry = cache.get(key)
        if entry is None and demand is not None:
            saturated_key = key[:3] + (None,)
            entry = cache.get(saturated_key)
            if entry is not None and demand >= entry[0].capacity_ips:
                key = saturated_key
            else:
                entry = None
        if entry is not None:
            self.step_cache_stats["full_hits"] += 1
            cache.move_to_end(key)
            return entry

        self.step_cache_stats["misses"] += 1
        entry = self._compute_socket(sid, load)
        if demand is not None and demand >= entry[0].capacity_ips:
            key = key[:3] + (None,)
        cache[key] = entry
        if len(cache) > self._step_cache_size:
            cache.popitem(last=False)
        return entry

    def step(self, dt_s: float) -> StepResult:
        """Advance the machine by ``dt_s`` seconds.

        Resolves performance for every live socket under its declared
        load (through the step-resolution cache) into the node-major
        buffers — dark sockets keep their mask-maintained constants —
        then retires instructions, burns RAPL energy, and updates
        thermal state in one vectorized pass over the socket axis.
        Every array element performs the exact IEEE operations of the
        former per-socket loop, so results are bit-identical.
        """
        if dt_s <= 0:
            raise ConfigurationError(f"step duration must be > 0, got {dt_s}")
        self.settle_node_power()

        new_time = self._time_s + dt_s
        now = self._time_s
        retired = self._buf_retired
        rapl_w = self._buf_rapl_w
        totals = self._total_w
        results = self._results
        memo = self._sres_memo
        fast = self._resolve_fast if self._step_cache_size > 0 else None
        freq = self.frequency
        cstates = self.cstates
        npv = self.node_power_version
        # ``changed`` tracks whether any buffer slot or result object can
        # differ from the previous step: False only when every live socket
        # reused its memoized SocketStepResult and no node power
        # transition rewrote dark slots — then the powers, the thermal
        # inputs, and the PSU draw are all provably identical.
        changed = npv != self._last_npv
        self._last_npv = npv

        for sid in self._live_sids:
            load = self._loads[sid]
            hit = None
            if fast is not None:
                entry = fast[sid]
                if (
                    entry is not None
                    and entry[0] == freq.socket_mutation_version(sid)
                    and entry[1] == cstates.socket_mutation_version(sid)
                    and entry[2] == npv
                    and entry[4] is load.characteristics
                    and entry[5] == bool(self._throttled[sid])
                    and entry[3] == freq.turbo_dwell_signature(sid, now)
                ):
                    demand = load.demand_instructions_per_s
                    seen = entry[6]
                    # Same demand, or both saturated (>= capacity): the
                    # LRU's shared saturated bucket, without the hashing.
                    if demand == seen or (
                        demand is not None
                        and seen is not None
                        and demand >= entry[7]
                        and seen >= entry[7]
                    ):
                        hit = entry[8]
            if hit is not None:
                # A fast hit is a full-cache hit that skipped the hashing.
                stats = self.step_cache_stats
                stats["full_hits"] += 1
                stats["fast_hits"] += 1
                perf, power, uncore_ghz, uncore_halted = hit
            else:
                perf, power, uncore_ghz, uncore_halted = self._resolve_socket(
                    sid, load
                )
                if fast is not None:
                    fast[sid] = (
                        freq.socket_mutation_version(sid),
                        cstates.socket_mutation_version(sid),
                        npv,
                        freq.turbo_dwell_signature(sid, now),
                        load.characteristics,
                        bool(self._throttled[sid]),
                        load.demand_instructions_per_s,
                        perf.capacity_ips,
                        (perf, power, uncore_ghz, uncore_halted),
                    )
            cached = memo[sid]
            if (
                cached is not None
                and cached[0] is perf
                and cached[1] is power
                and cached[2] == dt_s
            ):
                sres = cached[3]
            else:
                sres = SocketStepResult(
                    performance=perf,
                    power=power,
                    executed_instructions=perf.executed_ips * dt_s,
                    uncore_ghz=uncore_ghz,
                    uncore_halted=uncore_halted,
                )
                memo[sid] = (perf, power, dt_s, sres)
                changed = True
            if results[sid] is not sres:
                results[sid] = sres
                changed = True
            if changed:
                base = 2 * sid
                # The counters see *retired* instructions — inflated by
                # latch spinning for transaction-oriented workloads
                # (section 5.3).
                retired[sid] = perf.retired_ips
                rapl_w[base] = power.package_w
                rapl_w[base + 1] = power.dram_w
                totals[sid] = power.socket_total_w

        self._instr_bank.accumulate_all(retired * dt_s, new_time)
        self._rapl_bank.accumulate_all(rapl_w, dt_s, new_time)

        # Thermal bookkeeping, masked over the socket axis: above-TDP
        # operation drains the budget, below-TDP operation slowly
        # restores it.  Dark sockets ride the same arrays (their package
        # share is far below TDP, so they recover like idle sockets).
        # Skipped entirely when the powers are unchanged and the last
        # update already reproduced its own inputs under the same dt —
        # replaying a fixpoint is a no-op.
        if changed or not self._thermal_settled or dt_s != self._thermal_settled_dt:
            pkg_w = rapl_w[0::2]
            credit = self._thermal_credit
            throttled = self._throttled
            above = pkg_w > self._tdp_w_arr
            drained = credit - dt_s
            crossed = drained <= 0.0
            recovered = np.minimum(
                self._budget_arr, credit + self._recovery_arr * dt_s
            )
            new_credit = np.where(
                above, np.where(crossed, 0.0, drained), recovered
            )
            new_throttled = np.where(
                above,
                throttled | crossed,
                throttled & ~(recovered >= self._half_budget_arr),
            )
            self._thermal_settled = bool(
                (new_credit == credit).all()
                and (new_throttled == throttled).all()
            )
            self._thermal_settled_dt = dt_s
            self._thermal_credit = new_credit
            self._throttled = new_throttled

        last = self._last_step
        if not changed and last is not None:
            # Nothing resolved differently: the socket map and the PSU
            # draw are the previous step's, object-identical.
            sockets = last.sockets
            psu = last.psu_power_w
        else:
            sockets = dict(zip(self._socket_ids, results))
            if self.cluster is None:
                psu = self.power_model.psu_power(
                    {sid: results[sid].power for sid in self._socket_ids}
                )
            else:
                # Per-node PSUs: ON/BOOTING nodes pay their own conversion
                # overhead on the node's RAPL-visible power; an OFF node
                # contributes exactly its residual wall draw (already
                # charged into its sockets' package domains — no overhead
                # on standby rails).
                psu = 0.0
                for node_index, node in enumerate(self.cluster.nodes):
                    node_rapl = 0.0
                    for sid in self._node_sockets[node_index]:
                        node_rapl += totals[sid]
                    if self._node_state[node_index] is NodePowerState.OFF:
                        psu += node_rapl
                    else:
                        p = node.params
                        psu += node_rapl * (1.0 + p.psu_overhead_factor) + (
                            p.psu_static_w
                        )
        self._time_s = new_time
        result = StepResult(
            time_s=new_time,
            dt_s=dt_s,
            sockets=sockets,
            psu_power_w=psu,
        )
        self._last_step = result
        return result

    # -- macro-stepping ----------------------------------------------------------

    def next_internal_event_s(self) -> float:
        """Earliest future time the machine changes behaviour on its own.

        Machine state only evolves under external mutation (versioned) or
        through internal mechanisms: the EET turbo dwell elapsing, thermal
        credit drift, and — on clusters — a BOOTING node's power-up
        deadline.  Credit drift is visible in the steady-state signature
        the runner compares, so the dwell expiry and boot deadlines are
        the latent events a macro span must stop short of.
        """
        expiry = self.frequency.next_dwell_expiry_s(self._time_s)
        for deadline in self._booting.values():
            expiry = min(expiry, deadline)
        return expiry

    def thermal_steady(self, socket_id: int) -> bool:
        """Whether one more step would leave thermal state unchanged.

        True exactly when replaying the last step's thermal update is a
        no-op: fully recovered credit below TDP, or exhausted credit under
        sustained above-TDP throttling.
        """
        last = self._last_step
        if last is None:
            return False
        power = last.sockets[socket_id].power
        p = self._socket_params[socket_id]
        credit = float(self._thermal_credit[socket_id])
        if power.package_w > p.tdp_w:
            return credit <= 0.0 and bool(self._throttled[socket_id])
        recovered = min(p.thermal_budget_s, credit + p.thermal_recovery_rate * last.dt_s)
        if recovered != credit:
            return False
        throttled = bool(self._throttled[socket_id]) and (
            credit < 0.5 * p.thermal_budget_s
        )
        return throttled == bool(self._throttled[socket_id])

    def thermal_steady_all(self) -> bool:
        """Vectorized :meth:`thermal_steady` over every socket at once.

        Reads the last step's package powers from the step buffers
        (which mirror :attr:`last_step` by construction).
        """
        last = self._last_step
        if last is None:
            return False
        credit = self._thermal_credit
        throttled = self._throttled
        pkg_w = self._buf_rapl_w[0::2]
        above = pkg_w > self._tdp_w_arr
        steady_above = (credit <= 0.0) & throttled
        recovered = np.minimum(
            self._budget_arr, credit + self._recovery_arr * last.dt_s
        )
        steady_below = (recovered == credit) & (
            ~throttled | (credit < self._half_budget_arr)
        )
        return bool(np.where(above, steady_above, steady_below).all())

    def span_step(self, dt_s: float, n_ticks: int) -> StepResult:
        """Advance ``n_ticks`` steps of ``dt_s`` in one steady-state span.

        Requires that every per-socket step resolution is constant over
        the span (same configuration versions, dwell phase, thermal state,
        and a demand yielding the same resolved performance — the runner
        verifies all of this before calling).  The whole fleet folds in
        two ``np.add.accumulate`` calls over an ``(n_ticks, counters)``
        grid — a strict per-column left fold with the same folded
        timestamps the per-tick path would produce, so every float —
        time, true energy, RAPL publish points, instructions — is
        bit-identical to ``n_ticks`` individual :meth:`step` calls.
        """
        if dt_s <= 0:
            raise ConfigurationError(f"step duration must be > 0, got {dt_s}")
        if n_ticks < 1:
            raise ConfigurationError(f"span must cover >= 1 tick, got {n_ticks}")
        last = self._last_step
        if last is None:
            raise ConfigurationError("span_step requires a preceding step")
        if not self.thermal_steady_all():
            for sid in self._socket_ids:
                if not self.thermal_steady(sid):
                    raise ConfigurationError(
                        f"socket {sid} thermal state is not steady"
                    )

        t = self._time_s
        times = np.add.accumulate(
            np.concatenate(([t], np.full(n_ticks, dt_s)))
        )[1:]
        retired = np.empty(self._socket_count)
        rapl_w = np.empty(2 * self._socket_count)
        for sid in self._socket_ids:
            sres = last.sockets[sid]
            retired[sid] = sres.performance.retired_ips * dt_s
            rapl_w[2 * sid] = sres.power.package_w
            rapl_w[2 * sid + 1] = sres.power.dram_w
        self._instr_bank.accumulate_span_all(retired, times)
        self._rapl_bank.accumulate_span_all(rapl_w, dt_s, times)
        t = float(times[-1])
        self._time_s = t
        result = StepResult(
            time_s=t, dt_s=dt_s, sockets=last.sockets, psu_power_w=last.psu_power_w
        )
        self._last_step = result
        return result

    # -- introspection ---------------------------------------------------------

    def state(self) -> MachineState:
        """Snapshot the control state (frequencies, active threads)."""
        core_freqs = {}
        uncore_freqs = {}
        uncore_halted = {}
        for sock in self.topology.sockets:
            sid = sock.socket_id
            for core in sock.cores:
                core_freqs[(sid, core.core_id)] = (
                    self.frequency.effective_core_frequency(
                        sid, core.core_id, self._time_s
                    )
                )
            freq, halted = self.resolve_uncore(sid)
            uncore_freqs[sid] = freq
            uncore_halted[sid] = halted
        return MachineState(
            time_s=self._time_s,
            active_threads=self.cstates.active_threads,
            core_frequencies_ghz=core_freqs,
            uncore_frequencies_ghz=uncore_freqs,
            uncore_halted=uncore_halted,
        )
