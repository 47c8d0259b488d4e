"""The configuration generator (paper §4.2).

Enumerates a bounded set of configurations covering the configuration
spectrum of one socket:

* **thread sets** exploit core homogeneity — activating physical core 1
  is equivalent to activating core 2 — so only canonical *prefixes* of an
  activation order are generated (first one sibling per core, then the
  HyperThread siblings);
* **core frequencies** are an evenly spaced subset of the P-state ladder
  that always contains the lowest, the highest sustained (nominal), and
  the turbo frequency;
* **uncore frequencies** are an evenly spaced subset including both ends;
* optional **mixed core frequencies** add configurations whose active
  cores split between two adjacent frequencies of the subset;
* if the resulting count exceeds ``c_max``, hardware threads are
  aggregated into groups (both siblings of a core first, then multi-core
  groups), reducing the profile granularity exactly like the paper's
  example: 24 threads × 4 core freqs × 3 uncore freqs = 288 > 256 →
  sibling grouping → 144 configurations plus the idle configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProfileError
from repro.hardware.presets import HaswellEPParameters
from repro.hardware.topology import Topology
from repro.profiles.configuration import Configuration


@dataclass(frozen=True)
class GeneratorParameters:
    """Tuning knobs of the configuration generator.

    Attributes:
        f_core: number of distinct core frequencies to cover.
        f_uncore: number of distinct uncore frequencies to cover.
        f_core_mixed: whether to add mixed-frequency configurations.
        c_max: maximum number of non-idle configurations.
    """

    f_core: int = 4
    f_uncore: int = 3
    f_core_mixed: bool = False
    c_max: int = 256

    def __post_init__(self) -> None:
        if self.f_core < 1 or self.f_uncore < 1:
            raise ProfileError("f_core and f_uncore must be >= 1")
        if self.c_max < 1:
            raise ProfileError(f"c_max must be >= 1, got {self.c_max}")


class ConfigurationGenerator:
    """Generates the configuration set for one socket."""

    def __init__(
        self,
        topology: Topology,
        params: HaswellEPParameters,
        socket_id: int,
        generator_params: GeneratorParameters | None = None,
    ):
        self.topology = topology
        self.params = params
        self.socket_id = socket_id
        self.generator_params = generator_params or GeneratorParameters()
        self._socket = topology.socket(socket_id)

    # -- frequency subsets ---------------------------------------------------

    def core_frequency_subset(self) -> tuple[float, ...]:
        """Evenly spaced core frequencies incl. lowest, nominal, turbo."""
        count = self.generator_params.f_core
        p = self.params
        ladder = [f for f in p.core_pstates_ghz if f <= p.core_nominal_ghz]
        anchors: list[float] = []
        if count == 1:
            return (p.core_nominal_ghz,)
        if count == 2:
            return (p.core_min_ghz, p.core_turbo_ghz)
        # Always include the turbo step; spread the rest over the
        # sustained ladder from the minimum to the nominal frequency.
        sustained = count - 1
        for i in range(sustained):
            idx = round(i * (len(ladder) - 1) / (sustained - 1)) if sustained > 1 else 0
            anchors.append(ladder[idx])
        anchors.append(p.core_turbo_ghz)
        return tuple(sorted(set(anchors)))

    def uncore_frequency_subset(self) -> tuple[float, ...]:
        """Evenly spaced uncore frequencies including both ends."""
        count = self.generator_params.f_uncore
        ladder = self.params.uncore_pstates_ghz
        if count == 1:
            return (ladder[-1],)
        if count >= len(ladder):
            return tuple(ladder)
        picks = {
            ladder[round(i * (len(ladder) - 1) / (count - 1))] for i in range(count)
        }
        return tuple(sorted(picks))

    # -- activation order ------------------------------------------------------

    def activation_units(self, group_threads: int) -> list[tuple[int, ...]]:
        """Thread-id units in activation order for a given group size.

        ``group_threads == 1`` activates single threads: one sibling per
        core first, then the HyperThread siblings.  Larger groups activate
        whole cores (both siblings) and, beyond that, bundles of cores.
        """
        tpc = self.topology.threads_per_core
        if group_threads == 1:
            first = [core.threads[0].global_id for core in self._socket.cores]
            units: list[tuple[int, ...]] = [(tid,) for tid in first]
            if tpc > 1:
                units.extend(
                    (core.threads[1].global_id,) for core in self._socket.cores
                )
            return units
        if group_threads % tpc != 0:
            raise ProfileError(
                f"group size {group_threads} must be a multiple of {tpc}"
            )
        cores_per_unit = group_threads // tpc
        units = []
        cores = list(self._socket.cores)
        for start in range(0, len(cores), cores_per_unit):
            chunk = cores[start : start + cores_per_unit]
            if len(chunk) < cores_per_unit:
                break
            unit: list[int] = []
            for core in chunk:
                unit.extend(core.thread_ids())
            units.append(tuple(unit))
        return units

    def _group_ladder(self) -> list[int]:
        """Group sizes to try, smallest first."""
        tpc = self.topology.threads_per_core
        cores = self._socket.core_count
        sizes = [1]
        multiple = 1
        while multiple <= cores:
            if cores % multiple == 0:
                sizes.append(multiple * tpc)
            multiple += 1
        return sizes

    # -- generation ----------------------------------------------------------------

    def count_for_group(self, group_threads: int) -> int:
        """Non-idle configuration count for a group size.

        Counts what :meth:`_generate_for_group` would build, prefix by
        prefix, without building it.
        """
        core_freqs = len(self.core_frequency_subset())
        mixed = core_freqs - 1 if self.generator_params.f_core_mixed else 0
        cores: set[int] = set()
        per_uncore = 0
        for unit in self.activation_units(group_threads):
            cores.update(self.topology.core_of(tid).core_id for tid in unit)
            per_uncore += core_freqs + (mixed if len(cores) > 1 else 0)
        return per_uncore * len(self.uncore_frequency_subset())

    def selected_group_size(self) -> int:
        """Smallest group size whose configuration count fits ``c_max``."""
        for size in self._group_ladder():
            if self.count_for_group(size) <= self.generator_params.c_max:
                return size
        return self._group_ladder()[-1]

    def generate(self) -> list[Configuration]:
        """Generate the configuration set (idle configuration first)."""
        return self._generate_for_group(self.selected_group_size())

    def _generate_for_group(self, group: int) -> list[Configuration]:
        """Generate the full set for a fixed group size."""
        units = self.activation_units(group)
        core_freqs = self.core_frequency_subset()
        uncore_freqs = self.uncore_frequency_subset()
        min_uncore = uncore_freqs[0]

        configs: list[Configuration] = [
            Configuration.idle(self.socket_id, min_uncore)
        ]
        threads: set[int] = set()
        cores: set[int] = set()
        for unit in units:
            # Every prefix of the activation order: its configurations
            # share one thread set.
            threads.update(unit)
            cores.update(self.topology.core_of(tid).core_id for tid in unit)
            active_threads = frozenset(threads)
            active_cores = sorted(cores)
            for uncore in uncore_freqs:
                for freq in core_freqs:
                    configs.append(
                        Configuration.build(
                            self.socket_id,
                            active_threads,
                            {cid: freq for cid in active_cores},
                            uncore,
                        )
                    )
                if self.generator_params.f_core_mixed and len(active_cores) > 1:
                    for low, high in zip(core_freqs, core_freqs[1:]):
                        half = len(active_cores) // 2
                        mapping = {
                            cid: (low if i < half else high)
                            for i, cid in enumerate(active_cores)
                        }
                        configs.append(
                            Configuration.build(
                                self.socket_id, active_threads, mapping, uncore
                            )
                        )
        return configs
