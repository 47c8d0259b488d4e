"""Tests for the configuration generator (paper §4.2)."""

import pytest

from repro.errors import ProfileError
from repro.hardware.presets import get_preset
from repro.hardware.topology import Topology
from repro.profiles.generator import ConfigurationGenerator, GeneratorParameters


@pytest.fixture
def generator(machine):
    return ConfigurationGenerator(machine.topology, machine.params, 0)


class TestParameters:
    def test_defaults(self):
        p = GeneratorParameters()
        assert (p.f_core, p.f_uncore, p.f_core_mixed, p.c_max) == (4, 3, False, 256)

    def test_validation(self):
        with pytest.raises(ProfileError):
            GeneratorParameters(f_core=0)
        with pytest.raises(ProfileError):
            GeneratorParameters(c_max=0)


class TestFrequencySubsets:
    def test_core_subset_has_anchors(self, generator):
        subset = generator.core_frequency_subset()
        assert 1.2 in subset  # lowest
        assert 2.6 in subset  # highest sustained
        assert 3.1 in subset  # turbo
        assert len(subset) == 4

    def test_uncore_subset_endpoints(self, generator):
        subset = generator.uncore_frequency_subset()
        assert subset[0] == 1.2 and subset[-1] == 3.0
        assert len(subset) == 3

    def test_wide_core_subset(self, machine):
        g = ConfigurationGenerator(
            machine.topology, machine.params, 0, GeneratorParameters(f_core=7)
        )
        subset = g.core_frequency_subset()
        assert len(subset) == 7
        assert subset[-1] == 3.1


class TestPaperCounts:
    """The paper's §4.2 worked example must reproduce exactly."""

    def test_ungrouped_count_is_288(self, generator):
        assert generator.count_for_group(1) == 288

    def test_sibling_grouping_gives_144(self, generator):
        assert generator.count_for_group(2) == 144

    def test_c_max_forces_sibling_grouping(self, generator):
        assert generator.selected_group_size() == 2
        configs = generator.generate()
        assert len(configs) == 145  # 144 + idle

    def test_large_c_max_keeps_full_granularity(self, machine):
        g = ConfigurationGenerator(
            machine.topology, machine.params, 0, GeneratorParameters(c_max=512)
        )
        assert g.selected_group_size() == 1
        assert len(g.generate()) == 289

    @pytest.mark.parametrize("mixed", [False, True], ids=["uniform", "mixed"])
    @pytest.mark.parametrize("f_uncore", [1, 3, 5])
    @pytest.mark.parametrize("f_core", [1, 2, 4, 7])
    @pytest.mark.parametrize("preset", ["haswell_ep", "wimpy_node"])
    def test_count_matches_the_generated_set(self, preset, f_core, f_uncore, mixed):
        params = get_preset(preset)
        topology = Topology.build(
            params.socket_count, params.cores_per_socket, params.threads_per_core
        )
        g = ConfigurationGenerator(
            topology,
            params,
            0,
            GeneratorParameters(
                f_core=f_core, f_uncore=f_uncore, f_core_mixed=mixed
            ),
        )
        for group in g._group_ladder():
            assert g.count_for_group(group) == len(g._generate_for_group(group)) - 1

    def test_mixed_adds_configurations(self, machine):
        base = ConfigurationGenerator(
            machine.topology, machine.params, 0, GeneratorParameters(c_max=10_000)
        )
        mixed = ConfigurationGenerator(
            machine.topology,
            machine.params,
            0,
            GeneratorParameters(f_core_mixed=True, c_max=10_000),
        )
        assert len(mixed.generate()) > len(base.generate())


class TestGeneratedSet:
    def test_idle_first(self, generator):
        configs = generator.generate()
        assert configs[0].is_idle

    def test_all_unique(self, generator):
        configs = generator.generate()
        assert len(set(configs)) == len(configs)

    def test_all_on_requested_socket(self, machine):
        g = ConfigurationGenerator(machine.topology, machine.params, 1)
        for config in g.generate():
            assert config.socket_id == 1

    def test_all_valid_for_machine(self, machine, generator):
        for config in generator.generate():
            config.validate_against(machine)

    def test_activation_prefixes_are_nested(self, generator):
        """Thread sets form a chain: each larger set contains the smaller."""
        configs = [c for c in generator.generate() if not c.is_idle]
        by_count: dict[int, frozenset] = {}
        for config in configs:
            by_count.setdefault(config.thread_count, config.active_threads)
        counts = sorted(by_count)
        for small, large in zip(counts, counts[1:]):
            assert by_count[small] < by_count[large]

    def test_grouped_activation_units_whole_cores(self, generator):
        """With sibling grouping, both HT siblings activate together."""
        configs = [c for c in generator.generate() if not c.is_idle]
        topo_threads = 2  # siblings per core
        for config in configs:
            assert config.thread_count % topo_threads == 0

    def test_ungrouped_activation_order(self, machine):
        g = ConfigurationGenerator(
            machine.topology, machine.params, 0, GeneratorParameters(c_max=10_000)
        )
        units = g.activation_units(1)
        # First 12 units are first siblings (ids 0..11), then HT (24..35).
        assert [u[0] for u in units[:12]] == list(range(12))
        assert [u[0] for u in units[12:]] == list(range(24, 36))

    def test_invalid_group_size(self, generator):
        with pytest.raises(ProfileError):
            generator.activation_units(3)
