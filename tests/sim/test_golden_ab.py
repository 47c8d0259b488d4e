"""A/B pin: the policy/pipeline refactor is bit-identical.

The goldens under ``tests/sim/goldens/`` are pickled
:class:`~repro.sim.metrics.RunResult` objects captured *before* the
control layer was refactored behind the policy registry and the phased
observer pipeline; for the three consolidation presets, before their
controllers were merged into one; and for the fixed-knob presets, before
their three policy classes were merged into one (see
``golden_config.py`` for the exact capture commits and configurations).  The refactor's
contract is behaviour preservation: the same configuration must still
produce the same result object field-for-field — energies, every
sample point, every latency.

If a deliberate model change breaks these on purpose, re-capture the
goldens it moves with::

    PYTHONPATH=src python tests/sim/golden_config.py POLICY [POLICY ...]
"""

import pickle

import pytest

from repro.sim import run_experiment

from .golden_config import (
    CONSOLIDATION_GOLDENS,
    FIXED_KNOB_GOLDENS,
    GOLDEN_POLICIES,
    carbon_day_configuration,
    golden_configuration,
    golden_path,
    run_recording_lifecycle,
    run_recording_parks,
)

#: How long ``baseline`` waits on a dry machine before it parks.
BASELINE_IDLE_GRACE_S = 0.25


def load_golden(policy):
    path = golden_path(policy)
    if not path.exists():
        # The pickles are committed: a missing one means a broken
        # checkout, not a golden still waiting to be captured.
        pytest.fail(f"golden for {policy!r} missing ({path})")
    with open(path, "rb") as fh:
        return pickle.load(fh)


def assert_bit_identical(fresh, golden):
    # Field-level diagnostics first, so a mismatch names the culprit.
    assert fresh.policy == golden.policy
    assert fresh.queries_submitted == golden.queries_submitted
    assert fresh.queries_completed == golden.queries_completed
    assert fresh.total_energy_j == golden.total_energy_j  # exact, no approx
    assert fresh.latencies_s == golden.latencies_s
    assert len(fresh.samples) == len(golden.samples)
    for fresh_sample, golden_sample in zip(fresh.samples, golden.samples):
        assert fresh_sample == golden_sample
    # The full dataclass comparison seals everything else.
    assert fresh == golden


@pytest.mark.parametrize("policy", GOLDEN_POLICIES)
def test_run_result_bit_identical_to_golden(policy):
    golden = load_golden(policy)
    assert_bit_identical(run_experiment(golden_configuration(policy)), golden)


@pytest.mark.parametrize("policy", CONSOLIDATION_GOLDENS)
def test_consolidation_preset_bit_identical_to_golden(policy):
    """Each preset parks and wakes on its golden run, so the pin covers
    the whole lifecycle; the cluster presets also power off and boot."""
    golden = load_golden(policy)
    _, fresh, calls = run_recording_lifecycle(golden_configuration(policy))
    counts = {event: len(ids) for event, ids in calls.items()}
    assert_bit_identical(fresh, golden)
    assert counts["park"] >= 1 and counts["resume"] >= 1, counts
    if policy == "ecl-consolidate":
        assert counts["power_off"] == counts["boot"] == 0, counts
    else:
        assert counts["power_off"] >= 1 and counts["boot"] >= 1, counts


@pytest.mark.parametrize("name", FIXED_KNOB_GOLDENS)
def test_fixed_knob_preset_bit_identical_to_golden(name):
    """Each golden covers its preset's park path: ``performance`` parks
    and unparks, ``epb-only`` never parks, and ``baseline-idle-gap``
    parks in each idle second only once the grace has passed since the
    last completion, and wakes in between."""
    golden = load_golden(name)
    fresh, parks, wakes, completions = run_recording_parks(
        golden_configuration(name)
    )
    assert_bit_identical(fresh, golden)
    if name == "performance":
        assert parks and wakes
    elif name == "epb-only":
        assert not parks
    else:
        assert len(parks) == 2 and len(wakes) == 1
        assert parks[0] < wakes[0] < parks[1]
        for park in parks:
            last_completion = max(t for t in completions if t < park)
            assert park - last_completion >= BASELINE_IDLE_GRACE_S


def test_carbon_golden_pins_the_modulated_plan():
    """On its golden day ``ecl-carbon`` plans differently from
    ``ecl-cluster``, so the golden pins the carbon modulation too."""
    cluster = run_experiment(carbon_day_configuration("ecl-cluster"))
    carbon = load_golden("ecl-carbon")
    assert cluster.total_energy_j != carbon.total_energy_j


def test_goldens_are_distinct_runs():
    """Guards against captures that accidentally pickled the same run."""
    energies = {p: load_golden(p).total_energy_j for p in GOLDEN_POLICIES}
    assert len(set(energies.values())) == len(GOLDEN_POLICIES)
    # And the paper's ordering holds even at golden scale (4 s spike).
    assert energies["ecl"] < energies["ondemand"] < energies["baseline"]


def test_new_policies_land_between_baseline_and_ecl():
    """§4/§7: single-technique policies recover part of the savings.

    ``performance`` (race-to-idle at turbo) and ``epb-only`` (hardware
    EPB/EET hints) must beat the uncontrolled baseline but not the full
    ECL — even at the goldens' 4 s spike scale.  Both runs are pinned
    bit for bit by :func:`test_fixed_knob_preset_bit_identical_to_golden`,
    so their goldens stand in for them here.
    """
    ecl = load_golden("ecl").total_energy_j
    baseline = load_golden("baseline").total_energy_j
    for policy in ("performance", "epb-only"):
        result = load_golden(policy)
        assert result.queries_completed == result.queries_submitted
        assert ecl < result.total_energy_j < baseline


def test_legacy_annotation_fields_stay_empty():
    """The goldens pin ondemand/baseline samples to empty annotations.

    Before the refactor only the ECL populated ``performance_levels`` /
    ``applied``; the uniform annotation interface must not start
    populating them for the legacy policies.
    """
    for policy in GOLDEN_POLICIES:
        golden = load_golden(policy)
        populated = any(
            s.performance_levels or s.applied for s in golden.samples
        )
        if policy == "ecl":
            assert populated
        else:
            assert not populated
