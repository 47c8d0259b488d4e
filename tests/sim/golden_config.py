"""The pinned configurations behind the A/B refactor goldens.

``tests/sim/goldens/`` holds one pickled
:class:`~repro.sim.metrics.RunResult` per pinned policy.  The three
original policies (:data:`GOLDEN_POLICIES`) were captured at commit
``8ac9f6e`` (the last commit before the policy-registry refactor); they
were re-captured once for the realized-duration accounting fix, which
added ``RunResult.requested_duration_s`` — energies, latencies, and
samples were verified unchanged at re-capture (the golden duration is
an exact tick multiple).  The consolidation presets
(:data:`CONSOLIDATION_GOLDENS`) were captured at commit ``a3edc6f``,
before the socket and node consolidation controllers were merged into
one, each on a configuration that parks and wakes hardware;
``ecl-consolidate`` and ``ecl-carbon`` were re-captured once, for the fix
that makes a socket loop resumed from a park re-apply its plan — one
sample's ``applied`` annotation now reads ``none`` on the tick a socket
resumes, and energies, latencies and every other field are unchanged.
The pin
test (:mod:`tests.sim.test_golden_ab`) re-runs the identical
configurations on the current code and asserts bit-identical results:
refactors must not change a single float.

Regenerate (only when an *intentional* simulation-model change lands —
bump the capture commit in this docstring when you do), naming the
goldens that change (all of them when none is named)::

    PYTHONPATH=src python tests/sim/golden_config.py [POLICY ...]
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

GOLDEN_POLICIES = ("ecl", "baseline", "ondemand")
#: The consolidation presets, pinned on configurations where they park
#: and wake: ``ecl-consolidate`` parks a socket, the cluster presets
#: power a node off and boot it again.
CONSOLIDATION_GOLDENS = ("ecl-consolidate", "ecl-cluster", "ecl-carbon")
GOLDEN_DIR = Path(__file__).parent / "goldens"
#: Short but dynamically rich: the spike covers idle, partial load and
#: the overload knee, so every control path (RTI, ladder walks, parking)
#: fires within the 4 s window.
GOLDEN_DURATION_S = 4.0
GOLDEN_SEED = 0


def golden_configuration(policy: str):
    """The exact :class:`RunConfiguration` a golden was captured from.

    ``ecl-cluster`` runs a 6 s spike on two nodes; ``ecl-carbon`` runs a
    10 s Twitter day on four nodes under a carbon step from 400 to
    100 gCO₂/kWh at t = 5 s, which moves its plan away from
    ``ecl-cluster``'s (see :func:`carbon_day_configuration`).
    """
    from repro.hardware.cluster import homogeneous_cluster
    from repro.loadprofiles import spike_profile
    from repro.sim import RunConfiguration
    from repro.workloads import KeyValueWorkload, WorkloadVariant

    if policy == "ecl-cluster":
        return RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=spike_profile(duration_s=6.0),
            policy=policy,
            seed=GOLDEN_SEED,
            cluster=homogeneous_cluster(2, power_up_s=0.5),
        )
    if policy == "ecl-carbon":
        return carbon_day_configuration(policy)
    return RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=spike_profile(duration_s=GOLDEN_DURATION_S),
        policy=policy,
        seed=GOLDEN_SEED,
    )


def carbon_day_configuration(policy: str):
    """The ``ecl-carbon`` golden's day, under any policy."""
    from repro.environment import ConstantSignal, Environment, StepSignal
    from repro.hardware.cluster import homogeneous_cluster
    from repro.loadprofiles import twitter_day_profile
    from repro.sim import RunConfiguration
    from repro.workloads import KeyValueWorkload, WorkloadVariant

    return RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=twitter_day_profile(duration_s=10.0),
        policy=policy,
        seed=GOLDEN_SEED,
        cluster=homogeneous_cluster(4, power_up_s=0.5),
        environment=Environment(
            name="carbon-step",
            carbon=StepSignal([(0.0, 400.0), (5.0, 100.0)]),
            price=ConstantSignal(0.12),
        ),
    )


def golden_path(policy: str) -> Path:
    return GOLDEN_DIR / f"{policy}.pkl"


def run_recording_lifecycle(config, observers=()):
    """Run ``config``; record the socket ids parked (intake taken
    offline) and resumed (back online) and the node ids powered off and
    booted, in call order, at the engine and machine calls every
    consolidation controller makes.  Returns (runner, result, calls)."""
    from repro.sim import SimulationRunner

    runner = SimulationRunner(config, observers=list(observers))
    engine, machine = runner.engine, runner.machine
    calls: dict[str, list[int]] = {
        "park": [], "resume": [], "power_off": [], "boot": []
    }
    set_online = engine.set_socket_online
    power_off, power_on = machine.power_off_node, machine.power_on_node

    def set_socket_online(socket_id, online):
        calls["resume" if online else "park"].append(socket_id)
        set_online(socket_id, online)

    def power_off_node(node):
        calls["power_off"].append(node)
        power_off(node)

    def power_on_node(node):
        calls["boot"].append(node)
        power_on(node)

    engine.set_socket_online = set_socket_online
    machine.power_off_node = power_off_node
    machine.power_on_node = power_on_node
    return runner, runner.run(), calls


def capture(policies) -> None:
    """Run the named golden configurations and pickle their results."""
    from repro.sim import run_experiment

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for policy in policies:
        result = run_experiment(golden_configuration(policy))
        with open(golden_path(policy), "wb") as fh:
            # Fixed protocol: the artifact must not depend on the
            # capturing interpreter's default.
            pickle.dump(result, fh, protocol=4)
        print(
            f"captured {policy}: {result.total_energy_j:.3f} J, "
            f"{result.queries_completed} queries, "
            f"{len(result.samples)} samples"
        )


if __name__ == "__main__":
    capture(tuple(sys.argv[1:]) or GOLDEN_POLICIES + CONSOLIDATION_GOLDENS)
