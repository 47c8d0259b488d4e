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
The fixed-knob presets (:data:`FIXED_KNOB_GOLDENS`) were captured at
commit ``35464a3``, before ``baseline``, ``performance`` and
``epb-only`` were merged into one policy class.  The pin
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
#: The fixed-knob presets, pinned where their park and wake paths run:
#: ``performance`` parks and unparks on the spike and ``epb-only`` never
#: parks.  ``baseline`` never parks on the spike (its idle grace never
#: elapses there), so ``baseline-idle-gap`` runs it on
#: :data:`IDLE_GAP_LEVELS`, where it parks after the grace and wakes.
FIXED_KNOB_GOLDENS = ("performance", "epb-only", "baseline-idle-gap")
#: (duration_s, load fraction) steps: two loaded seconds, each followed
#: by an idle one.
IDLE_GAP_LEVELS = [(1.0, 0.3), (1.0, 0.0), (1.0, 0.3), (1.0, 0.0)]
GOLDEN_DIR = Path(__file__).parent / "goldens"
#: Short but dynamically rich: the spike covers idle, partial load and
#: the overload knee, so every control path (RTI, ladder walks, parking)
#: fires within the 4 s window.
GOLDEN_DURATION_S = 4.0
GOLDEN_SEED = 0


def golden_configuration(policy: str):
    """The exact :class:`RunConfiguration` a golden was captured from.

    ``policy`` names the golden, which is the policy's name except for
    ``baseline-idle-gap``.  ``ecl-cluster`` runs a 6 s spike on two
    nodes; ``ecl-carbon`` runs a 10 s Twitter day on four nodes under a
    carbon step from 400 to 100 gCO₂/kWh at t = 5 s, which moves its
    plan away from ``ecl-cluster``'s (see
    :func:`carbon_day_configuration`).
    """
    from repro.hardware.cluster import homogeneous_cluster
    from repro.loadprofiles import spike_profile, step_profile
    from repro.sim import RunConfiguration
    from repro.workloads import KeyValueWorkload, WorkloadVariant

    if policy == "baseline-idle-gap":
        return RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=step_profile(IDLE_GAP_LEVELS),
            policy="baseline",
            seed=GOLDEN_SEED,
        )
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


def run_recording_parks(config):
    """Run ``config``; record the simulation times at which every
    hardware thread is parked at once, and at which threads come back
    after such a park, at the C-state call the fixed-knob presets make.
    Also records the tick time of every completion.  Returns (result,
    parks, wakes, completions)."""
    from repro.sim import RunObserver, SimulationRunner

    class CompletionTimes(RunObserver):
        def __init__(self):
            self.times: list[float] = []

        def on_completion(self, now_s, completion):
            self.times.append(now_s)

        def macro_horizon_s(self, now_s):
            return float("inf")  # completions happen only on live ticks

    completions = CompletionTimes()
    runner = SimulationRunner(config, observers=[completions])
    machine = runner.machine
    parks: list[float] = []
    wakes: list[float] = []
    set_active_threads = machine.cstates.set_active_threads

    def record(thread_ids):
        ids = set(thread_ids)
        if not ids:
            parks.append(machine.time_s)
        elif len(parks) > len(wakes):
            wakes.append(machine.time_s)
        set_active_threads(ids)

    machine.cstates.set_active_threads = record
    return runner.run(), parks, wakes, completions.times


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
    capture(
        tuple(sys.argv[1:])
        or GOLDEN_POLICIES + CONSOLIDATION_GOLDENS + FIXED_KNOB_GOLDENS
    )
