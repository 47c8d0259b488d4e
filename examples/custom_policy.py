#!/usr/bin/env python3
"""Register an out-of-tree control policy and race it against the built-ins.

Every control strategy in the reproduction — the paper's ECL, the
uncontrolled baseline, the governor-style comparisons — is a
``ControlPolicy`` resolved by name through the registry in
``repro.sim.policy``.  The registry is open: register a factory under a
new name and every entry point (``RunConfiguration``, the CLI, the
experiment suite, the benchmarks) accepts it immediately.

This example registers a deliberately naive policy — cap every core at
the *lowest* clock, always — and compares it on a short spike profile.
Its joule count looks competitive with the ECL's, but it gets there by
ignoring the paper's other axis entirely: query latency balloons to
several times the ECL's while the spike's backlog drains at minimum
speed.  Energy control without a latency constraint isn't control.

Run:  python examples/custom_policy.py
"""

import numpy as np

from repro.hardware.frequency import EnergyPerformanceBias
from repro.loadprofiles import spike_profile
from repro.sim import (
    RunConfiguration,
    SampleAnnotations,
    register_policy,
    registered_policies,
    run_experiment,
)
from repro.workloads import KeyValueWorkload, WorkloadVariant

DURATION_S = 20.0


class LowestClockPolicy:
    """All threads active, all clocks pinned to the minimum, forever."""

    def __init__(self, engine):
        # Set the knobs when the policy is built: the first tick already
        # runs under them, and nothing is left for on_tick to do.
        self.machine = machine = engine.machine
        machine.cstates.set_active_threads(
            {t.global_id for t in machine.topology.iter_threads()}
        )
        machine.frequency.set_all_core_frequencies(
            machine.params.core_min_ghz, machine.time_s
        )
        machine.set_epb_all(EnergyPerformanceBias.POWERSAVE)
        for sock in machine.topology.sockets:
            machine.frequency.set_uncore_auto(sock.socket_id)
        # The overhead the policy adds per skipped tick, indexed by
        # socket id: none.
        self.charges = np.zeros(machine.topology.socket_count)

    @classmethod
    def build(cls, engine, config):
        # The factory hook the registry calls: (engine, config) -> policy.
        return cls(engine)

    def on_tick(self, now_s, dt_s):
        pass  # the knobs never change after build

    def macro_view(self, now_s, dt_s):
        # When on_tick next acts: never.  This lets the runner skip every
        # steady stretch of the run in one step; without macro_view each
        # tick runs live.
        return float("inf"), self.charges

    def annotate_sample(self):
        # Shows up in every SamplePoint's `applied` column.
        return SampleAnnotations(
            applied=tuple("min-clock" for _ in self.machine.topology.sockets)
        )


def main() -> None:
    register_policy(
        "lowest-clock",
        LowestClockPolicy.build,
        description="every core pinned to the minimum clock (naive)",
    )
    print(f"registered policies: {', '.join(registered_policies())}\n")

    runs = {}
    for policy in ("baseline", "lowest-clock", "ecl"):
        print(f"running {policy} ...")
        runs[policy] = run_experiment(
            RunConfiguration(
                workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
                profile=spike_profile(duration_s=DURATION_S),
                policy=policy,
            )
        )

    print(f"\n{'policy':>14} {'energy':>9} {'mean lat':>10} {'done':>12}")
    for policy, run in runs.items():
        print(
            f"{policy:>14} {run.total_energy_j:7.0f} J "
            f"{1000 * run.mean_latency_s():7.1f} ms "
            f"{run.queries_completed:5}/{run.queries_submitted}"
        )

    naive = runs["lowest-clock"]
    ecl = runs["ecl"]
    print(
        f"\nalways-slow matches the ECL's joules but pays "
        f"{naive.mean_latency_s() / ecl.mean_latency_s():.0f}x its mean "
        "latency: the spike's backlog drains at minimum speed. The ECL "
        "saves the same energy while holding the latency limit — that "
        "trade-off is the whole point of the paper."
    )


if __name__ == "__main__":
    main()
