"""The ``ecl-carbon`` planner: consolidation that follows carbon and price.

:class:`~repro.placement.policy.ConsolidatePlacement` packs and spreads
on utilization alone — the same thresholds at 3 a.m. on a wind-heavy
grid and at 7 p.m. on a gas-peaker evening.
:class:`CarbonAwarePlacement` modulates both thresholds by the attached
:class:`~repro.environment.Environment`'s carbon and price signals,
re-read from the view's time at every :meth:`plan`:

* **dirty/expensive hours** (signal above its run average) raise both
  thresholds: packing triggers at higher utilization (drain and power
  off nodes sooner) and spreading needs a bigger overload to wake one —
  the fleet rides through the peak on fewer, fuller nodes;
* **clean/cheap hours** lower them symmetrically: nodes wake more
  readily and drain later, shifting the inevitable wake/park cycles of
  a diurnal load into the hours where a node-hour costs the least
  carbon and money.

With no environment attached the ratio is exactly 1.0, both thresholds
stay at their ``consolidate`` values, and every plan is the plain
consolidation plan.  Plans happen only at live planning checks: the
planning check bounds the macro horizon, and the runner cuts every span
at the next environment-signal change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.placement.policy import (
    ConsolidatePlacement,
    MigrationRequest,
    PlacementView,
)

if TYPE_CHECKING:
    from repro.environment import Environment, Signal

#: Clamp on each signal's now/average ratio: a 10x price surge should
#: firm up consolidation, not drive the thresholds into a regime where
#: the planner thrashes.
RATIO_FLOOR = 0.5
RATIO_CEILING = 2.0

#: How strongly the ratio shifts the spread threshold (additive).  The
#: pack threshold scales multiplicatively — it is the small one, and
#: doubling it (0.35 -> 0.70) is exactly the "park early" peak stance.
SPREAD_GAIN = 0.10

#: Hard bounds keeping the modulated thresholds a valid planner config.
PACK_MIN = 0.05
PACK_MAX = 0.70
SPREAD_MAX = 0.98
#: Minimum gap between the two thresholds (the planner's hysteresis
#: band must never collapse).
THRESHOLD_GAP = 0.05


class CarbonAwarePlacement(ConsolidatePlacement):
    """``consolidate`` with environment-modulated thresholds."""

    def __init__(
        self,
        environment: "Environment | None" = None,
        duration_s: float | None = None,
    ):
        super().__init__()
        self.environment = environment
        self._base_pack = self.pack_below
        self._base_spread = self.spread_above
        #: Run-average signal levels; each ratio normalizes against its
        #: own average, so "dirty" means "dirtier than this run's day",
        #: not an absolute grid constant.
        self._carbon_ref = 0.0
        self._price_ref = 0.0
        if environment is not None and duration_s is not None and duration_s > 0:
            self._carbon_ref = environment.carbon.average(0.0, duration_s)
            self._price_ref = environment.price.average(0.0, duration_s)

    @staticmethod
    def _ratio_of(signal: "Signal", now_s: float, reference: float) -> float:
        if reference <= 0.0:
            return 1.0
        ratio = signal.value(now_s) / reference
        return min(max(ratio, RATIO_FLOOR), RATIO_CEILING)

    def signal_ratio(self, now_s: float) -> float:
        """Combined carbon/price pressure at ``now_s`` (1.0 = average).

        The mean of the two per-signal now/average ratios, each clamped
        to [:data:`RATIO_FLOOR`, :data:`RATIO_CEILING`]; exactly 1.0
        with no environment attached.
        """
        environment = self.environment
        if environment is None:
            return 1.0
        carbon = self._ratio_of(environment.carbon, now_s, self._carbon_ref)
        price = self._ratio_of(environment.price, now_s, self._price_ref)
        return (carbon + price) / 2.0

    def planner_thresholds(self, now_s: float) -> tuple[float, float]:
        """The (pack_below, spread_above) pair in force at ``now_s``."""
        ratio = self.signal_ratio(now_s)
        pack = min(max(self._base_pack * ratio, PACK_MIN), PACK_MAX)
        spread = min(
            max(
                self._base_spread + SPREAD_GAIN * (ratio - 1.0),
                pack + THRESHOLD_GAP,
            ),
            SPREAD_MAX,
        )
        return pack, spread

    def plan(self, view: PlacementView) -> list[MigrationRequest]:
        self.pack_below, self.spread_above = self.planner_thresholds(
            view.time_s
        )
        return super().plan(view)
