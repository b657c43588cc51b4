"""Consumption function, velocity law, quintile amplifier.

The consumption-to-output ratio is affine in the labor share because the two
income types carry different spending propensities. Velocity is anchored so
that the baseline labor share with no transfers reproduces the observed M2
velocity, making simulated paths directly comparable to the FRED series.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .params import Calibration, ConfigError, read_csv_rows

if TYPE_CHECKING:
    from .dynamics import Trajectory


def consumption_ratio(s_L: float, c: Calibration) -> float:
    """Aggregate consumption per unit output: c*s_L + (1-c)*(1-s_L)."""
    return c.mpc_labor * s_L + (1.0 - c.mpc_labor) * (1.0 - s_L)


def velocity(s_L: float, tau: float, c: Calibration) -> float:
    """Monetary velocity V0 * (consumption_ratio + tau).

    Written as ``V_obs * ratio`` so that ``velocity(s_L0, 0)`` returns the
    observed anchor bit-exactly.
    """
    return c.V_obs * (consumption_ratio(s_L, c) + tau) / consumption_ratio(c.s_L0, c)


def velocity_decline_rate(s_L: float, ds_L: float, c: Calibration) -> float:
    """Relative velocity drift dV/V per year implied by a labor-share drift.

    Closed form of d(log V)/dt at tau = 0; matches a central finite
    difference of :func:`velocity` to first order.
    """
    two_c_minus_1 = 2.0 * c.mpc_labor - 1.0
    return two_c_minus_1 * ds_L / (s_L * two_c_minus_1 + (1.0 - c.mpc_labor))


@dataclass(frozen=True)
class QuintileProfile:
    """Per-quintile consumption shares, spending propensities, and displacement exposure.

    Entry 5 (index 4) is the top quintile.
    """

    consumption_shares: tuple[float, float, float, float, float]
    mpcs: tuple[float, float, float, float, float]
    exposures: tuple[float, float, float, float, float]

    def __post_init__(self) -> None:
        if abs(sum(self.consumption_shares) - 1.0) > 1e-9:
            raise ValueError("quintile consumption shares must sum to 1 within 1e-9")
        for name, values in (
            ("consumption_shares", self.consumption_shares),
            ("mpcs", self.mpcs),
            ("exposures", self.exposures),
        ):
            if len(values) != 5:
                raise ValueError(f"{name} needs exactly 5 entries")
            if any(not 0.0 <= v <= 1.0 for v in values):
                raise ValueError(f"{name} entries must lie in [0, 1]")


def default_quintiles() -> QuintileProfile:
    """Shipped profile: top quintile carries 59% of consumption and 0.60 exposure.

    Chosen so a uniform 10% income shock decomposes into a 3.54 pp
    top-quintile contribution out of 3.91 pp total.
    """
    return QuintileProfile(
        consumption_shares=(0.08, 0.10, 0.11, 0.12, 0.59),
        mpcs=(0.85, 0.85, 0.85, 0.85, 0.85),
        exposures=(0.05, 0.08, 0.10, 0.12, 0.60),
    )


def load_quintiles_csv(path: str | Path) -> QuintileProfile:
    """Read a 5-row CSV with columns share, mpc, exposure; a header row is optional.

    Every data value must be a finite number; errors name the file, line
    and column (:func:`params.read_csv_rows`).
    """
    rows = [numbers for _, numbers in read_csv_rows(path, ("share", "mpc", "exposure"))]
    if len(rows) != 5:
        raise ConfigError(f"{path}: quintile CSV must contain 5 data rows, found {len(rows)}")
    shares, mpcs, exposures = zip(*rows)
    return QuintileProfile(shares, mpcs, exposures)  # type: ignore[arg-type]


def consumption_shock(q: QuintileProfile, shock: float) -> tuple[float, list[float]]:
    """Aggregate consumption decline from a uniform income shock, in percentage points.

    Each quintile contributes its consumption share times its displacement
    exposure times the shock; the total is the sum.
    """
    if not 0.0 <= shock <= 1.0:
        raise ValueError("shock must be in [0, 1]")
    per_quintile = [
        100.0 * share * shock * exposure
        for share, exposure in zip(q.consumption_shares, q.exposures)
    ]
    return sum(per_quintile), per_quintile


def amplifier_lower_bound(chi: float, delta5: float) -> float:
    """Lower bound on the aggregate consumption decline: chi * delta5.

    The total shock weakly exceeds the top-quintile contribution for any
    profile whose top-quintile share is chi and exposure is delta5.
    """
    if not 0.0 <= chi <= 1.0 or not 0.0 <= delta5 <= 1.0:
        raise ValueError("chi and delta5 must be in [0, 1]")
    return chi * delta5


def demand_shortfall(s_L_final: float, c: Calibration) -> float:
    """End-of-horizon demand shortfall: 1 - consumption_ratio(final)/consumption_ratio(start)."""
    return 1.0 - consumption_ratio(s_L_final, c) / consumption_ratio(c.s_L0, c)


def cumulative_consumption_decline(traj: "Trajectory", c: Calibration) -> float:
    """Horizon-cumulative consumption decline vs. the no-displacement benchmark.

    Trapezoid average of the consumption-ratio gap over the whole run:
    ``1 - mean(consumption_ratio(s_t)) / consumption_ratio(s_L0)``. Early
    gains (labor share above baseline) offset later losses, so this is the
    decade-cumulative loss, not the endpoint loss.
    """
    ts, ratios = traj.t.tolist(), traj.consumption_ratio.tolist()
    if len(ts) < 2:
        return demand_shortfall(float(traj.s_L[0]), c) if ts else 0.0
    area = 0.0
    for i in range(1, len(ts)):
        area += 0.5 * (ratios[i - 1] + ratios[i]) * (ts[i] - ts[i - 1])
    span = ts[-1] - ts[0]
    return 1.0 - (area / span) / consumption_ratio(c.s_L0, c)
