"""Crisis depth and the policy-response sweep over lagged fiscal transfers.

The sweep integrates all of its (lag, tau) cells together as lanes of the
RK4 lane kernel in :mod:`macrostress.dynamics`, in one process, and folds
each chunk of steps the kernel yields into its per-cell reductions. Like the
Monte Carlo, it builds its lanes by column, with no per-cell object.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import monetary
from .dynamics import (
    IntegrationError, Trajectory, _effective_calibration, column_lane_constants, rk4_lanes,
    transfer_at,
)
from .params import Calibration, PolicySpec, Scenario, validate, validate_scenario


def crisis_depth(traj: Trajectory, p: PolicySpec) -> float:
    """Maximal unmitigated labor-share decline over a trajectory.

    ``max_t max(0, (s_L0 - s_L(t)) - transfer_at(t))``: zero exactly when
    the lagged transfer covers the decline pointwise at every recorded step.
    """
    shares = traj.s_L.tolist()
    s0 = shares[0]
    depth = 0.0
    for t, s_L in zip(traj.t.tolist(), shares):
        gap = (s0 - s_L) - transfer_at(t, p)
        if gap > depth:
            depth = gap
    return depth


MAX_CELLS = 250_000  # cell cap (500 x 500): every cell is one lane of a single kernel pass


@dataclass(frozen=True)
class PolicyGrid:
    """Sweep grid: strictly ascending lags x strictly ascending transfer magnitudes over a
    base scenario."""

    lags: tuple[float, ...]
    taus: tuple[float, ...]
    base: Scenario

    def __post_init__(self) -> None:
        if not self.lags or not self.taus:
            raise ValueError("policy grid needs at least one lag and one tau")
        cells = len(self.lags) * len(self.taus)
        if cells > MAX_CELLS:
            raise ValueError(f"policy grid lags x taus = {len(self.lags)} x {len(self.taus)} = "
                             f"{cells} cells; the cap is {MAX_CELLS}")
        if list(self.lags) != sorted(self.lags) or list(self.taus) != sorted(self.taus):
            raise ValueError("policy grid lags and taus must be ascending")
        for name, values in (("lags", self.lags), ("taus", self.taus)):
            for a, b in zip(values, values[1:]):
                if a == b:
                    raise ValueError(f"policy grid {name} must be strictly ascending: {a:g} repeats")

    def counters(self) -> dict[str, int]:
        """The work of a sweep over this grid, for the run manifest: one lane per cell."""
        lanes = len(self.lags) * len(self.taus)
        return {"lanes": lanes, "rk4_steps": lanes * round(self.base.horizon / self.base.dt)}


@dataclass(frozen=True)
class SweepCell:
    lag: float
    tau: float
    depth: float
    s_L_final: float
    consumption_decline_pct: float


def policy_sweep(grid: PolicyGrid, c: Calibration, jobs: int = 1) -> list[SweepCell]:
    """Integrate every (lag, tau) cell, in deterministic row-major order.

    A cell's problems come only from the calibration, the base scenario, its
    lag and its tau, so the first failing cell lies in the first row or the
    first column: only those ``L + T - 1`` cells are validated, in row-major
    order, and the first with a problem raises its ``ValueError``.

    The cells run as lanes of one pass of the RK4 lane kernel in this
    process, under the base scenario's effective calibration, from policies
    stored by column. Each chunk of steps the kernel yields is folded into
    per-cell running reductions that repeat :func:`crisis_depth` and
    :func:`monetary.cumulative_consumption_decline` on the recorded path
    operation for operation, additions in step order, so no whole path is
    stored and the chunk length changes no bit. ``failed`` is checked before
    each chunk is folded, so an overflow names the first failed cell at the
    end of the first chunk with a failure. No worker process is started:
    ``jobs`` is accepted for call compatibility and ignored.
    """
    base = grid.base
    lags, taus = grid.lags, grid.taus
    calibration_problems = validate(c)
    for lag, tau in [*((lags[0], tau) for tau in taus), *((lag, taus[0]) for lag in lags[1:])]:
        cell = dataclasses.replace(base, name=f"{base.name}_l{lag}_t{tau}",
                                   policy=dataclasses.replace(base.policy, tau=tau, lag=lag))
        problems = calibration_problems + validate_scenario(cell)
        if problems:
            raise ValueError("; ".join(problems))

    policies = SimpleNamespace(lag=np.repeat(lags, len(taus)), tau=np.tile(taus, len(lags)),
                               start_time=base.policy.start_time)
    n = policies.lag.size
    ce = _effective_calibration(base, c)
    consts = column_lane_constants(ce, n, policies)
    transfer, activation = consts[-2:]
    failed = np.zeros(n, dtype=bool)
    depth = np.zeros(n)
    area = np.zeros(n)
    with np.errstate(all="ignore"):
        for ts, path in rk4_lanes(consts, base.horizon, base.dt, failed):
            if failed.any():
                i = int(np.argmax(failed))
                raise IntegrationError(
                    f"policy sweep cell lag={policies.lag[i]:g}, tau={policies.tau[i]:g}: the "
                    f"reinstatement term overflows or the labor share turns non-finite before "
                    f"t={base.horizon:g}"
                )
            # row 0, the state folded last, changes no maximum and starts the area's first step;
            # gap is never -0.0 or NaN here, so the order of the maxima changes no bit
            gap = (ce.s_L0 - path) - np.where(ts >= activation, transfer, 0.0)
            np.maximum(np.maximum.reduce(gap, axis=0), depth, out=depth)
            cr = monetary.consumption_ratio(path, ce)
            # area + 0.5 * (cr_prev + cr) * (t - t_prev), one step after the other
            steps = 0.5 * (cr[:-1] + cr[1:]) * (ts[1:] - ts[:-1])
            for step in steps:
                area += step
        # the path spans [0, ts[-1]] once the loop ends
        decline = 1.0 - (area / ts[-1]) / monetary.consumption_ratio(c.s_L0, c)
    columns = (policies.lag, policies.tau, depth, path[-1], 100.0 * decline)
    return [SweepCell(*row) for row in zip(*(column.tolist() for column in columns))]
