"""Crisis depth and the policy-response sweep over lagged fiscal transfers.

The sweep integrates all of its (lag, tau) cells together as lanes of the
RK4 lane kernel in :mod:`macrostress.dynamics`, in one process, and folds
each chunk of steps the kernel yields into its per-cell reductions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import monetary
from .dynamics import (
    IntegrationError, Trajectory, _effective_calibration, lane_constants, rk4_lanes, transfer_at,
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

    The cells run as lanes of one pass of the RK4 lane kernel in this
    process, under the base scenario's effective calibration. Each chunk of
    steps the kernel yields is folded into per-cell running reductions that
    repeat :func:`crisis_depth` and
    :func:`monetary.cumulative_consumption_decline` on the recorded path
    operation for operation, additions in step order, so no whole path is
    stored and the chunk length changes no bit. ``failed`` is checked before
    each chunk is folded, so an overflow names the first failed cell at the
    end of the first chunk with a failure. No worker process is started:
    ``jobs`` is accepted for call compatibility and ignored.
    """
    base = grid.base
    cells = [(lag, tau) for lag in grid.lags for tau in grid.taus]
    start = base.policy.start_time
    policies = [PolicySpec(tau=tau, lag=lag, start_time=start) for lag, tau in cells]
    calibration_problems = validate(c)
    for (lag, tau), policy in zip(cells, policies):
        cell = dataclasses.replace(base, name=f"{base.name}_l{lag}_t{tau}", policy=policy)
        problems = calibration_problems + validate_scenario(cell)
        if problems:
            raise ValueError("; ".join(problems))

    ce = _effective_calibration(base, c)
    consts = lane_constants((ce, p) for p in policies)
    taus, activation = consts[-2:]
    failed = np.zeros(len(cells), dtype=bool)
    depth = np.zeros(len(cells))
    area = np.zeros(len(cells))
    with np.errstate(all="ignore"):
        for ts, path in rk4_lanes(consts, base.horizon, base.dt, failed):
            if failed.any():
                lag, tau = cells[int(np.argmax(failed))]
                raise IntegrationError(
                    f"policy sweep cell lag={lag:g}, tau={tau:g}: the reinstatement term "
                    f"overflows or the labor share turns non-finite before t={base.horizon:g}"
                )
            # row 0, the state folded last, changes no maximum and starts the area's first step;
            # gap is never -0.0 or NaN here, so the order of the maxima changes no bit
            gap = (ce.s_L0 - path) - np.where(ts >= activation, taus, 0.0)
            np.maximum(np.maximum.reduce(gap, axis=0), depth, out=depth)
            cr = monetary.consumption_ratio(path, ce)
            # area + 0.5 * (cr_prev + cr) * (t - t_prev), one step after the other
            steps = 0.5 * (cr[:-1] + cr[1:]) * (ts[1:] - ts[:-1])
            area[...] = np.add.accumulate(np.vstack((area, steps)))[-1]
        # the path spans [0, ts[-1]] once the loop ends
        decline = 1.0 - (area / ts[-1]) / monetary.consumption_ratio(c.s_L0, c)
    return [
        SweepCell(
            lag=lag,
            tau=tau,
            depth=float(depth[i]),
            s_L_final=float(path[-1, i]),
            consumption_decline_pct=100.0 * float(decline[i]),
        )
        for i, (lag, tau) in enumerate(cells)
    ]
