"""References the tests hold the lane engine to.

- The lane kernel's constants built one lane at a time: the scalar reference for
  ``dynamics.column_lane_constants``, and the tests' own way to build kernel
  lanes from a list of (calibration, policy) pairs.
- The policy sweep with one kernel lane per cell, frozen.
"""

import dataclasses
from collections.abc import Iterable
from types import SimpleNamespace

import numpy as np

from macrostress import monetary
from macrostress.dynamics import (
    IntegrationError, _drift_constants, _effective_calibration, column_lane_constants, rk4_lanes,
)
from macrostress.params import Calibration, PolicySpec, validate, validate_scenario
from macrostress.policy import PolicyGrid, SweepCell


def lane_constants(lanes: Iterable[tuple[Calibration, PolicySpec]]) -> np.ndarray:
    """One row per drift constant, then ``tau`` and the activation time
    ``start_time + lag``; one column per (calibration, policy) lane."""
    rows = [(*_drift_constants(c), p.tau, p.start_time + p.lag) for c, p in lanes]
    # The explicit 12 keeps the shape for zero lanes.
    return np.ascontiguousarray(np.array(rows, dtype=np.float64).reshape(-1, 12).T)


def reference_policy_sweep(grid: PolicyGrid, c: Calibration) -> list[SweepCell]:
    """``policy.policy_sweep`` as it ran every cell as its own lane of one kernel pass:
    the oracle for the sweep that integrates one path per group of identical cells.

    Each chunk the kernel yields is folded into per-cell running reductions, the
    area one step after the other; an overflow names the first failed cell at the
    end of the first chunk with a failure."""
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
            gap = (ce.s_L0 - path) - np.where(ts >= activation, transfer, 0.0)
            np.maximum(np.maximum.reduce(gap, axis=0), depth, out=depth)
            cr = monetary.consumption_ratio(path, ce)
            steps = 0.5 * (cr[:-1] + cr[1:]) * (ts[1:] - ts[:-1])
            for step in steps:
                area += step
        decline = 1.0 - (area / ts[-1]) / monetary.consumption_ratio(c.s_L0, c)
    columns = (policies.lag, policies.tau, depth, path[-1], 100.0 * decline)
    return [SweepCell(*row) for row in zip(*(column.tolist() for column in columns))]
