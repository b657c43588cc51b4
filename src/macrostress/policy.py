"""Crisis depth and the policy-response sweep over lagged fiscal transfers.

The sweep runs the no-policy prefix every cell shares once, then one path per
group of (lag, tau) cells whose paths are identical from there on, in one
process: a few groups through the scalar integrator's float loop, many as
lanes of the RK4 lane kernel in :mod:`macrostress.dynamics`. It folds the
prefix once and each chunk of the groups' steps into their reductions, and
gathers them to the cells. Like the Monte Carlo, it builds its lane
constants by column, with no per-cell object.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace

import numpy as np

from . import monetary
from .dynamics import (
    _SCALAR_CHUNK, IntegrationError, Trajectory, _drift_constants, _effective_calibration,
    _rk4_path, _steps_within_cap, _time_only_prefix, column_lane_constants, rk4_lanes, transfer_at,
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


MAX_CELLS = 250_000  # cell cap (500 x 500): up to one lane per cell in a single kernel pass


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


@dataclass(frozen=True)
class SweepCell:
    lag: float
    tau: float
    depth: float
    s_L_final: float
    consumption_decline_pct: float


class Sweep(list):
    """A sweep's :class:`SweepCell` list, in row-major order, with the work behind it."""

    def __init__(self, cells: Iterable[SweepCell], groups: int, prefix_steps: int, n_steps: int):
        super().__init__(cells)
        self.groups, self.prefix_steps, self.n_steps = groups, prefix_steps, n_steps

    def counters(self) -> dict[str, int]:
        """The work behind the cells, for the run manifest: the shared prefix's steps
        once, then each group's steps from where the prefix ends."""
        return {"cells": len(self), "groups": self.groups, "prefix_steps": self.prefix_steps,
                "rk4_steps": self.prefix_steps + self.groups * (self.n_steps - self.prefix_steps)}


# The most policy groups the sweep integrates one by one in Python floats; above it, one
# kernel pass runs a lane per group. On `rapid`'s 1000 steps, where every group starts
# at the prefix's end (step 351), a group's float path costs about 0.45-0.55 ms and a
# kernel pass 17-23 ms at 16-96 lanes: the float paths cost more from 40-44 groups on
# (CPU time, two sets of interleaved runs on a 2-core x86-64 host).
_FLOAT_GROUPS = 40


def policy_sweep(grid: PolicyGrid, c: Calibration, jobs: int = 1) -> Sweep:
    """Integrate every (lag, tau) cell, in deterministic row-major order.

    A cell's problems come only from the calibration, the base scenario, its
    lag and its tau, so the first failing cell lies in the first row or the
    first column: only those ``L + T - 1`` cells are validated, in row-major
    order, and the first with a problem raises its ``ValueError``.

    Every cell shares the base scenario's effective calibration, and its
    transfer enters only where its labor share lies below ``s_L0``. So every
    cell follows one path through the leading steps that run on time alone
    from ``s_L0`` (:func:`dynamics._time_only_prefix`), up to step ``r``; from
    there on, a cell whose transfer is already on at ``r * dt`` follows the
    path of every other such cell with its ``tau``. The prefix runs once. The
    cells are grouped by ``(tau, activation)``, with every activation at or
    before ``r * dt`` read as ``-inf`` and every ``tau == 0`` cell in one
    group, in row-major order of their first cell, and one path per group
    goes on from the prefix's state at ``r``, under that cell's policy: up to
    ``_FLOAT_GROUPS`` groups through the scalar integrator's float loop
    (:func:`dynamics._rk4_path`), side by side a chunk at a time on the
    ``np.exp`` rows every integrator takes, which each chunk computes once for
    all of them (the prefix's last chunk included), and more as lanes of one pass of the
    RK4 lane kernel. Either way each path is the one the kernel gives its
    cell's own lane from t = 0, bit for bit. No worker process is started:
    ``jobs`` is accepted for call compatibility and ignored.

    Every cell of a group has its group's depth too: the grid times before
    ``r`` hold states at or above ``s_L0``, where every gap is at most 0 and
    leaves the depth at 0, and from ``r`` on the cells of a group share
    their path and their transfer. :func:`_fold` reduces the prefix once and
    each group's path from ``r`` into its depth and consumption decline
    under its first cell's policy, and the results are gathered to the
    cells. A cell whose path overflows or turns non-finite raises
    :class:`IntegrationError`, naming the first such cell in row-major order.
    Every cell shares the base's reinstatement exponent, so a base past the cap
    fails them all: that is found before the prefix runs, naming cell 0.

    The returned :class:`Sweep` counts the work: the cells, the groups, the
    prefix's steps and the RK4 steps taken, ``r`` once and ``n_steps - r``
    per group.
    """
    base = grid.base
    lags, taus = grid.lags, grid.taus
    calibration_problems = validate(c)
    for lag, tau in [*((lags[0], tau) for tau in taus), *((lag, taus[0]) for lag in lags[1:])]:
        cell = Scenario(f"{base.name}_l{lag}_t{tau}", base.g_A_override, base.horizon, base.dt,
                        PolicySpec(tau, lag, base.policy.start_time))
        problems = calibration_problems + validate_scenario(cell)
        if problems:
            raise ValueError("; ".join(problems))

    policies = SimpleNamespace(lag=np.repeat(lags, len(taus)), tau=np.tile(taus, len(lags)),
                               start_time=base.policy.start_time)
    n = policies.lag.size
    ce = _effective_calibration(base, c)
    consts = column_lane_constants(ce, n, policies)
    transfer, activation = consts[-2:]
    drift = _drift_constants(ce)
    n_steps = round(base.horizon / base.dt)

    def failure(i: int) -> IntegrationError:
        return IntegrationError(
            f"policy sweep cell lag={policies.lag[i]:g}, tau={policies.tau[i]:g}: the "
            f"reinstatement term overflows or the labor share turns non-finite before "
            f"t={base.horizon:g}"
        )

    if _steps_within_cap(drift[6], n_steps, base.dt) < n_steps:  # every cell's rho passes the cap
        raise failure(0)
    with np.errstate(all="ignore"):
        r, prefix, chunk_rows = _time_only_prefix(drift, n_steps, base.dt)
        on_at = r * base.dt
        index: dict[tuple[float, float], int] = {}
        reps: list[int] = []  # each group's first cell
        group = []  # each cell's group
        for i, (tau, start) in enumerate(zip(transfer.tolist(), activation.tolist())):
            g = index.setdefault((tau, start if tau and start > on_at else -math.inf), len(index))
            if g == len(reps):
                reps.append(i)
            group.append(g)
        if len(reps) > _FLOAT_GROUPS:
            failed = np.zeros(len(reps), dtype=bool)
            paths = rk4_lanes(consts[:, reps], base.horizon, base.dt, failed, r, prefix[-1])
            folded = _fold(prefix, paths, transfer[reps], activation[reps], ce, base.dt)
            if failed.any():
                raise failure(reps[int(np.argmax(failed))])
        else:
            records = [array("d") for _ in reps]
            runs = [(transfer[i], activation[i], record) for i, record in zip(reps, records)]
            ends = _rk4_path(drift, runs, chunk_rows, r, base.dt, float(prefix[-1]))
            for i, end in zip(reps, ends):
                if isinstance(end, IntegrationError):
                    raise failure(i) from None
            folded = _fold(prefix, _recorded_chunks(records, r, base.dt), transfer[reps],
                           activation[reps], ce, base.dt)
        depth, s_final, mean_ratio = (column[group] for column in folded)
        decline = 1.0 - mean_ratio / monetary.consumption_ratio(c.s_L0, c)
    columns = (policies.lag, policies.tau, depth, s_final, 100.0 * decline)
    cells = [SweepCell(*row) for row in zip(*(column.tolist() for column in columns))]
    return Sweep(cells, len(reps), r, n_steps)


def _recorded_chunks(records: list[array], r: int, dt: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Paths recorded from grid point ``r``, one per record, as the lane kernel yields
    them: ``(ts, path)`` chunks, one path per column, each row 0 the previous chunk's
    last state, ``ts`` the grid times ``i * dt``."""
    paths = np.stack([np.frombuffer(record) for record in records], axis=1)
    n_steps = len(paths) - 1
    for lo in range(0, n_steps, _SCALAR_CHUNK):
        hi = min(lo + _SCALAR_CHUNK, n_steps) + 1
        yield (np.arange(r + lo, r + hi) * dt).reshape(-1, 1), paths[lo:hi]


def _fold(
    prefix: np.ndarray, chunks: Iterable[tuple[np.ndarray, np.ndarray]], transfer: np.ndarray,
    activation: np.ndarray, ce: Calibration, dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each path's crisis depth, final share and mean consumption ratio.

    The paths share ``prefix``, their states at grid points 0 to ``r``. From
    there ``chunks`` yields ``(ts, path)`` as :func:`dynamics.rk4_lanes` does,
    one path per column, whose transfer is ``transfer`` from ``activation``
    on. The running reductions repeat :func:`crisis_depth` and
    :func:`monetary.cumulative_consumption_decline` on the recorded path
    operation for operation, additions in step order, so the chunk length
    changes no bit. The prefix is folded once: its states before ``r`` lie at
    or above ``s_L0``, where no gap exceeds 0, so the depth starts from the
    gap at ``r``, and its area, one sum in step order, starts every path's.
    Row 0 of a chunk, the state folded last, changes no maximum and starts
    the area's first step; no gap is ``-0.0`` or NaN, so the order of the
    maxima changes no bit either.
    """

    def add_steps(area: np.ndarray, ts: np.ndarray, path: np.ndarray) -> np.ndarray:
        cr = monetary.consumption_ratio(path, ce)
        # area + 0.5 * (cr_prev + cr) * (t - t_prev), one step after the other
        steps = 0.5 * (cr[:-1] + cr[1:]) * (ts[1:] - ts[:-1])
        if len(steps) == 1:  # the accumulate's one addition, without its loop per column
            return area + steps[0]
        return np.add.accumulate(np.concatenate((area[None], steps)), axis=0)[-1]

    ts = (np.arange(len(prefix)) * dt).reshape(-1, 1)
    area = np.repeat(add_steps(np.zeros(1), ts, prefix[:, None]), len(transfer))
    depth = np.zeros(len(transfer))
    # a one-row chunk at grid point r, where the paths part: the gap there, and the final
    # state and time when no step follows
    ts, path = ts[-1:], np.repeat(prefix[-1:, None], len(transfer), axis=1)
    for ts, path in chain(((ts, path),), chunks):
        gap = (ce.s_L0 - path) - np.where(ts >= activation, transfer, 0.0)
        np.maximum(np.maximum.reduce(gap, axis=0), depth, out=depth)
        area = add_steps(area, ts, path)
    # the paths span [0, ts[-1]] once the loop ends
    return depth, path[-1], area / ts[-1]
