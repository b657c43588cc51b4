"""Labor-share displacement dynamics.

The state variable is the labor share of income ``s_L``. Its drift combines
four flows, per year:

    ds_L/dt = -d(t) * f_slope * g_A        (adoption-weighted substitution)
              - beta * pi(s_L)             (demand-shortfall feedback)
              + rho(A_t)                   (new-task reinstatement)
              + transfer(t)                (fiscal stabilizer, lagged)

``d(t)`` is a logistic adoption curve, ``rho`` grows with the capability
index at diminishing returns, and ``pi`` is margin pressure from demand
falling short of the no-displacement benchmark (clamped at zero when the
labor share is at or above its initial value). The transfer flow is active
only after the policy lag elapses and only while the labor share sits below
its initial value; transfers replace displaced labor income, they do not
push the labor share past its baseline.

Integration is fixed-step classical Runge-Kutta (RK4). The dynamics are
non-stiff in the stable regime, and collapse detection wants uniform time
resolution rather than adaptivity. State is hard-clamped to [0, 1]; a
collapse sentinel records the first time the labor share falls to 1% of
income, below which the model is outside its domain.

A scenario run (:func:`simulate_path`) is a columnar :class:`Trajectory`:
one float64 array per recorded field, with a row view built on demand.
"""

from __future__ import annotations

import bisect
import enum
import gc
import math
from collections.abc import Iterable, Iterator, MutableSequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .params import NUMBER, Calibration, PolicySpec, Scenario, validate, validate_scenario, with_updates
from . import monetary

S_FLOOR = 0.01   # collapse sentinel: labor share below 1% is outside the model's domain
_EXP_CAP = 700.0  # cap on the reinstatement and capability exponents


class IntegrationError(RuntimeError):
    """Non-finite state during integration; message names t and the offending term."""


def capability(t: float, c: Calibration) -> float:
    """Capability index A0 * exp(g_A * t)."""
    x = c.g_A * t
    if x > _EXP_CAP:
        raise IntegrationError(f"capability index overflows at t={t:g} (g_A*t={x:g})")
    return c.A0 * math.exp(x)


def diffusion(t: float, c: Calibration) -> float:
    """Logistic adoption fraction d_bar / (1 + exp(-kappa * (t - t0)))."""
    e = -c.kappa * (t - c.t0_diffusion)
    if e > 40.0:   # tail below 4e-18 of d_bar; avoids exp overflow
        return 0.0
    return c.d_bar / (1.0 + math.exp(e))


def reinstatement_rate(A: float, c: Calibration) -> float:
    """New-task creation rate rho0 + eta * A**alpha_rho; concave in A."""
    return c.rho0 + c.eta * A ** c.alpha_rho


def margin_pressure(s_L: float, c: Calibration) -> float:
    """Demand shortfall vs. the no-displacement benchmark, as a fraction of it.

    Expected demand holds the labor share at its initial value, so the
    pressure is linear in the decline and zero once s_L >= s_L0.
    """
    shortfall = (2.0 * c.mpc_labor - 1.0) * (c.s_L0 - s_L)
    if shortfall <= 0.0:
        return 0.0
    return shortfall / monetary.consumption_ratio(c.s_L0, c)


def transfer_at(t: float, p: PolicySpec) -> float:
    """Effective transfer rate at time ``t``: 0 before activation, ``tau`` after.

    Activation is ``start_time + lag``: transfers respond to conditions
    observed ``lag`` years earlier, so a program started at ``start_time``
    only reaches households after the implementation lag.
    """
    if t < p.start_time + p.lag:
        return 0.0
    return p.tau


def labor_share_derivative(t: float, s_L: float, c: Calibration, p: PolicySpec) -> float:
    """Net labor-share drift at (t, s_L); absorbing at both edges of [0, 1]."""
    stabilizer = transfer_at(t, p) if s_L < c.s_L0 else 0.0
    raw = (
        -diffusion(t, c) * c.f_slope * c.g_A
        - c.beta_feedback * margin_pressure(s_L, c)
        + reinstatement_rate(capability(t, c), c)
        + stabilizer
    )
    if s_L <= 0.0 and raw < 0.0:
        return 0.0
    if s_L >= 1.0 and raw > 0.0:
        return 0.0
    return raw


class TrajectoryPoint(NamedTuple):
    """One row of a :class:`Trajectory`: the state at one grid time."""

    t: float
    s_L: float
    d_t: float
    A_t: float
    rho_t: float
    pi_t: float
    velocity: float
    consumption_ratio: float
    tau_effective: float


# TrajectoryPoint._make without its Python frame: the call stays in C for every row
_make_point = partial(tuple.__new__, TrajectoryPoint)
# table_text's bytes: one bytes % formats a block of _CSV_BLOCK rows from their row-major values
_CSV_ROW = ",".join([NUMBER] * len(TrajectoryPoint._fields)).encode("ascii")
_CSV_BLOCK = 1024


@dataclass(frozen=True, eq=False)  # no field-wise ==: an array comparison has no truth value
class Trajectory:
    """Time-indexed state of one scenario run, stored by column.

    Each field after ``collapse_time`` is one float64 array with an entry
    per grid time, in ``CSV_HEADER`` order. :attr:`points` is a row view of
    the same values, built on first access.
    """

    scenario: str
    collapse_time: float | None
    t: np.ndarray
    s_L: np.ndarray
    d_t: np.ndarray
    A_t: np.ndarray
    rho_t: np.ndarray
    pi_t: np.ndarray
    velocity: np.ndarray
    consumption_ratio: np.ndarray
    tau_effective: np.ndarray

    CSV_HEADER = ",".join(TrajectoryPoint._fields)

    def __post_init__(self) -> None:
        for name in TrajectoryPoint._fields:
            getattr(self, name).flags.writeable = False  # `points` caches these values

    @cached_property
    def points(self) -> tuple[TrajectoryPoint, ...]:
        """One :class:`TrajectoryPoint` per grid time.

        The tuple is built with the cyclic garbage collector paused, and the
        collector is left enabled or disabled as it was found. The rows are
        tuples of floats: they form no reference cycle, so a collection during
        the build could free none of them, and garbage made elsewhere only
        waits for the next collection. CPython never untracks a tuple subclass,
        so without the pause each collection the build set off would traverse
        every row built so far.
        """
        # a memoryview yields each entry as a Python float, without a list of the column
        columns = (memoryview(getattr(self, name)) for name in TrajectoryPoint._fields)
        enabled = gc.isenabled()
        gc.disable()
        try:
            return tuple(map(_make_point, zip(*columns)))
        finally:
            if enabled:
                gc.enable()

    def to_csv(self) -> str:
        """The path as CSV text: ``CSV_HEADER``, then one row of ``NUMBER`` values per grid time.

        Each block of ``_CSV_BLOCK`` rows is one ``bytes %`` over the block's
        row-major values. It writes the bytes of one ``str %`` per row (both
        format a float with ``PyOS_double_to_string``), and the text is decoded
        once at the end.
        """
        columns = [getattr(self, name) for name in TrajectoryPoint._fields]
        full = b"\n".join([_CSV_ROW] * _CSV_BLOCK)
        lines = [self.CSV_HEADER.encode("ascii")]
        for lo in range(0, len(self.t), _CSV_BLOCK):  # a block at a time: no whole-table stack
            block = np.column_stack([c[lo : lo + _CSV_BLOCK] for c in columns])
            fmt = full if len(block) == _CSV_BLOCK else b"\n".join([_CSV_ROW] * len(block))
            lines.append(fmt % tuple(block.ravel().tolist()))
        return b"\n".join([*lines, b""]).decode("ascii")  # b"" gives the final newline


def _effective_calibration(s: Scenario, c: Calibration) -> Calibration:
    if s.g_A_override is None:
        return c
    return with_updates(c, g_A=s.g_A_override)


def _drift_constants(c: Calibration) -> tuple[float, ...]:
    """Per-calibration constants of the RK4 drift, in the order the integrators unpack them.

    ``A(t)**alpha_rho`` is written as ``A0**alpha_rho * exp(alpha_rho*g_A*t)``,
    so the exponentials are the only per-stage cost.
    """
    norm = monetary.consumption_ratio(c.s_L0, c)
    return (
        c.d_bar,
        -c.kappa,
        c.t0_diffusion,
        c.f_slope * c.g_A,                  # displacement scale
        c.rho0,
        c.eta * c.A0 ** c.alpha_rho,        # reinstatement scale
        c.alpha_rho * c.g_A,                # reinstatement exponent rate
        c.beta_feedback,
        c.s_L0,
        (2.0 * c.mpc_labor - 1.0) / norm,   # margin pressure per unit of decline
    )


# Stage times whose time-only terms are computed at once, times the lanes in the
# lane kernel. Larger chunks leave the cache and raise the peak RSS without saving time.
_STAGE_BLOCK = 1 << 12
_SCALAR_CHUNK = _STAGE_BLOCK // 3  # steps of one path whose time-only terms are computed at once


def stage_schedule(lo: int, hi: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The RK4 stage times of steps ``lo`` to ``hi - 1``, as ``(times, rows)``:
    the one statement of the stage-time rule for both integrators.

    Step ``i`` evaluates the drift at its start ``i*dt``, its mid
    ``i*dt + dt/2`` and its end ``i*dt + dt``, the floats a per-step loop
    forms. ``times`` lists each distinct stage time once, in step order;
    ``rows`` is a ``(3, hi - lo)`` array of indices into ``times``, each
    step's start, mid and end. A start equal bit for bit to the previous
    step's end (764 of the 999 after the first at ``dt = 0.01``) shares that
    end's row; the others have rows of their own. The integrators compute the
    time-only terms once per row, and the same time through the same
    operations gives the same bits, so sharing a row changes no value. The
    first step's start always has row 0, so the schedule of a sub-range is a
    slice of this one, its rows less the row of its first start.
    """
    start = np.arange(lo, hi) * dt
    stages = np.stack([start, start + dt / 2.0, start + dt], axis=1)
    own = np.ones(stages.shape, dtype=bool)  # whether a stage time has a row of its own
    own[1:, 0] = stages[1:, 0] != stages[:-1, 2]
    # a stage's row counts the rows before it; a shared start's count ends at the previous end
    return stages[own], np.cumsum(own).reshape(-1, 3).T - 1


def _time_only_steps(
    s: float | np.ndarray, s0: float | np.ndarray, k1: np.ndarray, k2: np.ndarray, k4: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 steps from state ``s`` while the drift depends on time alone, one row per step.

    ``k1``, ``k2`` and ``k4`` are each step's stage drifts at zero margin
    pressure; ``k3 == k2``. Returns the states, ``s`` first, and a mask of
    the steps that match the per-step RK4. The states are one sequential
    ``np.add.accumulate`` of the increments ``sixth * (k1 + 2*k2 + 2*k2 + k4)``:
    the per-step additions, in step order. A step holds where its stage
    inputs lie in ``[s0, 1)``, so no margin pressure, transfer or edge test
    acts, and its new state in ``(S_FLOOR, 1]``, so neither the clamp nor the
    collapse sentinel acts; every comparison is False on NaN. Two bounds
    need no comparison of their own:

    - the third input ``s + half * k2`` lies between ``s`` and the fourth,
      ``s + dt * k2``: ``half * k2`` is ``dt * k2`` halved exactly, and
      rounding is monotone;
    - a state at or above 1 with ``k1 > 0`` puts the second input at or
      above 1, and the edge test leaves a ``k1 <= 0`` alone.

    Callers run it under ``np.errstate``, because a failing state overflows.
    """
    two_k2 = 2.0 * k2
    path = np.add.accumulate(np.concatenate(([s], dt / 6.0 * (k1 + two_k2 + two_k2 + k4))))
    start, new = path[:-1], path[1:]
    ok = (start >= s0) & (new > S_FLOOR) & (new <= 1.0)
    for u in (start + dt / 2.0 * k1, start + dt * k2):
        ok &= (u >= s0) & (u < 1.0)
    return path, ok


def _steps_within_cap(rho_exp: float, n_steps: int, dt: float) -> int:
    """The steps of an ``n_steps`` run before the first with a stage time past the
    reinstatement cap, ``rho_exp * t > _EXP_CAP``, or ``n_steps`` if none is. As
    ``rho_exp >= 0``, that is the first step whose end ``i*dt + dt``, the float
    :func:`stage_schedule` forms, is past it, and the exponent grows with ``i``."""
    return bisect.bisect_right(range(n_steps), _EXP_CAP, key=lambda i: rho_exp * (i * dt + dt))


# one chunk of _stage_rows: (lo, hi, stage_ts, drive)
_ChunkRows = tuple[int, int, np.ndarray, np.ndarray]


def _stage_rows(consts: tuple[float, ...], n_steps: int, dt: float) -> Iterator[_ChunkRows]:
    """The time-only terms of a path's RK4 stages, a chunk of ``_SCALAR_CHUNK`` steps
    at a time from step 0, on the calibration whose :func:`_drift_constants` are
    ``consts``: yields ``(lo, hi, stage_ts, drive)`` for steps ``lo`` to ``hi - 1``.

    ``stage_ts`` is a ``(3, hi - lo)`` array of each step's start, mid and end
    times, and ``drive`` a ``(2, 3, hi - lo)`` array of ``-d * disp_scale`` and rho
    there (:func:`_drive`), computed once per row of the chunk's :func:`stage_schedule`.
    ``n_steps`` ends at or before the reinstatement cap (:func:`_steps_within_cap`), so
    no rho exponent exceeds ``_EXP_CAP``; callers set ``np.errstate``, as a failing
    calibration's rows overflow.
    """
    drive = _drive_constants(consts)
    for lo in range(0, n_steps, _SCALAR_CHUNK):
        hi = min(lo + _SCALAR_CHUNK, n_steps)
        ts, rows = stage_schedule(lo, hi, dt)
        at = np.empty((2, len(ts)))
        _drive(ts, *drive, at[0], at[1])
        yield lo, hi, ts[rows], at[:, rows]


def _time_only_prefix(
    consts: tuple[float, ...], n_steps: int, dt: float, s: float | None = None,
) -> tuple[int, np.ndarray, Iterator[_ChunkRows]]:
    """The leading steps from state ``s`` (by default ``s_L0``) at t = 0 that
    :func:`_time_only_steps` takes on the rows (:func:`_stage_rows`) of the calibration
    whose :func:`_drift_constants` are ``consts``, up to the first step it refuses: step
    ``r``, or ``n_steps`` (at or before the reinstatement cap) if none is refused.
    These are the only steps the scalar path takes as array arithmetic. A start
    below ``s_L0``, where the margin pressure acts, or at or below ``S_FLOOR``,
    collapsed at t = 0 as only the per-step path records, gives ``r = 0`` without a call.

    Returns ``r``, the states at grid points 0 to ``r``, and the rows from the
    chunk holding step ``r`` on, each later chunk computed as it is read: what
    :func:`_rk4_path` takes to go on from ``r``. Every stage input of the steps
    before ``r`` lies at or above ``s_L0``, where no transfer flows, so every
    policy's path over this calibration is the same through grid point ``r``.
    Callers run it under ``np.errstate``, because a failing state overflows.
    """
    *_, s0, _ = consts
    s = s0 if s is None else s
    states = [np.array([s])]
    chunks = _stage_rows(consts, n_steps, dt)
    for chunk in chunks:
        lo, hi, _, (push, rho) = chunk
        taken = 0
        if s >= s0 and s > S_FLOOR:
            path, ok = _time_only_steps(s, s0, *(push + rho), dt)
            taken = len(ok) if ok.all() else int(ok.argmin())
            states.append(path[1 : taken + 1])
        if lo + taken < hi:
            return lo + taken, np.concatenate(states), chain((chunk,), chunks)
        s = path[-1]
    return n_steps, np.concatenate(states), chunks


def integrate_labor_share(
    c: Calibration,
    p: PolicySpec,
    horizon: float,
    dt: float,
    record: list[float] | None = None,
    s_init: float | None = None,
) -> tuple[float, float | None]:
    """RK4-integrate the labor share from (0, s_init or s_L0) to the horizon.

    Returns (final labor share, collapse time or None). When ``record`` is
    given, the labor share is appended at every grid point including t = 0;
    grid point ``i`` lies at ``i * dt``.
    ``s_init`` supports perturbation experiments; the feedback stays anchored
    at the calibration's s_L0.

    The leading steps whose drift depends on time alone are
    :func:`_time_only_prefix`'s array arithmetic, and every step from the first
    it refuses is :func:`_rk4_path`'s, per step: the sequence the policy sweep
    runs. Both take the drift terms that depend on time alone from
    :func:`_stage_rows`, the lane kernel's rows, so the path is a one-lane
    :func:`rk4_lanes` run bit for bit. The steps go through the same
    operations as a per-stage loop, which must stay numerically equivalent to
    :func:`labor_share_derivative` (the integrator tests pin the agreement, and
    a frozen copy of the per-stage form, with ``np.exp`` per stage time, pins
    every bit).

    Raises :class:`IntegrationError` in the order the per-stage form did:
    at the first step whose state turns non-finite, or at the first stage
    time whose reinstatement exponent passes the cap, whichever comes first.
    ``record`` then holds every state up to that step. The run stops short of the
    cap, which is found before it (:func:`_steps_within_cap`).
    """
    consts = _drift_constants(c)
    rho_exp = consts[6]
    n_steps = round(horizon / dt)
    within = _steps_within_cap(rho_exp, n_steps, dt)
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic: inf, nan, silently
        r, states, chunks = _time_only_prefix(consts, within, dt, s_init)
        if record is not None:
            record.extend(states[:-1].tolist())  # _rk4_path records the state at r
        (end,) = _rk4_path(consts, [(p.tau, p.start_time + p.lag, record)], chunks, r, dt,
                           float(states[-1]))
    if isinstance(end, IntegrationError):
        raise end
    if within < n_steps:  # step `within` has a stage past the cap: name the first
        t = within * dt
        t = next(ts for ts in (t, t + dt / 2.0, t + dt) if rho_exp * ts > _EXP_CAP)
        raise IntegrationError(f"reinstatement term overflows at t={t:g} (alpha_rho*g_A*t={rho_exp * t:g})")
    return end


def _rk4_path(
    consts: tuple[float, ...],
    paths: list[tuple[float, float, MutableSequence[float] | None]],
    chunks: Iterable[_ChunkRows],
    r: int,
    dt: float,
    s: float,
) -> list[tuple[float, float | None] | IntegrationError]:
    """:func:`integrate_labor_share`'s RK4 from state ``s`` at grid point ``r``, once for
    each of ``paths``, over the time-only terms ``chunks`` (:func:`_stage_rows`, the
    first holding step ``r``) of the calibration whose :func:`_drift_constants` are
    ``consts``, under the caller's ``np.errstate``: a failing state overflows.

    A path is ``(tau, activation, record)``: the transfer ``tau`` from
    ``activation`` on, and a list that takes the state at ``r`` and each
    state after it, or None. The paths run one after the other through each
    chunk, so they share its rows ``-d * disp_scale`` and rho; only the
    transfer row, computed per chunk, is a path's own. The four stages are
    written out inline, in Python floats. They stay inline: a helper called per
    stage measured 17-24% slower on 10000-step paths. After each step one range
    test ``0 <= s <= 1`` passes every finite state inside the interval; the
    finiteness check and the clamp run only behind it.

    Every step runs per step: the leading steps whose drift depends on time
    alone are :func:`_time_only_prefix`'s, which refused step ``r``. A start
    at ``r`` inside a chunk runs from there.

    Returns, for each path, ``(final state, collapse time or None)`` as
    :func:`integrate_labor_share` does, or the :class:`IntegrationError` it
    would raise: the path stops there, and its ``record`` holds every state up
    to that step.
    """
    beta, s0, k_pi = consts[7:]
    half = dt / 2.0
    sixth = dt / 6.0
    ends: list = []  # each path's (state, collapse time) so far, or the error that ended it
    for _, _, record in paths:
        if record is not None:
            record.append(s)
        ends.append((s, r * dt if s <= S_FLOOR else None))

    for lo, hi, stage_ts, drive in chunks:
        skip = max(lo, r) - lo  # the chunk's steps before r, which the caller has taken
        for g, (tau, activation, record) in enumerate(paths):
            if isinstance(ends[g], IntegrationError):
                continue
            s, collapse = ends[g]
            on = np.where(stage_ts >= activation, tau, 0.0)
            append = None if record is None else record.append
            # each stage's push, rho and transfer rows; a memoryview yields each entry as a
            # Python float, without a list of them all
            rows = (memoryview(row[skip:]) for k in range(3) for row in (*drive[:, k], on[k]))
            try:
                for i, push1, rho1, on1, push2, rho2, on2, push4, rho4, on4 in zip(
                    range(lo + skip, hi), *rows
                ):
                    gap = s0 - s
                    if gap > 0.0:
                        k1 = push1 - beta * (k_pi * gap) + rho1 + on1
                    else:
                        k1 = push1 + rho1
                    if s <= 0.0 and k1 < 0.0:
                        k1 = 0.0
                    elif s >= 1.0 and k1 > 0.0:
                        k1 = 0.0
                    u = s + half * k1
                    gap = s0 - u
                    if gap > 0.0:
                        k2 = push2 - beta * (k_pi * gap) + rho2 + on2
                    else:
                        k2 = push2 + rho2
                    if u <= 0.0 and k2 < 0.0:
                        k2 = 0.0
                    elif u >= 1.0 and k2 > 0.0:
                        k2 = 0.0
                    u = s + half * k2
                    gap = s0 - u
                    if gap > 0.0:
                        k3 = push2 - beta * (k_pi * gap) + rho2 + on2
                    else:
                        k3 = push2 + rho2
                    if u <= 0.0 and k3 < 0.0:
                        k3 = 0.0
                    elif u >= 1.0 and k3 > 0.0:
                        k3 = 0.0
                    u = s + dt * k3
                    gap = s0 - u
                    if gap > 0.0:
                        k4 = push4 - beta * (k_pi * gap) + rho4 + on4
                    else:
                        k4 = push4 + rho4
                    if u <= 0.0 and k4 < 0.0:
                        k4 = 0.0
                    elif u >= 1.0 and k4 > 0.0:
                        k4 = 0.0
                    s = s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    if not 0.0 <= s <= 1.0:  # False on NaN too
                        if not math.isfinite(s):
                            raise IntegrationError(
                                f"labor share became non-finite at t={i * dt + dt:g}; "
                                f"stage derivatives k1={k1:g} k2={k2:g} k3={k3:g} k4={k4:g}"
                            )
                        s = 0.0 if s < 0.0 else 1.0
                    if collapse is None and s <= S_FLOOR:
                        collapse = (i + 1) * dt
                    if append is not None:
                        append(s)
            except IntegrationError as error:
                ends[g] = error
            else:
                ends[g] = (s, collapse)
    return ends


_LANE_BLOCK = 4096  # Monte Carlo lanes integrated together; bounds the kernel's working set


def column_lane_constants(c: Calibration, n: int, p: PolicySpec) -> np.ndarray:
    """The lane kernel's constants for ``n`` lanes: one row per drift constant,
    then ``tau`` and the activation time ``start_time + lag``; one column per lane.

    The calibration ``c`` and the policy ``p`` are stored by column: each field
    of either is a float shared by every lane or an array with one entry per
    lane. It evaluates :func:`_drift_constants` once, on the columns, and
    ``p.start_time + p.lag`` once, so each entry comes from the same IEEE
    operations, in the same order, as that lane's scalar calibration and policy
    would give; ``A0 ** alpha_rho`` stays a Python scalar.
    """
    rows = (*_drift_constants(c), p.tau, p.start_time + p.lag)
    return np.array([np.broadcast_to(row, (n,)) for row in rows], dtype=np.float64)


def integrate_lanes(consts: np.ndarray, horizon: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4-integrate independent lanes, one column of ``consts`` each.

    ``consts`` comes from :func:`column_lane_constants`.
    Returns (final labor share, failed) arrays, one entry per lane. A lane
    fails when its reinstatement exponent passes the overflow cap at any
    stage or its state turns non-finite; the other lanes are unaffected and
    a failed lane's final share is NaN. Every lane repeats the arithmetic
    of :func:`integrate_labor_share` operation for operation, on the same
    ``np.exp`` rows, so a lane's final share is the scalar result bit for
    bit. Lanes are integrated in fixed blocks, one chunk of steps at a time;
    no lane x step matrix of the whole run is built.
    """
    n = consts.shape[1]
    s_final = np.empty(n)
    failed = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, n, _LANE_BLOCK):
            hi = min(lo + _LANE_BLOCK, n)
            for _, path in rk4_lanes(consts[:, lo:hi], horizon, dt, failed[lo:hi]):
                pass
            s_final[lo:hi] = path[-1]
    s_final[failed] = np.nan
    return s_final, failed


def _clear_of_edges(s: np.ndarray, lo_edge: float, hi_edge: float) -> bool:
    """Whether every lane of ``s`` lies above ``lo_edge`` and below ``hi_edge``.

    A NaN edge fails both comparisons. ``fmin`` / ``fmax`` skip NaN lanes,
    which the absorbing edges leave alone; ``initial`` covers no lanes."""
    return bool(np.fmin.reduce(s, initial=1.0) > lo_edge and np.fmax.reduce(s, initial=0.0) < hi_edge)


def _drive_constants(consts) -> tuple:
    """:func:`_drive`'s constants from the leading :func:`_drift_constants` of one
    calibration, or from the leading rows of the lane kernel's constants."""
    d_bar, neg_kappa, t0, disp_scale, rho0, rho_scale, rho_exp = consts[:7]
    return d_bar, neg_kappa, t0, -disp_scale, rho0, rho_scale, rho_exp


def _adoption(ts: np.ndarray, d_bar: float, neg_kappa: float, t0: float, out: np.ndarray) -> np.ndarray:
    """:func:`diffusion` at the times ``ts``, written to and returned in ``out``: the one
    array form of the logistic, through ``np.exp``.

    ``d = 0`` where ``e = -kappa * (t - t0)`` exceeds 40, an infinite ``e``
    included, as in :func:`diffusion`; a NaN ``e`` gives NaN. Callers silence
    the overflow of ``e``.
    """
    np.subtract(ts, t0, out=out)
    np.multiply(neg_kappa, out, out=out)  # e
    upper = out > 40.0
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    np.divide(d_bar, out, out=out)  # d
    out[upper] = 0.0
    return out


def _drive(
    ts: np.ndarray, d_bar: float, neg_kappa: float, t0: float, neg_disp: float, rho0: float,
    rho_scale: float, rho_exp: float, push: np.ndarray, rho: np.ndarray,
) -> None:
    """The state-free drift terms at the stage times ``ts``, written to ``push`` and
    ``rho``: ``-d * disp_scale`` (with ``neg_disp = -disp_scale``) and rho, through
    ``np.exp``. The constants (:func:`_drive_constants`) are floats with ``ts`` 1-D, or
    columns of lanes with ``ts`` a column. Every row of time-only terms comes from
    here: the scalar integrator's, the lane kernel's and the policy sweep's.
    """
    np.multiply(_adoption(ts, d_bar, neg_kappa, t0, push), neg_disp, out=push)
    np.multiply(rho_exp, ts, out=rho)
    np.exp(rho, out=rho)
    np.multiply(rho_scale, rho, out=rho)
    np.add(rho0, rho, out=rho)


def rk4_lanes(
    consts: np.ndarray, horizon: float, dt: float, failed: np.ndarray, r: int = 0,
    s_r: float | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The lane kernel: yields ``(ts, path)`` for each chunk of the steps from grid
    point ``r`` on, every lane starting there at ``s_r`` (by default at t = 0, each
    lane at its ``s_L0``); ``horizon > dt / 2``.

    ``path`` is a fresh ``(steps + 1, lanes)`` array of labor shares, never
    written after it is yielded; row 0 repeats the previous chunk's last row
    (the state at ``r`` in the first chunk). ``ts`` is the column of its grid times
    ``i * dt``, the floats :func:`integrate_labor_share` forms. The policy sweep
    starts its lanes where the no-policy prefix they share ends
    (:func:`_time_only_prefix`); the Monte Carlo starts at t = 0.

    ``consts`` comes from :func:`column_lane_constants`. Failed lanes are marked in
    ``failed`` in place and keep being integrated: a lane whose
    reinstatement exponent passes the cap at the last stage time is marked
    before the first step, a lane whose state turns non-finite at that
    step. Callers run the kernel under ``np.errstate(all="ignore")``,
    because a failing lane overflows.

    The time-only terms (``-d * disp_scale``, rho and the transfer) are
    computed for a chunk of steps at once, at most ``_STAGE_BLOCK`` entries,
    into buffers reused across chunks, so no stage-time x lane matrix of the
    whole run is built. They are computed once per row of the run's
    :func:`stage_schedule`, which the kernel builds once and slices by chunk;
    a chunk whose first start shares the previous chunk's last end copies
    that row's terms. The per-lane drift terms, stage inputs and states are
    fresh arrays: writing them in place with ``out=`` costs more per call
    than it saves at 21-78 lanes; only the clamp writes each step's state
    straight into its row of the path.

    Every lane that does not fail yields the values of
    :func:`integrate_labor_share`'s operations, bit for bit.
    The logistic has one tail mask, ``d = 0`` for ``e > 40`` with
    ``e = -kappa * (t - t0)``: below ``e = -40`` the formula is the tail,
    as ``exp(e) < 2**-53`` makes ``d_bar / (1.0 + exp(e)) == d_bar``.
    Three terms run only when they can change a value:

    - the transfer, in a chunk whose last stage time is at or after the
      earliest activation among lanes with a non-zero ``tau``. Its rows before
      that time are zero in every lane;
    - the per-step loop, only from the first chunk that cannot run as array
      arithmetic: chunks of more than one step on the leading run from t = 0
      try it, up to the first refused. There the chunk's drifts are
      ``push + rho`` and ``k3 == k2``;
      :func:`_time_only_steps` forms its states and checks every lane at
      every step, and the chunk is taken whole or not at all. Its states are
      the per-step loop's: the loop's margin term is then ``+0.0``, the
      transfer ``transfer * False`` adds a zero, and no edge test or clamp
      acts. The Monte Carlo's 2000 lanes run one step per chunk and never try it,
      nor does a run from a given ``s_r`` at ``r``: the prefix refused step ``r``;
    - the absorbing edges, only in a chunk whose states do not all start
      clear of the edges, and there when some stage state is ``<= 0`` or
      ``>= 1``. While every stage input is inside (0, 1), each lane's drift
      lies in ``[-down, up]``, with ``down = d_bar * disp_scale + beta * k_pi * s0``
      and ``up`` rho at the last stage time plus ``tau``; a chunk of ``L``
      steps moves no stage input further than ``L * dt`` times the largest
      bound, and the factor 2 and the extra step leave room for rounding. So when the chunk's states start above ``(L+1) * 2*dt * max(down)``
      and below ``1 - (L+1) * 2*dt * max(up)``, one ``fmin`` / ``fmax`` per
      chunk shows that no stage input reaches an edge, and the edge test is
      skipped. A NaN or infinite bound (an overflowing lane) fails that test.

    The margin pressure is ``k_pi * max(gap, 0)`` and the transfer enters
    as ``transfer * (gap > 0)``. Skipping a zero transfer, adding one, or
    adding it as a product, changes a drift only in the sign of a zero. No
    state sees that: ``s`` is never ``-0.0``, so ``s + (+-0.0) == s``; and
    ``gap = s0 - s`` is never ``-0.0``, because ``s0 > 0``.
    """
    d_bar, neg_kappa, t0, disp_scale, rho0, rho_scale, rho_exp, beta, s0, k_pi, tau, activation = (
        consts
    )
    half = dt / 2.0
    sixth = dt / 6.0
    n_steps = round(horizon / dt)
    # a stage row's transfer is non-zero in some lane exactly from this time on
    first_transfer = float(activation[tau != 0.0].min(initial=math.inf))
    times, rows = stage_schedule(r, n_steps, dt)  # step i's rows are column i - r
    t_last = times.max(initial=0.0)  # the largest stage time, the last end; 0 without steps
    # alpha_rho * g_A >= 0, so a lane's exponent is largest at t_last
    failed |= rho_exp * t_last > _EXP_CAP
    chunk = max(1, _STAGE_BLOCK // (3 * max(1, s0.size)))
    # The drift bounds [-down, up] of the docstring, on the signs validate() enforces
    # (k_pi > 0, every other term >= 0), scaled to the farthest a chunk can reach.
    reach = (chunk + 1) * 2.0 * dt
    lo_edge = reach * (d_bar * disp_scale + beta * (k_pi * s0)).max(initial=0.0)
    hi_edge = 1.0 - reach * (rho0 + rho_scale * np.exp(rho_exp * t_last) + tau).max(initial=0.0)
    # Fresh stage-time x lane temporaries cost more than the arithmetic on them.
    push_buf = np.empty((3 * min(chunk, n_steps - r), s0.size))
    rho_buf = np.empty_like(push_buf)
    # numpy converts a Python float operand on every call, a 0-d array it takes as is
    zero, one, two, half_dt, full_dt, sixth_dt = map(np.array, (0.0, 1.0, 2.0, half, dt, sixth))
    drive_consts = _drive_constants(consts)

    def deriv(s: np.ndarray, push: np.ndarray, rho: np.ndarray, transfer: np.ndarray | None) -> np.ndarray:
        gap = s0 - s
        raw = push - beta * (k_pi * np.maximum(gap, zero)) + rho
        if transfer is not None:
            raw = raw + transfer * (gap > zero)
        if near_edge:  # this chunk's states do not start clear of the edges
            # fmin / fmax skip NaN, so a failed lane hides no lane at an edge; `initial` covers no lanes
            if np.fmin.reduce(s, initial=1.0) <= 0.0:
                raw = np.where((s <= 0.0) & (raw < 0.0), 0.0, raw)
            if np.fmax.reduce(s, initial=0.0) >= 1.0:
                raw = np.where((s >= 1.0) & (raw > 0.0), 0.0, raw)
        return raw

    s = s0 if s_r is None else np.full(s0.shape, s_r)
    leading = chunk > 1 and s_r is None  # whether every chunk so far ran as array arithmetic
    done = last = 0  # the schedule rows whose terms are computed, the last at buffer row `last`
    for lo in range(r, n_steps, chunk):
        hi = min(lo + chunk, n_steps)
        step_rows = rows[:, lo - r : hi - r].T.tolist()  # each step's (start, mid, end) schedule rows
        r0, r1 = step_rows[0][0], step_rows[-1][2] + 1
        ts = times[r0:r1, None]  # the chunk's stage times; schedule row r is buffer row r - r0
        shared = done - r0  # 1 where the first start is the previous chunk's last end, else 0
        if shared:
            push_buf[0], rho_buf[0] = push_buf[last], rho_buf[last]
        _drive(ts[shared:], *drive_consts, push_buf[shared : len(ts)], rho_buf[shared : len(ts)])
        done, last = r1, len(ts) - 1
        if times[r1 - 1] >= first_transfer:  # the chunk's last end is its latest stage time
            transfer = np.where(ts >= activation, tau, 0.0)
        else:
            transfer = repeat(None)
        near_edge = not _clear_of_edges(s, lo_edge, hi_edge)
        if leading:
            drift = push_buf[: len(ts)] + rho_buf[: len(ts)]
            path, ok = _time_only_steps(s, s0, *drift[rows[:, lo - r : hi - r] - r0], dt)
            leading = bool(ok.all())
        if leading:
            s = path[-1]
        else:
            stages = list(zip(push_buf, rho_buf, transfer))
            path = np.empty((hi - lo + 1, s0.size))
            path[0] = s
            for j, (start, mid, end) in enumerate(step_rows, 1):
                k1 = deriv(s, *stages[start - r0])
                k2 = deriv(s + half_dt * k1, *stages[mid - r0])
                k3 = deriv(s + half_dt * k2, *stages[mid - r0])
                k4 = deriv(s + full_dt * k3, *stages[end - r0])
                s = s + sixth_dt * (k1 + two * k2 + two * k3 + k4)
                failed |= ~np.isfinite(s)
                s = np.minimum(np.maximum(s, zero), one, out=path[j])
        yield (np.arange(lo, lo + len(path)) * dt).reshape(-1, 1), path


def simulate_path(s: Scenario, c: Calibration) -> Trajectory:
    """Integrate a scenario and record the full per-step state, one column per field.

    Besides (t, s_L), the columns are the adoption fraction, capability
    index, reinstatement rate, margin pressure, velocity, consumption ratio
    and the transfer actually flowing at each step. The columns are the
    scalar functions of this module and :mod:`monetary` as whole-array
    expressions in the same operation order; branches become masks. The
    exponentials and the power go through ``np.exp`` and ``np.power`` (the
    adoption fraction through :func:`_adoption`, as the integrator's rows do),
    so ``d_t``, ``A_t`` and ``rho_t`` may differ from :func:`diffusion`,
    :func:`capability` and :func:`reinstatement_rate` in the last bits, as
    numpy's exponential differs from ``math.exp``; every other column is
    bit-identical to its scalar function. Raises :class:`IntegrationError`
    at the first grid time whose capability index overflows, with
    :func:`capability`'s message.
    """
    problems = validate(c) + validate_scenario(s)
    if problems:
        raise ValueError("; ".join(problems))
    ce = _effective_calibration(s, c)
    states: list[float] = []
    _, collapse = integrate_labor_share(ce, s.policy, s.horizon, s.dt, record=states)
    s_L = np.array(states)
    t = np.arange(s_L.size) * s.dt  # the integrator's grid times (i + 1) * dt, bit for bit
    # capability: A0 * exp(g_A * t), overflow checked at the first grid time past the cap
    x = ce.g_A * t
    past_cap = np.flatnonzero(x > _EXP_CAP)
    if past_cap.size:
        capability(float(t[past_cap[0]]), ce)  # raises
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic: inf and nan, silently
        d_t = _adoption(t, ce.d_bar, -ce.kappa, ce.t0_diffusion, np.empty(t.size))
        A_t = ce.A0 * np.exp(x)
        rho_t = ce.rho0 + ce.eta * np.power(A_t, ce.alpha_rho)  # reinstatement_rate
    # margin_pressure, with its `shortfall <= 0` branch as a mask
    shortfall = (2.0 * ce.mpc_labor - 1.0) * (ce.s_L0 - s_L)
    # Transfers flow only while the labor share sits below baseline (transfer_at).
    tau_eff = np.where((s_L < ce.s_L0) & (t >= s.policy.start_time + s.policy.lag), s.policy.tau, 0.0)
    return Trajectory(
        scenario=s.name,
        collapse_time=collapse,
        t=t,
        s_L=s_L,
        d_t=d_t,
        A_t=A_t,
        rho_t=rho_t,
        pi_t=np.where(shortfall > 0.0, shortfall / monetary.consumption_ratio(ce.s_L0, ce), 0.0),
        velocity=monetary.velocity(s_L, tau_eff, ce),
        consumption_ratio=monetary.consumption_ratio(s_L, ce),
        tau_effective=tau_eff,
    )


def explosive_threshold(rho: float, c: Calibration) -> float:
    """Critical capability growth rate above which displacement is self-reinforcing.

    ``g*(rho) = g*_0 * (1 + rho / (d_bar * f_slope))`` with
    ``g*_0 = ((1 - beta*c) / (beta*c)) * f_slope``; strictly increasing in
    the reinstatement rate.
    """
    bc = c.beta_feedback * c.mpc_labor
    g_star_0 = (1.0 - bc) / bc * c.f_slope
    return g_star_0 * (1.0 + rho / (c.d_bar * c.f_slope))


def feedback_rate(c: Calibration) -> float:
    """``beta_feedback * k_pi``, with ``k_pi`` the margin pressure per unit of decline.

    Below ``s_L0`` the drift falls by this much per unit fall of the labor
    share, whatever ``g_A``: the local rate, per year, at which the demand
    feedback amplifies a downward perturbation.
    """
    *_, beta, _, k_pi = _drift_constants(c)
    return beta * k_pi


def amplification(s_L: np.ndarray, dt: float, c: Calibration) -> float:
    """The linearised growth factor of a small downward perturbation along the recorded
    path ``s_L`` (grid step ``dt``): ``exp(feedback_rate * dt * k)``.

    ``k`` counts the steps that start strictly inside ``(0, s_L0)``, where the
    drift's slope in ``s_L`` is ``-feedback_rate``. At or above ``s_L0`` the
    drift depends on time alone, and at 0 the edge absorbs, so a step from
    there leaves the perturbation as it is. Past the float range it is ``inf``.
    """
    starts = s_L[:-1]
    k = int(np.count_nonzero((starts > 0.0) & (starts < c.s_L0)))
    if k == 0:  # also where feedback_rate overflows, and inf * 0 would be NaN
        return 1.0
    try:
        return math.exp(feedback_rate(c) * dt * k)
    except OverflowError:
        return math.inf


class RegimeKind(enum.Enum):
    REINSTATEMENT_DOMINATED = "reinstatement-dominated"
    STABLE_DISPLACEMENT = "stable displacement"
    EXPLOSIVE_DISPLACEMENT = "explosive displacement"


@dataclass(frozen=True)
class Regime:
    kind: RegimeKind
    threshold: float  # rho-adjusted critical growth rate


def classify_regime(c: Calibration) -> Regime:
    """The paper's reduced stability condition, with rho at A0 and adoption at its ceiling.

    It compares ``rho(A0)`` with ``d_bar * f_slope * g_A`` and ``g_A`` with
    :func:`explosive_threshold`. It makes no claim about the level path or
    collapse: the full ODE's margin term amplifies a downward perturbation
    wherever it is active, so a calibration labelled stable displacement can
    still collapse within the horizon (at the shipped defaults, the
    ``extreme`` scenario does, at t = 8.06).
    """
    rho = reinstatement_rate(c.A0, c)
    threshold = explosive_threshold(rho, c)
    if rho > c.d_bar * c.f_slope * c.g_A:
        kind = RegimeKind.REINSTATEMENT_DOMINATED
    elif c.g_A > threshold:
        kind = RegimeKind.EXPLOSIVE_DISPLACEMENT
    else:
        kind = RegimeKind.STABLE_DISPLACEMENT
    return Regime(kind=kind, threshold=threshold)
