import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrostress import dynamics, policy
from macrostress.cli import main
from macrostress.dynamics import IntegrationError, simulate_path
from macrostress.monetary import cumulative_consumption_decline
from macrostress.params import (
    PolicySpec, Scenario, default_calibration, default_scenarios, validate, validate_scenario,
    with_updates,
)
from macrostress.policy import PolicyGrid, SweepCell, crisis_depth, policy_sweep, transfer_at

from lane_reference import lane_constants, reference_policy_sweep

C = default_calibration()


# --- transfer activation -----------------------------------------------------

def test_transfer_inactive_before_lag():
    p = PolicySpec(tau=0.10, lag=0.5)
    assert transfer_at(0.0, p) == 0.0
    assert transfer_at(0.49, p) == 0.0


def test_transfer_active_after_lag():
    p = PolicySpec(tau=0.10, lag=0.5)
    assert transfer_at(1.0, p) == 0.10


def test_transfer_zero_magnitude():
    p = PolicySpec(tau=0.0, lag=0.0)
    for t in (0.0, 1.0, 50.0):
        assert transfer_at(t, p) == 0.0


def test_transfer_respects_start_time():
    p = PolicySpec(tau=0.05, lag=1.0, start_time=2.0)
    assert transfer_at(2.5, p) == 0.0
    assert transfer_at(3.0, p) == 0.05


# --- crisis depth ------------------------------------------------------------

def test_depth_zero_on_constant_trajectory():
    c = with_updates(C, g_A=0.0, d_bar=1e-300, rho0=0.0, eta=0.0)
    traj = simulate_path(Scenario(name="still", g_A_override=0.0), c)
    assert crisis_depth(traj, PolicySpec()) == 0.0


def test_depth_zero_when_transfer_covers_decline():
    traj = simulate_path(Scenario(name="rapid", g_A_override=0.20), C)
    max_decline = max(C.s_L0 - p.s_L for p in traj.points)
    p = PolicySpec(tau=max_decline + 0.01, lag=0.0)
    assert crisis_depth(traj, p) == 0.0


def test_depth_unmitigated_rapid_run_exceeds_040():
    traj = simulate_path(Scenario(name="rapid", g_A_override=0.20), C)
    assert crisis_depth(traj, PolicySpec()) > 0.40


# --- sweep -------------------------------------------------------------------

def test_grid_validation():
    base = Scenario(name="rapid", g_A_override=0.20)
    with pytest.raises(ValueError):
        PolicyGrid(lags=(), taus=(0.1,), base=base)
    with pytest.raises(ValueError):
        PolicyGrid(lags=(1.0, 0.5), taus=(0.1,), base=base)


def _sweep(lags, taus, horizon=10.0, dt=0.02):
    base = Scenario(name="rapid", g_A_override=0.20, horizon=horizon, dt=dt)
    return policy_sweep(PolicyGrid(lags=lags, taus=taus, base=base), C)


def test_sweep_zero_tau_depth_equals_unmitigated_at_any_lag():
    cells = _sweep((0.0, 1.0, 3.0), (0.0,))
    traj = simulate_path(
        Scenario(name="rapid", g_A_override=0.20, horizon=10.0, dt=0.02), C
    )
    unmitigated = max(C.s_L0 - p.s_L for p in traj.points)
    for cell in cells:
        assert cell.depth == pytest.approx(unmitigated, rel=1e-12)


def test_sweep_fast_large_policy_stabilizes():
    cells = _sweep((0.5,), (0.10,), dt=0.01)
    assert cells[0].s_L_final >= 0.40
    assert cells[0].depth == pytest.approx(0.0, abs=1e-9)


def test_sweep_small_late_transfer_loses_to_fast_large():
    # a small transfer arriving after the spiral ignited leaves positive depth
    cells = _sweep((0.5, 4.0), (0.03, 0.10), dt=0.01)
    by_key = {(c.lag, c.tau): c for c in cells}
    assert by_key[(4.0, 0.03)].depth > by_key[(0.5, 0.10)].depth


def test_sweep_monotone_comparative_statics():
    lags = (0.0, 1.0, 2.0, 4.0, 6.0)
    taus = (0.0, 0.03, 0.10)
    cells = _sweep(lags, taus)
    by_key = {(c.lag, c.tau): c for c in cells}
    tol = 1e-9
    for tau in taus:
        for a, b in zip(lags, lags[1:]):
            assert by_key[(b, tau)].depth >= by_key[(a, tau)].depth - tol
    for lag in lags:
        for a, b in zip(taus, taus[1:]):
            assert by_key[(lag, b)].depth <= by_key[(lag, a)].depth + tol


def test_sweep_depth_monotone_in_growth_rate():
    depths = []
    for g in (0.05, 0.20, 0.40):
        base = Scenario(name="x", g_A_override=g, horizon=10.0, dt=0.02)
        cells = policy_sweep(PolicyGrid(lags=(1.0,), taus=(0.03,), base=base), C)
        depths.append(cells[0].depth)
    assert depths[0] <= depths[1] <= depths[2]


def test_sweep_row_order_deterministic():
    cells = _sweep((0.0, 1.0), (0.03, 0.10))
    assert [(c.lag, c.tau) for c in cells] == [
        (0.0, 0.03), (0.0, 0.10), (1.0, 0.03), (1.0, 0.10)
    ]


def test_sweep_worker_count_invariant():
    base = Scenario(name="rapid", g_A_override=0.20, horizon=5.0, dt=0.05)
    grid = PolicyGrid(lags=(0.0, 1.0), taus=(0.03, 0.10), base=base)
    serial = policy_sweep(grid, C, jobs=1)
    assert policy_sweep(grid, C, jobs=2) == serial
    assert policy_sweep(grid, C, jobs=4) == serial


# --- lane sweep vs the per-cell reference ------------------------------------

def _reference_cells(grid, c):
    """One recorded scalar path per cell, reduced by crisis_depth and
    cumulative_consumption_decline: the sweep before it ran on lanes."""
    cells = []
    for lag in grid.lags:
        for tau in grid.taus:
            policy = PolicySpec(tau=tau, lag=lag, start_time=grid.base.policy.start_time)
            traj = simulate_path(dataclasses.replace(grid.base, policy=policy), c)
            cells.append(SweepCell(
                lag=lag,
                tau=tau,
                depth=crisis_depth(traj, policy),
                s_L_final=traj.points[-1].s_L,
                consumption_decline_pct=100.0 * cumulative_consumption_decline(traj, c),
            ))
    return cells


_RAPID = Scenario(name="rapid", g_A_override=0.20, horizon=10.0, dt=0.02)


@pytest.mark.parametrize("lags,taus,base", [
    ((1.0,), (0.05,), _RAPID),                                           # one cell
    ((0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0), (0.07,), _RAPID),              # seven cells
    ((0.5, 12.0), (0.03, 0.10), _RAPID),                                 # a lag beyond the horizon
    ((0.0, 2.0), (0.0,), _RAPID),                                        # tau = 0
    ((0.0, 1.0), (0.03, 0.10),
     dataclasses.replace(_RAPID, policy=PolicySpec(start_time=1.5))),     # start_time > 0
    ((0.0, 6.0), (0.0, 0.02), Scenario(name="extreme", g_A_override=0.40,
                                       horizon=10.0, dt=0.02)),           # reaches s = 0
    ((0.0,), (0.0, 0.10), Scenario(name="surge", g_A_override=2.0,
                                   horizon=10.0, dt=0.02)),               # reaches s = 1
])
def test_lane_sweep_equals_reference(lags, taus, base):
    grid = PolicyGrid(lags=lags, taus=taus, base=base)
    cells = policy_sweep(grid, C)
    assert cells == _reference_cells(grid, C)
    assert all(type(v) is float for cell in cells for v in dataclasses.astuple(cell))


# the 7 x 3 grid `repro` sweeps: 21 cells, which a kernel pass of one lane per cell
# integrates 65 steps per chunk
_REPRO_LAGS, _REPRO_TAUS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0), (0.03, 0.05, 0.10)
_REPRO_CHUNK = dynamics._STAGE_BLOCK // (3 * len(_REPRO_LAGS) * len(_REPRO_TAUS))


@pytest.mark.parametrize("steps", [
    1, _REPRO_CHUNK - 2, _REPRO_CHUNK - 1, _REPRO_CHUNK, _REPRO_CHUNK + 1,
    2 * _REPRO_CHUNK,
])
def test_lane_sweep_equals_reference_at_block_edges(steps):
    # horizons that end on either side of the chunk edges of a 21-lane kernel pass;
    # every one ends inside the paths' time-only prefix
    assert _REPRO_CHUNK == 65
    base = dataclasses.replace(_RAPID, horizon=steps * 0.02)
    grid = PolicyGrid(lags=_REPRO_LAGS, taus=_REPRO_TAUS, base=base)
    assert policy_sweep(grid, C) == _reference_cells(grid, C)


@pytest.mark.parametrize("chunk", ["one_step", "default", "whole_horizon"])
def test_lane_sweep_equals_reference_at_any_chunk_length(monkeypatch, chunk):
    # the fold's granularity changes no bit: one step per chunk, the shipped
    # chunk length (151 steps for 9 lanes), and all 325 steps after the prefix in one
    # chunk. Every lag lies past the path's time-only prefix and no tau is 0, so the 9
    # cells are 9 groups, which the kernel runs as 9 lanes when the float paths are
    # off, from the prefix's end at step 175.
    grid = PolicyGrid(lags=(4.0, 6.0, 12.0), taus=(0.01, 0.03, 0.10), base=_RAPID)
    lanes, n_steps, r = 9, 500, _prefix_steps(_RAPID)
    monkeypatch.setattr(policy, "_FLOAT_GROUPS", 0)
    stage_block = {
        "one_step": 3 * lanes,
        "default": dynamics._STAGE_BLOCK,
        "whole_horizon": 3 * lanes * n_steps,
    }[chunk]
    monkeypatch.setattr(dynamics, "_STAGE_BLOCK", stage_block)
    counted = []
    rk4_lanes = dynamics.rk4_lanes

    def count_chunks(*args):
        for ts, path in rk4_lanes(*args):
            counted.append(len(path) - 1)
            yield ts, path

    monkeypatch.setattr(policy, "rk4_lanes", count_chunks)
    assert policy_sweep(grid, C) == _reference_cells(grid, C)
    assert sum(counted) == n_steps - r
    assert max(counted) == {"one_step": 1, "default": 151, "whole_horizon": n_steps - r}[chunk]


def test_lane_sweep_of_one_step_chunks_equals_multi_step_chunks(monkeypatch):
    # 37 x 37 = 1369 lanes leave _STAGE_BLOCK // (3 * lanes) == 0, so the kernel
    # yields one-step chunks unpatched, and the fold adds each chunk's one step alone.
    # The 3.7-year horizon is the 175 steps of the time-only prefix and 10 more, where
    # the lanes start. Every lag lies past the prefix, some inside those 10 steps, and
    # no tau is 0, so each cell is a group of its own and a lane.
    grid = PolicyGrid(lags=tuple(3.51 + 0.005 * i for i in range(37)),
                      taus=tuple(0.005 * (i + 1) for i in range(37)),
                      base=dataclasses.replace(_RAPID, horizon=3.7))
    lanes = 37 * 37
    assert dynamics._STAGE_BLOCK // (3 * lanes) == 0
    assert round(3.7 / 0.02) - _prefix_steps(grid.base) == 10
    counted = []
    rk4_lanes = dynamics.rk4_lanes

    def count_chunks(*args):
        for ts, path in rk4_lanes(*args):
            counted.append(len(path) - 1)
            yield ts, path

    monkeypatch.setattr(policy, "rk4_lanes", count_chunks)
    one_step = policy_sweep(grid, C)
    assert counted == [1] * 10
    counted.clear()
    monkeypatch.setattr(dynamics, "_STAGE_BLOCK", 3 * lanes * 7)
    assert policy_sweep(grid, C) == one_step
    assert counted == [7, 3]
    for k in random.Random(24).sample(range(lanes), 4):
        cell = one_step[k]
        single = PolicyGrid(lags=(cell.lag,), taus=(cell.tau,), base=grid.base)
        assert [cell] == _reference_cells(single, C)


# --- one path per group of cells, against the sweep with one lane per cell --------

def _hex_cells(cells):
    return [tuple(map(float.hex, dataclasses.astuple(cell))) for cell in cells]


def _assert_both_paths_equal_reference(grid, c=C):
    """Every field of every cell has the reference's bits, with the groups run as float
    paths and as kernel lanes; returns the number of groups."""
    expected = _hex_cells(reference_policy_sweep(grid, c))
    kernel_lanes = []
    rk4_lanes = dynamics.rk4_lanes

    def count_lanes(consts, *args):
        kernel_lanes.append(consts.shape[1])
        return rk4_lanes(consts, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(policy, "rk4_lanes", count_lanes)
        for float_groups in (policy.MAX_CELLS, 0):
            mp.setattr(policy, "_FLOAT_GROUPS", float_groups)
            assert _hex_cells(policy_sweep(grid, c)) == expected, float_groups
    (groups,) = kernel_lanes  # the float paths never call the kernel
    return groups


def _prefix_steps(base, c=C):
    ce = dynamics._effective_calibration(base, c)
    with np.errstate(all="ignore"):
        return dynamics._time_only_prefix(
            dynamics._drift_constants(ce), round(base.horizon / base.dt), base.dt
        )[0]


_EXTREME = Scenario(name="extreme", g_A_override=0.40, horizon=10.0, dt=0.02)
_SURGE = Scenario(name="surge", g_A_override=2.0, horizon=10.0, dt=0.02)
_BASELINE = Scenario(name="baseline", horizon=10.0, dt=0.02)
# adoption half done at t = 0: the first step already falls below s_L0, so r = 0
_STEEP = Scenario(name="steep", g_A_override=0.6, horizon=2.0, dt=0.02)
_EARLY_C = with_updates(C, t0_diffusion=0.0)
# 5000 steps at dt = 0.001, whose time-only prefix crosses two chunk edges
_FINE = dataclasses.replace(_RAPID, horizon=5.0, dt=0.001)


@pytest.mark.parametrize("lags,taus,base,groups", [
    ((1.0,), (0.05,), _RAPID, 1),                                          # one cell
    ((0.0, 1.0, 2.0, 3.0), (0.03, 0.05), _RAPID, 2),                       # lags before r
    ((0.0, 3.0, 3.6, 4.0, 12.0), (0.03, 0.10), _RAPID, 8),                 # lags after r
    ((0.0, 3.5, 3.5000000000000004, 3.51), (0.05,), _RAPID, 3),             # at and just after r
    ((0.0, 2.0, 5.0), (0.0, 0.05), _RAPID, 3),                             # tau = 0
    ((0.0, 1.0, 2.5), (0.03, 0.10),
     dataclasses.replace(_RAPID, policy=PolicySpec(start_time=1.5)), 4),   # start_time > 0
    ((0.0, 1.0, 3.0), (0.03, 0.10), _BASELINE, 2),                         # never below s_L0
    ((0.0, 2.0, 6.0), (0.0, 0.02), _EXTREME, 3),                           # reaches s = 0
    ((0.0, 1.0), (0.0, 0.10), _SURGE, 2),                                  # reaches s = 1
    ((0.0, 4.0), (0.03, 0.05), dataclasses.replace(_RAPID, horizon=7.55, dt=0.05), 4),  # 151 * 0.05 != 7.55
    ((0.0, 1.0), (0.0, 0.05), dataclasses.replace(_RAPID, horizon=0.02), 3),  # one step
    ((0.0, 3.6, 4.0), (0.03, 0.10), _FINE, 6),                             # r past two chunk edges
], ids=["one_cell", "lags_before_r", "lags_after_r", "lags_at_r", "zero_tau", "start_time", "baseline",
        "reaches_0", "reaches_1", "uneven_dt", "one_step", "prefix_across_chunk_edges"])
def test_grouped_sweep_equals_one_lane_per_cell(lags, taus, base, groups):
    grid = PolicyGrid(lags=lags, taus=taus, base=base)
    assert _assert_both_paths_equal_reference(grid) == groups


def test_grouped_sweep_from_a_refused_first_step():
    # r = 0: no step is shared, every group starts at t = 0, and only a lag of 0 is on
    # from r, so the two lags make two groups per non-zero tau
    grid = PolicyGrid(lags=(0.0, 0.5), taus=(0.0, 0.05, 0.10), base=_STEEP)
    assert _assert_both_paths_equal_reference(grid, _EARLY_C) == 5


def test_grouped_sweep_cases_reach_what_their_names_say():
    # rapid leaves its time-only prefix at t = 3.5 (dt = 0.02), extreme earlier, and
    # baseline never does; the edge grids end at the edges
    assert _prefix_steps(_RAPID) == 175 and 175 * _RAPID.dt == 3.5
    assert _prefix_steps(_EXTREME) < _prefix_steps(_RAPID)
    assert _prefix_steps(_BASELINE) == 500
    assert _prefix_steps(_STEEP, _EARLY_C) == 0
    assert 2 * dynamics._SCALAR_CHUNK < _prefix_steps(_FINE) == 3513 < 3 * dynamics._SCALAR_CHUNK
    assert dynamics.S_FLOOR < min(cell.s_L_final for cell in _sweep((0.0,), (0.0,), dt=0.02)) < C.s_L0
    for base, edge in ((_EXTREME, 0.0), (_SURGE, 1.0)):
        assert policy_sweep(PolicyGrid(lags=(0.0,), taus=(0.0,), base=base), C)[0].s_L_final == edge
    assert 151 * 0.05 != 7.55


@pytest.mark.parametrize("float_groups", [policy.MAX_CELLS, 0], ids=["float", "kernel"])
def test_grouped_sweep_integrates_no_step_before_the_prefix_ends(monkeypatch, float_groups):
    # The prefix runs once, up to step r = 3513 inside the third 1365-step chunk. Every
    # group goes on from r, and the float paths share each chunk's time-only rows:
    # _drive runs once per chunk of the run, not once per group.
    grid = PolicyGrid(lags=(0.0, 3.6, 4.0), taus=(0.03, 0.10), base=_FINE)
    n_steps, r, groups = 5000, _prefix_steps(_FINE), 6
    drives, float_runs, kernel_steps = [], [], []
    drive, rk4_path, rk4_lanes = dynamics._drive, policy._rk4_path, policy.rk4_lanes

    def counted_drive(ts, *args):
        drives.append(len(ts))
        return drive(ts, *args)

    def recorded_paths(consts, paths, chunks, start, dt, s):
        ends = rk4_path(consts, paths, chunks, start, dt, s)
        float_runs.append((start, [len(record) for _, _, record in paths]))
        return ends

    def counted_lanes(consts, horizon, dt, failed, start, s):
        assert consts.shape[1] == groups
        for ts, path in rk4_lanes(consts, horizon, dt, failed, start, s):
            kernel_steps.append((round(ts[0, 0] / dt), len(path) - 1))
            yield ts, path

    monkeypatch.setattr(dynamics, "_drive", counted_drive)
    monkeypatch.setattr(policy, "_rk4_path", recorded_paths)
    monkeypatch.setattr(policy, "rk4_lanes", counted_lanes)
    monkeypatch.setattr(policy, "_FLOAT_GROUPS", float_groups)
    cells = policy_sweep(grid, C)
    assert cells.counters() == {"cells": 6, "groups": groups, "prefix_steps": r,
                                "rk4_steps": r + groups * (n_steps - r)}
    if float_groups:
        assert len(drives) == -(-n_steps // dynamics._SCALAR_CHUNK) == 4
        assert float_runs == [(r, [n_steps - r + 1] * groups)] and kernel_steps == []
    else:
        assert len(drives) == 3 + len(kernel_steps)  # the prefix's chunks, then the kernel's
        assert kernel_steps[0][0] == r and sum(steps for _, steps in kernel_steps) == n_steps - r
        assert float_runs == []


def test_grouped_sweep_float_path_takes_the_kernel_exp():
    # a sampled calibration on which numpy's AVX-512 exp and math.exp gave different
    # paths: the float path takes the kernel's rows, and so does integrate_labor_share,
    # so every cell's final share is the scalar integrator's, bit for bit
    c = with_updates(C, eta=0.005895664462950101, rho0=0.013371309388323156,
                     kappa=1.5188523425800662, t0_diffusion=2.86062894269691)
    base = Scenario(name="ulp", g_A_override=0.5969735022276537, horizon=10.0, dt=0.02)
    grid = PolicyGrid(lags=(0.0, 1.0, 5.0), taus=(0.05, 0.10), base=base)
    assert _assert_both_paths_equal_reference(grid, c) == 4
    ce = dynamics._effective_calibration(base, c)
    scalar = [dynamics.integrate_labor_share(ce, PolicySpec(tau=tau, lag=lag), 10.0, 0.02)[0].hex()
              for lag in grid.lags for tau in grid.taus]
    assert scalar == [cell.s_L_final.hex() for cell in policy_sweep(grid, c)]


def _splitmix_uniforms(seed, stream, n):
    """The benchmark's SplitMix64 uniforms (perfbench/workloads.py), for its sweep_grid inputs."""
    mask, gamma = (1 << 64) - 1, 0x9E3779B97F4A7C15
    state = (seed + stream * gamma) & mask
    out = []
    for _ in range(n):
        state = (state + gamma) & mask
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        z ^= z >> 31
        out.append((z >> 11) * (1.0 / (1 << 53)))
    return out


@pytest.mark.parametrize("seed", range(101, 111))
def test_grouped_sweep_equals_one_lane_per_cell_on_sweep_grid_inputs(seed):
    # 13 lags in [0, 3] x 6 taus in [0.01, 0.12] on the shipped `rapid`: every lag lies
    # before the prefix ends, so the 78 cells are 6 groups, one per tau
    u = _splitmix_uniforms(seed, 1, 19)
    lags, taus = sorted(3.0 * x for x in u[:13]), sorted(0.01 + 0.11 * x for x in u[13:])
    rapid = next(s for s in default_scenarios() if s.name == "rapid")
    grid = PolicyGrid(lags=tuple(lags), taus=tuple(taus), base=rapid)
    assert _assert_both_paths_equal_reference(grid) == 6


@settings(max_examples=200, deadline=None)
@given(
    lags=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=4, unique=True),
    taus=st.lists(st.sampled_from((0.0, 0.01, 0.05, 0.3)) | st.floats(0.0, 0.5),
                  min_size=1, max_size=3, unique=True),
    g_A=st.floats(0.0, 0.8),
    t0=st.floats(0.5, 4.0),
    start_time=st.sampled_from((0.0, 0.5, 2.5)),
    dt=st.sampled_from((0.05, 0.04, 0.03)),
    n_steps=st.integers(1, 200),
)
def test_grouped_sweep_equals_one_lane_per_cell_on_sampled_grids(
    lags, taus, g_A, t0, start_time, dt, n_steps
):
    base = Scenario(name="h", g_A_override=g_A, horizon=n_steps * dt, dt=dt,
                    policy=PolicySpec(start_time=start_time))
    grid = PolicyGrid(lags=tuple(sorted(lags)), taus=tuple(sorted(taus)), base=base)
    _assert_both_paths_equal_reference(grid, with_updates(C, t0_diffusion=t0))


@pytest.mark.parametrize("c,base,message", [
    (C, Scenario(name="blowup", g_A_override=150.0, horizon=10.0, dt=0.02), r"lag=0, tau=0\.03"),
    (with_updates(C, eta=1e308), Scenario(name="boom", g_A_override=1.0, horizon=10.0, dt=0.02),
     r"lag=0, tau=0\.03"),
], ids=["past_the_cap", "mid_run"])
@pytest.mark.parametrize("float_groups", [policy.MAX_CELLS, 0], ids=["float", "kernel"])
def test_grouped_sweep_failure_names_the_reference_cell(monkeypatch, c, base, message, float_groups):
    grid = PolicyGrid(lags=(0.0, 1.0, 5.0), taus=(0.03, 0.10), base=base)
    with pytest.raises(IntegrationError, match=message) as reference:
        reference_policy_sweep(grid, c)
    monkeypatch.setattr(policy, "_FLOAT_GROUPS", float_groups)
    with pytest.raises(IntegrationError) as shipped:
        policy_sweep(grid, c)
    assert str(shipped.value) == str(reference.value)


@pytest.mark.parametrize("float_groups", [policy.MAX_CELLS, 0], ids=["float", "kernel"])
def test_sweep_past_the_cap_fails_before_any_step(monkeypatch, float_groups):
    # Every cell shares the base calibration's reinstatement exponent, so a base past the
    # cap fails cell 0, found once before the prefix or any group runs.
    grid = PolicyGrid(lags=(0.0, 1.0, 5.0), taus=(0.03, 0.10),
                      base=Scenario(name="blowup", g_A_override=150.0, horizon=10.0, dt=0.02))
    with pytest.raises(IntegrationError) as reference:
        reference_policy_sweep(grid, C)
    calls = []

    def counted(name):
        called = getattr(policy, name)

        def record(*args):
            calls.append(name)
            return called(*args)

        return record

    for name in ("_steps_within_cap", "_time_only_prefix", "_rk4_path", "rk4_lanes"):
        monkeypatch.setattr(policy, name, counted(name))
    monkeypatch.setattr(policy, "_FLOAT_GROUPS", float_groups)
    with pytest.raises(IntegrationError) as shipped:
        policy_sweep(grid, C)
    assert str(shipped.value) == str(reference.value)
    assert calls == ["_steps_within_cap"]


def test_kernel_lanes_do_not_retry_the_step_the_prefix_refused(monkeypatch):
    # 49 groups on rapid run as kernel lanes from r = 351, where the prefix refused the
    # time-only steps: the kernel's chunk from r must not try them again
    rapid = next(s for s in default_scenarios() if s.name == "rapid")
    grid = PolicyGrid(lags=(0.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0),
                      taus=(0.01, 0.02, 0.03, 0.05, 0.07, 0.10, 0.12), base=rapid)
    events = []  # ("try", lanes) for each lane call of the time-only steps, ("chunk", step)
    time_only_steps, rk4_lanes = dynamics._time_only_steps, policy.rk4_lanes

    def tried(s, *args):
        if np.ndim(s):  # the lanes', not the prefix's
            events.append(("try", len(s)))
        return time_only_steps(s, *args)

    def chunks(consts, horizon, dt, failed, r, s_r):
        for ts, path in rk4_lanes(consts, horizon, dt, failed, r, s_r):
            events.append(("chunk", round(ts[0, 0] / dt)))
            yield ts, path

    monkeypatch.setattr(dynamics, "_time_only_steps", tried)
    monkeypatch.setattr(policy, "rk4_lanes", chunks)
    cells = policy_sweep(grid, C)
    r = _prefix_steps(rapid)
    assert cells.counters()["groups"] == 49 > policy._FLOAT_GROUPS and r == 351
    assert events[0] == ("chunk", r)  # no lane tried the time-only steps before it


def test_float_sweep_takes_time_only_steps_on_the_prefix_only(monkeypatch):
    # the repro grid on rapid at dt = 0.001: 3 groups, run as float paths from r = 3513,
    # inside the third chunk. The prefix's three calls are the only ones; the groups run
    # every step from r per step, and every cell has the one-lane-per-cell reference's bits.
    rapid = dataclasses.replace(next(s for s in default_scenarios() if s.name == "rapid"), dt=0.001)
    grid = PolicyGrid(lags=_REPRO_LAGS, taus=_REPRO_TAUS, base=rapid)
    runs = []
    time_only_steps = dynamics._time_only_steps

    def tried(*args):
        path, ok = time_only_steps(*args)
        runs.append(len(ok) if ok.all() else int(ok.argmin()))
        return path, ok

    monkeypatch.setattr(dynamics, "_time_only_steps", tried)
    cells = policy_sweep(grid, C)
    assert cells.counters()["groups"] == 3 and runs == [1365, 1365, 783] == [
        dynamics._SCALAR_CHUNK, dynamics._SCALAR_CHUNK, _prefix_steps(rapid) - 2 * dynamics._SCALAR_CHUNK
    ]
    assert _hex_cells(cells) == _hex_cells(reference_policy_sweep(grid, C))


def test_lane_sweep_grids_reach_the_absorbing_edges():
    # the last two grids above exercise the kernel's absorbing branches
    for g_A, edge in ((0.40, 0.0), (2.0, 1.0)):
        base = Scenario(name="edge", g_A_override=g_A, horizon=10.0, dt=0.02)
        assert policy_sweep(PolicyGrid(lags=(0.0,), taus=(0.0,), base=base), C)[0].s_L_final == edge


def test_lane_sweep_overflow_names_a_cell():
    # alpha_rho * g_A * t passes the exponent cap before the horizon
    base = Scenario(name="blowup", g_A_override=150.0, horizon=10.0, dt=0.02)
    with pytest.raises(IntegrationError, match=r"lag=0, tau=0\.03"):
        policy_sweep(PolicyGrid(lags=(0.0, 1.0), taus=(0.03,), base=base), C)


def test_lane_sweep_mid_run_non_finite_names_a_cell():
    # the reinstatement flow overflows to inf inside a step: alpha_rho * g_A * t stays
    # under the exponent cap, so no lane is marked before the first step
    c = with_updates(C, eta=1e308)
    base = Scenario(name="boom", g_A_override=1.0, horizon=10.0, dt=0.02)
    grid = PolicyGrid(lags=(0.0, 1.0), taus=(0.03, 0.10), base=base)
    rho_exp = lane_constants([(with_updates(c, g_A=1.0), PolicySpec())])[6, 0]
    assert rho_exp * base.horizon < dynamics._EXP_CAP
    with pytest.raises(IntegrationError, match=r"lag=0, tau=0\.03"):
        policy_sweep(grid, c)


def test_lane_sweep_mid_run_non_finite_exit_3(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("eta = 1e308\n\n[scenario.boom]\ng_A_override = 1.0\n")
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(cfg), "--scenario", "boom", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "lag=0, tau=0.03" in err and "Traceback" not in err
    assert not (out / "sweep.csv").exists()


def test_lane_sweep_overflow_exit_3(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario.blowup]\ng_A_override = 150\n")
    code = main(["sweep", "--config", str(cfg), "--scenario", "blowup",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "lag=0, tau=0.03" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_sweep_non_finite_g_A_override_is_a_value_error(value):
    base = Scenario(name="x", g_A_override=value)
    grid = PolicyGrid(lags=(0.0, 1.0), taus=(0.05,), base=base)
    with pytest.raises(ValueError, match="scenario x_l0.0_t0.05: g_A_override must be finite"):
        policy_sweep(grid, C)


@pytest.mark.parametrize("flag,value,field", [
    ("--lags", "nan", "lag"),
    ("--lags", "1e400", "lag"),
    ("--taus", "inf", "tau"),
    ("--taus", "0.1,nan", "tau"),
])
def test_sweep_non_finite_policy_exit_2(tmp_path, capsys, flag, value, field):
    code = main(["sweep", flag, value, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{field} must be finite" in err and "scenario rapid_" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "sweep.csv").exists()


# --- lanes by column and validation of the first row and column -------------

def _sweep_consts(monkeypatch, grid):
    """The lane matrix policy_sweep builds, one column per cell, before it groups the cells."""
    seen = []
    column_lane_constants = dynamics.column_lane_constants

    def record(*args):
        seen.append(column_lane_constants(*args))
        return seen[-1].copy()

    monkeypatch.setattr(policy, "column_lane_constants", record)
    policy_sweep(grid, C)
    (consts,) = seen
    return consts


_SWEEP_LAGS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0)
_SWEEP_TAUS = (0.01, 0.03, 0.05, 0.07, 0.09, 0.12)


@pytest.mark.parametrize("lags,taus,base", [
    (_REPRO_LAGS, _REPRO_TAUS, _RAPID),                                   # the repro 7 x 3 grid
    (_SWEEP_LAGS, _SWEEP_TAUS, _RAPID),                                   # 13 x 6, as sweep_grid
    ((0.0, 1.0, 2.5), (0.03, 0.10),
     dataclasses.replace(_RAPID, policy=PolicySpec(start_time=1.5))),     # start_time > 0
    ((0.5, 12.0, 40.0), (0.03, 0.10), _RAPID),                            # lags past the horizon
    ((0.0, 2.0), (0.0, 0.05), Scenario(name="base", horizon=10.0, dt=0.02)),  # tau = 0, no override
], ids=["repro", "sweep_grid", "start_time", "late_lag", "zero_tau"])
def test_column_lane_matrix_equals_lane_constants(monkeypatch, lags, taus, base):
    # every entry of the column-built matrix has the scalar reference's bits
    grid = PolicyGrid(lags=lags, taus=taus, base=base)
    ce = dynamics._effective_calibration(base, C)
    start = base.policy.start_time
    expected = lane_constants(
        (ce, PolicySpec(tau=tau, lag=lag, start_time=start)) for lag in lags for tau in taus
    )
    consts = _sweep_consts(monkeypatch, grid)
    assert consts.shape == (12, len(lags) * len(taus))
    assert consts.tobytes() == expected.tobytes()


def _per_cell_validation(grid, c):
    """Every cell's check in row-major order: the reference for the sweep's check of the
    first row and the first column."""
    base = grid.base
    calibration_problems = validate(c)
    for lag in grid.lags:
        for tau in grid.taus:
            p = PolicySpec(tau=tau, lag=lag, start_time=base.policy.start_time)
            cell = dataclasses.replace(base, name=f"{base.name}_l{lag}_t{tau}", policy=p)
            problems = calibration_problems + validate_scenario(cell)
            if problems:
                raise ValueError("; ".join(problems))


_NAN, _INF = float("nan"), float("inf")
_ROUGH = dataclasses.replace(_RAPID, dt=0.03)  # 0.03 does not divide the 10-year horizon


@pytest.mark.parametrize("lags,taus,base,c", [
    ((-1.0, 0.0, 1.0), (0.03, 0.05), _RAPID, C),                # a bad lags[0]
    ((0.0, _NAN, 1.0), (0.03, 0.05), _RAPID, C),                # --lags 0,nan,1: NaN is "ascending"
    ((0.0, 1.0), (0.03, _NAN, 0.10), _RAPID, C),                # a NaN tau in the middle
    ((0.0, 1.0, 2.0), (0.03, 0.05, _INF), _RAPID, C),           # an inf last tau
    ((0.0, 1.0, _INF), (-0.05, 0.03), _RAPID, C),               # a bad lag and a bad tau
    ((0.0, 1.0, _NAN), (0.03, 0.05, _NAN), _RAPID, C),          # both, off the first row and column
    ((0.0, 1.0), (0.03, _INF), _ROUGH, C),                      # grid problem first, then tau
    ((0.0, 1.0), (_NAN, 0.03), _ROUGH, C),                      # tau problem hides the grid's
    ((0.0, 1.0), (0.03, 0.05), _RAPID, with_updates(C, kappa=-1.0)),  # invalid calibration
    ((0.0, _INF), (0.03,), _RAPID, with_updates(C, s_L0=1.5)),  # calibration and lag
])
def test_first_row_and_column_check_equals_per_cell_check(lags, taus, base, c):
    grid = PolicyGrid(lags=lags, taus=taus, base=base)
    with pytest.raises(ValueError) as reference:
        _per_cell_validation(grid, c)
    with pytest.raises(ValueError) as shipped:
        policy_sweep(grid, c)
    assert type(shipped.value) is type(reference.value)
    assert str(shipped.value) == str(reference.value)


def test_valid_sweep_validates_first_row_and_column_only(monkeypatch):
    # L + T - 1 scenario checks for L x T cells
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return validate_scenario(*args, **kwargs)

    monkeypatch.setattr(policy, "validate_scenario", counted)
    lags, taus = (0.0, 0.5, 1.0, 1.5, 2.0), (0.03, 0.05, 0.10)
    cells = policy_sweep(PolicyGrid(lags=lags, taus=taus, base=_RAPID), C)
    assert len(cells) == 15
    assert calls == len(lags) + len(taus) - 1


def test_grid_cap():
    # 89 x 2809 = MAX_CELLS + 1; the grid is refused before any cell is built
    assert policy.MAX_CELLS == 500 * 500 == 89 * 2809 - 1
    lags, taus = tuple(0.01 * i for i in range(89)), tuple(1e-5 * j for j in range(2809))
    with pytest.raises(ValueError) as exc:
        PolicyGrid(lags=lags, taus=taus, base=_RAPID)
    assert str(exc.value) == "policy grid lags x taus = 89 x 2809 = 250001 cells; the cap is 250000"
    # a grid at the cap is accepted (and not integrated here)
    at_cap = PolicyGrid(lags=(0.0,), taus=tuple(1e-6 * j for j in range(policy.MAX_CELLS)),
                        base=_RAPID)
    assert len(at_cap.lags) * len(at_cap.taus) == policy.MAX_CELLS


# --- avertance equivalence ---------------------------------------------------

def test_depth_zero_iff_pointwise_transfer_covers_gap():
    # 200 random (trajectory, policy) pairs; depth == 0 exactly when the
    # lagged transfer covers the labor-share gap at every recorded step
    rng = random.Random(4242)
    checked_zero = checked_positive = 0
    for _ in range(200):
        g_A = 0.02 + 0.48 * rng.random()
        tau = rng.choice([0.0, 0.01, 0.05, 0.1, 0.3, 0.6])
        lag = 4.0 * rng.random()
        c = with_updates(
            C,
            rho0=0.006 * rng.random(),
            eta=0.009 * rng.random(),
            t0_diffusion=0.5 + 3.0 * rng.random(),
        )
        policy = PolicySpec(tau=tau, lag=lag)
        traj = simulate_path(
            Scenario(name="r", g_A_override=g_A, horizon=5.0, dt=0.05, policy=policy), c
        )
        depth = crisis_depth(traj, policy)
        covered = all(
            transfer_at(p.t, policy) >= (c.s_L0 - p.s_L) for p in traj.points
        )
        assert (depth == 0.0) == covered
        if covered:
            checked_zero += 1
        else:
            checked_positive += 1
    assert checked_zero > 10 and checked_positive > 10  # both branches exercised
