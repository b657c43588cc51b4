import dataclasses
import random

import pytest

from macrostress import dynamics, policy
from macrostress.cli import main
from macrostress.dynamics import IntegrationError, simulate_path
from macrostress.monetary import cumulative_consumption_decline
from macrostress.params import (
    PolicySpec, Scenario, default_calibration, validate, validate_scenario, with_updates,
)
from macrostress.policy import PolicyGrid, SweepCell, crisis_depth, policy_sweep, transfer_at

from lane_reference import lane_constants

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


# the 7 x 3 grid `repro` sweeps: 21 lanes, which the kernel integrates 65 steps per chunk
_REPRO_LAGS, _REPRO_TAUS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0), (0.03, 0.05, 0.10)
_REPRO_CHUNK = dynamics._STAGE_BLOCK // (3 * len(_REPRO_LAGS) * len(_REPRO_TAUS))


@pytest.mark.parametrize("steps", [
    1, _REPRO_CHUNK - 2, _REPRO_CHUNK - 1, _REPRO_CHUNK, _REPRO_CHUNK + 1,
    2 * _REPRO_CHUNK,
])
def test_lane_sweep_equals_reference_at_block_edges(steps):
    # the sweep folds each chunk the kernel yields: a path that ends on either
    # side of a chunk edge is folded whole
    assert _REPRO_CHUNK == 65
    base = dataclasses.replace(_RAPID, horizon=steps * 0.02)
    grid = PolicyGrid(lags=_REPRO_LAGS, taus=_REPRO_TAUS, base=base)
    assert policy_sweep(grid, C) == _reference_cells(grid, C)


@pytest.mark.parametrize("chunk", ["one_step", "default", "whole_horizon"])
def test_lane_sweep_equals_reference_at_any_chunk_length(monkeypatch, chunk):
    # the fold's granularity changes no bit: one step per chunk, the shipped
    # chunk length (151 steps for 9 lanes), and all 500 steps in one chunk
    grid = PolicyGrid(lags=(0.0, 1.0, 12.0), taus=(0.0, 0.03, 0.10), base=_RAPID)
    lanes, n_steps = 9, 500
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
    assert sum(counted) == n_steps
    assert max(counted) == {"one_step": 1, "default": 151, "whole_horizon": n_steps}[chunk]


def test_lane_sweep_of_one_step_chunks_equals_multi_step_chunks(monkeypatch):
    # 37 x 37 = 1369 lanes leave _STAGE_BLOCK // (3 * lanes) == 0, so the kernel
    # yields one-step chunks unpatched, and the fold adds each chunk's one step alone
    grid = PolicyGrid(lags=tuple(0.005 * i for i in range(37)), taus=tuple(0.005 * i for i in range(37)),
                      base=dataclasses.replace(_RAPID, horizon=0.2))
    lanes = 37 * 37
    assert dynamics._STAGE_BLOCK // (3 * lanes) == 0
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
    """The lane matrix policy_sweep hands to the kernel."""
    seen = []
    rk4_lanes = dynamics.rk4_lanes

    def record(consts, *args):
        seen.append(consts.copy())
        return rk4_lanes(consts, *args)

    monkeypatch.setattr(policy, "rk4_lanes", record)
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
    assert at_cap.counters()["lanes"] == policy.MAX_CELLS


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
