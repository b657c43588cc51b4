import gc
import math
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from macrostress import dynamics
from macrostress.dynamics import (
    _EXP_CAP,
    _STAGE_BLOCK,
    _drift_constants,
    amplification,
    IntegrationError,
    RegimeKind,
    S_FLOOR,
    capability,
    classify_regime,
    diffusion,
    explosive_threshold,
    feedback_rate,
    integrate_labor_share,
    integrate_lanes,
    labor_share_derivative,
    margin_pressure,
    reinstatement_rate,
    rk4_lanes,
    simulate_path,
    stage_schedule,
    Trajectory,
)
from macrostress.monetary import consumption_ratio, velocity
from macrostress.params import (
    Calibration,
    PolicySpec,
    Scenario,
    default_calibration,
    default_scenarios,
    with_updates,
)
from macrostress.policy import transfer_at

from lane_reference import lane_constants

C = default_calibration()
NO_POLICY = PolicySpec()


# --- capability / cost -------------------------------------------------------

def test_capability_at_origin():
    assert capability(0.0, C) == C.A0


def test_capability_direct_evaluation():
    c = with_updates(C, g_A=0.05, A0=1.0)
    assert capability(10.0, c) == pytest.approx(math.exp(0.5), rel=1e-15)


def test_capability_constant_when_growth_zero():
    c = with_updates(C, g_A=0.0)
    for t in (0.0, 3.0, 50.0):
        assert capability(t, c) == C.A0


# --- diffusion ---------------------------------------------------------------

def test_diffusion_midpoint():
    assert diffusion(C.t0_diffusion, C) == pytest.approx(C.d_bar / 2.0, rel=1e-15)


def test_diffusion_one_year_past_midpoint():
    # direct evaluation: d_bar / (1 + e^-kappa)
    expected = 0.8 / (1.0 + math.exp(-2.0))
    assert diffusion(C.t0_diffusion + 1.0, C) == pytest.approx(expected, rel=1e-15)


def test_diffusion_approaches_ceiling():
    assert abs(diffusion(C.t0_diffusion + 8.0, C) - C.d_bar) < 1e-6


@given(
    t1=st.floats(min_value=0.0, max_value=50.0),
    t2=st.floats(min_value=0.0, max_value=50.0),
)
def test_diffusion_monotone_and_bounded(t1, t2):
    lo, hi = sorted((t1, t2))
    d1, d2 = diffusion(lo, C), diffusion(hi, C)
    assert d1 <= d2 <= C.d_bar


def _np_exp(x):
    """numpy's exponential of one float, as a Python float: the per-element form of the
    exponential behind simulate_path's columns and the integrators' time-only rows."""
    return float(np.exp(x))


@pytest.mark.parametrize("lo,hi", [(-745.0, -40.0), (-40.0, 40.0), (0.0, 700.0)])
def test_np_exp_per_element_equals_np_exp_on_an_array(lo, hi):
    # The frozen references below call numpy's exp one float at a time; the engine calls it
    # on arrays of any length. Both must give the same bits, tail loops included.
    x = np.random.default_rng(31).uniform(lo, hi, 20_000)
    whole = np.exp(x)
    assert [_np_exp(v).hex() for v in x.tolist()] == [v.hex() for v in whole.tolist()]
    for i, n in zip(range(0, 6000, 1000), (1, 3, 7, 8, 9, 17)):
        assert np.array_equal(np.exp(x[i : i + n]), whole[i : i + n])


def _two_tailed_diffusion(t, c, exp=math.exp):
    """diffusion() as it was with a lower tail of its own, kept as the reference; through
    ``exp``, ``math.exp`` as diffusion() or :func:`_np_exp` as simulate_path's d_t."""
    e = -c.kappa * (t - c.t0_diffusion)
    if e > 40.0:
        return 0.0
    if e < -40.0:
        return c.d_bar
    return c.d_bar / (1.0 + exp(e))


# (kappa, t0) whose logistic argument e = -kappa * (t - t0) on a 10-year path falls below
# -40, below -745 (exp(e) underflows to 0.0) and to -inf (the product overflows)
_LOWER_TAILS = [(20.0, 2.8), (200.0, 2.8), (1e308, 2.8)]


def test_lower_tail_cases_reach_their_regions():
    lowest = [-kappa * (10.0 - t0) for kappa, t0 in _LOWER_TAILS]
    assert -745.0 < lowest[0] < -40.0 and -math.inf < lowest[1] < -745.0 and lowest[2] == -math.inf
    assert math.exp(lowest[1]) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(min_value=1e-3, max_value=1e308),
    t0=st.floats(min_value=-20.0, max_value=20.0),
    t=st.floats(min_value=-1e300, max_value=1e300),
)
@example(kappa=_LOWER_TAILS[0][0], t0=_LOWER_TAILS[0][1], t=30.0)
@example(kappa=_LOWER_TAILS[1][0], t0=_LOWER_TAILS[1][1], t=30.0)
@example(kappa=_LOWER_TAILS[2][0], t0=_LOWER_TAILS[2][1], t=30.0)
def test_logistic_equals_the_two_tailed_form_bit_for_bit(kappa, t0, t):
    # below e = -40, exp(e) < 2**-53: d_bar / (1.0 + exp(e)) is d_bar without a tail of its own
    c = with_updates(C, kappa=kappa, t0_diffusion=t0)
    traj = simulate_path(Scenario(name="tails", dt=0.05), c)
    expected = [_two_tailed_diffusion(x, c, _np_exp).hex() for x in traj.t.tolist()]
    assert [d.hex() for d in traj.d_t.tolist()] == expected
    expected = [_two_tailed_diffusion(x, c).hex() for x in traj.t.tolist()]
    assert [diffusion(x, c).hex() for x in traj.t.tolist()] == expected
    assert diffusion(t, c).hex() == _two_tailed_diffusion(t, c).hex()


# --- reinstatement -----------------------------------------------------------

def test_reinstatement_examples():
    assert reinstatement_rate(1.0, C) == pytest.approx(0.005, rel=1e-12)
    assert reinstatement_rate(4.0, C) == pytest.approx(0.008, rel=1e-12)
    c = with_updates(C, eta=0.0)
    assert reinstatement_rate(123.0, c) == c.rho0


def test_reinstatement_increasing_concave():
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [reinstatement_rate(a, C) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # concavity: chords lie under the doubling gains
    gain1 = reinstatement_rate(2.0, C) - reinstatement_rate(1.0, C)
    gain2 = reinstatement_rate(4.0, C) - reinstatement_rate(2.0, C)
    assert gain2 < gain1 * 2  # strictly sublinear growth in A


# --- margin pressure ---------------------------------------------------------

def test_margin_pressure_zero_at_baseline_and_above():
    assert margin_pressure(C.s_L0, C) == 0.0
    assert margin_pressure(0.9, C) == 0.0


def test_margin_pressure_direct_evaluation():
    # (2c-1)(s0-s) / [c*s0 + (1-c)(1-s0)] at s = 0.46
    expected = 0.7 * 0.10 / 0.542
    assert margin_pressure(0.46, C) == pytest.approx(expected, rel=1e-12)


# --- derivative --------------------------------------------------------------

def test_derivative_pre_diffusion_reinstatement_only():
    # with adoption still negligible the labor share rises
    c = with_updates(C, d_bar=1e-12)
    assert labor_share_derivative(0.0, C.s_L0, c, NO_POLICY) > 0.0


def test_derivative_near_balance_at_full_adoption():
    # adoption ceiling: substitution flow 0.8*0.15*0.05 = 0.006 vs rho(1) = 0.005
    disp = C.d_bar * C.f_slope * C.g_A
    assert disp == pytest.approx(0.006, rel=1e-12)
    assert reinstatement_rate(C.A0, C) == pytest.approx(0.005, rel=1e-12)
    assert abs(disp - reinstatement_rate(C.A0, C)) < 0.002


def test_derivative_absorbing_floor_and_ceiling():
    c = with_updates(C, rho0=0.0, eta=0.0, t0_diffusion=-5.0)
    assert labor_share_derivative(5.0, 0.0, c, NO_POLICY) == 0.0
    c_up = with_updates(C, rho0=0.5, d_bar=1e-9)
    assert labor_share_derivative(0.0, 1.0, c_up, NO_POLICY) == 0.0


# --- integration -------------------------------------------------------------

def test_zero_dynamics_path_is_constant():
    c = with_updates(C, g_A=0.0, d_bar=1e-300, rho0=0.0, eta=0.0)
    # d_bar must stay positive for validity; 1e-300 is numerically zero here
    s = Scenario(name="still", g_A_override=0.0)
    traj = simulate_path(s, c)
    assert all(p.s_L == pytest.approx(c.s_L0, abs=1e-15) for p in traj.points)


def _euler_oracle(c, p, horizon, dt):
    """Independent first-order check on the RK4 path."""
    s = c.s_L0
    n = round(horizon / dt)
    for i in range(n):
        s = s + dt * labor_share_derivative(i * dt, s, c, p)
        s = min(1.0, max(0.0, s))
    return s


def test_rk4_agrees_with_euler_oracle_baseline():
    c = with_updates(C, g_A=0.05)
    rk4, _ = integrate_labor_share(c, NO_POLICY, 10.0, 0.01)
    euler = _euler_oracle(c, NO_POLICY, 10.0, 1e-4)
    assert abs(rk4 - euler) <= 1e-4
    # frozen from this oracle: the baseline share drifts slightly upward
    assert rk4 == pytest.approx(0.5708941214606421, abs=1e-9)


def test_rk4_agrees_with_euler_oracle_rapid():
    c = with_updates(C, g_A=0.20)
    rk4, _ = integrate_labor_share(c, NO_POLICY, 10.0, 0.01)
    euler = _euler_oracle(c, NO_POLICY, 10.0, 1e-4)
    assert abs(rk4 - euler) <= 1e-3  # spiral region amplifies step error


def test_inline_integrator_matches_public_derivative_one_step():
    # one RK4 step reconstructed from the public derivative; guards the
    # inlined loop against drifting from the published operation
    for g_A, tau, lag in [(0.05, 0.0, 0.0), (0.3, 0.08, 0.0)]:
        c = with_updates(C, g_A=g_A)
        p = PolicySpec(tau=tau, lag=lag)
        dt = 0.01
        s0 = c.s_L0
        k1 = labor_share_derivative(0.0, s0, c, p)
        k2 = labor_share_derivative(dt / 2, s0 + dt / 2 * k1, c, p)
        k3 = labor_share_derivative(dt / 2, s0 + dt / 2 * k2, c, p)
        k4 = labor_share_derivative(dt, s0 + dt * k3, c, p)
        expected = s0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        got, _ = integrate_labor_share(c, p, dt, dt)
        assert got == pytest.approx(expected, abs=1e-14)


def test_rk4_step_halving_order():
    c = with_updates(C, g_A=0.05)
    s1, _ = integrate_labor_share(c, NO_POLICY, 10.0, 0.04)
    s2, _ = integrate_labor_share(c, NO_POLICY, 10.0, 0.02)
    s3, _ = integrate_labor_share(c, NO_POLICY, 10.0, 0.01)
    # 4th order: successive halvings shrink the difference ~16x; demand >= 8x
    assert abs(s1 - s2) / max(abs(s2 - s3), 1e-300) >= 8.0


def test_collapse_time_set_for_extreme_run():
    traj = simulate_path(Scenario(name="extreme", g_A_override=0.40), C)
    assert traj.collapse_time is not None
    assert traj.collapse_time < 10.0
    after = [p.s_L for p in traj.points if p.t >= traj.collapse_time]
    assert all(v <= S_FLOOR + 1e-12 for v in after)


def test_trajectory_grid_and_recorded_fields():
    s = Scenario(name="baseline", g_A_override=0.05)
    traj = simulate_path(s, C)
    assert len(traj.points) == 1001
    ts = [p.t for p in traj.points]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    ds = [p.d_t for p in traj.points]
    assert all(b >= a for a, b in zip(ds, ds[1:]))
    As = [p.A_t for p in traj.points]
    assert all(b > a for a, b in zip(As, As[1:]))
    assert traj.points[0].velocity == 1.41
    assert traj.points[0].consumption_ratio == pytest.approx(0.542, rel=1e-12)


def test_csv_export_shape():
    traj = simulate_path(Scenario(name="baseline", g_A_override=0.05, horizon=1.0), C)
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,s_L,d_t,A_t,rho_t,pi_t,velocity,consumption_ratio,tau_effective"
    assert len(lines) == 102
    assert all(len(line.split(",")) == 9 for line in lines[1:])


def _scalar_rows(traj, s, c):
    """The per-point assembly the columnar Trajectory replaced, kept as its reference:
    the scalar functions, with diffusion, capability and the reinstatement power through
    numpy's exp and power one float at a time, as simulate_path's columns are."""
    ce = with_updates(c, g_A=s.g_A_override) if s.g_A_override is not None else c
    rows = []
    for t, s_L in zip(traj.t.tolist(), traj.s_L.tolist()):
        tau_eff = transfer_at(t, s.policy) if s_L < ce.s_L0 else 0.0
        A_t = ce.A0 * _np_exp(ce.g_A * t)
        rows.append((
            t, s_L, _two_tailed_diffusion(t, ce, _np_exp), A_t,
            ce.rho0 + ce.eta * float(np.power(A_t, ce.alpha_rho)), margin_pressure(s_L, ce),
            velocity(s_L, tau_eff, ce), consumption_ratio(s_L, ce), tau_eff,
        ))
    return rows


def _ulps(a, b):
    """The distance in units in the last place between float64 columns of one sign."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


# numpy's exp and power against math.exp and pow on simulate_path's d_t, A_t and rho_t
# columns: at most 2, 1 and 2 ulps over these cases and the shipped scenarios at dt 0.01
# and 0.001 under AVX-512 dispatch; 0, 0 and 1 under X86_V3
_SCALAR_FUNCTION_ULPS = 4


# kappa = 40: the logistic argument -40 * (t - 2.8) is above 40 before t = 1.8 (d = 0)
# and below -40 after t = 3.8 (d = d_bar), so the path crosses both of its tails.
C_TAILS = with_updates(C, kappa=40.0)


def test_tails_calibration_reaches_both_logistic_tails():
    d_t = simulate_path(Scenario(name="tails", g_A_override=0.20), C_TAILS).d_t
    assert d_t[0] == 0.0 and d_t[-1] == C_TAILS.d_bar
    assert ((d_t > 0.0) & (d_t < C_TAILS.d_bar)).any()


@pytest.mark.parametrize("scenario,calib", [
    pytest.param(Scenario(name="baseline", g_A_override=0.05), C, id="scenario0"),
    # collapses: pi_t > 0, s_L at the floor
    pytest.param(Scenario(name="extreme", g_A_override=0.40), C, id="scenario1"),
    # transfers start on the grid time 3.0, below baseline, and later lift s_L above it
    pytest.param(Scenario(name="managed", g_A_override=0.40,
                          policy=PolicySpec(tau=0.06, lag=2.5, start_time=0.5)), C, id="scenario2"),
    # s_L starts at s_L0 and rises: no pressure, and the active transfer never flows
    pytest.param(Scenario(name="above", g_A_override=0.0, policy=PolicySpec(tau=0.05)), C,
                 id="scenario3"),
    pytest.param(Scenario(name="tails", g_A_override=0.20), C_TAILS, id="logistic-tails"),
    pytest.param(Scenario(name="tails", g_A_override=0.0), C_TAILS, id="logistic-tails-no-growth"),
])
def test_columns_equal_scalar_functions(scenario, calib):
    traj = simulate_path(scenario, calib)
    assert all(col.dtype == np.float64 for col in (traj.t, traj.d_t, traj.tau_effective))
    assert traj.t.tolist() == [i * scenario.dt for i in range(len(traj.t))]
    assert list(traj.points) == _scalar_rows(traj, scenario, calib)
    ce = with_updates(calib, g_A=scenario.g_A_override) if scenario.g_A_override is not None else calib
    t = traj.t.tolist()
    A_t = [capability(x, ce) for x in t]
    for column, scalar in ((traj.d_t, [diffusion(x, ce) for x in t]), (traj.A_t, A_t),
                           (traj.rho_t, [reinstatement_rate(a, ce) for a in A_t])):
        assert _ulps(column, scalar).max() <= _SCALAR_FUNCTION_ULPS
    assert all(type(v) is float for v in traj.points[-1])
    assert traj.points is traj.points  # built once
    with pytest.raises(ValueError):
        traj.s_L[0] = 0.0  # so the row view cannot go stale
    header = "t,s_L,d_t,A_t,rho_t,pi_t,velocity,consumption_ratio,tau_effective"
    assert traj.to_csv() == "\n".join(
        [header, *(",".join(f"{v:.9g}" for v in row) for row in traj.points)]
    ) + "\n"


@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 10001])
def test_csv_row_blocks_write_the_per_row_bytes(rows):
    # to_csv formats blocks of rows with one % each; the reference is one % per row
    rng = np.random.default_rng(rows)
    columns = rng.standard_normal((9, rows)) * 10.0 ** rng.integers(-12, 12, (9, rows))
    columns[1:5, rows // 2] = [np.nan, np.inf, -np.inf, -0.0]
    traj = Trajectory("x", None, *columns)
    row = ",".join(["%.9g"] * 9)
    assert traj.to_csv() == "\n".join(
        [traj.CSV_HEADER, *(row % values for values in zip(*(c.tolist() for c in columns)))]
    ) + "\n"
    assert [p.t for p in traj.points] == columns[0].tolist()


def _row_view_trajectory(rows=10_001):
    return Trajectory("x", None, *np.random.default_rng(rows).standard_normal((9, rows)))


def test_row_view_builds_without_a_collection_and_restores_the_collector(monkeypatch):
    # the rows are tuples of floats and free no cycle, so the build pauses the collector;
    # at 10001 rows an unpaused build sets off about 14 collections
    starts, building = [], []

    def hook(phase, info):
        if phase == "start" and building:
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(hook)
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            traj = _row_view_trajectory()
            building.append(True)
            points = traj.points
            building.clear()
            assert starts == [] and [p.t for p in points] == traj.t.tolist()
            assert gc.isenabled() is enabled
            # an exception inside the build leaves the collector as it was, too
            monkeypatch.setattr(dynamics, "_make_point", lambda row: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                _row_view_trajectory().points
            monkeypatch.undo()
            assert gc.isenabled() is enabled
    finally:
        building.clear()
        gc.callbacks.remove(hook)
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


@pytest.mark.parametrize("g_A,message", [
    (70.5, r"capability index overflows at t=9\.93 \(g_A\*t=700\.065\)"),
    (72.0, r"capability index overflows at t=9\.73 \(g_A\*t=700\.56\)"),
])
def test_capability_overflow_names_first_grid_time(g_A, message):
    # the integration itself finishes: only alpha_rho*g_A*t enters the drift
    with pytest.raises(IntegrationError, match=message):
        simulate_path(Scenario(name="x", g_A_override=g_A), C)


@pytest.mark.parametrize("name", ["baseline", "rapid", "extreme"])
def test_path_agrees_with_solve_ivp_oracle(name):
    """An adaptive 8th-order integrator on the public derivative, state clamped to [0, 1]."""
    integrate = pytest.importorskip("scipy.integrate")
    s = next(x for x in default_scenarios() if x.name == name)
    ce = with_updates(C, g_A=s.g_A_override)
    traj = simulate_path(s, C)
    sol = integrate.solve_ivp(
        lambda t, y: [labor_share_derivative(t, min(max(y[0], 0.0), 1.0), ce, s.policy)],
        (0.0, s.horizon), [ce.s_L0], method="DOP853", rtol=1e-10, atol=1e-12, t_eval=traj.t,
    )
    assert sol.success
    assert np.max(np.abs(sol.y[0] - traj.s_L)) <= 1e-6


def test_integration_error_diagnostic():
    c = with_updates(C, g_A=200.0)  # reinstatement exponent overflows within horizon
    with pytest.raises(IntegrationError, match="t="):
        integrate_labor_share(c, NO_POLICY, 10.0, 0.01)


@settings(max_examples=60, deadline=None)
@given(
    g_A=st.floats(min_value=0.0, max_value=0.6),
    kappa=st.floats(min_value=0.2, max_value=5.0),
    t0=st.floats(min_value=0.0, max_value=6.0),
    rho0=st.floats(min_value=0.0, max_value=0.05),
    eta=st.floats(min_value=0.0, max_value=0.05),
    beta=st.floats(min_value=0.05, max_value=0.6),
    mpc=st.floats(min_value=0.55, max_value=0.95),
    tau=st.floats(min_value=0.0, max_value=0.15),
    lag=st.floats(min_value=0.0, max_value=5.0),
)
def test_labor_share_stays_in_unit_interval(g_A, kappa, t0, rho0, eta, beta, mpc, tau, lag):
    c = with_updates(
        C, g_A=g_A, kappa=kappa, t0_diffusion=t0, rho0=rho0, eta=eta,
        beta_feedback=beta, mpc_labor=mpc,
    )
    rec: list[float] = []
    integrate_labor_share(c, PolicySpec(tau=tau, lag=lag), 10.0, 0.02, record=rec)
    assert all(0.0 <= s <= 1.0 for s in rec)


# --- threshold / regimes -----------------------------------------------------

def test_threshold_at_zero_reinstatement():
    expected = (1.0 - 0.3 * 0.85) / (0.3 * 0.85) * 0.15
    got = explosive_threshold(0.0, C)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.43824, abs=1e-5)


def test_threshold_doubles_at_matching_reinstatement():
    rho = C.d_bar * C.f_slope
    assert explosive_threshold(rho, C) == pytest.approx(
        2.0 * explosive_threshold(0.0, C), rel=1e-14
    )


def test_threshold_monotone_in_reinstatement():
    assert explosive_threshold(0.01, C) > explosive_threshold(0.005, C)


def test_regime_reinstatement_dominated():
    c = with_updates(C, rho0=0.05)
    assert classify_regime(c).kind is RegimeKind.REINSTATEMENT_DOMINATED


def test_regime_default_is_stable():
    regime = classify_regime(C)
    assert regime.kind is RegimeKind.STABLE_DISPLACEMENT
    # rho(A0) = 0.005 sits below the ceiling substitution flow 0.006, and
    # g_A = 0.05 sits below the adjusted threshold
    assert regime.threshold == pytest.approx(0.4564950980392157, rel=1e-12)


def test_regime_explosive_above_threshold():
    c = with_updates(C, g_A=0.6)
    assert classify_regime(c).kind is RegimeKind.EXPLOSIVE_DISPLACEMENT


def test_tripling_reinstatement_raises_share_and_threshold():
    c = with_updates(C, g_A=0.20)
    c3 = with_updates(c, rho0=3 * c.rho0, eta=3 * c.eta)
    s1, _ = integrate_labor_share(c, NO_POLICY, 10.0, 0.01)
    s3, _ = integrate_labor_share(c3, NO_POLICY, 10.0, 0.01)
    assert s3 > s1
    assert explosive_threshold(
        reinstatement_rate(c3.A0, c3), c3
    ) > explosive_threshold(reinstatement_rate(c.A0, c), c)


# --- local stability against the analytic threshold --------------------------

def _threshold_regime_calibration(mpc, beta, f_slope, d_bar, s_L0):
    """Constant-adoption, constant-reinstatement calibration whose analytic
    threshold coincides with the recovery/collapse boundary.

    With d(t) = d_bar and rho = rho0, the spiral ignites exactly when the
    substitution flow exceeds rho0; choosing rho0 = x*d_bar*f_slope with
    x = g0/(1-g0) places the analytic threshold on that boundary.
    """
    bc = beta * mpc
    g0 = (1.0 - bc) / bc * f_slope
    assert g0 < 1.0
    x = g0 / (1.0 - g0)
    rho0 = x * d_bar * f_slope
    return with_updates(
        default_calibration(), mpc_labor=mpc, beta_feedback=beta, f_slope=f_slope,
        d_bar=d_bar, s_L0=s_L0, rho0=rho0, eta=0.0, kappa=50.0, t0_diffusion=-1.0,
    )


STABILITY_CASES = [
    (_threshold_regime_calibration(0.55, 0.9, 0.40, 0.8, 0.56), 12.0),
    (_threshold_regime_calibration(0.60, 0.7, 0.55, 0.9, 0.56), 6.0),
    (_threshold_regime_calibration(0.52, 1.2, 0.50, 1.0, 0.50), 10.0),
]


def _perturbation_gap(c, g_A_mult, horizon):
    gstar = explosive_threshold(reinstatement_rate(c.A0, c), c)
    ce = with_updates(c, g_A=g_A_mult * gstar)
    s_u, _ = integrate_labor_share(ce, NO_POLICY, horizon, 0.01)
    s_p, _ = integrate_labor_share(ce, NO_POLICY, horizon, 0.01, s_init=c.s_L0 - 0.01)
    return abs(max(0.0, c.s_L0 - s_p) - max(0.0, c.s_L0 - s_u))


@pytest.mark.parametrize("c,horizon", STABILITY_CASES)
def test_perturbation_decays_below_threshold(c, horizon):
    assert _perturbation_gap(c, 0.99, horizon) < 0.01


@pytest.mark.parametrize("c,horizon", STABILITY_CASES)
def test_perturbation_grows_above_threshold(c, horizon):
    assert _perturbation_gap(c, 1.01, horizon) > 0.01


# --- lane-batched kernel -----------------------------------------------------

def _sampled_calibration(i, seed=42):
    """The calibration of the Monte Carlo's draw ``i`` (stochastics.sample_columns's entry i)."""
    from macrostress.stochastics import SplitMix64, default_ranges, sample_calibration, substream_seed

    return sample_calibration(SplitMix64(substream_seed(seed, i)), default_ranges(), C)


def _sampled_calibrations(n, seed=42):
    return [_sampled_calibration(i, seed) for i in range(n)]


def _scalar_or_nan(c, p, horizon, dt):
    try:
        return integrate_labor_share(c, p, horizon, dt)[0]
    except IntegrationError:
        return math.nan


def test_lanes_agree_with_scalar_on_sampled_draws():
    cals = _sampled_calibrations(64)
    s_final, failed = integrate_lanes(lane_constants((c, NO_POLICY) for c in cals), 10.0, 0.01)
    assert not failed.any()
    for c, s in zip(cals, s_final.tolist()):
        assert s.hex() == integrate_labor_share(c, NO_POLICY, 10.0, 0.01)[0].hex()


def test_lanes_agree_with_scalar_under_policy():
    # the transfer switches on mid-run for lanes below their baseline share
    cals = [with_updates(C, g_A=g) for g in (0.05, 0.2, 0.4)]
    p = PolicySpec(tau=0.05, lag=1.5, start_time=0.5)
    s_final, failed = integrate_lanes(lane_constants((c, p) for c in cals), 10.0, 0.01)
    assert not failed.any()
    for c, s in zip(cals, s_final.tolist()):
        assert s.hex() == integrate_labor_share(c, p, 10.0, 0.01)[0].hex()


@pytest.fixture(scope="module")
def slicing_lanes():
    """1030 sampled lanes over 20 steps, integrated as one block."""
    cals = _sampled_calibrations(1030, seed=5)
    return cals, integrate_lanes(lane_constants((c, NO_POLICY) for c in cals), 0.2, 0.01)


@pytest.mark.parametrize("width,n", [(1, 64), (7, 1030), (1001, 1030)])
def test_lanes_do_not_depend_on_slicing(slicing_lanes, width, n):
    # block sizes that are not a multiple of the SIMD width exercise numpy's tail loops
    cals, (whole, whole_failed) = slicing_lanes
    parts = [
        integrate_lanes(
            lane_constants((c, NO_POLICY) for c in cals[i:min(i + width, n)]), 0.2, 0.01
        )
        for i in range(0, n, width)
    ]
    assert np.array_equal(np.concatenate([s for s, _ in parts]), whole[:n], equal_nan=True)
    assert np.array_equal(np.concatenate([f for _, f in parts]), whole_failed[:n])


def test_failing_lanes_fail_alone():
    cals = _sampled_calibrations(40)
    overflow = with_updates(C, g_A=150.0)   # alpha_rho*g_A*t passes the cap before t = 10
    non_finite = with_updates(C, g_A=1.0, eta=1e308)  # reinstatement flow overflows to inf
    for bad in (overflow, non_finite):
        with pytest.raises(IntegrationError):
            integrate_labor_share(bad, NO_POLICY, 10.0, 0.01)
    clean, clean_failed = integrate_lanes(lane_constants((c, NO_POLICY) for c in cals), 10.0, 0.01)
    mixed_cals = cals[:13] + [overflow] + cals[13:29] + [non_finite] + cals[29:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the kernel lets no RuntimeWarning escape
        mixed, mixed_failed = integrate_lanes(
            lane_constants((c, NO_POLICY) for c in mixed_cals), 10.0, 0.01
        )
    assert not clean_failed.any()
    assert np.flatnonzero(mixed_failed).tolist() == [13, 30]
    assert np.isnan(mixed[[13, 30]]).all()
    assert np.array_equal(np.delete(mixed, [13, 30]), clean)


def test_lanes_fail_exactly_where_the_scalar_raises():
    cals = [with_updates(C, g_A=g) for g in (0.4, 139.0, 141.0, 300.0)]
    s_final, failed = integrate_lanes(lane_constants((c, NO_POLICY) for c in cals), 10.0, 0.01)
    expected = [_scalar_or_nan(c, NO_POLICY, 10.0, 0.01) for c in cals]
    assert failed.tolist() == [math.isnan(e) for e in expected] == [False, False, True, True]
    assert float(s_final[1]).hex() == expected[1].hex()


def test_lanes_empty_input():
    s_final, failed = integrate_lanes(lane_constants([]), 1.0, 0.01)
    assert s_final.shape == failed.shape == (0,)


# --- the scalar integrator against a one-lane kernel --------------------------------

def _assert_scalar_equals_one_lane(c, p, horizon, dt):
    """integrate_labor_share's final share, or its failure, is a one-lane kernel's, bit for
    bit: both take the time-only terms through numpy's exp."""
    s_final, failed = integrate_lanes(dynamics.column_lane_constants(c, 1, p), horizon, dt)
    expected = _scalar_or_nan(c, p, horizon, dt)
    assert failed.tolist() == [math.isnan(expected)]
    assert float(s_final[0]).hex() == expected.hex()


@pytest.mark.parametrize("name", ["baseline", "rapid", "extreme"])
def test_scalar_integrator_equals_one_lane_kernel_on_the_shipped_scenarios(name):
    s = next(s for s in default_scenarios() if s.name == name)
    _assert_scalar_equals_one_lane(dynamics._effective_calibration(s, C), s.policy, s.horizon, s.dt)


@settings(max_examples=25, deadline=None)
@given(
    g_A=st.floats(min_value=0.0, max_value=0.8),
    kappa=st.floats(min_value=0.2, max_value=40.0),
    t0=st.floats(min_value=0.0, max_value=6.0),
    rho0=st.floats(min_value=0.0, max_value=0.05),
    eta=st.floats(min_value=0.0, max_value=0.05),
    beta=st.floats(min_value=0.05, max_value=0.6),
    mpc=st.floats(min_value=0.55, max_value=0.95),
    tau=st.floats(min_value=0.0, max_value=0.15),
    lag=st.floats(min_value=0.0, max_value=5.0),
    dt=st.sampled_from([0.01, 0.02, 0.03]),
)
def test_scalar_integrator_equals_one_lane_kernel(g_A, kappa, t0, rho0, eta, beta, mpc, tau, lag, dt):
    c = with_updates(C, g_A=g_A, kappa=kappa, t0_diffusion=t0, rho0=rho0, eta=eta,
                     beta_feedback=beta, mpc_labor=mpc)
    _assert_scalar_equals_one_lane(c, PolicySpec(tau=tau, lag=lag), 10.0, dt)


# The seed-42 Monte Carlo draws whose 2000-lane kernel lane ended where
# integrate_labor_share on the same calibration did not, while the scalar rows went
# through math.exp and the kernel's through numpy's AVX-512 exp.
_MC_DRAWS_THAT_DIFFERED = (319, 338, 433, 801, 851, 970, 1034, 1079, 1091, 1433, 1454, 1538, 1584, 1710)


@pytest.fixture(scope="module")
def mc_draws():
    """50 seed-42 Monte Carlo draws: the 14 that differed and draws 0 to 35."""
    return [_sampled_calibration(i) for i in (*_MC_DRAWS_THAT_DIFFERED, *range(36))]


def test_scalar_integrator_equals_one_lane_kernel_on_monte_carlo_draws(mc_draws):
    for c in mc_draws:
        _assert_scalar_equals_one_lane(c, NO_POLICY, 10.0, 0.01)


def test_scalar_integrator_equals_the_monte_carlo_lanes(mc_draws):
    # the draws as the Monte Carlo runs them: one column of lanes, one step per chunk
    from macrostress.stochastics import default_ranges, sample_columns

    columns, _ = sample_columns(2000, default_ranges(), C, 42)
    draws = SimpleNamespace(**{**vars(C), **columns})
    s_final, failed = integrate_lanes(dynamics.column_lane_constants(draws, 2000, NO_POLICY), 10.0, 0.01)
    assert not failed.any()
    indices = (*_MC_DRAWS_THAT_DIFFERED, *range(36))
    assert [float(s_final[i]).hex() for i in indices] == [
        integrate_labor_share(c, NO_POLICY, 10.0, 0.01)[0].hex() for c in mc_draws
    ]


# --- the scalar integrator against its previous form ------------------------------

def _reference_integrate_labor_share(
    c: Calibration,
    p: PolicySpec,
    horizon: float,
    dt: float,
    record: list[float] | None = None,
    s_init: float | None = None,
) -> tuple[float, float | None]:
    """The scalar integrator before its time-only terms were precomputed, kept as the
    per-step reference; its exponential is numpy's, per stage time, as the rows are."""
    d_bar, neg_kappa, t0, disp_scale, rho0, rho_scale, rho_exp, beta, s0, k_pi = (
        _drift_constants(c)
    )
    tau, activation = p.tau, p.start_time + p.lag
    exp = _np_exp

    def deriv(t: float, s: float) -> float:
        e = neg_kappa * (t - t0)
        if e > 40.0:
            d = 0.0
        elif e < -40.0:
            d = d_bar
        else:
            d = d_bar / (1.0 + exp(e))
        x = rho_exp * t
        if x > _EXP_CAP:
            raise IntegrationError(
                f"reinstatement term overflows at t={t:g} (alpha_rho*g_A*t={x:g})"
            )
        rho = rho0 + rho_scale * exp(x)
        gap = s0 - s
        pi = k_pi * gap if gap > 0.0 else 0.0
        stab = tau if (s < s0 and t >= activation) else 0.0
        raw = -d * disp_scale - beta * pi + rho + stab
        if s <= 0.0 and raw < 0.0:
            return 0.0
        if s >= 1.0 and raw > 0.0:
            return 0.0
        return raw

    n_steps = round(horizon / dt)
    s = s0 if s_init is None else s_init
    t = 0.0
    collapse: float | None = 0.0 if s <= S_FLOOR else None
    if record is not None:
        record.append(s)
    half = dt / 2.0
    sixth = dt / 6.0
    for i in range(n_steps):
        t = i * dt
        k1 = deriv(t, s)
        k2 = deriv(t + half, s + half * k1)
        k3 = deriv(t + half, s + half * k2)
        k4 = deriv(t + dt, s + dt * k3)
        s = s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(s):
            raise IntegrationError(
                f"labor share became non-finite at t={t + dt:g}; "
                f"stage derivatives k1={k1:g} k2={k2:g} k3={k3:g} k4={k4:g}"
            )
        if s < 0.0:
            s = 0.0
        elif s > 1.0:
            s = 1.0
        t = (i + 1) * dt
        if collapse is None and s <= S_FLOOR:
            collapse = t
        if record is not None:
            record.append(s)
    return s, collapse


def _outcome(integrate, c, p, horizon, dt, s_init=None):
    """Every bit an integration shows: final state, collapse time and recorded
    states as float.hex, or the exception's type and message and the partial record."""
    record = []
    try:
        s, collapse = integrate(c, p, horizon, dt, record=record, s_init=s_init)
    except Exception as exc:
        return type(exc), str(exc), [v.hex() for v in record]
    return s.hex(), None if collapse is None else collapse.hex(), [v.hex() for v in record]


_POLICY = PolicySpec(tau=0.05, lag=1.5, start_time=0.5)
_CHUNK = _STAGE_BLOCK // 3  # steps whose time-only terms are computed at once
# collapses at t = 8.06; from s_L0 its path stays at or above s_L0 to t = 2.81, so its
# first steps run as time-only array arithmetic
_RAPID_C = with_updates(C, g_A=0.4)
_TRANSFER_FROM_0 = PolicySpec(tau=0.05, lag=0.0)

# 41 * 0.01 + 0.01 != 42 * 0.01: step 42 starts one ulp of time away from step 41's
# end, where a logistic this steep moves d by about 1e-13
_UNSHARED_START = 42 * 0.01

_SCALAR_CASES = {
    "default": (C, NO_POLICY, 10.0, 0.01, None),
    "logistic_tails": (with_updates(C_TAILS, g_A=0.2), _POLICY, 10.0, 0.01, None),
    # d = 0 early on, which only a share near 0 can tell from d_bar / (1 + e^41)
    "logistic_tail_at_tiny_share": (
        with_updates(C, kappa=30.0, g_A=0.3, s_L0=1e-300, rho0=0.0, eta=0.0), NO_POLICY, 10.0, 0.01, None
    ),
    "steep_adoption_at_unshared_start": (
        with_updates(C, kappa=1000.0, t0_diffusion=_UNSHARED_START, f_slope=1.0, g_A=1.0, eta=0.0),
        NO_POLICY, 10.0, 0.01, None,
    ),
    "collapse": (_RAPID_C, NO_POLICY, 10.0, 0.01, None),
    "ceiling": (with_updates(C, g_A=2.0), PolicySpec(tau=0.1), 10.0, 0.01, None),
    "transfer_lifts_above_baseline": (_RAPID_C, PolicySpec(tau=0.5, lag=2.0), 10.0, 0.01, None),
    # the reinstatement exponent first passes the cap at this stage time
    "overflow_at_mid": (with_updates(C, g_A=200.0), NO_POLICY, 10.0, 0.01, None),
    "overflow_at_end": (with_updates(C, g_A=141.0), NO_POLICY, 10.0, 0.01, None),
    "overflow_at_last_step_of_first_chunk": (with_updates(C, g_A=102.58), NO_POLICY, 20.0, 0.01, None),
    "overflow_at_first_step_of_second_chunk": (with_updates(C, g_A=102.55), NO_POLICY, 20.0, 0.01, None),
    "overflow_in_third_chunk": (with_updates(C, g_A=51.28), NO_POLICY, 30.0, 0.01, None),
    "non_finite": (with_updates(C, g_A=1.0, eta=1e308), NO_POLICY, 10.0, 0.01, None),
    # non-finite at the first step, with the reinstatement exponent past the cap at t = 9.335
    "non_finite_before_the_cap": (with_updates(C, g_A=150.0, eta=1e308), NO_POLICY, 10.0, 0.01, None),
    # an infinite displacement scale steps to -inf; with an infinite reinstatement scale
    # too, the stages are -inf + inf, NaN
    "non_finite_negative": (with_updates(C, f_slope=1e308, g_A=10.0), NO_POLICY, 10.0, 0.01, None),
    "non_finite_nan": (
        with_updates(C, f_slope=1e308, g_A=10.0, eta=1e308, A0=1e10), NO_POLICY, 10.0, 0.01, None
    ),
    "s_init_0": (C, _POLICY, 10.0, 0.01, 0.0),
    "s_init_1": (C, _POLICY, 10.0, 0.01, 1.0),
    "s_init_at_floor": (_RAPID_C, NO_POLICY, 10.0, 0.01, S_FLOOR),
    "s_init_below_floor": (_RAPID_C, _POLICY, 10.0, 0.01, 0.005),
    "dt_0.03_not_dividing": (_RAPID_C, _POLICY, 10.0, 0.03, None),
    "dt_0.0007_not_dividing": (C_TAILS, _POLICY, 10.0, 0.0007, None),
    "one_step": (_RAPID_C, _POLICY, 0.01, 0.01, None),
    "one_chunk": (_RAPID_C, _POLICY, _CHUNK * 0.001, 0.001, None),
    "one_chunk_and_a_step": (_RAPID_C, _POLICY, (_CHUNK + 1) * 0.001, 0.001, None),
    # below s_L0 at every step, so both chunks run every step through the per-step loop:
    # with the transfer on from t = 0, or switched on at t = 2 inside the second chunk
    "below_s_L0_across_a_chunk_edge": (_RAPID_C, _TRANSFER_FROM_0, (_CHUNK + 1) * 0.001, 0.001, 0.5),
    "below_s_L0_across_two_chunk_edges": (
        _RAPID_C, _TRANSFER_FROM_0, (2 * _CHUNK + 1) * 0.001, 0.001, 0.45
    ),
    "below_s_L0_activation_in_second_chunk": (_RAPID_C, _POLICY, (2 * _CHUNK + 1) * 0.001, 0.001, 0.5),
    # the transfer switches on between a step's start and mid, at its mid, and between mid and end
    "activation_before_mid": (_RAPID_C, PolicySpec(tau=0.02, lag=3.003), 10.0, 0.01, None),
    "activation_at_mid": (_RAPID_C, PolicySpec(tau=0.02, lag=3.005), 10.0, 0.01, None),
    "activation_after_mid": (_RAPID_C, PolicySpec(tau=0.02, lag=3.007), 10.0, 0.01, None),
    # Step 0 puts the named stage's input at exactly s_L0 with the transfer on: the one
    # input where the stage drift's `gap > 0.0` and `gap >= 0.0` differ. The step cannot
    # run as time-only arithmetic, so the per-step loop runs it.
    "stage_1_input_at_s_L0": (
        with_updates(C, g_A=0.4, t0_diffusion=0.0), PolicySpec(tau=0.05, lag=0.0), 1.0, 0.01, None
    ),
    "stage_2_input_at_s_L0": (_RAPID_C, PolicySpec(tau=0.05, lag=0.0), 1.0, 0.01, 0.5597264142269149),
    "stage_3_input_at_s_L0": (_RAPID_C, PolicySpec(tau=0.05, lag=0.0), 1.0, 0.01, 0.5599758780635399),
    "stage_4_input_at_s_L0": (_RAPID_C, PolicySpec(tau=0.05, lag=0.0), 1.0, 0.01, 0.5594528161735646),
    # falls below s_L0 at step 5731 and is back in [s_L0, 1) for the whole chunk of steps
    # 8190 to 9554: steps that time-only arithmetic would take, run per step after the
    # first refused one
    "reenters_the_time_only_band": (
        with_updates(C, g_A=0.345, eta=0.009, alpha_rho=0.62, rho0=0.0035, kappa=3.0, d_bar=0.8),
        NO_POLICY, 10.0, 0.001, None,
    ),
    # s_L0 below S_FLOOR: collapsed at t = 0, and rising from the first step
    "rises_from_a_collapsed_start": (with_updates(C, s_L0=0.005, rho0=1.0), NO_POLICY, 10.0, 0.01, None),
}


@pytest.mark.parametrize("case", sorted(_SCALAR_CASES))
def test_scalar_integrator_equals_reference_bit_for_bit(case):
    args = _SCALAR_CASES[case]
    assert _outcome(integrate_labor_share, *args) == _outcome(_reference_integrate_labor_share, *args)


def test_scalar_integrator_equals_reference_on_sampled_draws():
    # Monte Carlo draws: some collapse to 0, some rise, under a lagged transfer
    for c in _sampled_calibrations(40, seed=11):
        for p in (NO_POLICY, _POLICY):
            assert _outcome(integrate_labor_share, c, p, 10.0, 0.01) == _outcome(
                _reference_integrate_labor_share, c, p, 10.0, 0.01
            )


@pytest.mark.parametrize("case,message,steps", [
    ("overflow_at_mid", "overflows at t=7.005 ", 700),
    ("overflow_at_end", "overflows at t=9.93 ", 992),
    ("overflow_at_last_step_of_first_chunk", "overflows at t=13.65 ", _CHUNK - 1),
    ("overflow_at_first_step_of_second_chunk", "overflows at t=13.655 ", _CHUNK),
    ("overflow_in_third_chunk", "overflows at t=27.305 ", 2 * _CHUNK),
    ("non_finite", "non-finite at t=0.01;", 0),
    ("non_finite_before_the_cap", "non-finite at t=0.01;", 0),
    ("non_finite_negative", "non-finite at t=0.01; stage derivatives k1=-inf ", 0),
    ("non_finite_nan", "non-finite at t=0.01; stage derivatives k1=nan ", 0),
])
def test_scalar_cases_raise_where_named(case, message, steps):
    # the reference cases above reach the stage, step and chunk their names say
    kind, text, record = _outcome(_reference_integrate_labor_share, *_SCALAR_CASES[case])
    assert kind is IntegrationError and message in text
    assert len(record) == steps + 1


def test_scalar_cases_reach_what_their_names_say():
    def final(case):
        return _outcome(_reference_integrate_labor_share, *_SCALAR_CASES[case])

    assert final("collapse")[0] == (0.0).hex() and final("ceiling")[0] == (1.0).hex()
    # an activation time inside a step is seen at the stage times at or after it
    activations = [final(f"activation_{w}")[0] for w in ("before_mid", "at_mid", "after_mid")]
    assert len(set(activations)) == 2 and activations[0] == activations[1]
    assert round(_SCALAR_CASES["one_chunk"][2] / 0.001) == _CHUNK
    # The time-only pass takes only steps that start at or above s_L0. No state of these
    # cases does, so every step of both chunks runs the per-step loop; the transfer flows
    # from t = 0, or from t = 2.0, inside the second chunk
    for case in ("across_a_chunk_edge", "across_two_chunk_edges", "activation_in_second_chunk"):
        c, p, horizon, dt, _ = _SCALAR_CASES[f"below_s_L0_{case}"]
        states = [float.fromhex(v) for v in final(f"below_s_L0_{case}")[2]]
        n_steps = round(horizon / dt)
        assert len(states) == n_steps + 1 and n_steps > _CHUNK and max(states) < c.s_L0
        assert p.tau > 0.0 and p.start_time + p.lag in (0.0, 2.0)
    assert _CHUNK * 0.001 < 2.0 < 2 * _CHUNK * 0.001
    assert 41 * 0.01 + 0.01 != _UNSHARED_START
    tiny = _SCALAR_CASES["logistic_tail_at_tiny_share"][0]
    assert -tiny.kappa * (0.0 - tiny.t0_diffusion) > 40.0
    # below s_L0 at some step, and in [s_L0, 1) for a whole later chunk
    c, _, _, dt, _ = _SCALAR_CASES["reenters_the_time_only_band"]
    states = np.array([float.fromhex(v) for v in final("reenters_the_time_only_band")[2]])
    dip = int(np.argmax(states < c.s_L0))
    inside = (states >= c.s_L0) & (states < 1.0)
    later = range((dip // _CHUNK + 1) * _CHUNK, len(states) - _CHUNK, _CHUNK)  # whole chunks after it
    assert dt == 0.001 and states[dip] < c.s_L0 and any(inside[lo : lo + _CHUNK + 1].all() for lo in later)
    c = _SCALAR_CASES["rises_from_a_collapsed_start"][0]
    _, collapse, states = final("rises_from_a_collapsed_start")
    assert c.s_L0 < S_FLOOR < float.fromhex(states[1]) and collapse == (0.0).hex()
    assert round(10.0 / 0.03) * 0.03 != 10.0 and round(10.0 / 0.0007) * 0.0007 != 10.0


# --- the reinstatement cap, found before the run ---------------------------------

def _reference_steps_within_cap(rho_exp, n_steps, dt):
    """The steps before the first step with a stage past the reinstatement cap, as the
    scalar path found them before it counted them: each chunk's step ends scanned as
    its rows were built, frozen."""
    for lo in range(0, n_steps, _CHUNK):
        times, rows = stage_schedule(lo, min(lo + _CHUNK, n_steps), dt)
        with np.errstate(over="ignore"):  # an exponent past the float range is past the cap too
            past_cap = np.flatnonzero(rho_exp * times[rows[2]] > _EXP_CAP)
        if past_cap.size:
            return lo + int(past_cap[0])
    return n_steps


def _assert_count_equals_scan(rho_exp, n_steps, dt):
    count = dynamics._steps_within_cap(rho_exp, n_steps, dt)
    assert count == _reference_steps_within_cap(rho_exp, n_steps, dt)
    return count


@st.composite
def _cap_runs(draw):
    """``(rho_exp, n_steps, dt)``: a rate whose exponent reaches the cap near a drawn
    share of the run, or any rate."""
    dt = draw(st.floats(1e-4, 0.1))
    n_steps = draw(st.integers(0, 3 * _CHUNK))
    span = draw(st.floats(0.01, 2.0)) * max(n_steps, 1) * dt
    rho_exp = draw(st.just(_EXP_CAP / span) | st.floats(0.0, 1e7) | st.sampled_from((0.0, math.inf)))
    return rho_exp, n_steps, dt


@settings(max_examples=300, deadline=None)
@given(run=_cap_runs())
def test_steps_within_cap_equal_the_chunk_scan(run):
    _assert_count_equals_scan(*run)


@pytest.mark.parametrize("dt,step", [
    (0.01, 0), (0.01, 700), (0.001, _CHUNK - 1), (0.03, 333), (0.0007, 2 * _CHUNK + 5), (0.1, 99),
])
def test_steps_within_cap_at_exact_landings(dt, step):
    # the rate whose exponent lands exactly on the cap at the step's end, and one ulp
    # to either side: at the cap the step is within it, one ulp above it is not
    end = step * dt + dt
    rate = _EXP_CAP / end
    assert rate * end == _EXP_CAP
    n_steps = step + 10
    assert _assert_count_equals_scan(rate, n_steps, dt) == step + 1
    assert _assert_count_equals_scan(math.nextafter(rate, 0.0), n_steps, dt) == step + 1
    assert _assert_count_equals_scan(math.nextafter(rate, math.inf), n_steps, dt) == step


@pytest.mark.parametrize("n_steps", [0, 1, _CHUNK, 3 * _CHUNK + 1])
def test_steps_within_cap_without_reinstatement_growth(n_steps):
    assert _assert_count_equals_scan(0.0, n_steps, 0.01) == n_steps


@pytest.mark.parametrize("cut", [0, _CHUNK - 1, _CHUNK, 3 * _CHUNK])
def test_steps_within_cap_at_chunk_edges(cut):
    # a rate that passes the cap between step `cut`'s start and its end, none at n_steps
    n_steps, dt = 3 * _CHUNK, 0.01
    assert _assert_count_equals_scan(_EXP_CAP / (cut * dt + dt / 2.0), n_steps, dt) == cut


def test_scalar_cap_is_found_once_per_integration(monkeypatch):
    counts = []
    steps_within_cap = dynamics._steps_within_cap

    def counted(*args):
        counts.append(steps_within_cap(*args))
        return counts[-1]

    monkeypatch.setattr(dynamics, "_steps_within_cap", counted)
    for case in ("default", "overflow_in_third_chunk", "non_finite_before_the_cap"):
        args = _SCALAR_CASES[case]
        assert _outcome(integrate_labor_share, *args) == _outcome(_reference_integrate_labor_share, *args)
    assert counts == [1000, 2 * _CHUNK, 933]


def _first_step_stage_inputs(c, p, dt, s):
    """Step 0's four stage inputs from state ``s``, by the reference's arithmetic
    (no logistic tail at these stage times)."""
    d_bar, neg_kappa, t0, disp_scale, rho0, rho_scale, rho_exp, beta, s0, k_pi = _drift_constants(c)

    def deriv(t, u):
        d = d_bar / (1.0 + _np_exp(neg_kappa * (t - t0)))
        gap = s0 - u
        pi = k_pi * gap if gap > 0.0 else 0.0
        stab = p.tau if (u < s0 and t >= p.start_time + p.lag) else 0.0
        return -d * disp_scale - beta * pi + (rho0 + rho_scale * _np_exp(rho_exp * t)) + stab

    half = dt / 2.0
    u2 = s + half * deriv(0.0, s)
    u3 = s + half * deriv(half, u2)
    return s, u2, u3, s + dt * deriv(half, u3)


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_cases_put_a_loop_stage_input_at_s_L0_with_the_transfer_on(stage):
    c, p, _, dt, s_init = _SCALAR_CASES[f"stage_{stage}_input_at_s_L0"]
    s = c.s_L0 if s_init is None else s_init
    assert _first_step_stage_inputs(c, p, dt, s)[stage - 1] == c.s_L0
    assert transfer_at(0.0, p) == p.tau > 0.0
    # the time-only pass takes no step that starts below s_L0 or whose mid input falls below it
    assert s < c.s_L0 or labor_share_derivative(0.0, s, c, p) < 0.0


# --- the time-only rows against their previous builders --------------------------

def _reference_rows(consts, ts):
    """The policy sweep's float-path rows ``-d * disp_scale`` and rho as its own builder
    wrote them through numpy's ``exp``, frozen: every integrator's rows now."""
    d_bar, neg_kappa, t0, disp_scale, rho0, rho_scale, rho_exp = consts[:7]
    push, rho = np.empty(len(ts)), np.empty(len(ts))
    np.subtract(ts, t0, out=push)
    np.multiply(neg_kappa, push, out=push)  # e
    upper = push > 40.0
    np.exp(push, out=push)
    np.add(1.0, push, out=push)
    np.divide(d_bar, push, out=push)  # d
    push[upper] = 0.0
    np.multiply(push, -disp_scale, out=push)
    np.multiply(rho_exp, ts, out=rho)
    np.exp(rho, out=rho)
    np.multiply(rho_scale, rho, out=rho)
    np.add(rho0, rho, out=rho)
    return [push, rho]


def _bits(x):
    """``x`` as int64 views, every NaN as numpy's: a NaN drift fails its path whatever
    its sign."""
    return np.where(np.isnan(x), np.nan, x).view(np.int64).tolist()


def _assert_rows_equal_references(c, ts):
    """``_drive`` has the bits of the sweep's frozen builder."""
    consts = _drift_constants(c)
    with np.errstate(over="ignore", invalid="ignore"):  # as _rk4_path runs them
        rows = [np.empty(len(ts)), np.empty(len(ts))]
        dynamics._drive(ts, *dynamics._drive_constants(consts), *rows)
        for got, want in zip(rows, _reference_rows(consts, ts)):
            assert _bits(got) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(1e-3, 1e3), t0=st.floats(-50.0, 50.0), d_bar=st.floats(0.0, 1.0),
    f_slope=st.floats(0.0, 5.0), g_A=st.floats(0.0, 150.0), A0=st.floats(0.1, 10.0),
    rho0=st.floats(0.0, 0.1), eta=st.floats(0.0, 1.0), alpha_rho=st.floats(0.0, 1.0),
    dt=st.floats(1e-4, 0.05), steps=st.integers(1, 3000),
)
def test_drive_rows_equal_previous_builders_on_sampled_calibrations(
    kappa, t0, d_bar, f_slope, g_A, A0, rho0, eta, alpha_rho, dt, steps
):
    c = with_updates(C, kappa=kappa, t0_diffusion=t0, d_bar=d_bar, f_slope=f_slope, g_A=g_A,
                     A0=A0, rho0=rho0, eta=eta, alpha_rho=alpha_rho)
    ts = stage_schedule(0, steps, dt)[0]
    # _rk4_path's rows stop before the first step past the cap, ascending stage times
    _assert_rows_equal_references(c, ts[alpha_rho * g_A * ts <= _EXP_CAP])


# (kappa, t0_diffusion, e): the logistic's argument e = -kappa * (t - t0) at t = 0
_LOGISTIC_ARGUMENTS = {
    "e_40": (1.0, 40.0, 40.0),
    "e_41": (1.0, 41.0, 41.0),
    "e_700": (1.0, 700.0, 700.0),
    "e_710": (1.0, 710.0, 710.0),
    "e_inf": (2.0, 1e308, math.inf),
    "e_minus_inf": (2.0, -1e308, -math.inf),
    "e_nan": (math.inf, 0.0, math.nan),  # -inf * 0.0
}


@pytest.mark.parametrize("case", sorted(_LOGISTIC_ARGUMENTS))
def test_drive_rows_equal_previous_builders_at_logistic_edges(case):
    kappa, t0, e = _LOGISTIC_ARGUMENTS[case]
    ts = stage_schedule(0, 10, 0.01)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(-kappa * (ts[:1] - t0)) == _bits(np.array([e]))
    _assert_rows_equal_references(with_updates(C, kappa=kappa, t0_diffusion=t0), ts)


def test_drive_rows_equal_previous_builders_at_the_reinstatement_cap():
    c = with_updates(C, g_A=140.0, alpha_rho=0.5)
    ts = stage_schedule(0, 20, 0.5)[0]
    assert (c.alpha_rho * c.g_A * ts).max() == _EXP_CAP
    _assert_rows_equal_references(c, ts)


# --- the lane kernel against its previous form --------------------------------

def _reference_rk4_lanes(consts, horizon, dt, failed):
    """The lane kernel before its numpy calls were cut, kept as the per-step reference."""
    d_bar, neg_kappa, t0, disp_scale, rho0, rho_scale, rho_exp, beta, s0, k_pi, tau, activation = (
        consts
    )

    def drive(ts):
        e = neg_kappa * (ts - t0)
        d = np.where(e > 40.0, 0.0, np.where(e < -40.0, d_bar, d_bar / (1.0 + np.exp(e))))
        x = rho_exp * ts
        failed[(x > _EXP_CAP).any(axis=0)] = True
        return -d * disp_scale, rho0 + rho_scale * np.exp(x), np.where(ts >= activation, tau, 0.0)

    def deriv(s, push, rho, transfer):
        gap = s0 - s
        below = gap > 0.0
        pi = np.where(below, k_pi * gap, 0.0)
        raw = push - beta * pi + rho + np.where(below, transfer, 0.0)
        absorbed = ((s <= 0.0) & (raw < 0.0)) | ((s >= 1.0) & (raw > 0.0))
        return np.where(absorbed, 0.0, raw)

    s = s0.copy()
    yield 0.0, s
    half = dt / 2.0
    sixth = dt / 6.0
    n_steps = round(horizon / dt)
    chunk = max(1, _STAGE_BLOCK // (3 * max(1, s.size)))
    for lo in range(0, n_steps, chunk):
        steps = range(lo, min(lo + chunk, n_steps))
        ts = np.array([(i * dt, i * dt + half, i * dt + dt) for i in steps]).reshape(-1, 1)
        push, rho, transfer = drive(ts)
        for j, i in enumerate(steps):
            start, mid, end = 3 * j, 3 * j + 1, 3 * j + 2
            k1 = deriv(s, push[start], rho[start], transfer[start])
            k2 = deriv(s + half * k1, push[mid], rho[mid], transfer[mid])
            k3 = deriv(s + half * k2, push[mid], rho[mid], transfer[mid])
            k4 = deriv(s + dt * k3, push[end], rho[end], transfer[end])
            s = s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            failed |= ~np.isfinite(s)
            s = np.where(s < 0.0, 0.0, np.where(s > 1.0, 1.0, s))
            yield (i + 1) * dt, s


def _steps(chunks):
    """The kernel's chunks as one (t, state) pair per grid point, t = 0 first: the
    row 0 that every chunk after the first repeats is left out."""
    for k, (ts, path) in enumerate(chunks):
        yield from zip(ts[min(k, 1):, 0].tolist(), path[min(k, 1):])


def _kernel_cases():
    sampled = _sampled_calibrations(400)
    # g_A = 0.4 collapses to s = 0 and g_A = 2 climbs to s = 1; the last lane
    # sits at s = 1 from t = 2.17 until adoption pulls it off at t = 6.34
    release = with_updates(C, g_A=2.0, alpha_rho=0.01, rho0=0.2, t0_diffusion=6.0, kappa=5.0)
    edges = [
        (with_updates(C, g_A=g), PolicySpec(tau=tau, lag=lag))
        for g in (0.4, 2.0) for lag in (0.0, 6.0) for tau in (0.0, 0.02, 0.1)
    ] + [(release, NO_POLICY)]
    # kappa * t0 > 40: d is 0 early on, which only a share near 0 can tell from d_bar / (1 + e^e)
    steep = [(with_updates(C, kappa=k, g_A=0.3), _POLICY) for k in (30.0, 2.0, 50.0)]
    steep.append((with_updates(C, kappa=30.0, s_L0=1e-300, rho0=0.0, eta=0.0), NO_POLICY))
    # e(0) = kappa * 2.8 <= 40 and e(10) < -40: the lanes reach only the lower tail
    lower = [(with_updates(C, kappa=k, g_A=g), _POLICY) for k in (8.0, 12.0, 14.0) for g in (0.05, 0.4)]
    # the earliest non-zero-tau activation, 2.503, lies inside the chunk of steps 170-339,
    # between a step's start and mid, with every lane below s_L0; the tau = 0.0 lanes
    # activate earlier
    inside = [
        (with_updates(C, g_A=g, t0_diffusion=0.0), PolicySpec(tau=tau, lag=lag))
        for g in (0.4, 0.2) for tau, lag in ((0.05, 2.003), (0.1, 4.0), (0.0, 0.0), (0.0, 1.0))
    ]
    bad = [
        with_updates(C, g_A=150.0),              # overflows early
        with_updates(C, g_A=1.0, eta=1e308),     # the state turns non-finite
        with_updates(C, g_A=141.0),              # overflows late
        with_updates(C, g_A=140.1),              # overflows only in the last step
        with_updates(C, g_A=1e308, f_slope=10.0),  # the state turns NaN
    ]
    mixed = sampled[:13] + bad[:1] + sampled[13:29] + bad[1:2] + sampled[29:40] + bad[2:]
    # next to the NaN lane, a lane collapses to s = 0 by t = 8.06 and a transfer lifts it at t = 9
    recovery = (with_updates(C, g_A=0.4), PolicySpec(tau=0.5, lag=9.0))
    return {
        "sampled": ([(c, NO_POLICY) for c in sampled], 10.0),
        "sampled_policy": ([(c, _POLICY) for c in sampled], 10.0),
        "sweep_edges": (edges, 10.0),
        "logistic_tails": (steep, 10.0),
        "lower_tail_only": (lower, 10.0),
        "transfer_inside_chunk": (inside, 10.0),
        "failing_mixed": ([(c, NO_POLICY) for c in mixed] + [recovery], 10.0),
        "failing_mixed_policy": ([(c, _POLICY) for c in mixed] + [recovery], 10.0),
        "lanes_0": ([], 1.0),
        "lanes_1": ([(c, _POLICY) for c in _sampled_calibrations(1, seed=7)], 10.0),
        "lanes_7": ([(c, _POLICY) for c in _sampled_calibrations(7, seed=7)], 10.0),
        "lanes_1001": ([(c, _POLICY) for c in _sampled_calibrations(1001, seed=7)], 3.0),
    }


@pytest.fixture(scope="module")
def kernel_cases():
    return _kernel_cases()


@pytest.mark.parametrize("case", [
    "sampled", "sampled_policy", "sweep_edges", "logistic_tails", "lower_tail_only",
    "transfer_inside_chunk", "failing_mixed",
    "failing_mixed_policy", "lanes_0", "lanes_1", "lanes_7", "lanes_1001",
])
def test_lane_kernel_equals_reference_at_every_step(kernel_cases, case):
    lanes, horizon = kernel_cases[case]
    consts = lane_constants(lanes)
    failed, ref_failed = np.zeros(len(lanes), bool), np.zeros(len(lanes), bool)
    steps = 0
    with np.errstate(all="ignore"):
        for (t, s), (ref_t, ref_s) in zip(
            _steps(rk4_lanes(consts, horizon, 0.01, failed)),
            _reference_rk4_lanes(consts, horizon, 0.01, ref_failed),
            strict=True,
        ):
            assert t == ref_t and np.array_equal(s, ref_s, equal_nan=True), (case, t)
            steps += 1
    assert steps == round(horizon / 0.01) + 1
    assert np.array_equal(failed, ref_failed)
    if case == "sampled":   # some draws collapse: the absorbing edge is taken
        assert (s == 0.0).any()
    if case == "sweep_edges":
        assert s.min() == 0.0 and s.max() == 1.0
    if case == "logistic_tails":   # e = -kappa * (0 - t0) > 40 at t = 0
        assert (consts[1] * (0.0 - consts[2]) > 40.0).any()
    if case == "lower_tail_only":   # no mask acts: below e = -40 the formula is the tail
        t_last = stage_schedule(0, steps - 1, 0.01)[0].max()
        assert (consts[1] * (0.0 - consts[2]) <= 40.0).all()
        assert (consts[1] * (t_last - consts[2]) < -40.0).all()
    if case == "transfer_inside_chunk":   # strictly between a chunk's first and last step
        chunk = _STAGE_BLOCK // (3 * len(lanes))
        first = consts[11][consts[10] != 0.0].min()
        assert chunk == 170 and 0 < first / 0.01 % chunk < chunk - 1 and (consts[10] == 0.0).any()
        assert s[4] > 0.0 == s[6]   # the transfer saves a lane that collapses without one
    if case.startswith("failing_mixed"):
        assert np.flatnonzero(failed).tolist() == [13, 30, 42, 43, 44]
        assert np.isnan(s[44]) and s[45] > 0.0


# --- the stage-time schedule of both integrators ---------------------------------

@pytest.mark.parametrize("dt", [0.01, 0.02, 0.03, 0.001, 0.0007, 0.25])
def test_stage_schedule_equals_a_per_step_loop(dt):
    n = 3000
    loop = [(i * dt, i * dt + dt / 2.0, i * dt + dt) for i in range(n)]
    shared = [start == end for (start, _, _), (_, _, end) in zip(loop[1:], loop)]
    times, rows = stage_schedule(0, n, dt)
    # each step's start, mid and end are the loop's floats, bit for bit
    assert np.array_equal(times[rows.T].view(np.int64), np.array(loop).view(np.int64))
    # each distinct time has one row, and a start shares the previous end's row exactly where equal
    assert len(set(times.tolist())) == len(times) == 3 * n - sum(shared)
    assert (rows[0, 1:] == rows[2, :-1]).tolist() == shared
    assert rows[0, 0] == 0 and (dt == 0.25) == all(shared)
    # a range's schedule is the run's, sliced at its first start: the scalar integrator's
    # chunks and the 78-lane kernel's (1365 and 17 steps), whose edges some starts share
    chunks = (_CHUNK, _STAGE_BLOCK // (3 * 78))
    at_edges = [shared[lo - 1] for chunk in chunks for lo in range(chunk, n, chunk)]
    assert dt == 0.25 or 0 < sum(at_edges) < len(at_edges)
    for chunk in chunks:
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            part_times, part_rows = stage_schedule(lo, hi, dt)
            r0 = rows[0, lo]
            assert np.array_equal(part_times.view(np.int64), times[r0 : rows[2, hi - 1] + 1].view(np.int64))
            assert np.array_equal(part_rows, rows[:, lo:hi] - r0)
    empty_times, empty_rows = stage_schedule(5, 5, dt)
    assert empty_times.shape == (0,) and empty_rows.shape == (3, 0)


# --- the lane kernel's stage-row reuse and buffers ------------------------------

def _unequal_steps(dt, n_steps):
    """Steps whose end time i*dt + dt is not the next step's start time (i+1)*dt."""
    return [i for i in range(n_steps) if i * dt + dt != (i + 1) * dt]


def _assert_kernel_equals_reference(lanes, horizon, dt):
    """Returns the kernel's path, one row per grid point, and its failed mask."""
    consts = lane_constants(lanes)
    failed, ref_failed = np.zeros(len(lanes), bool), np.zeros(len(lanes), bool)
    states = []
    with np.errstate(all="ignore"):
        for (t, s), (ref_t, ref_s) in zip(
            _steps(rk4_lanes(consts, horizon, dt, failed)),
            _reference_rk4_lanes(consts, horizon, dt, ref_failed),
            strict=True,
        ):
            assert t == ref_t and np.array_equal(s, ref_s, equal_nan=True), (dt, t)
            states.append(s)
    assert len(states) == round(horizon / dt) + 1
    assert np.array_equal(failed, ref_failed)
    return np.array(states), failed


def _kernel_lanes(n, seed=7):
    return [(c, _POLICY) for c in _sampled_calibrations(n, seed=seed)]


def _steep_lane(t0):
    """A lane whose adoption jumps at t0 steeply enough that a stage row evaluated one
    ulp of time off shows in the state: the ulp moves d by about 1e-13 there."""
    return with_updates(C, kappa=1000.0, t0_diffusion=t0, f_slope=1.0, g_A=1.0, eta=0.0), NO_POLICY


def test_lane_kernel_equals_reference_when_every_end_time_is_the_next_start(kernel_cases):
    # every stage row but the first step's start is shared with the step before
    assert _unequal_steps(0.25, 40) == []
    lanes = _kernel_lanes(30) + kernel_cases["sweep_edges"][0]
    _assert_kernel_equals_reference(lanes, 10.0, 0.25)


@pytest.mark.parametrize("dt", [0.02, 0.03])
def test_lane_kernel_equals_reference_at_other_steps(kernel_cases, dt):
    n_steps = round(10.0 / dt)
    unequal = _unequal_steps(dt, n_steps)
    # 0.02 is 0.01 doubled exactly, so its pattern is the first half of 0.01's; 0.03's differs
    assert unequal and unequal != _unequal_steps(0.01, 1000)
    assert (dt == 0.02) == (unequal == _unequal_steps(0.01, n_steps))
    steep = [_steep_lane((i + 1) * dt) for i in unequal[:3]]
    lanes = _kernel_lanes(30) + kernel_cases["sweep_edges"][0] + steep
    _assert_kernel_equals_reference(lanes, 10.0, dt)


def test_lane_kernel_equals_reference_across_chunk_boundaries():
    # 78 lanes run 17 steps per chunk; a chunk reuses the previous chunk's last
    # stage row only where that end time equals its first start time
    n, dt = 78, 0.01
    chunk = max(1, _STAGE_BLOCK // (3 * n))
    boundaries = range(chunk, 1000, chunk)
    unshared = [lo for lo in boundaries if (lo - 1) * dt + dt != lo * dt]
    assert chunk > 1 and 0 < len(unshared) < len(boundaries)
    steep = [_steep_lane(lo * dt) for lo in unshared[:3]]
    _assert_kernel_equals_reference(steep + _kernel_lanes(n - len(steep)), 10.0, dt)


def test_lane_kernel_states_outlive_the_step():
    # each yielded path is its own array: no later chunk writes into it
    consts = lane_constants(_kernel_lanes(50))
    failed, ref_failed = np.zeros(50, bool), np.zeros(50, bool)
    with np.errstate(all="ignore"):
        kept = list(_steps(list(rk4_lanes(consts, 3.0, 0.01, failed))))
        reference = [(t, s.copy()) for t, s in _reference_rk4_lanes(consts, 3.0, 0.01, ref_failed)]
    assert len(kept) == len(reference) == 301
    for (t, s), (ref_t, ref_s) in zip(kept, reference):
        assert t == ref_t and np.array_equal(s, ref_s), t


# --- the lane kernel's edge test: one per chunk, exact by a drift bound ----------

def _record_edge_tests(monkeypatch):
    """The outcome of each chunk's edge test, in order: True where the chunk skips the
    per-stage test because no stage input can reach 0 or 1."""
    outcomes = []
    clear_of_edges = dynamics._clear_of_edges

    def record(*args):
        outcomes.append(clear_of_edges(*args))
        return outcomes[-1]

    monkeypatch.setattr(dynamics, "_clear_of_edges", record)
    return outcomes


def _n_chunks(n_lanes, n_steps):
    return math.ceil(n_steps / max(1, _STAGE_BLOCK // (3 * n_lanes)))


def _sweep_lanes(lags, taus):
    """The policy sweep's lanes on `rapid` at the default calibration."""
    rapid = next(s for s in default_scenarios() if s.name == "rapid")
    ce = with_updates(C, g_A=rapid.g_A_override)
    return [(ce, PolicySpec(tau=tau, lag=lag)) for lag in lags for tau in taus]


# The 7 x 3 grid `repro` sweeps, and the span of perfbench's 78-cell sweep_grid.
_REPRO_GRID = ((0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0), (0.03, 0.05, 0.10))
_SWEEP_GRID = (tuple(3.0 * i / 12 for i in range(13)), tuple(0.01 + 0.022 * i for i in range(6)))


def _falling_lane(g_A):
    """Steep feedback and no reinstatement: from s_L0 to 0 in about 1.5 years, down
    about 3.6 per year at the end, nearly all of it the margin term."""
    return with_updates(C, g_A=g_A, beta_feedback=5.0, rho0=0.0, eta=0.0), NO_POLICY


def _rising_lane(rho0):
    """No displacement: up at rho0 per year from s_L0 = 0.56 to 1 in 1.5 to 1.7 years."""
    return with_updates(C, g_A=0.0, rho0=rho0, eta=0.0), NO_POLICY


_EDGE_SETS = {
    # 17 sweep lanes and four lanes that fall to 0 in the third 65-step chunk
    "floor": (17, [0.255, 0.2725, 0.2925, 0.31], []),
    # 13 sweep lanes, four lanes falling to 0 and four rising to 1 in that chunk
    "floor_and_ceiling": (13, [0.255, 0.2725, 0.2925, 0.31], [0.2575, 0.27, 0.275, 0.2975]),
}


@pytest.mark.parametrize("name", sorted(_EDGE_SETS))
def test_lane_kernel_equals_reference_where_lanes_reach_an_edge_inside_a_chunk(monkeypatch, name):
    # Lanes that start a chunk inside (0, 1) and reach an edge within it. A bound too
    # small to see that (no margin term in `down`, or no factor L+1) skips the edge
    # test in that chunk, and a crossing step then ends at 0 or 1 where the reference
    # ends inside: each such mutation fails here.
    n_sweep, falling, rising = _EDGE_SETS[name]
    lanes = (
        _sweep_lanes(*_REPRO_GRID)[:n_sweep]
        + [_falling_lane(g) for g in falling]
        + [_rising_lane(r) for r in rising]
    )
    assert len(lanes) == 21
    chunk = _STAGE_BLOCK // (3 * 21)
    assert chunk == 65
    outcomes = _record_edge_tests(monkeypatch)
    path, failed = _assert_kernel_equals_reference(lanes, 10.0, 0.01)
    assert not failed.any()
    edge = [0.0] * len(falling) + [1.0] * len(rising)
    # the first grid point at the edge, and the chunk of the step that reaches it
    reached = [int(np.argmax(path[:, n_sweep + k] == e)) for k, e in enumerate(edge)]
    assert all(n > 0 for n in reached)
    assert {(n - 1) // chunk for n in reached} == {2}
    assert 0.0 < path[2 * chunk, n_sweep:].min() and path[2 * chunk, n_sweep:].max() < 1.0
    # the chunk where they reach the edges runs the per-stage test
    assert len(outcomes) == _n_chunks(21, 1000) == 16 and not outcomes[2]


# Lanes whose drift bound is not finite; f_slope = 1e-9 keeps their push, and so
# `down`, small, so the rho or transfer bound alone decides.
_UNBOUNDED = {
    "overflow": (with_updates(C, g_A=150.0, f_slope=1e-9), NO_POLICY),   # rho bound exp(750) = inf
    "nan": (with_updates(C, g_A=150.0, f_slope=1e-9, eta=0.0), NO_POLICY),  # 0 * inf = NaN
    "tau_1e308": (C, PolicySpec(tau=1e308, lag=0.5)),   # (L+1) * 2*dt * tau = inf
}


@pytest.mark.parametrize("name", sorted(_UNBOUNDED))
def test_lane_kernel_equals_reference_next_to_unbounded_lanes(monkeypatch, name):
    # an infinite or NaN drift bound fails the chunk test: every chunk runs the per-stage test
    lanes = _sweep_lanes(*_REPRO_GRID)[:20]
    outcomes = _record_edge_tests(monkeypatch)
    _assert_kernel_equals_reference(lanes + [_UNBOUNDED[name]], 10.0, 0.01)
    assert len(outcomes) == _n_chunks(21, 1000) and not any(outcomes)
    outcomes.clear()
    # without it the same sweep lanes skip it in every chunk
    _assert_kernel_equals_reference(lanes, 10.0, 0.01)
    assert len(outcomes) == _n_chunks(20, 1000) and all(outcomes)


@pytest.mark.parametrize("grid", [_REPRO_GRID, _SWEEP_GRID], ids=["repro", "sweep_grid"])
def test_sweep_grids_skip_the_edge_test_in_every_chunk(monkeypatch, grid):
    # the sweep grids' lanes stay near s_L0, so the one test per chunk always clears them
    outcomes = _record_edge_tests(monkeypatch)
    _assert_kernel_equals_reference(_sweep_lanes(*grid), 10.0, 0.01)
    assert len(outcomes) == _n_chunks(len(grid[0]) * len(grid[1]), 1000) and all(outcomes)


def test_sampled_lanes_take_both_branches_of_the_edge_test(kernel_cases, monkeypatch):
    # sampled draws collapse to 0 part way: chunks before that skip the per-stage
    # test, chunks after run it, so the reference comparison covers both branches
    lanes, horizon = kernel_cases["sampled"]
    outcomes = _record_edge_tests(monkeypatch)
    _assert_kernel_equals_reference(lanes, horizon, 0.01)
    assert any(outcomes) and not all(outcomes)


_near_edge_lane = st.builds(
    lambda s_L0, g_A, beta, rho0, kappa, t0, tau, lag: (
        with_updates(C, s_L0=s_L0, g_A=g_A, beta_feedback=beta, rho0=rho0, kappa=kappa,
                     t0_diffusion=t0),
        PolicySpec(tau=tau, lag=lag),
    ),
    s_L0=st.one_of(
        st.floats(min_value=1e-9, max_value=0.05), st.floats(min_value=0.95, max_value=1.0 - 1e-9),
        st.floats(min_value=0.05, max_value=0.95),
    ),
    g_A=st.floats(min_value=0.0, max_value=2.0),
    beta=st.floats(min_value=0.01, max_value=20.0),
    rho0=st.floats(min_value=0.0, max_value=0.5),
    kappa=st.floats(min_value=0.1, max_value=50.0),
    t0=st.floats(min_value=0.0, max_value=3.0),
    tau=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
    lag=st.floats(min_value=0.0, max_value=2.0),
)


@settings(max_examples=12, deadline=None)
@given(lanes=st.lists(_near_edge_lane, min_size=1, max_size=24))
def test_lane_kernel_equals_reference_near_the_edges(lanes):
    # shares near 0 or 1, steep feedback and large transfers, over 2 years
    _assert_kernel_equals_reference(lanes, 2.0, 0.01)


# --- steps whose drift depends on time alone, as array arithmetic ---------------

def _record_time_only_steps(monkeypatch):
    """Each call of the time-only shortcut, in order: the arguments and what it returns."""
    calls = []
    time_only_steps = dynamics._time_only_steps

    def record(*args):
        calls.append((args, *time_only_steps(*args)))
        return calls[-1][1:]

    monkeypatch.setattr(dynamics, "_time_only_steps", record)
    return calls


def _prefix(ok):
    """The leading steps a mask verifies: what the scalar integrator takes of a chunk."""
    return len(ok) if ok.all() else int(ok.argmin())


def _failed_checks(args, path, ok):
    """The checks the first step the mask refuses fails, by name."""
    s, s0, k1, k2, k4, dt = args
    n = _prefix(ok)
    start, new = path[n], path[n + 1]
    u2, u4 = start + dt / 2.0 * k1[n], start + dt * k2[n]
    checks = {
        "start >= s0": start >= s0, "u2 >= s0": u2 >= s0, "u2 < 1": u2 < 1.0,
        "u4 >= s0": u4 >= s0, "u4 < 1": u4 < 1.0, "new > S_FLOOR": new > S_FLOOR, "new <= 1": new <= 1.0,
    }
    return [name for name, holds in checks.items() if not np.all(holds)]


# Each case starts at or above s_L0 and fails one check of the shortcut, named
# last, at the step given before it. The steep logistics (kappa 1e6 or 1e20) move
# the drift between two stage times of one step; the fast reinstatement
# (alpha_rho * g_A = 250 or 500) multiplies it by e^1.25 or e^2.5 per half step.
_TIME_ONLY_CASES = {
    # the state ends step 41 below s_L0 while every stage input of step 42 but its
    # start lies at or above it: step 42 starts one ulp of time before step 41 ends,
    # where the adoption jumps from d_bar to d_bar / 2
    "start_below_s_L0_after_a_step": (
        with_updates(C, g_A=1000.0, alpha_rho=0.5, f_slope=0.002, kappa=1e20, t0_diffusion=_UNSHARED_START,
                     rho0=0.0, eta=math.exp(-500.0 * (41 * 0.01 + 0.01))),
        None, 0.5, 42, "start >= s0",
    ),
    # the drift is -0.5 at t = 0 and +0.75 at the mid stage
    "mid_input_below_s_L0": (
        with_updates(C, g_A=500.0, alpha_rho=0.5, f_slope=0.0025, t0_diffusion=-100.0, rho0=0.0, eta=0.5),
        None, 1.0, 0, "u2 >= s0",
    ),
    # a constant drift of about -0.019 from 1.43e-4 above s_L0
    "end_input_below_s_L0": (
        with_updates(C, g_A=0.2, t0_diffusion=-100.0), C.s_L0 + 1.43e-4, 10.0, 0, "u4 >= s0",
    ),
    # the drift falls from 2 to 0.5 before the mid stage, which reaches 1
    "mid_input_reaches_1": (
        with_updates(C, s_L0=0.992, g_A=1.0, f_slope=1.875, kappa=1e6, t0_diffusion=0.0025, rho0=2.0, eta=0.0),
        None, 1.0, 0, "u2 < 1",
    ),
    # the drift falls from 1 to 0.5 between the mid and the end stage, which reaches 1
    "end_input_reaches_1": (
        with_updates(C, s_L0=0.9905, g_A=1.0, f_slope=0.625, kappa=1e6, t0_diffusion=0.0075, rho0=1.0, eta=0.0),
        None, 1.0, 0, "u4 < 1",
    ),
    # stage inputs below 1 and a new state above it, which the clamp pulls back to 1
    "new_state_above_1": (
        with_updates(C, s_L0=0.9, g_A=1000.0, alpha_rho=0.5, t0_diffusion=100.0, rho0=0.0, eta=0.5),
        None, 0.5, 0, "new <= 1",
    ),
    # the drift falls to about -333 at the end stage: one step from s_L0 to 0.005, a collapse
    "new_state_below_floor": (
        with_updates(C, g_A=1.0, f_slope=416.25, kappa=1e6, t0_diffusion=0.0075), None, 1.0, 0, "new > S_FLOOR",
    ),
}


@pytest.mark.parametrize("case", sorted(_TIME_ONLY_CASES))
def test_scalar_time_only_steps_equal_reference(monkeypatch, case):
    c, s_init, horizon, step, check = _TIME_ONLY_CASES[case]
    calls = _record_time_only_steps(monkeypatch)
    args = (c, NO_POLICY, horizon, 0.01, s_init)
    assert _outcome(integrate_labor_share, *args) == _outcome(_reference_integrate_labor_share, *args)
    # the first call takes the steps before the named one, which fails that check alone
    assert _prefix(calls[0][2]) == step
    assert _failed_checks(*calls[0]) == [check]


@pytest.mark.parametrize("case", sorted(_TIME_ONLY_CASES))
def test_lane_time_only_steps_equal_reference(monkeypatch, case):
    # the case's lane beside 77 lanes that stay above s_L0: 17-step chunks, taken
    # before the one where the case's lane fails a check and refused from there
    c, s_init, horizon, step, _ = _TIME_ONLY_CASES[case]
    baseline = [(with_updates(C, g_A=0.05), PolicySpec(tau=tau)) for tau in np.linspace(0.0, 0.1, 77)]
    calls = _record_time_only_steps(monkeypatch)
    _assert_kernel_equals_reference(baseline + [(c, NO_POLICY)], horizon, 0.01)
    taken = [bool(ok.all()) for _, _, ok in calls]
    chunk = _STAGE_BLOCK // (3 * 78)
    if s_init is None:   # a lane starts at s_L0: the chunks before the step are taken
        assert taken[: step // chunk] == [True] * (step // chunk) and not taken[step // chunk]
    else:
        assert not any(taken)


def test_scalar_time_only_steps_at_and_below_s_L0(monkeypatch):
    # a transfer from t = 0 flows below s_L0 alone: from s_L0 the baseline path takes
    # every step as array arithmetic, from one ulp below it none
    p = PolicySpec(tau=0.05)
    calls = _record_time_only_steps(monkeypatch)
    for s_init in (C.s_L0, math.nextafter(C.s_L0, 0.0)):
        args = (C, p, 10.0, 0.01, s_init)
        assert _outcome(integrate_labor_share, *args) == _outcome(_reference_integrate_labor_share, *args)
    assert [_prefix(ok) for _, _, ok in calls] == [1000]
    assert _outcome(integrate_labor_share, *args)[0] != _outcome(integrate_labor_share, C, p, 10.0, 0.01)[0]


@pytest.mark.parametrize("dt", [0.01, 0.001])
def test_baseline_takes_every_step_as_array_arithmetic(monkeypatch, dt):
    baseline = next(s for s in default_scenarios() if s.name == "baseline")
    c = with_updates(C, g_A=baseline.g_A_override)
    calls = _record_time_only_steps(monkeypatch)
    args = (c, NO_POLICY, 10.0, dt)
    assert _outcome(integrate_labor_share, *args) == _outcome(_reference_integrate_labor_share, *args)
    assert sum(_prefix(ok) for _, _, ok in calls) == round(10.0 / dt)


@pytest.mark.parametrize("dt,chunks", [(0.01, [351]), (0.001, [_CHUNK, _CHUNK, 783])])
def test_scalar_crossing_inside_a_chunk_equals_reference(monkeypatch, dt, chunks):
    # rapid falls below s_L0 inside a chunk: the steps before it are taken, the rest per step
    rapid = next(s for s in default_scenarios() if s.name == "rapid")
    c = with_updates(C, g_A=rapid.g_A_override)
    calls = _record_time_only_steps(monkeypatch)
    args = (c, NO_POLICY, 10.0, dt)
    assert _outcome(integrate_labor_share, *args) == _outcome(_reference_integrate_labor_share, *args)
    assert [_prefix(ok) for _, _, ok in calls] == chunks
    assert _failed_checks(*calls[-1]) == ["u2 >= s0", "u4 >= s0"]


@pytest.mark.parametrize("grid,taken", [(_REPRO_GRID, 5), (_SWEEP_GRID, 20)], ids=["repro", "sweep_grid"])
def test_sweep_grids_take_their_early_chunks_as_array_arithmetic(monkeypatch, grid, taken):
    # every sweep lane stays at or above s_L0 for its first 352 steps
    lanes = _sweep_lanes(*grid)
    calls = _record_time_only_steps(monkeypatch)
    _assert_kernel_equals_reference(lanes, 10.0, 0.01)
    chunk = _STAGE_BLOCK // (3 * len(lanes))
    assert [bool(ok.all()) for _, _, ok in calls][: taken + 1] == [True] * taken + [False]
    assert taken * chunk <= 352 < (taken + 1) * chunk


# Lanes that overflow or turn NaN, next to baseline lanes that stay above s_L0 throughout.
_BAD_LANES = {
    # NaN from the first step: no chunk is taken
    "nan_from_start": ((with_updates(C, g_A=1e308, f_slope=10.0), NO_POLICY), 0),
    # rho = rho0 until exp(75 t) overflows at t = 9.46 and 0 * inf turns it NaN
    "nan_at_9.46": ((with_updates(C, g_A=150.0, f_slope=1e-9, eta=0.0), NO_POLICY), 14),
    # above s_L0 the transfer never flows, so its infinite drift bound does not matter
    "tau_1e308": ((with_updates(C, g_A=0.05), PolicySpec(tau=1e308, lag=0.5)), 16),
}


@pytest.mark.parametrize("name", sorted(_BAD_LANES))
def test_lane_time_only_steps_next_to_failing_lanes(monkeypatch, name):
    bad, taken = _BAD_LANES[name]
    baseline = [(with_updates(C, g_A=0.05), PolicySpec(tau=tau)) for tau in np.linspace(0.0, 0.1, 20)]
    calls = _record_time_only_steps(monkeypatch)
    _, failed = _assert_kernel_equals_reference(baseline + [bad], 10.0, 0.01)
    assert failed.tolist() == [False] * 20 + [name != "tau_1e308"]
    outcomes = [bool(ok.all()) for _, _, ok in calls]
    assert outcomes[:taken] == [True] * taken and not any(outcomes[taken:])


def test_lane_kernel_stops_trying_the_time_only_steps_at_the_first_refusal(monkeypatch):
    # one lane of the re-entering case runs 1365-step chunks: the first four are taken,
    # the fifth is refused, and the whole seventh, back in [s_L0, 1), runs per step
    c, p, horizon, dt, _ = _SCALAR_CASES["reenters_the_time_only_band"]
    calls = _record_time_only_steps(monkeypatch)
    _assert_kernel_equals_reference([(c, p)], horizon, dt)
    assert [bool(ok.all()) for _, _, ok in calls] == [True] * 4 + [False]


def test_monte_carlo_lanes_never_try_the_time_only_steps(monkeypatch):
    # 2000 lanes run one step per chunk, which gains nothing from array arithmetic
    calls = _record_time_only_steps(monkeypatch)
    lanes = [(with_updates(C, g_A=0.05), NO_POLICY)] * 2000
    integrate_lanes(lane_constants(lanes), 0.1, 0.01)
    assert calls == []


def test_small_monte_carlo_tries_the_time_only_steps(monkeypatch):
    # 100 lanes run 10-step chunks from t = 0, which no prefix has refused
    calls = _record_time_only_steps(monkeypatch)
    lanes = [(with_updates(C, g_A=0.05), NO_POLICY)] * 100
    integrate_lanes(lane_constants(lanes), 0.1, 0.01)
    assert [bool(ok.all()) for _, _, ok in calls] == [True]


def test_time_only_steps_add_the_stages_in_rk4_order(monkeypatch):
    # Rising from a share of 0.05, a step's increment is large next to the state, so
    # the order of k1 + 2*k2 + 2*k3 + k4 shows in the states' last bits.
    c = with_updates(C, s_L0=0.05, rho0=0.1, g_A=0.1)
    calls = _record_time_only_steps(monkeypatch)
    args = (c, NO_POLICY, 10.0, 0.01)
    assert _outcome(integrate_labor_share, *args) == _outcome(_reference_integrate_labor_share, *args)
    assert _prefix(calls[0][2]) > 900
    calls.clear()
    _assert_kernel_equals_reference([(c, PolicySpec(tau=tau)) for tau in np.linspace(0.0, 0.1, 78)], 10.0, 0.01)
    assert sum(ok.all() for _, _, ok in calls) > 50


# --- the linearised amplification of a small shock -------------------------------

def test_amplification_counts_steps_strictly_inside_the_feedback_band():
    # the steps from s_L0 - 0.1 and 0.2 count; those from s_L0, above it and from 0 do not,
    # nor the last recorded state, which starts no step
    s0 = C.s_L0
    path = np.array([s0, s0 - 0.1, 0.0, 0.0, 0.2, s0 + 0.1, 0.3])
    assert amplification(path, 0.01, C) == math.exp(feedback_rate(C) * 0.01 * 2)
    assert amplification(np.array([s0, 1.0, 0.3]), 0.01, C) == 1.0
    # past the float range, and nothing to amplify under an infinite rate
    huge = with_updates(C, beta_feedback=1e308)
    assert amplification(path, 0.01, huge) == math.inf
    assert amplification(np.array([s0, s0]), 0.01, huge) == 1.0


def _twin_paths(c, dt, eps=1e-6):
    """The recorded paths from s_L0 and from s_L0 - eps; None where either leaves (0, 1)."""
    base, shocked = [], []
    integrate_labor_share(c, NO_POLICY, 10.0, dt, record=base)
    integrate_labor_share(c, NO_POLICY, 10.0, dt, record=shocked, s_init=c.s_L0 - eps)
    if not 0.0 < min(base + shocked) <= max(base + shocked) < 1.0:
        return None
    return np.array(base), np.array(shocked)


def _assert_amplification_bounds(c, dt, eps=1e-6):
    # Below s_L0 the drift is linear in the share with slope feedback_rate, and above
    # it does not depend on the share, so a step with both paths on one side grows the
    # gap by 1, or by RK4's Taylor polynomial of exp(z), z = feedback_rate * dt, where
    # the count gives it exp(z). A step where either path has states on both sides
    # runs some stages under the feedback and some not: it moves the ratio from the
    # count by at most one factor exp(z), either way. The first step is one, since the
    # shocked path starts below s_L0 and the other at it. 1e-6 covers the rounding of
    # a 1e-6 gap over 1000 steps.
    base, shocked = _twin_paths(c, dt, eps)
    z = feedback_rate(c) * dt
    counted = np.count_nonzero((base[:-1] > 0.0) & (base[:-1] < c.s_L0))
    ends = [base[:-1], base[1:], shocked[:-1], shocked[1:]]
    crossing = np.count_nonzero((np.minimum.reduce(ends) < c.s_L0) & (np.maximum.reduce(ends) >= c.s_L0))
    taylor = (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0) / math.exp(z)
    ratio = (base[-1] - shocked[-1]) / eps
    amp = amplification(base, dt, c)
    assert amp == math.exp(z * counted)
    assert amp * taylor**counted * math.exp(-z * crossing) * (1.0 - 1e-6) <= ratio
    assert ratio <= amp * math.exp(z * crossing) * (1.0 + 1e-6)
    return amp, ratio


def test_amplification_matches_the_twin_path_ratio_on_the_shipped_scenarios():
    amps = {}
    for s in default_scenarios()[:2]:   # extreme collapses: the linearisation does not apply
        amps[s.name] = _assert_amplification_bounds(with_updates(C, g_A=s.g_A_override), s.dt)
    assert amps["baseline"][0] == 1.0 and amps["baseline"][1] == pytest.approx(1.0, abs=1e-3)
    assert amps["rapid"] == (pytest.approx(12.3136, abs=1e-4), pytest.approx(12.3614, abs=1e-4))
    assert _twin_paths(with_updates(C, g_A=0.4), 0.01) is None


@settings(max_examples=40, deadline=None)
@given(
    g_A=st.floats(0.0, 0.6), beta=st.floats(0.05, 3.0), rho0=st.floats(0.0, 0.05),
    kappa=st.floats(0.2, 10.0), t0=st.floats(0.0, 8.0), s_L0=st.floats(0.3, 0.8),
    mpc=st.floats(0.55, 0.95), f_slope=st.floats(0.02, 0.5), dt=st.sampled_from([0.01, 0.02]),
)
def test_amplification_matches_the_twin_path_ratio(g_A, beta, rho0, kappa, t0, s_L0, mpc, f_slope, dt):
    c = with_updates(C, g_A=g_A, beta_feedback=beta, rho0=rho0, kappa=kappa, t0_diffusion=t0,
                     s_L0=s_L0, mpc_labor=mpc, f_slope=f_slope)
    assume(_twin_paths(c, dt) is not None)
    _assert_amplification_bounds(c, dt)
