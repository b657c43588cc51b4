import math
import random

import pytest

from macrostress.dynamics import simulate_path
from macrostress.monetary import (
    QuintileProfile,
    amplifier_lower_bound,
    consumption_ratio,
    consumption_shock,
    cumulative_consumption_decline,
    default_quintiles,
    demand_shortfall,
    load_quintiles_csv,
    velocity,
    velocity_decline_rate,
)
from macrostress.params import Scenario, default_calibration, with_updates

C = default_calibration()


# --- consumption ratio -------------------------------------------------------

def test_consumption_ratio_baseline():
    assert consumption_ratio(0.56, C) == pytest.approx(0.542, rel=1e-12)


def test_consumption_ratio_corners():
    assert consumption_ratio(1.0, C) == pytest.approx(C.mpc_labor, rel=1e-15)
    assert consumption_ratio(0.0, C) == pytest.approx(1.0 - C.mpc_labor, rel=1e-15)


def test_consumption_ratio_affine_two_point_fit():
    # slope recovered from any two points must be 2c - 1, intercept 1 - c
    s1, s2 = 0.2, 0.7
    slope = (consumption_ratio(s2, C) - consumption_ratio(s1, C)) / (s2 - s1)
    intercept = consumption_ratio(s1, C) - slope * s1
    assert slope == pytest.approx(2 * C.mpc_labor - 1, rel=1e-12)
    assert intercept == pytest.approx(1 - C.mpc_labor, rel=1e-12)


# --- velocity ----------------------------------------------------------------

def test_velocity_anchored_exactly_at_baseline():
    assert velocity(C.s_L0, 0.0, C) == 1.41


def test_velocity_scale_value():
    # V0, the velocity added per unit of transfers: V_obs / consumption_ratio(s_L0)
    scale = velocity(C.s_L0, 1.0, C) - velocity(C.s_L0, 0.0, C)
    assert scale == pytest.approx(1.41 / 0.542, rel=1e-12)


def test_velocity_linear_in_transfers():
    scale = C.V_obs / consumption_ratio(C.s_L0, C)  # observed velocity per unit ratio
    expected = 1.41 + scale * 0.05
    assert velocity(C.s_L0, 0.05, C) == pytest.approx(expected, rel=1e-12)


def test_velocity_monotone_in_labor_share():
    rng = random.Random(7)
    for _ in range(10_000):
        a, b = rng.random(), rng.random()
        lo, hi = sorted((a, b))
        assert velocity(lo, 0.0, C) <= velocity(hi, 0.0, C)


def test_velocity_decline_rate_examples():
    assert velocity_decline_rate(0.56, 0.0, C) == 0.0
    expected = 0.7 * (-0.01) / 0.542
    assert velocity_decline_rate(0.56, -0.01, C) == pytest.approx(expected, rel=1e-12)


def test_velocity_decline_rate_degenerate_equal_mpc():
    c = with_updates(C, mpc_labor=0.5 + 1e-15)
    assert velocity_decline_rate(0.4, -0.3, c) == pytest.approx(0.0, abs=1e-12)


def test_velocity_decline_rate_matches_finite_difference():
    # closed form equals d(log V)/dt via central differences, 1e-6 relative
    h = 1e-6
    for i in range(91):
        s = 0.05 + i * 0.01
        ds = -0.0123
        closed = velocity_decline_rate(s, ds, C)
        v = velocity(s, 0.0, C)
        fd = (velocity(s + h, 0.0, C) - velocity(s - h, 0.0, C)) / (2 * h) * ds / v
        assert closed == pytest.approx(fd, rel=1e-6)


# --- quintile profile --------------------------------------------------------

def test_default_profile_valid():
    q = default_quintiles()
    assert sum(q.consumption_shares) == pytest.approx(1.0, abs=1e-9)
    assert q.consumption_shares[4] == 0.59
    assert q.exposures[4] == 0.60


def test_profile_rejects_bad_shares():
    with pytest.raises(ValueError, match="sum to 1"):
        QuintileProfile((0.2, 0.2, 0.2, 0.2, 0.3), (0.8,) * 5, (0.1,) * 5)


def test_consumption_shock_decomposition():
    total, per_q = consumption_shock(default_quintiles(), 0.10)
    assert per_q[4] == pytest.approx(3.54, abs=0.05)
    assert total == pytest.approx(3.92, abs=0.05)
    assert total == pytest.approx(sum(per_q), rel=1e-12)


def test_consumption_shock_zero_exposures():
    q = QuintileProfile((0.2,) * 5, (0.8,) * 5, (0.0,) * 5)
    total, per_q = consumption_shock(q, 0.5)
    assert total == 0.0
    assert per_q == [0.0] * 5


def test_consumption_shock_single_quintile_economy():
    q = QuintileProfile((0.0, 0.0, 0.0, 0.0, 1.0), (0.8,) * 5, (0.0, 0.0, 0.0, 0.0, 0.37))
    total, _ = consumption_shock(q, 0.2)
    assert total == pytest.approx(100 * 0.2 * 0.37, rel=1e-12)


def test_quintile_csv_round_trip(tmp_path):
    q = default_quintiles()
    path = tmp_path / "q.csv"
    rows = ["share,mpc,exposure"]
    for i in range(5):
        rows.append(f"{q.consumption_shares[i]},{q.mpcs[i]},{q.exposures[i]}")
    path.write_text("\n".join(rows) + "\n")
    assert load_quintiles_csv(path) == q


# --- amplifier bound ---------------------------------------------------------

def test_amplifier_band():
    assert amplifier_lower_bound(0.59, 0.10) == pytest.approx(0.059, abs=1e-15)
    assert amplifier_lower_bound(0.47, 0.10) == pytest.approx(0.047, abs=1e-15)
    assert amplifier_lower_bound(0.65, 0.10) == pytest.approx(0.065, abs=1e-15)
    assert amplifier_lower_bound(0.3, 0.0) == 0.0


def test_total_shock_dominates_top_quintile_bound():
    rng = random.Random(99)
    for _ in range(10_000):
        shares = [rng.random() for _ in range(5)]
        total_share = sum(shares)
        shares = [s / total_share for s in shares]
        exposures = [rng.random() for _ in range(5)]
        q = QuintileProfile(tuple(shares), (0.8,) * 5, tuple(exposures))
        shock = rng.random()
        total, per_q = consumption_shock(q, shock)
        bound = 100 * amplifier_lower_bound(shares[4], exposures[4] * shock)
        assert total >= bound - 1e-12
        assert per_q[4] == pytest.approx(bound, rel=1e-9, abs=1e-12)


# --- shortfall measures ------------------------------------------------------

def test_demand_shortfall_sign_convention():
    assert demand_shortfall(C.s_L0, C) == 0.0
    assert demand_shortfall(0.3, C) > 0.0
    assert demand_shortfall(0.7, C) < 0.0


def test_cumulative_decline_constant_path_is_zero():
    c = with_updates(C, g_A=0.0, d_bar=1e-300, rho0=0.0, eta=0.0)
    traj = simulate_path(Scenario(name="still", g_A_override=0.0), c)
    assert cumulative_consumption_decline(traj, c) == pytest.approx(0.0, abs=1e-12)
