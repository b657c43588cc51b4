import math
import random

import mpmath
import pytest

from macrostress.credit import (
    BorrowerState,
    default_probability,
    dscr_sensitivity,
    shocked_default_probability,
    std_normal_cdf,
)

mpmath.mp.dps = 40


def _phi_exact(x: float) -> float:
    return float(mpmath.ncdf(x))


# --- normal CDF --------------------------------------------------------------

def test_phi_zero_exact():
    assert std_normal_cdf(0.0) == 0.5


def test_phi_975_quantile():
    assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_phi_deep_tail_positive_and_accurate():
    got = std_normal_cdf(-8.0)
    assert got > 0.0
    assert got == pytest.approx(_phi_exact(-8.0), rel=1e-12)
    assert got == pytest.approx(6.22e-16, rel=1e-3)


def test_phi_accuracy_grid():
    # 1,601-point grid over [-8, 8] against the high-precision oracle
    worst = 0.0
    for i in range(1601):
        x = -8.0 + i * 0.01
        worst = max(worst, abs(std_normal_cdf(x) - _phi_exact(x)))
    assert worst <= 1e-9


def test_phi_symmetry():
    for x in (0.1, 0.7, 1.3, 2.9, 4.4, 7.5):
        assert abs(std_normal_cdf(-x) + std_normal_cdf(x) - 1.0) <= 1e-12


def test_phi_rejects_non_finite():
    with pytest.raises(ValueError):
        std_normal_cdf(math.nan)


# --- default probability -----------------------------------------------------

def test_borrower_validation():
    with pytest.raises(ValueError):
        BorrowerState(dscr=0.0, sigma_r=0.2)
    with pytest.raises(ValueError):
        BorrowerState(dscr=1.5, sigma_r=0.0)


def test_default_probability_worked_numbers():
    b = BorrowerState(dscr=1.5, sigma_r=0.20)
    assert default_probability(b) == pytest.approx(0.021, abs=0.002)
    assert default_probability(BorrowerState(1.2, 0.20)) == pytest.approx(0.181, abs=0.002)


def test_default_probability_threshold_borrower():
    assert default_probability(BorrowerState(dscr=1.0, sigma_r=0.37)) == 0.5


def test_default_probability_matches_oracle():
    for r, sig in [(1.5, 0.2), (1.2, 0.2), (1.05, 0.2), (0.8, 0.35), (2.5, 0.1)]:
        got = default_probability(BorrowerState(r, sig))
        exact = float(mpmath.ncdf(-mpmath.log(r) / sig))
        assert got == pytest.approx(exact, rel=1e-12)


def test_shocked_default_probability():
    b = BorrowerState(dscr=1.5, sigma_r=0.20)
    assert shocked_default_probability(b, 0.0) == default_probability(b)
    assert shocked_default_probability(b, 0.30) == pytest.approx(0.403, abs=0.002)
    # 20% shock lands on the 1.2x coverage borrower: a near-ninefold jump
    ratio = shocked_default_probability(b, 0.20) / default_probability(b)
    assert 8.0 < ratio < 10.0


def test_shock_of_full_income_rejected():
    with pytest.raises(ValueError):
        shocked_default_probability(BorrowerState(1.5, 0.2), 1.0)


def test_sensitivity_table_worked_rows():
    b = BorrowerState(dscr=1.5, sigma_r=0.20)
    table = dscr_sensitivity(b, [0.0, 0.20, 0.30])
    pds = [row[2] for row in table]
    assert pds[0] == pytest.approx(0.021, abs=0.002)
    assert pds[1] == pytest.approx(0.181, abs=0.002)
    assert pds[2] == pytest.approx(0.403, abs=0.002)
    assert pds[0] < pds[1] < pds[2]
    assert [row[1] for row in table] == pytest.approx([1.5, 1.2, 1.05], rel=1e-12)


def test_sensitivity_table_edge_cases():
    b = BorrowerState(dscr=1.5, sigma_r=0.20)
    with pytest.raises(ValueError, match="^credit table needs at least one delta$"):
        dscr_sensitivity(b, [])
    with pytest.raises(ValueError, match="^deltas must be strictly ascending: 0.1 repeats$"):
        dscr_sensitivity(b, [0.1, 0.1])
    # every check runs before any row: the repeat is named ahead of the out-of-range 1.2
    with pytest.raises(ValueError, match="^deltas must be strictly ascending: 0.5 repeats$"):
        dscr_sensitivity(b, [0.5, 0.5, 1.2])
    with pytest.raises(ValueError, match="^deltas must be ascending$"):
        dscr_sensitivity(b, [0.3, 0.1])


# --- monotonicity properties -------------------------------------------------

def test_pd_monotone_properties():
    # strict away from float saturation (PD pinned at 0.0 or 1.0), weak there
    def leq_strict_unless_saturated(lo, hi):
        if 1e-12 < lo < 1.0 - 1e-12 and 1e-12 < hi < 1.0 - 1e-12:
            assert lo < hi
        else:
            assert lo <= hi

    rng = random.Random(2024)
    for _ in range(2000):
        r = 0.5 + 3.0 * rng.random()
        sig = 0.05 + 0.6 * rng.random()
        b = BorrowerState(r, sig)
        # decreasing in coverage
        leq_strict_unless_saturated(
            default_probability(BorrowerState(r + 0.1, sig)), default_probability(b)
        )
        # increasing in volatility for performing borrowers
        if r > 1.0:
            leq_strict_unless_saturated(
                default_probability(b), default_probability(BorrowerState(r, sig + 0.05))
            )
        # increasing in the shock
        d = 0.5 * rng.random()
        leq_strict_unless_saturated(
            shocked_default_probability(b, d), shocked_default_probability(b, d + 0.1)
        )


def test_shock_derivative_matches_finite_difference():
    # analytic dPD/ddelta = pdf(z) / (sigma * (1 - delta))
    b = BorrowerState(dscr=1.5, sigma_r=0.20)
    for delta in (0.05, 0.15, 0.25, 0.35):
        z = -math.log(b.dscr * (1.0 - delta)) / b.sigma_r
        analytic = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) / (b.sigma_r * (1.0 - delta))
        h = 1e-7
        fd = (
            shocked_default_probability(b, delta + h)
            - shocked_default_probability(b, delta - h)
        ) / (2 * h)
        assert analytic == pytest.approx(fd, rel=1e-6)


# --- convexity ---------------------------------------------------------------
# d2P/ddelta2 = pdf(z) * z'^2 * (1 - z/sigma) with z = -ln(r)/sigma changes sign
# at z = sigma, i.e. at post-shock coverage exp(-sigma^2): above it the default
# curve is convex in the shock, below it the CDF saturates and turns concave.

def _second_differences(b, grid):
    """(lowest post-shock coverage of the stencil, second difference of the
    default probability) at each interior point of an ascending shock grid."""
    pds = [shocked_default_probability(b, d) for d in grid]
    return [
        (b.dscr * (1.0 - grid[i + 1]), (pds[i + 1] - pds[i]) - (pds[i] - pds[i - 1]))
        for i in range(1, len(grid) - 1)
    ]


def test_convexity_on_worked_grid():
    b = BorrowerState(dscr=1.5, sigma_r=0.20)
    [(stencil_lo, second)] = _second_differences(b, [0.0, 0.20, 0.30])
    # uneven grid still shows the dominance of the second leg
    assert (0.403 - 0.181) > (0.181 - 0.021)
    assert stencil_lo >= math.exp(-0.20**2)  # the stencil lies in the convex band
    assert second > 0.0


def test_convexity_on_uniform_grid_near_threshold():
    b = BorrowerState(dscr=1.4, sigma_r=0.20)
    grid = [i * 0.05 for i in range(11)]  # coverage from 1.4 down to 0.7
    points = _second_differences(b, grid)
    floor = math.exp(-0.20**2)
    in_region = [second for stencil_lo, second in points if stencil_lo >= floor]
    out_region = [second for stencil_lo, second in points if stencil_lo < floor]
    assert in_region and out_region  # the grid straddles the analytic floor
    assert all(second >= 0.0 for second in in_region)
    # beyond the floor the curve saturates and turns concave
    assert any(second < 0.0 for second in out_region)


def test_convexity_floor_matches_numeric_sign_change():
    b = BorrowerState(dscr=1.4, sigma_r=0.20)
    floor = math.exp(-0.20**2)
    h = 1e-4

    def second(delta):
        return (
            shocked_default_probability(b, delta + h)
            - 2 * shocked_default_probability(b, delta)
            + shocked_default_probability(b, delta - h)
        )

    delta_at_floor = 1.0 - floor / b.dscr
    assert second(delta_at_floor - 0.02) > 0.0   # coverage above the floor
    assert second(delta_at_floor + 0.02) < 0.0   # coverage below the floor


def test_convexity_flat_limit():
    # at enormous volatility the CDF is locally flat: second difference ~ 0
    b = BorrowerState(dscr=1.0, sigma_r=1e6)
    [(_, second)] = _second_differences(b, [0.0, 0.1, 0.2])
    assert abs(second) < 1e-6
