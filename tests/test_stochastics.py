import math
from dataclasses import fields

import numpy as np
import pytest

from macrostress.dynamics import IntegrationError, classify_regime, integrate_labor_share, RegimeKind
from macrostress.monetary import demand_shortfall
from macrostress.params import PolicySpec, default_calibration, validate, with_updates
from macrostress.stochastics import (
    _FIELD_BOUNDS,
    MAX_DRAWS,
    ParamRanges,
    SplitMix64,
    default_ranges,
    fixed,
    loguniform,
    monte_carlo,
    ols_hc1,
    sample_calibration,
    substream_seed,
    uniform,
    _within_bounds,
)

BASE = default_calibration()


# --- generator ---------------------------------------------------------------

def test_splitmix64_reference_sequence_seed_42():
    # pinned reference stream; also recorded in the README
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(4)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ]


def test_splitmix64_floats_in_unit_interval():
    rng = SplitMix64(7)
    vals = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6


def test_substream_seeds_are_order_free():
    a = [substream_seed(42, i) for i in range(10)]
    b = [substream_seed(42, i) for i in reversed(range(10))]
    assert a == list(reversed(b))
    assert len(set(a)) == 10


# --- sampling ----------------------------------------------------------------

def test_all_fixed_ranges_return_base():
    ranges = ParamRanges(
        g_A=fixed(BASE.g_A), kappa=fixed(BASE.kappa), rho0=fixed(BASE.rho0),
        eta=fixed(BASE.eta), beta_feedback=fixed(BASE.beta_feedback),
        chi_top=fixed(BASE.chi_top), mpc_labor=fixed(BASE.mpc_labor),
        d_bar=fixed(BASE.d_bar), f_slope=fixed(BASE.f_slope),
    )
    assert sample_calibration(SplitMix64(1), ranges, BASE) == BASE


def test_degenerate_uniform_interval():
    ranges = default_ranges()
    ranges = ParamRanges(**{**ranges.__dict__, "g_A": uniform(0.05, 0.05)})
    sampled = sample_calibration(SplitMix64(3), ranges, BASE)
    assert sampled.g_A == 0.05


def test_same_seed_same_calibration():
    r = default_ranges()
    a = sample_calibration(SplitMix64(123), r, BASE)
    b = sample_calibration(SplitMix64(123), r, BASE)
    assert a == b


def test_sampled_calibrations_always_validate():
    r = default_ranges()
    for seed in range(200):
        c = sample_calibration(SplitMix64(seed), r, BASE)
        assert validate(c) == []
        assert r.g_A.lo <= c.g_A <= r.g_A.hi


def test_loguniform_respects_bounds_and_median():
    spec = loguniform(0.02, 0.40)
    rng = SplitMix64(11)
    draws = [spec.draw(rng) for _ in range(4000)]
    assert all(0.02 <= d <= 0.40 for d in draws)
    geo_mid = (0.02 * 0.40) ** 0.5
    med = sorted(draws)[2000]
    assert med == pytest.approx(geo_mid, rel=0.1)


def _probe_values(lo, hi):
    """Each bound, its float neighbours, and values well inside and outside."""
    values = {-1.0, -5e-324, 0.0, 5e-324, 0.5, 1.0, 2.0, math.inf, -math.inf}
    for b in (lo, hi):
        if math.isfinite(b):
            values |= {b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)}
    return sorted(values)


@pytest.mark.parametrize("name", [f.name for f in fields(ParamRanges)])
def test_sampler_bounds_reject_what_validate_rejects(name):
    lo, hi, _, _ = _FIELD_BOUNDS[name]
    for value in _probe_values(lo, hi):
        if validate(with_updates(BASE, **{name: value})):
            assert not _within_bounds(name, value), f"{name} = {value!r}"


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        uniform(0.5, 0.1)
    with pytest.raises(ValueError):
        loguniform(0.0, 1.0)


# --- monte carlo -------------------------------------------------------------

def test_single_fixed_draw_matches_direct_simulation():
    ranges = ParamRanges(
        g_A=fixed(0.05), kappa=fixed(BASE.kappa), rho0=fixed(BASE.rho0),
        eta=fixed(BASE.eta), beta_feedback=fixed(BASE.beta_feedback),
        chi_top=fixed(BASE.chi_top), mpc_labor=fixed(BASE.mpc_labor),
        d_bar=fixed(BASE.d_bar), f_slope=fixed(BASE.f_slope),
    )
    summary = monte_carlo(1, ranges, BASE, seed=5, shortfall_threshold=0.30)
    s_final, _ = integrate_labor_share(BASE, PolicySpec(), 10.0, 0.01)
    assert summary.median_shortfall == demand_shortfall(s_final, BASE)
    assert summary.median_shortfall < 0.10
    assert summary.n_failures == 0


def test_threshold_zero_counts_positive_shortfalls():
    n, seed = 64, 9
    summary = monte_carlo(n, default_ranges(), BASE, seed=seed, shortfall_threshold=0.0)
    shortfalls = []
    for i in range(n):
        c = sample_calibration(SplitMix64(substream_seed(seed, i)), default_ranges(), BASE)
        s_final, _ = integrate_labor_share(c, PolicySpec(), 10.0, 0.01)
        shortfalls.append(demand_shortfall(s_final, c))
    expected = sum(1 for s in shortfalls if s > 0.0) / n
    assert summary.tail_prob == expected


def test_monte_carlo_deterministic_and_worker_invariant():
    a = monte_carlo(64, default_ranges(), BASE, seed=31, shortfall_threshold=0.30, jobs=1)
    b = monte_carlo(64, default_ranges(), BASE, seed=31, shortfall_threshold=0.30, jobs=1)
    c = monte_carlo(64, default_ranges(), BASE, seed=31, shortfall_threshold=0.30, jobs=2)
    d = monte_carlo(64, default_ranges(), BASE, seed=31, shortfall_threshold=0.30, jobs=4)
    assert a == b == c == d


# MAX_DRAWS + 1 is rejected before any sampling; a draw count near the cap is never run here.
@pytest.mark.parametrize("n", [0, MAX_DRAWS + 1])
def test_monte_carlo_rejects_draw_count_outside_cap(n):
    with pytest.raises(ValueError, match="monte_carlo needs n"):
        monte_carlo(n, default_ranges(), BASE, seed=1, shortfall_threshold=0.30)


def test_monte_carlo_histogram_accounts_for_all_draws():
    summary = monte_carlo(128, default_ranges(), BASE, seed=17, shortfall_threshold=0.30)
    assert sum(cnt for _, _, cnt in summary.histogram) == 128 - summary.n_failures


def test_monte_carlo_counts_failed_lanes():
    # a g_A range this wide puts some draws past the reinstatement overflow cap
    ranges = ParamRanges(**{**default_ranges().__dict__, "g_A": uniform(100.0, 160.0)})
    n = 40
    summary = monte_carlo(n, ranges, BASE, seed=3, shortfall_threshold=0.30)
    failures = 0
    for i in range(n):
        c = sample_calibration(SplitMix64(substream_seed(3, i)), ranges, BASE)
        try:
            integrate_labor_share(c, PolicySpec(), 10.0, 0.01)
        except IntegrationError:
            failures += 1
    assert 0 < summary.n_failures == failures < n
    assert summary.n_failures + sum(cnt for _, _, cnt in summary.histogram) == n


def test_explosive_draws_dominate_halved_growth():
    # paired spot check over the shipped ranges: explosive classifications
    # keep at least the shortfall of the same draw re-run at half the
    # growth rate (outside these ranges, runaway reinstatement growth can
    # invert the ordering)
    checked = 0
    for i in range(400):
        c = sample_calibration(SplitMix64(substream_seed(77, i)), default_ranges(), BASE)
        if classify_regime(c).kind is not RegimeKind.EXPLOSIVE_DISPLACEMENT:
            continue
        s_full, _ = integrate_labor_share(c, PolicySpec(), 10.0, 0.02)
        half = with_updates(c, g_A=c.g_A / 2.0)
        s_half, _ = integrate_labor_share(half, PolicySpec(), 10.0, 0.02)
        assert demand_shortfall(s_full, c) >= demand_shortfall(s_half, half) - 1e-9
        checked += 1
    assert checked >= 5


# --- OLS / HC1 ---------------------------------------------------------------

def test_ols_exact_fit_noiseless():
    x = np.arange(10, dtype=float)
    X = np.column_stack([np.ones(10), x])
    y = 2.0 + 3.0 * x
    res = ols_hc1(X, y)
    assert res.coefficients == pytest.approx((2.0, 3.0), abs=1e-12)
    assert res.hc1_se == pytest.approx((0.0, 0.0), abs=1e-9)
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)


def test_ols_constant_response():
    x = np.arange(8, dtype=float)
    X = np.column_stack([np.ones(8), x])
    y = np.full(8, 5.0)
    res = ols_hc1(X, y)
    assert res.coefficients[1] == pytest.approx(0.0, abs=1e-12)
    assert res.r_squared == 0.0


def _brute_force_hc1(X, y):
    """Independent sandwich oracle: explicit inverse and triple product."""
    n, k = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    e = y - X @ beta
    omega = np.diag(e ** 2)
    cov = xtx_inv @ X.T @ omega @ X @ xtx_inv * n / (n - k)
    return beta, np.sqrt(np.diag(cov))


def test_hc1_matches_brute_force_sandwich():
    rng = np.random.default_rng(1234)
    n, k = 22, 2
    x = rng.normal(size=n)
    X = np.column_stack([np.ones(n), x])
    y = 1.5 - 0.8 * x + rng.normal(scale=0.7, size=n)
    res = ols_hc1(X, y)
    beta_o, se_o = _brute_force_hc1(X, y)
    assert res.coefficients == pytest.approx(tuple(beta_o), abs=1e-10)
    assert res.hc1_se == pytest.approx(tuple(se_o), abs=1e-10)
    assert res.n == 22


def test_hc1_heteroskedastic_fixture():
    rng = np.random.default_rng(99)
    n = 60
    x = rng.uniform(0.5, 3.0, size=n)
    X = np.column_stack([np.ones(n), x])
    y = 0.3 + 1.1 * x + rng.normal(scale=0.2 * x, size=n)  # variance grows with x
    res = ols_hc1(X, y)
    _, se_o = _brute_force_hc1(X, y)
    assert res.hc1_se == pytest.approx(tuple(se_o), abs=1e-10)


def test_ols_normal_equations():
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(30), rng.normal(size=30), rng.normal(size=30)])
    y = rng.normal(size=30)
    res = ols_hc1(X, y)
    resid = y - X @ np.array(res.coefficients)
    assert np.abs(X.T @ resid).max() < 1e-10


def test_ols_rank_deficiency_names_column():
    x = np.arange(12, dtype=float)
    X = np.column_stack([np.ones(12), x, 2.0 * x])
    with pytest.raises(ValueError, match="column 2"):
        ols_hc1(X, np.arange(12, dtype=float))


def test_ols_requires_more_rows_than_columns():
    with pytest.raises(ValueError):
        ols_hc1(np.ones((2, 3)), np.ones(2))
