import dataclasses
import hashlib
import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macrostress import dynamics, stochastics
from macrostress.dynamics import (
    IntegrationError,
    RegimeKind,
    classify_regime,
    column_lane_constants,
    integrate_labor_share,
    integrate_lanes,
)
from macrostress.monetary import demand_shortfall
from macrostress.params import BOUNDS, PolicySpec, default_calibration, valid, validate, with_updates
from macrostress.stochastics import (
    MAX_DRAWS,
    McSummary,
    ParamRanges,
    SplitMix64,
    _median,
    _variates,
    default_ranges,
    fixed,
    loguniform,
    monte_carlo,
    ols_hc1,
    sample_calibration,
    sample_columns,
    substream_seed,
    uniform,
)

from lane_reference import lane_constants

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


def _probe_values(name):
    """Each bound of field ``name``'s rows, its float neighbours, 0, +-inf and NaN,
    and values well inside and outside."""
    values = [-1.0, -5e-324, 0.0, 5e-324, 0.4, 0.5, 1.0, 2.0, math.inf, -math.inf, math.nan]
    for row in BOUNDS:
        if row.field == name:
            for b in (row.lo, row.hi):
                if math.isfinite(b):
                    values += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
    return values


def _mask_agrees_with_validate(draws):
    """The columnar mask over ``draws`` (one dict of overrides per draw, all with the
    same keys) equals ``validate(...) == []`` on each draw as a Calibration."""
    columns = {name: np.array([d[name] for d in draws]) for name in draws[0]}
    with np.errstate(all="ignore"):
        mask = valid(stochastics._by_column(BASE, columns))
    expected = [validate(with_updates(BASE, **d)) == [] for d in draws]
    assert mask.tolist() == expected, draws


@pytest.mark.parametrize("name", list(dict.fromkeys(row.field for row in BOUNDS)))
def test_sampler_bounds_reject_what_validate_rejects(name):
    _mask_agrees_with_validate([{name: value} for value in _probe_values(name)])


@pytest.mark.parametrize("draws", [
    [{"mpc_labor": v} for v in (0.3, 0.4, 0.45, 0.5, 0.75, 0.92, 0.99)],
    [{"phi_min": lo, "phi0": hi} for lo, hi in [
        (1.0, 1.0), (math.nextafter(1.0, 2.0), 1.0), (0.0, 0.0), (0.5, math.nan),
        (-1e308, 1e308), (1e308, -1e308), (0.1, -0.0), (5e-324, 0.0),
    ]],
], ids=["mpc_labor", "phi_min-phi0"])
def test_columnar_mask_agrees_with_validate_across_fields(draws):
    _mask_agrees_with_validate(draws)


def test_fixed_zero_g_A_samples_zero_on_both_paths():
    ranges = dataclasses.replace(default_ranges(), g_A=fixed(0.0))
    assert sample_calibration(SplitMix64(1), ranges, BASE).g_A == 0.0
    columns, scalar = sample_columns(20, ranges, BASE, 42)
    assert columns["g_A"].tolist() == [0.0] * 20 and scalar == []
    summary = monte_carlo(20, ranges, BASE, 42, 0.30)
    assert summary.scalar_draws == 0 and summary.n_draws == 20


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        uniform(0.5, 0.1)
    with pytest.raises(ValueError):
        loguniform(0.0, 1.0)


@pytest.mark.parametrize("make", [
    lambda: uniform(math.nan, 1.0),
    lambda: uniform(0.0, math.inf),
    lambda: uniform(-math.inf, math.inf),
    lambda: loguniform(0.1, math.nan),
    lambda: loguniform(0.1, math.inf),
])
def test_sample_spec_rejects_non_finite_ends(make):
    # accepted, uniform(nan, 1) ran until "sampling exhausted after 100 rejections"
    with pytest.raises(ValueError, match=r"sampling interval \[.*\] must have finite ends"):
        make()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_fixed_sample_spec_rejects_non_finite_value(value):
    with pytest.raises(ValueError, match="fixed sampling value must be finite"):
        fixed(value)


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


@pytest.mark.parametrize("seed,digests", [
    (1, ("2001f11a87873067ec9bd1b4476ae44f272fe7e644b6dba5286c3a789f852649",
         "485ec8ea28a2d2176b9318947d32b2ca54d69ad0d030d0cbefaa0aa5910b22cc")),
    (7, ("69d5e0e5f5f301d8eaa12cdfe6bd0ab620a7eee7acc5a7555d1e3382ae201668",
         "d55c56dfaaa888ebf263aba4117f5df8e1c9103d83736ecbc574eb1584ffb893")),
])
def test_monte_carlo_files_byte_identical_to_golden(seed, digests):
    # sha256 of mc_summary.txt and mc_histogram.csv at `repro --n 2000`, the only repro
    # files that depend on the seed; seed 42's are the repro goldens of test_acceptance
    summary = monte_carlo(2000, default_ranges(), BASE, seed, 0.30)
    texts = (summary.to_text(), summary.histogram_csv())
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts) == digests


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


# --- the columnar front end against the scalar sampler -------------------------

SEEDS = [0, 1, 42, 2**64 - 1]


def _ranges(**specs):
    return dataclasses.replace(default_ranges(), **specs)


def _scalar_draws(n, ranges, base, seed):
    return [sample_calibration(SplitMix64(substream_seed(seed, i)), ranges, base) for i in range(n)]


def _scalar_monte_carlo(n, ranges, base, seed, threshold):
    """The Monte Carlo with every draw sampled by sample_calibration, kept as the reference."""
    calibrations = _scalar_draws(n, ranges, base, seed)
    s_final, failed = integrate_lanes(
        lane_constants((c, PolicySpec()) for c in calibrations), 10.0, 0.01
    )
    shortfalls = np.array([
        demand_shortfall(float(s), c) for s, c, bad in zip(s_final, calibrations, failed) if not bad
    ])
    if shortfalls.size == 0:
        raise RuntimeError("all Monte Carlo draws failed to integrate")
    counts, edges = np.histogram(shortfalls, bins=40, range=(-1.0, 1.0))
    return McSummary(
        n_draws=n,
        median_shortfall=float(np.median(shortfalls)),
        tail_prob=float(np.mean(shortfalls > threshold)),
        threshold=threshold,
        histogram=tuple((float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(40)),
        seed=seed,
        failed_draws=tuple(np.flatnonzero(failed).tolist()),
        scalar_draws=n,
    )


def _assert_columns_match(n, ranges, base, seed):
    """sample_columns == sample_calibration on every field of every draw; returns the
    draws that took the scalar path."""
    columns, scalar = sample_columns(n, ranges, base, seed)
    calibrations = _scalar_draws(n, ranges, base, seed)
    assert list(columns) == [f.name for f in fields(ParamRanges)]
    for name, column in columns.items():
        assert column.tolist() == [getattr(c, name) for c in calibrations], name
    return scalar


@pytest.mark.parametrize("seed", SEEDS)
def test_variates_equal_the_scalar_stream(seed):
    u = _variates(seed, 300, 9)
    for i in (0, 1, 150, 299):
        rng = SplitMix64(substream_seed(seed, i))
        assert u[:, i].tolist() == [rng.next_float() for _ in range(9)]


@pytest.mark.parametrize("seed", SEEDS)
def test_columns_constants_and_summary_equal_the_scalar_sampler(seed):
    n = 300
    assert _assert_columns_match(n, default_ranges(), BASE, seed) == []
    columns, _ = sample_columns(n, default_ranges(), BASE, seed)
    draws = SimpleNamespace(**{**vars(BASE), **columns})
    calibrations = _scalar_draws(n, default_ranges(), BASE, seed)
    expected = lane_constants((c, PolicySpec()) for c in calibrations)
    assert np.array_equal(column_lane_constants(draws, n, PolicySpec()), expected)
    summary = monte_carlo(n, default_ranges(), BASE, seed, 0.10)
    assert summary.scalar_draws == 0
    assert dataclasses.replace(summary, scalar_draws=n) == _scalar_monte_carlo(
        n, default_ranges(), BASE, seed, 0.10
    )


def test_column_lane_constants_under_a_policy():
    # A0 != 1, so A0 ** alpha_rho is not exactly 1
    n, base = 50, dataclasses.replace(BASE, A0=1.7, alpha_rho=0.37, s_L0=0.61)
    columns, _ = sample_columns(n, default_ranges(), base, 8)
    draws = SimpleNamespace(**{**vars(base), **columns})
    p = PolicySpec(tau=0.05, lag=1.5, start_time=0.5)
    expected = lane_constants((c, p) for c in _scalar_draws(n, default_ranges(), base, 8))
    assert np.array_equal(column_lane_constants(draws, n, p), expected)


# Ranges that put some first variates out of bounds (redrawn, so those draws take the
# scalar path), a g_A range that makes some lanes fail, and a fixed field.
REDRAW_RANGES = [
    _ranges(mpc_labor=uniform(0.3, 0.95)),
    _ranges(g_A=uniform(-0.1, 0.4), d_bar=uniform(0.5, 1.3)),
    _ranges(g_A=uniform(100.0, 160.0), chi_top=uniform(-0.5, 0.9)),
    _ranges(kappa=fixed(2.5), rho0=uniform(-0.004, 0.006)),
]


@pytest.mark.parametrize("ranges", REDRAW_RANGES)
@pytest.mark.parametrize("seed", [42, 2**64 - 1])
def test_mixed_columnar_and_scalar_draws_equal_the_scalar_sampler(ranges, seed):
    n = 200
    scalar = _assert_columns_match(n, ranges, BASE, seed)
    assert 0 < len(scalar) < n
    summary = monte_carlo(n, ranges, BASE, seed, 0.10)
    assert summary.scalar_draws == len(scalar)
    assert dataclasses.replace(summary, scalar_draws=n) == _scalar_monte_carlo(
        n, ranges, BASE, seed, 0.10
    )


def _outcome(fn, *args):
    """fn's result, or the type and text of the RuntimeError it raised."""
    try:
        return fn(*args)
    except RuntimeError as exc:
        return type(exc), str(exc)


def _raised(fn, *args):
    with pytest.raises(RuntimeError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("ranges", [default_ranges(), *REDRAW_RANGES])
def test_single_draw_equals_the_scalar_sampler(ranges):
    for seed in (1, 2, 3):
        _assert_columns_match(1, ranges, BASE, seed)
        summary = _outcome(monte_carlo, 1, ranges, BASE, seed, 0.10)
        if isinstance(summary, McSummary):
            summary = dataclasses.replace(summary, scalar_draws=1)
        assert summary == _outcome(_scalar_monte_carlo, 1, ranges, BASE, seed, 0.10)


# Each g_A and d_bar variate is out of bounds with probability 0.97, so some draw runs
# out of redraws, on either parameter; an invalid base fails every draw that
# is not exhausted first.
EXHAUSTING = _ranges(g_A=uniform(-0.97, 0.03), d_bar=uniform(-0.97, 0.03))
INVALID_BASE = dataclasses.replace(BASE, phi_min=2.0)


@pytest.mark.parametrize("ranges,base", [
    (EXHAUSTING, BASE),
    (default_ranges(), INVALID_BASE),
    (EXHAUSTING, INVALID_BASE),
    (_ranges(mpc_labor=fixed(0.4)), BASE),
])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
def test_sampling_errors_equal_the_scalar_loop(ranges, base, seed):
    n = 60
    expected = _raised(_scalar_draws, n, ranges, base, seed)
    assert _raised(sample_columns, n, ranges, base, seed) == expected
    assert _raised(monte_carlo, n, ranges, base, seed, 0.30) == expected


def test_exhausting_ranges_name_the_first_failing_draws_parameter():
    # both parameters must be named at some seed, or the test above cannot tell draw order
    messages = {_raised(monte_carlo, 60, EXHAUSTING, BASE, seed, 0.30)[1] for seed in range(12)}
    assert {m.rsplit(" ", 1)[1] for m in messages} == {"g_A", "d_bar"}


def test_default_ranges_sample_no_draw_one_at_a_time(monkeypatch):
    # a return to per-draw Python fails here rather than in benchmark noise
    calls = {"sample_calibration": 0, "with_updates": 0}

    def counted(name):
        fn = getattr(stochastics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(stochastics, name, counted(name))
    summary = monte_carlo(2000, default_ranges(), BASE, 42, 0.30)
    assert calls == {"sample_calibration": 0, "with_updates": 0}
    assert summary.scalar_draws == 0
    # the counters do see the scalar path when draws take it
    summary = monte_carlo(100, REDRAW_RANGES[0], BASE, 42, 0.30)
    assert calls["sample_calibration"] == calls["with_updates"] == summary.scalar_draws > 0


def test_monte_carlo_builds_the_stage_schedule_once_per_kernel_run(monkeypatch):
    # 2000 lanes run one step per chunk: a schedule built per chunk would cost 1000
    # builds a run, and a return to that fails here rather than in benchmark noise
    schedules, chunks = [], []
    stage_schedule, rk4_lanes = dynamics.stage_schedule, dynamics.rk4_lanes

    def counted_schedule(lo, hi, dt):
        schedules.append((lo, hi))
        return stage_schedule(lo, hi, dt)

    def counted_chunks(*args):
        for ts, path in rk4_lanes(*args):
            chunks.append(len(ts) - 1)
            yield ts, path

    monkeypatch.setattr(dynamics, "stage_schedule", counted_schedule)
    monkeypatch.setattr(dynamics, "rk4_lanes", counted_chunks)
    monte_carlo(2000, default_ranges(), BASE, 42, 0.30)
    assert schedules == [(0, 1000)]
    assert chunks == [1] * 1000


@pytest.mark.parametrize("seed", [-1, 2**64, 2**65 + 3])
def test_monte_carlo_rejects_seed_outside_uint64(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        monte_carlo(5, default_ranges(), BASE, seed, 0.30)


def test_summary_counters():
    ranges = REDRAW_RANGES[2]
    summary = monte_carlo(40, ranges, BASE, 3, 0.30)
    counters = summary.counters()
    assert counters["lanes"] == 40
    assert counters["rk4_steps"] == 40 * 1000
    assert counters["scalar_draws"] == summary.scalar_draws > 0
    assert len(counters["failed_draws"]) == summary.n_failures > 0
    assert counters["failed_draws"] == sorted(set(counters["failed_draws"]))


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


# --- the median without numpy.ma ---------------------------------------------

_FINITE = st.floats(-1e300, 1e300) | st.sampled_from((0.0, -0.0, 1.0, -1.0, 5e-324))


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE, min_size=1, max_size=40))
@example([-0.0])
@example([0.0, -0.0])
@example([-0.0, 0.0])
@example([-0.0, 0.0, -0.0, 0.0])
@example([2.0, 2.0, 2.0, 1.0])
@example([0.1, 0.2, 0.3])
def test_median_has_np_median_bits(values):
    # odd and even n, n = 1, repeated values and both zeros
    x = np.array(values)
    assert float.hex(_median(x)) == float.hex(float(np.median(x)))

