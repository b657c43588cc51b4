"""Acceptance suite: one test per shipped criterion, printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import hashlib
import json
import math
import random
import time

import mpmath
import numpy as np
import pytest

from macrostress import credit
from macrostress.credit import BorrowerState, default_probability, shocked_default_probability
from macrostress.dynamics import (
    explosive_threshold,
    integrate_labor_share,
    reinstatement_rate,
    simulate_path,
)
from macrostress.intermediation import (
    default_sectors,
    friction,
    margin,
    margin_compression_rate,
    sector_report,
)
from macrostress.monetary import (
    amplifier_lower_bound,
    consumption_shock,
    cumulative_consumption_decline,
    default_quintiles,
    velocity,
    velocity_decline_rate,
)
from macrostress.params import PolicySpec, Scenario, default_calibration, with_updates
from macrostress.policy import crisis_depth, transfer_at
from macrostress.stochastics import default_ranges, monte_carlo, ols_hc1

C = default_calibration()
NO_POLICY = PolicySpec()


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_dscr_worked_numbers():
    b = BorrowerState(dscr=1.5, sigma_r=0.20)
    # warm-up to exclude first-call overhead from the timing window
    default_probability(b)
    start = time.perf_counter()
    base = default_probability(b)
    at20 = shocked_default_probability(b, 0.20)
    at30 = shocked_default_probability(b, 0.30)
    elapsed = time.perf_counter() - start
    ok = (
        abs(base - 0.021) <= 0.002
        and abs(at20 - 0.181) <= 0.002
        and abs(at30 - 0.403) <= 0.002
        and elapsed < 1e-3
    )
    _report(1, f"coverage sensitivity {base:.3f}/{at20:.3f}/{at30:.3f} in {elapsed * 1e6:.0f}us", ok)


def test_criterion_02_amplifier_band():
    got = [amplifier_lower_bound(chi, 0.10) for chi in (0.47, 0.59, 0.65)]
    expected = [0.047, 0.059, 0.065]
    ok = all(abs(g - e) <= 1e-15 for g, e in zip(got, expected))
    _report(2, f"amplifier bounds {got}", ok)


def test_criterion_03_decomposition():
    total, per_q = consumption_shock(default_quintiles(), 0.10)
    ok = abs(per_q[4] - 3.54) <= 0.05 and abs(total - 3.92) <= 0.05
    _report(3, f"top quintile {per_q[4]:.3f} pp of total {total:.3f} pp", ok)


def test_criterion_04_scenario_bands():
    start = time.perf_counter()
    declines = {}
    for name, g in (("baseline", 0.05), ("rapid", 0.20), ("extreme", 0.40)):
        traj = simulate_path(Scenario(name=name, g_A_override=g), C)
        declines[name] = 100.0 * cumulative_consumption_decline(traj, C)
    elapsed = time.perf_counter() - start
    ok = (
        declines["baseline"] < 5.0
        and 5.0 <= declines["rapid"] <= 12.0
        and 15.0 <= declines["extreme"] <= 30.0
        and elapsed < 1.0
    )
    _report(
        4,
        f"decade consumption declines base={declines['baseline']:.2f}% "
        f"rapid={declines['rapid']:.2f}% extreme={declines['extreme']:.2f}% "
        f"in {elapsed:.2f}s",
        ok,
    )


def test_criterion_05_policy_stabilization():
    fast_large = simulate_path(
        Scenario(name="r", g_A_override=0.20, policy=PolicySpec(tau=0.10, lag=0.5)), C
    ).points[-1].s_L
    unmitigated = simulate_path(Scenario(name="r", g_A_override=0.20), C).points[-1].s_L
    # smallest shipped transfer arriving far too late: lag 9 (> 2) years
    late_small = simulate_path(
        Scenario(name="r", g_A_override=0.20, policy=PolicySpec(tau=0.03, lag=9.0)), C
    ).points[-1].s_L
    late_decline = C.s_L0 - late_small
    ok = fast_large >= 0.40 and unmitigated < 0.10 and late_decline > 0.40
    _report(
        5,
        f"fast/large holds s_L(10)={fast_large:.3f}; unmitigated s_L(10)={unmitigated:.3f}; "
        f"late/small decline={late_decline:.3f}",
        ok,
    )


def test_criterion_06_avertance_iff():
    rng = random.Random(20260808)
    ok = True
    for _ in range(200):
        g_A = 0.02 + 0.48 * rng.random()
        policy = PolicySpec(
            tau=rng.choice([0.0, 0.01, 0.05, 0.1, 0.3, 0.6]), lag=4.0 * rng.random()
        )
        c = with_updates(
            C, rho0=0.006 * rng.random(), eta=0.009 * rng.random(),
            t0_diffusion=0.5 + 3.0 * rng.random(),
        )
        traj = simulate_path(
            Scenario(name="r", g_A_override=g_A, horizon=5.0, dt=0.05, policy=policy), c
        )
        depth = crisis_depth(traj, policy)
        covered = all(transfer_at(p.t, policy) >= (c.s_L0 - p.s_L) for p in traj.points)
        if (depth == 0.0) != covered:
            ok = False
            break
    _report(6, "depth == 0 iff the lagged transfer covers the gap pointwise (200 pairs)", ok)


def test_criterion_07_velocity_law():
    anchored = velocity(C.s_L0, 0.0, C) == 1.41
    h = 1e-6
    rel_ok = True
    for i in range(91):
        s = 0.05 + i * 0.01
        ds = -0.017
        closed = velocity_decline_rate(s, ds, C)
        fd = (velocity(s + h, 0.0, C) - velocity(s - h, 0.0, C)) / (2 * h) * ds / velocity(s, 0.0, C)
        if abs(closed - fd) > 1e-6 * abs(fd):
            rel_ok = False
            break
    rng = random.Random(11)
    mono_ok = True
    for _ in range(10_000):
        a, b = rng.random(), rng.random()
        lo, hi = sorted((a, b))
        if velocity(lo, 0.0, C) > velocity(hi, 0.0, C):
            mono_ok = False
            break
    ok = anchored and rel_ok and mono_ok
    _report(7, f"anchor exact={anchored}, closed-form vs FD 1e-6, monotone 10k pairs", ok)


def _threshold_regime_calibration(mpc, beta, f_slope, d_bar, s_L0):
    bc = beta * mpc
    g0 = (1.0 - bc) / bc * f_slope
    x = g0 / (1.0 - g0)
    return with_updates(
        default_calibration(), mpc_labor=mpc, beta_feedback=beta, f_slope=f_slope,
        d_bar=d_bar, s_L0=s_L0, rho0=x * d_bar * f_slope, eta=0.0,
        kappa=50.0, t0_diffusion=-1.0,
    )


def test_criterion_08_regime_threshold():
    g0 = explosive_threshold(0.0, C)
    value_ok = abs(g0 - 0.43824) <= 1e-5
    sign_ok = True
    cases = [
        (_threshold_regime_calibration(0.55, 0.9, 0.40, 0.8, 0.56), 12.0),
        (_threshold_regime_calibration(0.60, 0.7, 0.55, 0.9, 0.56), 6.0),
        (_threshold_regime_calibration(0.52, 1.2, 0.50, 1.0, 0.50), 10.0),
    ]
    for c, horizon in cases:
        gstar = explosive_threshold(reinstatement_rate(c.A0, c), c)
        for mult, expect_growth in ((0.99, False), (1.01, True)):
            ce = with_updates(c, g_A=mult * gstar)
            s_u, _ = integrate_labor_share(ce, NO_POLICY, horizon, 0.01)
            s_p, _ = integrate_labor_share(ce, NO_POLICY, horizon, 0.01, s_init=c.s_L0 - 0.01)
            gap = abs(max(0.0, c.s_L0 - s_p) - max(0.0, c.s_L0 - s_u))
            if expect_growth != (gap > 0.01):
                sign_ok = False
    _report(8, f"g*_0 = {g0:.5f}; perturbations decay/grow across the threshold (3 cals)", value_ok and sign_ok)


def test_criterion_09_intermediation_limits():
    limit = C.m0 + C.gamma_m * C.phi_min
    limit_ok = abs(margin(friction(120.0, C), C) - limit) <= 1e-9

    rate_ok = True
    for A in (0.5, 1.0, 2.0, 3.5):
        t = math.log(A / C.A0) / C.g_A
        h = 1e-6

        def m_at(tt):
            return margin(friction(C.A0 * math.exp(C.g_A * tt), C), C)

        fd = (m_at(t + h) - m_at(t - h)) / (2 * h)
        analytic = margin_compression_rate(A, C)
        if abs(analytic - fd) > 1e-6 * abs(fd):
            rate_ok = False

    report = sector_report(default_sectors())
    top3 = {row.name for row in report[:3]}
    rank_ok = top3 == {"SaaS (seat)", "Mgmt. consulting", "Travel booking"}
    _report(9, f"margin limit 1e-9, compression rate vs FD 1e-6, top-3 = {sorted(top3)}",
            limit_ok and rate_ok and rank_ok)


def test_criterion_10_monte_carlo():
    start = time.perf_counter()
    a = monte_carlo(2000, default_ranges(), C, seed=42, shortfall_threshold=0.30, jobs=1)
    elapsed_one = time.perf_counter() - start
    b = monte_carlo(2000, default_ranges(), C, seed=42, shortfall_threshold=0.30, jobs=1)
    c2 = monte_carlo(2000, default_ranges(), C, seed=42, shortfall_threshold=0.30, jobs=4)
    ok = (
        a.median_shortfall < 0.10
        and 0.08 <= a.tail_prob <= 0.20
        and a == b == c2
        and elapsed_one < 30.0
    )
    _report(
        10,
        f"median={a.median_shortfall:.4f}, tail P(>30%)={a.tail_prob:.4f}, "
        f"bit-identical across runs and worker counts, {elapsed_one:.1f}s",
        ok,
    )


def test_criterion_11_ols_hc1():
    n, k = 22, 2
    x = np.linspace(-2.0, 2.0, n)
    X = np.column_stack([np.ones(n), x])
    y_clean = 2.0 + 3.0 * x
    res_clean = ols_hc1(X, y_clean)
    exact_ok = (
        abs(res_clean.coefficients[0] - 2.0) <= 1e-12
        and abs(res_clean.coefficients[1] - 3.0) <= 1e-12
        and res_clean.r_squared == pytest.approx(1.0, abs=1e-12)
    )
    rng = np.random.default_rng(22)
    y = y_clean + rng.normal(scale=0.5, size=n)
    res = ols_hc1(X, y)
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    e = y - X @ beta
    cov = xtx_inv @ X.T @ np.diag(e ** 2) @ X @ xtx_inv * n / (n - k)
    se_oracle = np.sqrt(np.diag(cov))
    sandwich_ok = all(abs(a - b) <= 1e-10 for a, b in zip(res.hc1_se, se_oracle))
    _report(11, f"noiseless fit exact; HC1 SEs match brute-force sandwich to 1e-10", exact_ok and sandwich_ok)


def test_criterion_12_normal_cdf_accuracy():
    mpmath.mp.dps = 40
    worst = 0.0
    for i in range(1601):
        x = -8.0 + i * 0.01
        worst = max(worst, abs(credit.std_normal_cdf(x) - float(mpmath.ncdf(x))))
    ok = worst <= 1e-9
    _report(12, f"max |Phi - oracle| = {worst:.3e} over 1,601-point grid", ok)


# sha256 of every repro data file at --n 2000 --seed 42. Any change to an
# engine path that moves a byte of the suite fails here.
REPRO_SEED_42_SHA256 = {
    "credit_sensitivity.csv": "58b51f7c8c512dbc285e6d4a856611ae91740e7d8d942b757b61ef87ea39efdf",
    "decomposition.csv": "90b5dc5670e49cba5b673cf67410c53c387657645c89fa71363758465579c175",
    "mc_histogram.csv": "1291a50ceaf225a8f248b85954ea1f311a47b249e7536e92038ca23d17cfd802",
    "mc_summary.txt": "c92fc8a230a8234edbbaa26641de224e05381c6d1139da4d454f7fe90074078b",
    "scenarios_labor_share.svg": "d80c13458012c74a2534a06b40883dfa15eda46463d4cabe87983699479936c5",
    "sector_report.csv": "a1b459233fcb880eee5da99ef259041879d3679d5488c68d8e9f0326fcce5d61",
    "sweep.csv": "2528d4e91389b723631988a2747f1d32d1d9b333d7760d7aa5a9a954743677b1",
    "sweep.svg": "22035937f48cee815ca0aea3273603e900b6d1ff6e866a7fc617a5b100f2c316",
    "trajectory_baseline.csv": "081209ac0224b24d0c8d09c1a854429b540df652341c10af2c1ed07b7e5224f1",
    "trajectory_baseline.svg": "e3a5e033852d11721a5e322f85828cace47513731eb95046e24e7b74c560e709",
    "trajectory_extreme.csv": "ef3279a7790684047957b669d0e1ffc352d053c34e7509ccd338e44af4906cbe",
    "trajectory_extreme.svg": "0bb118c4ba88750e1014b397e43b721447ca70cdc4f89b423195b16967ef611c",
    "trajectory_rapid.csv": "79ab3bb5405da2c5fdcbaf197bba5b2eceaf028aa9dc61de6d7a9d10a34b1017",
    "trajectory_rapid.svg": "4fc43fd86caf63fba3356977fd0aba7e0c61c90d1ae6c49f7b12656d5eba6103",
}


@pytest.fixture(scope="module")
def repro_run(tmp_path_factory):
    """One `repro --n 2000 --seed 42` run: (exit code, seconds, output directory)."""
    from macrostress.cli import main

    out = tmp_path_factory.mktemp("repro") / "repro"
    start = time.perf_counter()
    code = main(["repro", "--out", str(out), "--n", "2000", "--seed", "42", "--jobs", "4"])
    return code, time.perf_counter() - start, out


def test_criterion_13_repro_suite(repro_run):
    code, elapsed, out = repro_run
    expected = [
        "trajectory_baseline.csv", "trajectory_rapid.csv", "trajectory_extreme.csv",
        "trajectory_baseline.svg", "trajectory_rapid.svg", "trajectory_extreme.svg",
        "scenarios_labor_share.svg", "sweep.csv", "sweep.svg",
        "credit_sensitivity.csv", "decomposition.csv", "sector_report.csv",
        "mc_summary.txt", "mc_histogram.csv", "run_manifest.json",
    ]
    missing = [f for f in expected if not (out / f).exists()]
    ok = code == 0 and not missing and elapsed < 60.0
    _report(13, f"repro suite in {elapsed:.1f}s, artifacts complete (missing: {missing})", ok)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["collapse_time"] == {"baseline": None, "rapid": None, "extreme": 8.06}
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in REPRO_SEED_42_SHA256
    }
    assert digests == REPRO_SEED_42_SHA256


def test_repro_manifest_phases(repro_run):
    _, _, out = repro_run
    manifest = json.loads((out / "run_manifest.json").read_text())
    phases = manifest["phases"]
    assert [p["name"] for p in phases] == [
        "trajectories", "sweep", "tables", "monte_carlo", "write", "manifest",
    ]
    assert all(p["seconds"] >= 0.0 for p in phases)
    assert sum(p["seconds"] for p in phases) <= manifest["wall_time_s"]


def test_repro_manifest_monte_carlo_counters(repro_run):
    # decided from the run's own files: every draw is a histogram count or a failed lane
    _, _, out = repro_run
    counters = json.loads((out / "run_manifest.json").read_text())["monte_carlo"]
    rows = (out / "mc_histogram.csv").read_text().strip().split("\n")[1:]
    counts = sum(int(row.rsplit(",", 1)[1]) for row in rows)
    assert counters["lanes"] == 2000
    assert len(counters["failed_draws"]) + counts == counters["lanes"]
    assert counters["rk4_steps"] == 2000 * 1000
    assert counters["scalar_draws"] == 0   # the shipped ranges never need a redraw


def test_repro_manifest_sweep_counters(repro_run):
    # the 7 x 3 policy grid on `rapid`: one lane per sweep.csv row, 1000 steps each
    _, _, out = repro_run
    counters = json.loads((out / "run_manifest.json").read_text())["sweep"]
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    assert counters == {"lanes": len(rows), "rk4_steps": len(rows) * 1000}
    assert len(rows) == 21


def test_repro_manifest_table_counters(repro_run):
    # one credit row per delta, and the shipped quintiles and sectors
    _, _, out = repro_run
    manifest = json.loads((out / "run_manifest.json").read_text())
    deltas = len((out / "credit_sensitivity.csv").read_text().splitlines()) - 1
    assert {block: manifest[block] for block in ("credit", "decompose", "intermediation")} == {
        "credit": {"deltas": deltas}, "decompose": {"quintiles": 5}, "intermediation": {"sectors": 7},
    }
    assert deltas == 3


def test_repro_manifest_regime(repro_run):
    # the stability condition of each shipped scenario: every g_A sits below g*
    _, _, out = repro_run
    regime = json.loads((out / "run_manifest.json").read_text())["regime"]
    assert {name: (r["kind"], r["g_A"]) for name, r in regime.items()} == {
        "baseline": ("stable displacement", 0.05),
        "rapid": ("stable displacement", 0.2),
        "extreme": ("stable displacement", 0.4),
    }
    assert all(r["g_A"] < r["threshold"] == 0.4564950980392157 for r in regime.values())


# `repro` runs each subcommand at its own defaults, so at those defaults (and
# seed 42) every subcommand's files must equal the repro goldens.
@pytest.mark.parametrize("argv,files", [
    (["sweep"], ["sweep.csv"]),
    (["credit"], ["credit_sensitivity.csv"]),
    (["decompose"], ["decomposition.csv"]),
    (["intermediation"], ["sector_report.csv"]),
    (["montecarlo", "--n", "2000", "--seed", "42"], ["mc_summary.txt", "mc_histogram.csv"]),
    *((["simulate", "--scenario", name, "--svg"], [f"trajectory_{name}.csv", f"trajectory_{name}.svg"])
      for name in ("baseline", "rapid", "extreme")),
    (["sweep", "--svg"], ["sweep.csv", "sweep.svg"]),
])
def test_subcommand_files_equal_repro_goldens(tmp_path, argv, files):
    from macrostress.cli import main

    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads((out / "run_manifest.json").read_text())["outputs"] == files
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files}
    assert digests == {name: REPRO_SEED_42_SHA256[name] for name in files}
