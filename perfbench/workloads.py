"""Seeded inputs, operations, output checks and the RK4 oracle of the benchmark.

Sizes are fixed, so the work in one operation does not depend on the seed:
the seed only picks values (the Monte Carlo draws, the sweep grid and the
paths' ``g_A``). Every check returns a list of problems; an empty list means
the operation's output is correct.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
from pathlib import Path

from macrostress import cli, dynamics, policy, stochastics, svg
from macrostress.params import PolicySpec, default_calibration, default_scenarios
from macrostress.policy import PolicyGrid

MC_DRAWS = 2000
MC_HORIZON, MC_DT = 10.0, 0.01      # the engine's Monte Carlo run length and step
SWEEP_LAGS, SWEEP_TAUS = 13, 6
PATH_DT = 0.001
# The grid `macrostress repro` sweeps on the rapid scenario.
REPRO_LAGS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
REPRO_TAUS = (0.03, 0.05, 0.10)
REPRO_DATA_FILES = (
    "trajectory_baseline.csv", "trajectory_baseline.svg",
    "trajectory_rapid.csv", "trajectory_rapid.svg",
    "trajectory_extreme.csv", "trajectory_extreme.svg",
    "scenarios_labor_share.svg", "sweep.csv", "sweep.svg",
    "credit_sensitivity.csv", "decomposition.csv", "sector_report.csv",
    "mc_summary.txt", "mc_histogram.csv",
)
CSV_COLUMNS = 9
ORACLE_TOL = 1e-9
ORACLE_DRAWS, ORACLE_CELLS, ORACLE_ROWS = 8, 4, 16

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def uniforms(seed: int, stream: int, n: int) -> list[float]:
    """``n`` uniforms in [0, 1) from the benchmark's own SplitMix64, one stream per purpose.

    Kept separate from the engine's generator so that an engine change cannot
    change the benchmark's inputs.
    """
    state = (seed + stream * _GAMMA) & _MASK64
    out = []
    for _ in range(n):
        state = (state + _GAMMA) & _MASK64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        z ^= z >> 31
        out.append((z >> 11) * (1.0 / (1 << 53)))
    return out


def _picks(seed: int, stream: int, k: int, n: int) -> list[int]:
    return sorted({int(u * n) for u in uniforms(seed, stream, k)})


def _scenario(name: str):
    return next(s for s in default_scenarios() if s.name == name)


# ---------------------------------------------------------------- inputs

def repro_argv(seed: int, jobs: int, out: Path) -> list[str]:
    return ["repro", "--n", str(MC_DRAWS), "--seed", str(seed), "--jobs", str(jobs),
            "--out", str(out)]


def repro_grid():
    return PolicyGrid(lags=REPRO_LAGS, taus=REPRO_TAUS, base=_scenario("rapid")), default_calibration()


def sweep_inputs(seed: int):
    """13 ascending lags in [0, 3] x 6 ascending taus in [0.01, 0.12] on `rapid`."""
    u = uniforms(seed, 1, SWEEP_LAGS + SWEEP_TAUS)
    lags = tuple(sorted(3.0 * x for x in u[:SWEEP_LAGS]))
    taus = tuple(sorted(0.01 + 0.11 * x for x in u[SWEEP_LAGS:]))
    return PolicyGrid(lags=lags, taus=taus, base=_scenario("rapid")), default_calibration()


def path_inputs(seed: int):
    """The three shipped scenarios at dt = 0.001, each g_A scaled by a factor in [0.8, 1.2)."""
    u = uniforms(seed, 2, 3)
    scenarios = [
        dataclasses.replace(s, g_A_override=s.g_A_override * (0.8 + 0.4 * x), dt=PATH_DT)
        for s, x in zip(default_scenarios(), u)
    ]
    return scenarios, default_calibration()


def build_inputs(workload: str, seed: int, out: Path):
    if workload == "repro":
        return repro_argv(seed, 2, out)
    if workload == "sweep_grid":
        return sweep_inputs(seed)
    return path_inputs(seed)


# ---------------------------------------------------------------- operations
# Engine functions are looked up through their modules at call time, so the
# tracer's wrappers see every call.

def repro_in_process(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_sweep(grid: PolicyGrid, calib, jobs: int = 1):
    return policy.policy_sweep(grid, calib, jobs=jobs)


def run_paths(scenarios, calib, out: Path) -> None:
    """What `macrostress simulate --svg` does, for each scenario."""
    for s in scenarios:
        traj = dynamics.simulate_path(s, calib)
        (out / f"trajectory_{s.name}.csv").write_text(traj.to_csv(), encoding="utf-8")
        ts = [p.t for p in traj.points]
        svg.write_line_chart(
            out / f"trajectory_{s.name}.svg", f"Scenario '{s.name}'", "years", "level",
            [
                ("labor share", ts, [p.s_L for p in traj.points]),
                ("velocity", ts, [p.velocity for p in traj.points]),
                ("consumption ratio", ts, [p.consumption_ratio for p in traj.points]),
            ],
        )


def monte_carlo(seed: int, jobs: int):
    return stochastics.monte_carlo(
        n=MC_DRAWS, ranges=stochastics.default_ranges(), base=default_calibration(),
        seed=seed, shortfall_threshold=0.30, jobs=jobs,
    )


# ---------------------------------------------------------------- checks

def file_digests(out: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
            for n in names if (out / n).is_file()}


def cells_digest(cells) -> str:
    text = "\n".join(f"{c.lag!r},{c.tau!r},{c.depth!r},{c.s_L_final!r},"
                     f"{c.consumption_decline_pct!r}" for c in cells)
    return hashlib.sha256(text.encode()).hexdigest()


def check_csv(name: str, text: str, n_rows: int) -> list[str]:
    lines = text.splitlines()
    if len(lines) != n_rows + 1:
        return [f"{name}: {len(lines) - 1} rows, expected {n_rows}"]
    bad = sum(1 for line in lines if line.count(",") != CSV_COLUMNS - 1)
    return [f"{name}: {bad} lines without {CSV_COLUMNS} columns"] if bad else []


def check_sweep(name: str, cells, lags, taus) -> list[str]:
    """cells: (lag, tau, depth, ...) tuples; row-major over (lags, taus), depth >= 0."""
    expected = [(lag, tau) for lag in lags for tau in taus]
    if [(c[0], c[1]) for c in cells] != expected:
        return [f"{name}: cells are not in row-major (lag, tau) order"]
    bad = [c for c in cells if not (math.isfinite(c[2]) and c[2] >= 0.0)]
    return [f"{name}: {len(bad)} cells with a depth below 0 or not finite"] if bad else []


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def check_mc(summary: str, histogram: str, n: int) -> list[str]:
    kv = _key_values(summary)
    counts = sum(int(row.rsplit(",", 1)[1]) for row in histogram.splitlines()[1:])
    n_draws, n_failures = int(kv["n_draws"]), int(kv["n_failures"])
    if n_draws != n or n_failures + counts != n_draws:
        return [f"mc: n_failures {n_failures} + histogram {counts} != n_draws {n_draws} (n={n})"]
    return []


def check_repro(out: Path, exit_code: int) -> list[str]:
    if exit_code != 0:
        return [f"repro exited with code {exit_code}"]
    missing = [n for n in (*REPRO_DATA_FILES, "run_manifest.json") if not (out / n).is_file()]
    if missing:
        return [f"repro: missing {missing}"]
    problems = check_mc((out / "mc_summary.txt").read_text(), (out / "mc_histogram.csv").read_text(),
                        MC_DRAWS)
    for s in default_scenarios():
        name = f"trajectory_{s.name}.csv"
        problems += check_csv(name, (out / name).read_text(), round(s.horizon / s.dt) + 1)
    rows = _csv_floats((out / "sweep.csv").read_text())
    return problems + check_sweep("sweep.csv", rows, REPRO_LAGS, REPRO_TAUS)


def check_paths(out: Path, scenarios) -> list[str]:
    problems = []
    for s in scenarios:
        csv_path, svg_path = out / f"trajectory_{s.name}.csv", out / f"trajectory_{s.name}.svg"
        if not (csv_path.is_file() and svg_path.is_file()):
            problems.append(f"paths: missing output for {s.name}")
            continue
        problems += check_csv(csv_path.name, csv_path.read_text(), round(s.horizon / s.dt) + 1)
        if not svg_path.read_text().rstrip().endswith("</svg>"):
            problems.append(f"{svg_path.name}: not a complete SVG document")
    return problems


def _csv_floats(text: str) -> list[tuple[float, ...]]:
    return [tuple(float(x) for x in line.split(",")) for line in text.splitlines()[1:]]


# ---------------------------------------------------------------- oracle

def oracle_rk4(c, p: PolicySpec, horizon: float, dt: float, record: list | None = None) -> float:
    """Scalar RK4 on the public ``labor_share_derivative``, clamped to [0, 1] like the engine."""
    f = dynamics.labor_share_derivative
    s, half, sixth = c.s_L0, dt / 2.0, dt / 6.0
    if record is not None:
        record.append(s)
    for i in range(round(horizon / dt)):
        t = i * dt
        k1 = f(t, s, c, p)
        k2 = f(t + half, s + half * k1, c, p)
        k3 = f(t + half, s + half * k2, c, p)
        k4 = f(t + dt, s + dt * k3, c, p)
        s = min(max(s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0), 1.0)
        if record is not None:
            record.append(s)
    return s


def _disagree(what: str, engine: float, oracle: float) -> list[str]:
    if abs(engine - oracle) > ORACLE_TOL:
        return [f"oracle: {what}: engine {engine!r} vs oracle {oracle!r}"]
    return []


def _effective(calib, scenario):
    return dataclasses.replace(calib, g_A=scenario.g_A_override)


def oracle_draws(seed: int) -> list[str]:
    """Sampled Monte Carlo draws: integrate_labor_share vs the oracle on the drawn calibration."""
    problems = []
    for i in _picks(seed, 3, ORACLE_DRAWS, MC_DRAWS):
        rng = stochastics.SplitMix64(stochastics.substream_seed(seed, i))
        c = stochastics.sample_calibration(rng, stochastics.default_ranges(), default_calibration())
        try:
            engine, _ = dynamics.integrate_labor_share(c, PolicySpec(), MC_HORIZON, MC_DT)
        except dynamics.IntegrationError:
            continue  # a failed draw, which the summary counts
        problems += _disagree(f"draw {i}", engine, oracle_rk4(c, PolicySpec(), MC_HORIZON, MC_DT))
    return problems


def oracle_cells(seed: int, cells, base, calib) -> list[str]:
    """Sampled sweep cells: final labor share vs the oracle. cells: (lag, tau, depth, s_final)."""
    problems = []
    ce = _effective(calib, base)
    for i in _picks(seed, 4, ORACLE_CELLS, len(cells)):
        lag, tau, _, s_final = cells[i][:4]
        p = PolicySpec(tau=tau, lag=lag, start_time=base.policy.start_time)
        problems += _disagree(f"cell {i}", s_final, oracle_rk4(ce, p, base.horizon, base.dt))
    return problems


def oracle_rows(seed: int, scenario, calib, csv_text: str) -> list[str]:
    """Sampled rows of one exported path: the CSV's s_L vs the oracle at that step."""
    states: list[float] = []
    oracle_rk4(_effective(calib, scenario), scenario.policy, scenario.horizon, scenario.dt, states)
    rows = csv_text.splitlines()[1:]
    problems = []
    for j in _picks(seed, 5, ORACLE_ROWS, len(rows)):
        problems += _disagree(f"{scenario.name} row {j}", float(rows[j].split(",")[1]), states[j])
    return problems


def oracle_repro(seed: int, out: Path) -> list[str]:
    problems = oracle_draws(seed)
    cells = _csv_floats((out / "sweep.csv").read_text())
    cells = [(lag, tau, depth, s_final) for lag, tau, depth, s_final, _ in cells]
    problems += oracle_cells(seed, cells, _scenario("rapid"), default_calibration())
    for s in default_scenarios():
        text = (out / f"trajectory_{s.name}.csv").read_text()
        problems += oracle_rows(seed, s, default_calibration(), text)
    return problems


def oracle_paths(seed: int, scenarios, calib, out: Path) -> list[str]:
    problems = []
    for s in scenarios:
        problems += oracle_rows(seed, s, calib, (out / f"trajectory_{s.name}.csv").read_text())
    return problems
