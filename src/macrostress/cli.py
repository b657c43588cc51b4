"""Command-line front end: every engine experiment as a reproducible command.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 I/O failure. Every run writes its data files plus a ``run_manifest.json``
recording the command line, config hash, seed, output list, engine version,
wall time and environment, for a scenario run its collapse time and
stability regime, and for a sweep or a Monte Carlo its work counters; a run
that fails before writing leaves no files.
Given the same config and seed, the data outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, intermediation, monetary, svg
from .credit import BorrowerState, dscr_sensitivity
from .dynamics import (
    IntegrationError,
    Trajectory,
    _effective_calibration,
    classify_regime,
    simulate_path,
)
from .indicators import dashboard, default_rules, load_rules, load_series_csv
from .params import (
    ConfigError,
    Scenario,
    default_calibration,
    default_scenarios,
    finite,
    load_config,
    read_csv_records,
    serialize_config,
)
from .policy import PolicyGrid, SweepCell, policy_sweep
from .stochastics import McSummary, default_ranges, monte_carlo, ols_hc1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class _Run:
    """One command's run: its config, output files, phases and manifest.

    The output directory is created when the first output path is handed
    out, so a run that fails before it writes leaves nothing behind.
    """

    def __init__(self, args: argparse.Namespace, argv: list[str]) -> None:
        self.started = self._mark = time.perf_counter()
        self.argv = argv
        self.seed: int | None = getattr(args, "seed", None)
        self.calib, self.scenarios = (
            load_config(args.config) if args.config else (default_calibration(), [])
        )
        if args.out:
            self.out = Path(args.out)
        elif args.command == "repro":
            self.out = Path(datetime.now(timezone.utc).strftime("repro_%Y%m%dT%H%M%SZ"))
        else:
            self.out = Path("out")
        self.outputs: list[Path] = []
        self.phases: list[dict[str, object]] = []
        self.trajectories: list[Trajectory] = []
        self.regimes: dict[str, dict[str, object]] = {}
        self.sweep: PolicyGrid | None = None
        self.monte_carlo: McSummary | None = None

    def path(self, name: str) -> Path:
        """Record output file ``name`` and return its path; the first call makes the directory."""
        if not self.outputs:
            self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        self.outputs.append(path)
        return path

    def write(self, name: str, text: str) -> str:
        self.path(name).write_text(text, encoding="utf-8")
        return text

    def phase(self, name: str) -> None:
        """Close the phase that began at the previous call (or at the start of the run)."""
        now = time.perf_counter()
        self.phases.append({"name": name, "seconds": round(now - self._mark, 6)})
        self._mark = now

    def finish(self) -> None:
        """Write ``run_manifest.json`` next to the outputs."""
        config = serialize_config(self.calib, self.scenarios).encode("utf-8")
        config_hash = hashlib.sha256(config).hexdigest()
        if self.phases:
            self.phase("manifest")
        manifest: dict[str, object] = {
            "command": "macrostress " + " ".join(self.argv),
            "config_hash": config_hash,
            "seed": self.seed,
            "outputs": [p.name for p in self.outputs],
            "engine_version": __version__,
            "wall_time_s": round(time.perf_counter() - self.started, 6),
        }
        if self.trajectories:
            # first grid time with the labor share at or below dynamics.S_FLOOR, or null
            manifest["collapse_time"] = {t.scenario: t.collapse_time for t in self.trajectories}
        if self.regimes:
            manifest["regime"] = self.regimes
        if self.phases:
            manifest["phases"] = self.phases
        if self.sweep is not None:
            manifest["sweep"] = self.sweep.counters()
        if self.monte_carlo is not None:
            manifest["monte_carlo"] = self.monte_carlo.counters()
        # from sys and os.uname: importing and querying `platform` takes tens of ms
        uname = os.uname() if hasattr(os, "uname") else None
        manifest["environment"] = {
            "python": f"{sys.implementation.name} {sys.version.split()[0]}",
            "numpy": np.__version__,
            "platform": f"{uname.sysname} {uname.release} {uname.machine}" if uname else sys.platform,
        }
        text = json.dumps(manifest, indent=2) + "\n"
        (self.out / "run_manifest.json").write_text(text, encoding="utf-8")


def _finite_float(text: str) -> float:
    """argparse type for float options: ``nan`` and ``inf`` are rejected like ``abc``."""
    try:
        return finite(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


def _seed(text: str) -> int:
    """argparse type for ``--seed``: a whole number in [0, 2**64), the generator's seed space."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"expected a whole number in [0, 2**64), got {text!r}")
    return value


def _scenario_by_name(name: str, from_config: list[Scenario]) -> Scenario:
    table = {s.name: s for s in default_scenarios()}
    table.update({s.name: s for s in from_config})
    if name not in table:
        available = ", ".join(sorted(table))
        raise ConfigError(f"unknown scenario '{name}'; available: {available}")
    return table[name]


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers: {text!r}") from None


def _table(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _simulate(run: _Run, scenario: Scenario) -> Trajectory:
    """:func:`simulate_path`, with the paper's stability condition at the scenario's
    effective ``g_A`` recorded for the manifest."""
    traj = simulate_path(scenario, run.calib)
    calib = _effective_calibration(scenario, run.calib)
    regime = classify_regime(calib)
    run.regimes[scenario.name] = {
        "kind": regime.kind.value, "threshold": regime.threshold, "g_A": calib.g_A,
    }
    return traj


# --- writers: the one place each data file is rendered -----------------------

def _write_trajectory(run: _Run, traj: Trajectory, chart: bool) -> None:
    run.trajectories.append(traj)
    run.write(f"trajectory_{traj.scenario}.csv", traj.to_csv())
    if chart:
        svg.write_line_chart(
            run.path(f"trajectory_{traj.scenario}.svg"),
            f"Scenario '{traj.scenario}'",
            "years",
            "level",
            [
                ("labor share", traj.t, traj.s_L),
                ("velocity", traj.t, traj.velocity),
                ("consumption ratio", traj.t, traj.consumption_ratio),
            ],
        )


def _write_scenarios_chart(run: _Run, trajectories: list[Trajectory]) -> None:
    svg.write_line_chart(
        run.path("scenarios_labor_share.svg"), "Labor share under three adoption rates",
        "years", "labor share", [(traj.scenario, traj.t, traj.s_L) for traj in trajectories],
    )


def _write_sweep(run: _Run, grid: PolicyGrid, cells: list[SweepCell], label: str | None) -> None:
    """``sweep.csv``, and ``sweep.svg`` titled with ``label`` unless it is None."""
    run.sweep = grid
    run.write("sweep.csv", _table("lag,tau,depth,s_L_final,consumption_decline_pct", [
        f"{c.lag:.9g},{c.tau:.9g},{c.depth:.9g},{c.s_L_final:.9g},{c.consumption_decline_pct:.9g}"
        for c in cells
    ]))
    if label is not None:
        series = [
            (f"tau = {tau:g}", [c.lag for c in cells if c.tau == tau],
             [c.depth for c in cells if c.tau == tau])
            for tau in grid.taus
        ]
        svg.write_line_chart(
            run.path("sweep.svg"), f"Crisis depth vs policy lag ({label})",
            "policy lag, years", "crisis depth", series,
        )


def _write_credit(run: _Run, table: list[tuple[float, float, float]]) -> str:
    return run.write("credit_sensitivity.csv", _table("delta,dscr_post,pd", [
        f"{delta:.9g},{dscr_post:.9g},{pd:.9g}" for delta, dscr_post, pd in table
    ]))


def _write_decomposition(
    run: _Run, profile: monetary.QuintileProfile, total: float, per_quintile: list[float]
) -> None:
    rows = [
        f"{i + 1},{profile.consumption_shares[i]:.9g},{profile.mpcs[i]:.9g},"
        f"{profile.exposures[i]:.9g},{per_quintile[i]:.9g}"
        for i in range(5)
    ]
    rows.append(f"total,,,,{total:.9g}")
    run.write("decomposition.csv",
              _table("quintile,consumption_share,mpc,exposure,contribution_pp", rows))


def _write_sector_report(run: _Run, report: list[intermediation.SectorReportRow]) -> None:
    run.write("sector_report.csv", intermediation.report_to_csv(report))


def _write_monte_carlo(run: _Run, summary: McSummary) -> str:
    run.monte_carlo = summary
    text = run.write("mc_summary.txt", summary.to_text())
    run.write("mc_histogram.csv", summary.histogram_csv())
    return text


# --- subcommands: each computes, writes through the writers, and returns its stdout

def _cmd_simulate(args: argparse.Namespace, run: _Run) -> str:
    scenario = _scenario_by_name(args.scenario, run.scenarios)
    if args.dt is not None:
        scenario = dataclasses.replace(scenario, dt=args.dt)
    _write_trajectory(run, _simulate(run, scenario), args.svg)
    return f"wrote {run.outputs[0]}\n"


def _cmd_sweep(args: argparse.Namespace, run: _Run) -> str:
    base = _scenario_by_name(args.scenario, run.scenarios)
    grid = PolicyGrid(lags=_parse_float_list(args.lags), taus=_parse_float_list(args.taus), base=base)
    _write_sweep(run, grid, policy_sweep(grid, run.calib), f"'{base.name}'" if args.svg else None)
    return f"wrote {run.outputs[0]}\n"


def _cmd_montecarlo(args: argparse.Namespace, run: _Run) -> str:
    return _write_monte_carlo(run, monte_carlo(
        n=args.n,
        ranges=default_ranges(),
        base=run.calib,
        seed=args.seed,
        shortfall_threshold=args.threshold,
    ))


def _cmd_credit(args: argparse.Namespace, run: _Run) -> str:
    borrower = BorrowerState(dscr=args.dscr, sigma_r=args.sigma)
    return _write_credit(run, dscr_sensitivity(borrower, list(_parse_float_list(args.deltas))))


def _cmd_intermediation(args: argparse.Namespace, run: _Run) -> str:
    sectors = (
        intermediation.load_sectors_csv(args.sectors)
        if args.sectors
        else intermediation.default_sectors()
    )
    _write_sector_report(run, intermediation.sector_report(sectors))
    return f"wrote {run.outputs[0]}\n"


def _cmd_decompose(args: argparse.Namespace, run: _Run) -> str:
    profile = (
        monetary.load_quintiles_csv(args.quintiles)
        if args.quintiles
        else monetary.default_quintiles()
    )
    total, per_quintile = monetary.consumption_shock(profile, args.shock)
    _write_decomposition(run, profile, total, per_quintile)
    return f"total consumption decline: {total:.4g} pp\n"


def _parse_formula(formula: str) -> tuple[str, list[str]]:
    if "~" not in formula:
        raise ConfigError(f"formula must look like 'y ~ x1 + x2': {formula!r}")
    lhs, _, rhs = formula.partition("~")
    response = lhs.strip()
    terms = [t.strip() for t in rhs.split("+") if t.strip()]
    if not response or not terms:
        raise ConfigError(f"formula must name a response and at least one regressor: {formula!r}")
    return response, terms


def _cmd_regress(args: argparse.Namespace, run: _Run) -> str:
    response, terms = _parse_formula(args.formula)
    columns = [response, *terms]
    records = [cells for _, cells in read_csv_records(args.data, columns, columns)]
    y_vals = [cells[response] for cells in records]
    x_rows = [[1.0] + [cells[t] for t in terms] for cells in records]
    result = ols_hc1(np.array(x_rows), np.array(y_vals))
    text = run.write("regression.csv", _table("term,coefficient,hc1_se", [
        f"{name},{coef:.9g},{se:.9g}"
        for name, coef, se in zip(["intercept", *terms], result.coefficients, result.hc1_se)
    ]))
    return text + f"r_squared = {result.r_squared:.6g}\nn = {result.n}\n"


def _cmd_indicators(args: argparse.Namespace, run: _Run) -> str:
    rules = load_rules(args.rules) if args.rules else default_rules()
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise ConfigError(f"--data must name a directory of <series>.csv files: {data_dir}")
    data = {p.stem: load_series_csv(p) for p in sorted(data_dir.glob("*.csv"))}
    report = dashboard(rules, data)
    run.write("indicators_report.csv", report.to_csv())
    return report.to_text()


def _cmd_repro(args: argparse.Namespace, run: _Run) -> str:
    # Every result is computed before the first file is written, so an input
    # or numeric error leaves no partial suite behind.
    trajectories = [_simulate(run, scenario) for scenario in default_scenarios()]
    run.phase("trajectories")

    grid = PolicyGrid(
        lags=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0), taus=(0.03, 0.05, 0.10),
        base=_scenario_by_name("rapid", run.scenarios),
    )
    cells = policy_sweep(grid, run.calib)
    run.phase("sweep")

    credit = dscr_sensitivity(BorrowerState(dscr=1.5, sigma_r=run.calib.sigma_r), [0.0, 0.20, 0.30])
    profile = monetary.default_quintiles()
    total, per_quintile = monetary.consumption_shock(profile, 0.10)
    report = intermediation.sector_report(intermediation.default_sectors())
    run.phase("tables")

    summary = monte_carlo(
        n=args.n, ranges=default_ranges(), base=run.calib, seed=args.seed,
        shortfall_threshold=0.30,
    )
    run.phase("monte_carlo")

    for traj in trajectories:
        _write_trajectory(run, traj, chart=True)
    _write_scenarios_chart(run, trajectories)
    _write_sweep(run, grid, cells, "rapid")
    _write_credit(run, credit)
    _write_decomposition(run, profile, total, per_quintile)
    _write_sector_report(run, report)
    _write_monte_carlo(run, summary)
    run.phase("write")
    return f"repro suite written to {run.out}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macrostress",
        description="Deterministic macro-financial stress-test engine.",
    )
    parser.add_argument("--version", action="version", version=f"macrostress {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="path to a key-value config file")
        p.add_argument("--out", help="output directory (default: ./out)")

    def jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, help="accepted and ignored: no step starts a worker "
                       "process, and the results never depend on --jobs")

    p = sub.add_parser("simulate", help="integrate one scenario and export the trajectory")
    common(p)
    p.add_argument("--scenario", default="baseline", help="scenario name (default: baseline)")
    p.add_argument("--dt", type=_finite_float, help="override the integration step, years")
    p.add_argument("--svg", action="store_true", help="also write a line chart")

    p = sub.add_parser("sweep", help="crisis depth over a (lag, tau) policy grid")
    common(p)
    p.add_argument("--scenario", default="rapid", help="base scenario (default: rapid)")
    p.add_argument("--lags", default="0,0.5,1,1.5,2,2.5,3", help="comma-separated lags, years")
    p.add_argument("--taus", default="0.03,0.05,0.10", help="comma-separated transfer magnitudes")
    p.add_argument("--svg", action="store_true")
    jobs(p)

    p = sub.add_parser("montecarlo", help="sampled-calibration shortfall distribution")
    common(p)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--threshold", type=_finite_float, default=0.30, help="tail shortfall threshold")
    jobs(p)

    p = sub.add_parser("credit", help="borrower default-probability sensitivity table")
    common(p)
    p.add_argument("--dscr", type=_finite_float, default=1.5)
    p.add_argument("--sigma", type=_finite_float, default=0.20)
    p.add_argument("--deltas", default="0,0.20,0.30", help="ascending income shocks")

    p = sub.add_parser("intermediation", help="sector margin-exposure report")
    common(p)
    p.add_argument("--sectors", help="CSV of sector profiles (default: shipped table)")

    p = sub.add_parser("decompose", help="quintile decomposition of a consumption shock")
    common(p)
    p.add_argument("--shock", type=_finite_float, default=0.10)
    p.add_argument("--quintiles", help="CSV with 5 rows: share,mpc,exposure")

    p = sub.add_parser("regress", help="OLS with HC1 robust standard errors")
    common(p)
    p.add_argument("--data", required=True, help="CSV with named columns")
    p.add_argument("--formula", required=True, help="e.g. 'y ~ x1 + x2'")

    p = sub.add_parser("indicators", help="evaluate early-warning rules over series CSVs")
    common(p)
    p.add_argument("--rules", help="rule file (default: shipped rule set)")
    p.add_argument("--data", required=True, help="directory of <series_name>.csv files")

    p = sub.add_parser("repro", help="run the full figure/table suite into one directory")
    common(p)
    p.add_argument("--n", type=int, default=2000, help="Monte Carlo draws")
    p.add_argument("--seed", type=_seed, default=42)
    jobs(p)

    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "montecarlo": _cmd_montecarlo,
    "credit": _cmd_credit,
    "intermediation": _cmd_intermediation,
    "decompose": _cmd_decompose,
    "regress": _cmd_regress,
    "indicators": _cmd_indicators,
    "repro": _cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        run = _Run(args, argv)
        stdout = _HANDLERS[args.command](args, run)
        run.finish()
        print(stdout, end="")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, RuntimeError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
