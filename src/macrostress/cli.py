"""Command-line front end: every engine experiment as a reproducible command.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 I/O failure. Every run writes its data files plus a ``run_manifest.json``
recording the command line, config hash, seed, output list, engine version
and wall time. Given the same config and seed, the data outputs are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from collections.abc import Sequence
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, intermediation, monetary, svg
from .credit import BorrowerState, dscr_sensitivity
from .dynamics import IntegrationError, Trajectory, simulate_path
from .indicators import dashboard, default_rules, load_rules, load_series_csv
from .params import (
    Calibration,
    ConfigError,
    Scenario,
    csv_number,
    default_calibration,
    default_scenarios,
    load_config,
    serialize_config,
)
from .policy import PolicyGrid, policy_sweep
from .stochastics import default_ranges, monte_carlo, ols_hc1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _config_hash(calib: Calibration, scenarios: list[Scenario]) -> str:
    return hashlib.sha256(serialize_config(calib, scenarios).encode("utf-8")).hexdigest()


class _Phases:
    """Wall time of consecutive run phases: each :meth:`end` closes the phase
    that began at the previous one (or at construction)."""

    def __init__(self) -> None:
        self.records: list[dict[str, object]] = []
        self._mark = time.perf_counter()

    def end(self, name: str) -> None:
        now = time.perf_counter()
        self.records.append({"name": name, "seconds": round(now - self._mark, 6)})
        self._mark = now


def _write_manifest(
    out_dir: Path,
    argv: list[str],
    calib: Calibration,
    scenarios: list[Scenario],
    seed: int | None,
    outputs: list[Path],
    started: float,
    trajectories: Sequence[Trajectory] = (),
    phases: _Phases | None = None,
) -> Path:
    config_hash = _config_hash(calib, scenarios)
    if phases is not None:
        phases.end("manifest")
    manifest = {
        "command": "macrostress " + " ".join(argv),
        "config_hash": config_hash,
        "seed": seed,
        "outputs": [str(p.name) for p in outputs],
        "engine_version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    if trajectories:
        # first grid time with the labor share at or below dynamics.S_FLOOR, or null
        manifest["collapse_time"] = {t.scenario: t.collapse_time for t in trajectories}
    if phases is not None:
        manifest["phases"] = phases.records
    path = out_dir / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def _load(config: str | None) -> tuple[Calibration, list[Scenario]]:
    if config is None:
        return default_calibration(), []
    return load_config(config)


def _scenario_by_name(name: str, from_config: list[Scenario]) -> Scenario:
    table = {s.name: s for s in default_scenarios()}
    table.update({s.name: s for s in from_config})
    if name not in table:
        available = ", ".join(sorted(table))
        raise ConfigError(f"unknown scenario '{name}'; available: {available}")
    return table[name]


def _out_dir(arg: str | None) -> Path:
    out = Path(arg) if arg else Path("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _trajectory_svg(path: Path, traj: Trajectory) -> None:
    svg.write_line_chart(
        path,
        f"Scenario '{traj.scenario}'",
        "years",
        "level",
        [
            ("labor share", traj.t, traj.s_L),
            ("velocity", traj.t, traj.velocity),
            ("consumption ratio", traj.t, traj.consumption_ratio),
        ],
    )


def _cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    calib, scenarios = _load(args.config)
    scenario = _scenario_by_name(args.scenario, scenarios)
    if args.dt is not None:
        scenario = dataclasses.replace(scenario, dt=args.dt)
    out = _out_dir(args.out)
    traj = simulate_path(scenario, calib)
    outputs = [out / f"trajectory_{scenario.name}.csv"]
    outputs[0].write_text(traj.to_csv(), encoding="utf-8")
    if args.svg:
        svg_path = out / f"trajectory_{scenario.name}.svg"
        _trajectory_svg(svg_path, traj)
        outputs.append(svg_path)
    _write_manifest(out, argv, calib, scenarios, None, outputs, started, [traj])
    print(f"wrote {outputs[0]}")
    return EXIT_OK


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers: {text!r}") from None


def _cmd_sweep(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    calib, scenarios = _load(args.config)
    base = _scenario_by_name(args.scenario, scenarios)
    grid = PolicyGrid(lags=_parse_float_list(args.lags), taus=_parse_float_list(args.taus), base=base)
    cells = policy_sweep(grid, calib)
    out = _out_dir(args.out)
    rows = ["lag,tau,depth,s_L_final,consumption_decline_pct"]
    for cell in cells:
        rows.append(
            f"{cell.lag:.9g},{cell.tau:.9g},{cell.depth:.9g},"
            f"{cell.s_L_final:.9g},{cell.consumption_decline_pct:.9g}"
        )
    outputs = [out / "sweep.csv"]
    outputs[0].write_text("\n".join(rows) + "\n", encoding="utf-8")
    if args.svg:
        series = []
        for tau in grid.taus:
            pts = [(c.lag, c.depth) for c in cells if c.tau == tau]
            series.append(
                (f"tau = {tau:g}", [p[0] for p in pts], [p[1] for p in pts])
            )
        svg_path = out / "sweep.svg"
        svg.write_line_chart(
            svg_path, f"Crisis depth vs policy lag ('{base.name}')",
            "policy lag, years", "crisis depth", series,
        )
        outputs.append(svg_path)
    _write_manifest(out, argv, calib, scenarios, None, outputs, started)
    print(f"wrote {outputs[0]}")
    return EXIT_OK


def _cmd_montecarlo(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    calib, scenarios = _load(args.config)
    summary = monte_carlo(
        n=args.n,
        ranges=default_ranges(),
        base=calib,
        seed=args.seed,
        shortfall_threshold=args.threshold,
    )
    out = _out_dir(args.out)
    outputs = [out / "mc_summary.txt", out / "mc_histogram.csv"]
    outputs[0].write_text(summary.to_text(), encoding="utf-8")
    outputs[1].write_text(summary.histogram_csv(), encoding="utf-8")
    _write_manifest(out, argv, calib, scenarios, args.seed, outputs, started)
    print(summary.to_text(), end="")
    return EXIT_OK


def _cmd_credit(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    calib, scenarios = _load(args.config)
    borrower = BorrowerState(dscr=args.dscr, sigma_r=args.sigma)
    table = dscr_sensitivity(borrower, list(_parse_float_list(args.deltas)))
    out = _out_dir(args.out)
    rows = ["delta,dscr_post,pd"]
    for delta, dscr_post, pd in table:
        rows.append(f"{delta:.9g},{dscr_post:.9g},{pd:.9g}")
    outputs = [out / "credit_sensitivity.csv"]
    outputs[0].write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_manifest(out, argv, calib, scenarios, None, outputs, started)
    print("\n".join(rows))
    return EXIT_OK


def _cmd_intermediation(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    calib, scenarios = _load(args.config)
    sectors = (
        intermediation.load_sectors_csv(args.sectors)
        if args.sectors
        else intermediation.default_sectors()
    )
    report = intermediation.sector_report(sectors)
    out = _out_dir(args.out)
    outputs = [out / "sector_report.csv"]
    outputs[0].write_text(intermediation.report_to_csv(report), encoding="utf-8")
    _write_manifest(out, argv, calib, scenarios, None, outputs, started)
    print(f"wrote {outputs[0]}")
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    calib, scenarios = _load(args.config)
    profile = (
        monetary.load_quintiles_csv(args.quintiles)
        if args.quintiles
        else monetary.default_quintiles()
    )
    total, per_quintile = monetary.consumption_shock(profile, args.shock)
    out = _out_dir(args.out)
    rows = ["quintile,consumption_share,mpc,exposure,contribution_pp"]
    for i in range(5):
        rows.append(
            f"{i + 1},{profile.consumption_shares[i]:.9g},{profile.mpcs[i]:.9g},"
            f"{profile.exposures[i]:.9g},{per_quintile[i]:.9g}"
        )
    rows.append(f"total,,,,{total:.9g}")
    outputs = [out / "decomposition.csv"]
    outputs[0].write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_manifest(out, argv, calib, scenarios, None, outputs, started)
    print(f"total consumption decline: {total:.4g} pp")
    return EXIT_OK


def _parse_formula(formula: str) -> tuple[str, list[str]]:
    if "~" not in formula:
        raise ConfigError(f"formula must look like 'y ~ x1 + x2': {formula!r}")
    lhs, _, rhs = formula.partition("~")
    response = lhs.strip()
    terms = [t.strip() for t in rhs.split("+") if t.strip()]
    if not response or not terms:
        raise ConfigError(f"formula must name a response and at least one regressor: {formula!r}")
    return response, terms


def _cmd_regress(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    calib, scenarios = _load(args.config)
    response, terms = _parse_formula(args.formula)
    import csv as _csv

    with open(args.data, newline="", encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigError(f"{args.data}: empty CSV")
        missing = [c for c in [response, *terms] if c not in reader.fieldnames]
        if missing:
            raise ConfigError(f"{args.data}: missing columns {missing}")
        y_vals: list[float] = []
        x_rows: list[list[float]] = []
        for row in reader:
            line = reader.line_num
            y_vals.append(csv_number(args.data, line, response, row[response]))
            x_rows.append([1.0] + [csv_number(args.data, line, t, row[t]) for t in terms])
    result = ols_hc1(np.array(x_rows), np.array(y_vals))
    out = _out_dir(args.out)
    rows = ["term,coefficient,hc1_se"]
    for name, coef, se in zip(["intercept", *terms], result.coefficients, result.hc1_se):
        rows.append(f"{name},{coef:.9g},{se:.9g}")
    outputs = [out / "regression.csv"]
    outputs[0].write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_manifest(out, argv, calib, scenarios, None, outputs, started)
    print("\n".join(rows))
    print(f"r_squared = {result.r_squared:.6g}")
    print(f"n = {result.n}")
    return EXIT_OK


def _cmd_indicators(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    calib, scenarios = _load(args.config)
    rules = load_rules(args.rules) if args.rules else default_rules()
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise ConfigError(f"--data must name a directory of <series>.csv files: {data_dir}")
    data = {p.stem: load_series_csv(p) for p in sorted(data_dir.glob("*.csv"))}
    report = dashboard(rules, data)
    out = _out_dir(args.out)
    outputs = [out / "indicators_report.csv"]
    outputs[0].write_text(report.to_csv(), encoding="utf-8")
    _write_manifest(out, argv, calib, scenarios, None, outputs, started)
    print(report.to_text(), end="")
    return EXIT_OK


def _cmd_repro(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    calib, scenarios = _load(args.config)
    if args.out:
        out = Path(args.out)
    else:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        out = Path(f"repro_{stamp}")
    out.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    phases = _Phases()

    # Scenario trajectories plus the combined labor-share chart.
    trajectories = []
    for scenario in default_scenarios():
        traj = simulate_path(scenario, calib)
        path = out / f"trajectory_{scenario.name}.csv"
        path.write_text(traj.to_csv(), encoding="utf-8")
        outputs.append(path)
        svg_path = out / f"trajectory_{scenario.name}.svg"
        _trajectory_svg(svg_path, traj)
        outputs.append(svg_path)
        trajectories.append(traj)
    fig = out / "scenarios_labor_share.svg"
    svg.write_line_chart(fig, "Labor share under three adoption rates", "years", "labor share",
                         [(traj.scenario, traj.t, traj.s_L) for traj in trajectories])
    outputs.append(fig)
    phases.end("trajectories")

    # Policy sweep on the rapid scenario.
    base = _scenario_by_name("rapid", scenarios)
    grid = PolicyGrid(
        lags=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0), taus=(0.03, 0.05, 0.10), base=base
    )
    cells = policy_sweep(grid, calib)
    rows = ["lag,tau,depth,s_L_final,consumption_decline_pct"]
    for cell in cells:
        rows.append(
            f"{cell.lag:.9g},{cell.tau:.9g},{cell.depth:.9g},"
            f"{cell.s_L_final:.9g},{cell.consumption_decline_pct:.9g}"
        )
    path = out / "sweep.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    outputs.append(path)
    series = []
    for tau in grid.taus:
        pts = [(c.lag, c.depth) for c in cells if c.tau == tau]
        series.append((f"tau = {tau:g}", [p[0] for p in pts], [p[1] for p in pts]))
    fig = out / "sweep.svg"
    svg.write_line_chart(fig, "Crisis depth vs policy lag (rapid)", "policy lag, years",
                         "crisis depth", series)
    outputs.append(fig)
    phases.end("sweep")

    # Borrower sensitivity table.
    table = dscr_sensitivity(BorrowerState(dscr=1.5, sigma_r=calib.sigma_r), [0.0, 0.20, 0.30])
    rows = ["delta,dscr_post,pd"]
    for delta, dscr_post, pd in table:
        rows.append(f"{delta:.9g},{dscr_post:.9g},{pd:.9g}")
    path = out / "credit_sensitivity.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    outputs.append(path)

    # Consumption-shock decomposition.
    profile = monetary.default_quintiles()
    total, per_quintile = monetary.consumption_shock(profile, 0.10)
    rows = ["quintile,consumption_share,mpc,exposure,contribution_pp"]
    for i in range(5):
        rows.append(
            f"{i + 1},{profile.consumption_shares[i]:.9g},{profile.mpcs[i]:.9g},"
            f"{profile.exposures[i]:.9g},{per_quintile[i]:.9g}"
        )
    rows.append(f"total,,,,{total:.9g}")
    path = out / "decomposition.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    outputs.append(path)

    # Sector exposure report.
    path = out / "sector_report.csv"
    path.write_text(
        intermediation.report_to_csv(intermediation.sector_report(intermediation.default_sectors())),
        encoding="utf-8",
    )
    outputs.append(path)
    phases.end("tables")

    # Monte Carlo summary.
    summary = monte_carlo(
        n=args.n, ranges=default_ranges(), base=calib, seed=args.seed,
        shortfall_threshold=0.30,
    )
    path = out / "mc_summary.txt"
    path.write_text(summary.to_text(), encoding="utf-8")
    outputs.append(path)
    path = out / "mc_histogram.csv"
    path.write_text(summary.histogram_csv(), encoding="utf-8")
    outputs.append(path)
    phases.end("monte_carlo")

    _write_manifest(out, argv, calib, scenarios, args.seed, outputs, started, trajectories, phases)
    print(f"repro suite written to {out}")
    return EXIT_OK


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

    p = sub.add_parser("simulate", help="integrate one scenario and export the trajectory")
    common(p)
    p.add_argument("--scenario", default="baseline", help="scenario name (default: baseline)")
    p.add_argument("--dt", type=float, help="override the integration step, years")
    p.add_argument("--svg", action="store_true", help="also write a line chart")

    p = sub.add_parser("sweep", help="crisis depth over a (lag, tau) policy grid")
    common(p)
    p.add_argument("--scenario", default="rapid", help="base scenario (default: rapid)")
    p.add_argument("--lags", default="0,0.5,1,1.5,2,2.5,3", help="comma-separated lags, years")
    p.add_argument("--taus", default="0.03,0.05,0.10", help="comma-separated transfer magnitudes")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--jobs", type=int,
                   help="accepted and ignored: the sweep runs in one process, and its "
                        "results never depend on --jobs")

    p = sub.add_parser("montecarlo", help="sampled-calibration shortfall distribution")
    common(p)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--threshold", type=float, default=0.30, help="tail shortfall threshold")
    p.add_argument("--jobs", type=int,
                   help="accepted and ignored: Monte Carlo runs in one process, and its "
                        "results never depend on --jobs")

    p = sub.add_parser("credit", help="borrower default-probability sensitivity table")
    common(p)
    p.add_argument("--dscr", type=float, default=1.5)
    p.add_argument("--sigma", type=float, default=0.20)
    p.add_argument("--deltas", default="0,0.20,0.30", help="ascending income shocks")

    p = sub.add_parser("intermediation", help="sector margin-exposure report")
    common(p)
    p.add_argument("--sectors", help="CSV of sector profiles (default: shipped table)")

    p = sub.add_parser("decompose", help="quintile decomposition of a consumption shock")
    common(p)
    p.add_argument("--shock", type=float, default=0.10)
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
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--jobs", type=int,
                   help="accepted and ignored: no step starts a worker process, and the "
                        "results never depend on --jobs")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, argv)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, RuntimeError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
