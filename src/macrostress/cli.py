"""Command-line front end: every engine experiment as a reproducible command.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 I/O failure. Every run writes its data files plus a ``run_manifest.json``
recording the command line, config hash, seed, output list, engine version,
wall time, phases and environment, for a scenario run its collapse time and
stability regime, and for a sweep or a Monte Carlo its work counters; a run
that fails before writing leaves no files. ``repro`` is the subcommands at
their own defaults, staged into one directory.
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
from collections import Counter
from collections.abc import Callable
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, intermediation, monetary, svg
from .credit import BorrowerState, dscr_sensitivity
from .dynamics import (
    IntegrationError,
    _effective_calibration,
    classify_regime,
    feedback_rate,
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
    table_text,
)
from .policy import PolicyGrid, policy_sweep
from .stochastics import default_ranges, monte_carlo, ols_hc1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class _Run:
    """One command's run: its config, staged output files, phases and manifest.

    Outputs are staged in memory and written by :meth:`finish`, after every
    result of the command is computed, so a run that fails on its inputs or
    on a numerical error leaves no files behind.
    """

    def __init__(
        self, args: argparse.Namespace, argv: list[str], parser: argparse.ArgumentParser
    ) -> None:
        self.started = self._mark = time.perf_counter()
        self.argv = argv
        self.parser = parser
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
        # file name -> its text, or the (title, x label, y label, series) of a line chart
        self.files: dict[str, str | tuple] = {}
        self.phases: list[dict[str, object]] = []
        # the blocks each experiment adds to run_manifest.json
        self.manifest: dict[str, object] = {}

    def stage(self, name: str, text: str) -> str:
        """Stage ``text`` as file ``name``, and return it."""
        self.files[name] = text
        return text

    def chart(self, name: str, *chart: object) -> None:
        """Stage :func:`svg.write_line_chart`'s arguments after its path."""
        self.files[name] = chart

    def command(self, *argv: str) -> str:
        """Run the subcommand ``argv`` names, at its parser's defaults for every option
        ``argv`` leaves out, into this run; return its stdout."""
        args = self.parser.parse_args(argv)
        return args.handler(args, self)

    def phase(self, name: str) -> None:
        """Close the phase that began at the previous call (or at the start of the run)."""
        now = time.perf_counter()
        self.phases.append({"name": name, "seconds": round(now - self._mark, 6)})
        self._mark = now

    def finish(self, command: str) -> None:
        """Write the staged files in order, then ``run_manifest.json`` next to them.

        A command that names no phases of its own is one phase, ``command``.
        """
        if not self.phases:
            self.phase(command)
        self.out.mkdir(parents=True, exist_ok=True)
        for name, content in self.files.items():
            if isinstance(content, str):
                (self.out / name).write_text(content, encoding="utf-8")
            else:
                svg.write_line_chart(self.out / name, *content)
        self.phase("write")
        config = serialize_config(self.calib, self.scenarios).encode("utf-8")
        config_hash = hashlib.sha256(config).hexdigest()
        self.phase("manifest")
        # from sys and os.uname: importing and querying `platform` takes tens of ms
        uname = os.uname() if hasattr(os, "uname") else None
        platform = f"{uname.sysname} {uname.release} {uname.machine}" if uname else sys.platform
        manifest = {
            "command": "macrostress " + " ".join(self.argv),
            "config_hash": config_hash,
            "seed": self.seed,
            "outputs": list(self.files),
            "engine_version": __version__,
            "wall_time_s": round(time.perf_counter() - self.started, 6),
            **self.manifest,
            "phases": self.phases,
            "environment": {
                "python": f"{sys.implementation.name} {sys.version.split()[0]}",
                "numpy": np.__version__,
                "platform": platform,
            },
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


# --- subcommands: each computes, stages its files and manifest blocks, and returns its stdout

def _cmd_simulate(args: argparse.Namespace, run: _Run) -> str:
    scenario = _scenario_by_name(args.scenario, run.scenarios)
    if args.dt is not None:
        scenario = dataclasses.replace(scenario, dt=args.dt)
    traj = simulate_path(scenario, run.calib)
    # the paper's stability condition at the scenario's effective g_A
    calib = _effective_calibration(scenario, run.calib)
    regime = classify_regime(calib)
    # first grid time with the labor share at or below dynamics.S_FLOOR, or null
    run.manifest.setdefault("collapse_time", {})[scenario.name] = traj.collapse_time
    run.manifest.setdefault("regime", {})[scenario.name] = {
        "kind": regime.kind.value, "threshold": regime.threshold, "g_A": calib.g_A,
        "feedback_rate": feedback_rate(calib),
    }
    run.manifest.setdefault("simulate", {})[scenario.name] = {
        "rows": len(traj.t), "rk4_steps": len(traj.t) - 1,
    }
    name = f"trajectory_{scenario.name}"
    run.stage(f"{name}.csv", traj.to_csv())
    if args.svg:
        run.chart(f"{name}.svg", f"Scenario '{scenario.name}'", "years", "level", [
            ("labor share", traj.t, traj.s_L),
            ("velocity", traj.t, traj.velocity),
            ("consumption ratio", traj.t, traj.consumption_ratio),
        ])
    return f"wrote {run.out / name}.csv\n"


def _cmd_sweep(args: argparse.Namespace, run: _Run) -> str:
    base = _scenario_by_name(args.scenario, run.scenarios)
    grid = PolicyGrid(lags=_parse_float_list(args.lags), taus=_parse_float_list(args.taus),
                      base=base)
    cells = policy_sweep(grid, run.calib)
    run.manifest["sweep"] = grid.counters()
    run.stage("sweep.csv", table_text("lag,tau,depth,s_L_final,consumption_decline_pct",
                                      map(dataclasses.astuple, cells)))
    if args.svg:
        run.chart("sweep.svg", f"Crisis depth vs policy lag ({base.name})", "policy lag, years",
                  "crisis depth", [
                      (f"tau = {tau:g}", [c.lag for c in cells if c.tau == tau],
                       [c.depth for c in cells if c.tau == tau])
                      for tau in grid.taus
                  ])
    return f"wrote {run.out / 'sweep.csv'}\n"


def _cmd_montecarlo(args: argparse.Namespace, run: _Run) -> str:
    summary = monte_carlo(
        n=args.n,
        ranges=default_ranges(),
        base=run.calib,
        seed=args.seed,
        shortfall_threshold=args.threshold,
    )
    run.manifest["monte_carlo"] = summary.counters()
    text = run.stage("mc_summary.txt", summary.to_text())
    run.stage("mc_histogram.csv", summary.histogram_csv())
    return text


def _cmd_credit(args: argparse.Namespace, run: _Run) -> str:
    sigma = run.calib.sigma_r if args.sigma is None else args.sigma
    table = dscr_sensitivity(BorrowerState(dscr=args.dscr, sigma_r=sigma),
                             list(_parse_float_list(args.deltas)))
    run.manifest["credit"] = {"deltas": len(table)}
    return run.stage("credit_sensitivity.csv", table_text("delta,dscr_post,pd", table))


def _cmd_intermediation(args: argparse.Namespace, run: _Run) -> str:
    sectors = (
        intermediation.load_sectors_csv(args.sectors)
        if args.sectors
        else intermediation.default_sectors()
    )
    report = intermediation.sector_report(sectors)
    run.manifest["intermediation"] = {"sectors": len(report)}
    run.stage("sector_report.csv", intermediation.report_to_csv(report))
    return f"wrote {run.out / 'sector_report.csv'}\n"


def _cmd_decompose(args: argparse.Namespace, run: _Run) -> str:
    profile = (
        monetary.load_quintiles_csv(args.quintiles)
        if args.quintiles
        else monetary.default_quintiles()
    )
    total, per_quintile = monetary.consumption_shock(profile, args.shock)
    rows = [*zip(range(1, 6), profile.consumption_shares, profile.mpcs, profile.exposures,
                 per_quintile), ("total", None, None, None, total)]
    run.manifest["decompose"] = {"quintiles": len(per_quintile)}
    run.stage("decomposition.csv",
              table_text("quintile,consumption_share,mpc,exposure,contribution_pp", rows))
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
    run.manifest["regress"] = {"n": result.n, "regressors": 1 + len(terms)}  # with the intercept
    text = run.stage("regression.csv", table_text("term,coefficient,hc1_se", zip(
        ["intercept", *terms], result.coefficients, result.hc1_se
    )))
    return text + f"r_squared = {result.r_squared:.6g}\nn = {result.n}\n"


def _cmd_indicators(args: argparse.Namespace, run: _Run) -> str:
    rules = load_rules(args.rules) if args.rules else default_rules()
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise ConfigError(f"--data must name a directory of <series>.csv files: {data_dir}")
    data = {p.stem: load_series_csv(p) for p in sorted(data_dir.glob("*.csv"))}
    report = dashboard(rules, data)
    signals = dict(Counter(row.signal.kind for row in report.rows))  # in order of first signal
    run.manifest["indicators"] = {"rules": len(rules), "series": len(data), "signals": signals}
    run.stage("indicators_report.csv", report.to_csv())
    return report.to_text()


def _cmd_repro(args: argparse.Namespace, run: _Run) -> str:
    """The figure/table suite: each subcommand at its own defaults, staged into one run."""
    names = [s.name for s in default_scenarios()]
    for name in names:
        run.command("simulate", "--scenario", name, "--svg")
    run.phase("trajectories")
    run.command("sweep", "--svg")
    run.phase("sweep")
    for command in ("credit", "decompose", "intermediation"):
        run.command(command)
    run.phase("tables")
    run.command("montecarlo", f"--n={args.n}", f"--seed={args.seed}")
    run.phase("monte_carlo")
    # one line per scenario: the labor-share series its own chart draws first
    series = [run.files[f"trajectory_{name}.svg"][-1][0] for name in names]
    run.chart("scenarios_labor_share.svg", "Labor share under three adoption rates", "years",
              "labor share", [(name, t, s_L) for name, (_, t, s_L) in zip(names, series)])
    return f"repro suite written to {run.out}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macrostress",
        description="Deterministic macro-financial stress-test engine.",
    )
    parser.add_argument("--version", action="version", version=f"macrostress {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable[[argparse.Namespace, _Run], str],
                help: str) -> argparse.ArgumentParser:
        """Add subcommand ``name``, run by ``handler(args, run)``, with the common options."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="path to a key-value config file")
        p.add_argument("--out", help="output directory (default: ./out)")
        p.set_defaults(handler=handler)
        return p

    def jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, help="accepted and ignored: no step starts a worker "
                       "process, and the results never depend on --jobs")

    p = command("simulate", _cmd_simulate, "integrate one scenario and export the trajectory")
    p.add_argument("--scenario", default="baseline", help="scenario name (default: baseline)")
    p.add_argument("--dt", type=_finite_float, help="override the integration step, years")
    p.add_argument("--svg", action="store_true", help="also write a line chart")

    p = command("sweep", _cmd_sweep, "crisis depth over a (lag, tau) policy grid")
    p.add_argument("--scenario", default="rapid", help="base scenario (default: rapid)")
    p.add_argument("--lags", default="0,0.5,1,1.5,2,2.5,3", help="comma-separated lags, years")
    p.add_argument("--taus", default="0.03,0.05,0.10", help="comma-separated transfer magnitudes")
    p.add_argument("--svg", action="store_true")
    jobs(p)

    p = command("montecarlo", _cmd_montecarlo, "sampled-calibration shortfall distribution")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--threshold", type=_finite_float, default=0.30, help="tail shortfall threshold")
    jobs(p)

    p = command("credit", _cmd_credit, "borrower default-probability sensitivity table")
    p.add_argument("--dscr", type=_finite_float, default=1.5)
    p.add_argument("--sigma", type=_finite_float,
                   help="borrower income volatility (default: the calibration's sigma_r)")
    p.add_argument("--deltas", default="0,0.20,0.30", help="ascending income shocks")

    p = command("intermediation", _cmd_intermediation, "sector margin-exposure report")
    p.add_argument("--sectors", help="CSV of sector profiles (default: shipped table)")

    p = command("decompose", _cmd_decompose, "quintile decomposition of a consumption shock")
    p.add_argument("--shock", type=_finite_float, default=0.10)
    p.add_argument("--quintiles", help="CSV with 5 rows: share,mpc,exposure")

    p = command("regress", _cmd_regress, "OLS with HC1 robust standard errors")
    p.add_argument("--data", required=True, help="CSV with named columns")
    p.add_argument("--formula", required=True, help="e.g. 'y ~ x1 + x2'")

    p = command("indicators", _cmd_indicators, "evaluate early-warning rules over series CSVs")
    p.add_argument("--rules", help="rule file (default: shipped rule set)")
    p.add_argument("--data", required=True, help="directory of <series_name>.csv files")

    p = command("repro", _cmd_repro, "run the full figure/table suite into one directory")
    p.add_argument("--n", type=int, default=2000, help="Monte Carlo draws")
    p.add_argument("--seed", type=_seed, default=42)
    jobs(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = _Run(args, argv, parser)
        stdout = args.handler(args, run)
        run.finish(args.command)
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
