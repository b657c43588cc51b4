"""Calibration vector, scenario definitions, validation, and config loading.

Every other module consumes numeric constants only through the
:class:`Calibration` dataclass, so a single config file (or a single
``dataclasses.replace``) controls the whole engine.

Every input file is read here, one reader per format: config and rule
files by :func:`read_blocks` (``key = value`` lines, ``#`` comments,
``[<section>.<name>]`` blocks), data CSVs by :func:`read_csv_rows`
(optional header) or :func:`read_csv_records` (named columns). Errors
name the file and line, and the column of a CSV cell. Every data table is
written by :func:`table_text`, its floats in the :data:`NUMBER` format.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


class ConfigError(ValueError):
    """Raised on unparseable or invalid configuration input."""


@dataclass(frozen=True)
class PolicySpec:
    """Fiscal transfer policy: magnitude ``tau`` activated ``lag`` years after ``start_time``."""

    tau: float = 0.0
    lag: float = 0.0
    start_time: float = 0.0


@dataclass(frozen=True)
class Calibration:
    """Full parameter vector for the stress-test engine.

    Defaults are the published 2025 calibration: labor share and MPCs from
    BLS/consumption studies, adoption and reinstatement parameters from the
    technology-diffusion literature, and M2 velocity from FRED. Parameters
    the calibration leaves numerically open (``t0_diffusion``, ``A0``, the
    intermediation block, ``sigma_r``) carry engine defaults documented in
    the README; all are plain config keys.

    Each field's accepted interval is given by its rows of :data:`BOUNDS`.
    """

    # Labor market
    s_L0: float = 0.56          # initial labor share of income
    mpc_labor: float = 0.85     # marginal propensity to consume, labor income
    # Consumption concentration
    # top-quintile consumption share; no engine path reads it, but the Monte
    # Carlo draws it, and dropping that draw would shift every later variate
    chi_top: float = 0.59
    # AI capability / adoption
    g_A: float = 0.05           # capability growth rate, per year
    d_bar: float = 0.80         # adoption ceiling
    kappa: float = 2.0          # adoption speed
    t0_diffusion: float = 2.8   # adoption inflection year; frozen against the scenario bands
    A0: float = 1.0             # capability index normalized at t = 0
    # Reinstatement
    rho0: float = 0.002         # baseline new-task creation rate, per year
    eta: float = 0.003          # complementarity coefficient
    alpha_rho: float = 0.50     # diminishing-returns exponent
    # Demand feedback
    beta_feedback: float = 0.30  # margin-pressure feedback coefficient
    f_slope: float = 0.15        # direct substitution sensitivity
    # Monetary
    V_obs: float = 1.41          # observed M2 velocity anchor (2025)
    # Intermediation
    m0: float = 0.02             # infrastructure margin floor, fraction of transaction value
    gamma_m: float = 0.5         # friction-margin sensitivity
    phi0: float = 1.0            # pre-AI friction index
    gamma_phi: float = 0.5       # friction reduction rate per capability unit
    phi_min: float = 0.1         # regulatory/institutional friction floor
    # Credit
    sigma_r: float = 0.20        # borrower income volatility


@dataclass(frozen=True)
class Scenario:
    """A named run: growth-rate override, policy, horizon, and step size."""

    name: str
    g_A_override: float | None = None
    horizon: float = 10.0
    dt: float = 0.01
    policy: PolicySpec = field(default_factory=PolicySpec)


def default_calibration() -> Calibration:
    """The shipped calibration vector (see Calibration field comments)."""
    return Calibration()


def default_scenarios() -> list[Scenario]:
    """The three shipped adoption scenarios: baseline, rapid, extreme."""
    return [
        Scenario(name="baseline", g_A_override=0.05),
        Scenario(name="rapid", g_A_override=0.20),
        Scenario(name="extreme", g_A_override=0.40),
    ]


def with_updates(c: Calibration, **overrides: float) -> Calibration:
    """``c`` with the fields in ``overrides`` replaced."""
    return dataclasses.replace(c, **overrides)


@dataclass(frozen=True)
class Bound:
    """One row of :data:`BOUNDS`: field ``field``, or ``of(c)`` for a check across fields,
    must lie in ``lo`` to ``hi``. A field's own rows leave an infinite end open, so they
    reject NaN and +-inf."""

    field: str
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    message: str
    of: Callable[[Any], Any] | None = None

    def admits(self, x: Any) -> Any:
        """Whether ``x`` is in the interval: a bool for a float, elementwise for an array."""
        above = self.lo <= x if self.lo_closed else self.lo < x
        below = x <= self.hi if self.hi_closed else x < self.hi
        return above & below

    def holds(self, c: Any) -> Any:
        """:meth:`admits` on a Calibration, or on a namespace of columns."""
        return self.admits(getattr(c, self.field) if self.of is None else self.of(c))


def _row(field: str, interval: str, message: str, of: Callable[[Any], Any] | None = None) -> Bound:
    """A :class:`Bound` from interval notation, e.g. ``"(0, 1]"`` or ``"[0, inf)"``."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return Bound(field, lo, hi, interval[0] == "[", interval[-1] == "]", message, of)


# Every bound on a calibration, in the order validate() reports them. A
# field's rows without ``of`` are the sampler's rejection test for it.
BOUNDS: tuple[Bound, ...] = (
    _row("s_L0", "(0, 1)", "s_L0 must be in (0, 1)"),
    _row("mpc_labor", "(0.5, inf)", "mpc_labor must exceed 0.5"),
    _row("mpc_labor", "(-inf, 1)", "mpc_labor must be below 1"),
    _row("chi_top", "[0, 1]", "chi_top must be in [0, 1]"),
    _row("d_bar", "(0, 1]", "d_bar must be in (0, 1]"),
    _row("g_A", "[0, inf)", "g_A must be >= 0"),
    _row("kappa", "(0, inf)", "kappa must be positive"),
    _row("t0_diffusion", "(-inf, inf)", "t0_diffusion must be finite"),
    _row("rho0", "[0, inf)", "rho0 must be >= 0"),
    _row("eta", "[0, inf)", "eta must be >= 0"),
    _row("alpha_rho", "(0, 1)", "alpha_rho must be in (0, 1)"),
    _row("beta_feedback", "(0, inf)", "beta_feedback must be positive"),
    _row("f_slope", "(0, inf)", "f_slope must be positive"),
    _row("A0", "(0, inf)", "A0 must be positive"),
    _row("V_obs", "(0, inf)", "V_obs must be positive"),
    _row("phi0", "(-inf, inf)", "phi0 must be finite"),
    # phi_min <= phi0: the difference of two finite floats is <= 0 exactly when
    # it holds, and is -inf only where it overflows, so that end is closed
    _row("phi_min", "[-inf, 0]", "phi_min must not exceed phi0", lambda c: c.phi_min - c.phi0),
    _row("phi_min", "[0, inf)", "phi_min must be >= 0"),
    _row("m0", "[0, inf)", "m0 must be >= 0"),
    _row("gamma_m", "[0, inf)", "gamma_m must be >= 0"),
    _row("gamma_phi", "[0, inf)", "gamma_phi must be >= 0"),
    _row("sigma_r", "(0, inf)", "sigma_r must be positive"),
)


def validate(c: Calibration) -> list[str]:
    """The messages of the :data:`BOUNDS` rows ``c`` fails; empty means the calibration is usable."""
    return [row.message for row in BOUNDS if not row.holds(c)]


def valid(c: Any) -> Any:
    """Whether ``c`` passes every row: a bool for a Calibration, and a mask over the
    draws for a calibration stored by column (``validate(c) == []`` per draw)."""
    ok = True
    for row in BOUNDS:
        ok = ok & row.holds(c)
    return ok


def field_admits(name: str, x: float) -> bool:
    """The sampler's rejection test: whether every row bounding field ``name`` alone admits ``x``."""
    return all(row.admits(x) for row in BOUNDS if row.field == name and row.of is None)


MAX_STEPS = 1_000_000  # step-count cap: an integration never runs longer than this
_GRID_RTOL = 1e-9       # dt must divide the horizon within this relative tolerance


def validate_scenario(s: Scenario) -> list[str]:
    v: list[str] = []
    for name, value in (
        ("horizon", s.horizon),
        ("dt", s.dt),
        ("tau", s.policy.tau),
        ("lag", s.policy.lag),
        ("start_time", s.policy.start_time),
        ("g_A_override", 0.0 if s.g_A_override is None else s.g_A_override),
    ):
        if not math.isfinite(value):
            v.append(f"scenario {s.name}: {name} must be finite")
    if s.horizon <= 0.0:
        v.append(f"scenario {s.name}: horizon must be positive")
    if s.dt <= 0.0:
        v.append(f"scenario {s.name}: dt must be positive")
    if s.dt > s.horizon:
        v.append(f"scenario {s.name}: dt must not exceed horizon")
    if s.dt > 0.05:
        v.append(f"scenario {s.name}: dt must not exceed 0.05 (integration stability guard)")
    if not v:  # the step grid, once horizon and dt are usable
        steps = s.horizon / s.dt
        if steps > MAX_STEPS:
            v.append(
                f"scenario {s.name}: horizon / dt needs {steps:.6g} steps; "
                f"the cap is {MAX_STEPS}"
            )
        elif abs(round(steps) * s.dt - s.horizon) > _GRID_RTOL * s.horizon:
            v.append(
                f"scenario {s.name}: dt = {s.dt!r} does not divide horizon = {s.horizon!r}; "
                f"the last step would end at t = {round(steps) * s.dt:.9g}"
            )
    if s.g_A_override is not None and s.g_A_override < 0.0:
        v.append(f"scenario {s.name}: g_A_override must be >= 0")
    if s.policy.tau < 0.0:
        v.append(f"scenario {s.name}: tau must be >= 0")
    if s.policy.lag < 0.0:
        v.append(f"scenario {s.name}: lag must be >= 0")
    if s.policy.start_time < 0.0:
        v.append(f"scenario {s.name}: start_time must be >= 0")
    return v


_CALIBRATION_KEYS = {f.name for f in dataclasses.fields(Calibration)}
_POLICY_KEYS = {f.name for f in dataclasses.fields(PolicySpec)}
_SCENARIO_KEYS = {"g_A_override", "horizon", "dt", *_POLICY_KEYS}

Block = dict[str, tuple[str, int]]  # key -> (raw value, line number)


def finite(raw: str) -> float:
    """``float(raw)`` if it is finite; a ``ValueError`` saying which test failed otherwise."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError("not a number") from None
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _read_text(path: str | Path) -> str:
    """The text of an input file; bytes that are not UTF-8 raise :class:`ConfigError` naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


def read_blocks(
    path: str | Path, section: str, head_keys: Collection[str], block_keys: Collection[str]
) -> tuple[Block, list[tuple[str, int, Block]]]:
    """The keys before the first ``[<section>.<name>]`` header, and each block as
    (name, header line, keys), in file order. A malformed line, an unknown key
    and a repeated key or block raise :class:`ConfigError` naming the file and line."""
    head: Block = {}
    blocks: list[tuple[str, int, Block]] = []
    opened: dict[str, int] = {}
    current, keys, where = head, head_keys, f"outside a [{section}.<name>] block"
    for lineno, raw_line in enumerate(_read_text(path).splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        at = f"{path}: line {lineno}"
        if line.startswith("["):
            if not (line.startswith(f"[{section}.") and line.endswith("]")):
                raise ConfigError(f"{at}: malformed section header: {raw_line.strip()!r}")
            name = line[len(section) + 2:-1].strip()
            if not name:
                raise ConfigError(f"{at}: {section} section needs a name")
            if name in opened:
                raise ConfigError(
                    f"{at}: repeated section [{section}.{name}], first at line {opened[name]}"
                )
            opened[name] = lineno
            current, keys, where = {}, block_keys, f"in [{section}.{name}]"
            blocks.append((name, lineno, current))
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        if not equals:
            raise ConfigError(f"{at}: expected 'key = value': {raw_line.strip()!r}")
        if key not in keys:
            raise ConfigError(f"{at}: unknown key '{key}' {where}")
        if key in current:
            first = current[key][1]
            raise ConfigError(f"{at}: repeated key '{key}' {where}, first at line {first}")
        current[key] = (value, lineno)
    return head, blocks


def block_value(
    path: str | Path, block: Block, key: str, parse: Callable[[str], Any], what: str
) -> Any:
    """``parse`` of ``key``'s value; a ``ValueError`` becomes a :class:`ConfigError`
    naming the file, line and key, saying the value must be ``what``."""
    raw, lineno = block[key]
    try:
        return parse(raw)
    except ValueError:
        message = f"value for '{key}' must be {what}: {raw!r}"
        raise ConfigError(f"{path}: line {lineno}: {message}") from None


def csv_number(path: str | Path, line: int, column: str, raw: str | None) -> float:
    """One finite number from a data CSV cell; errors name the file, line and column."""
    where = f"{path}: line {line}, column '{column}'"
    if raw is None:
        raise ConfigError(f"{where}: the row is too short")
    try:
        return finite(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}: {raw!r}") from None


@contextmanager
def _csv_errors(path: str | Path, reader: Any) -> Iterator[None]:
    """A ``csv.Error`` from ``reader``, such as a field over the csv module's size
    limit, becomes a :class:`ConfigError` naming the file and line."""
    try:
        yield
    except csv.Error as exc:
        raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None


def read_csv_rows(
    path: str | Path, columns: Sequence[str], text_columns: int = 0
) -> list[tuple[list[str], list[float]]]:
    """The data rows of a CSV with an optional header, as (text cells, number cells).

    The first ``text_columns`` of ``columns`` are read as stripped text and
    the rest as finite numbers; cells past ``columns`` are ignored. Blank
    rows are skipped. Only the first non-blank row may be a header: it is
    one when a number cell of it does not parse. Every other row that is
    short, or whose number cell does not parse or is not finite, raises
    :class:`ConfigError` naming the file, line and column.
    """
    rows: list[tuple[list[str], list[float]]] = []
    first = True
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    with _csv_errors(path, reader):
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            cells = row[: len(columns)] + [None] * (len(columns) - len(row))
            if first:
                first = False
                try:
                    for raw in cells[text_columns:]:
                        if raw is not None:
                            float(raw)
                except ValueError:
                    continue  # the header
            texts = [(raw or "").strip() for raw in cells[:text_columns]]
            numbers = [
                csv_number(path, reader.line_num, column, raw)
                for column, raw in zip(columns[text_columns:], cells[text_columns:])
            ]
            rows.append((texts, numbers))
    return rows


def read_csv_records(
    path: str | Path, columns: Sequence[str], numbers: Collection[str]
) -> Iterator[tuple[int, dict[str, Any]]]:
    """The rows of a CSV whose header names ``columns``, as (line, column -> cell).

    A cell of a column in ``numbers`` is a finite number, any other its text;
    other columns and empty rows are ignored. A missing column, a short row
    and a bad number raise :class:`ConfigError` naming the file, line and column.
    """
    records = csv.DictReader(io.StringIO(_read_text(path), newline=""))
    with _csv_errors(path, records.reader):  # DictReader.line_num lags a failed row
        if records.fieldnames is None:
            raise ConfigError(f"{path}: empty CSV")
        missing = [column for column in columns if column not in records.fieldnames]
        if missing:
            raise ConfigError(f"{path}: missing columns {missing}")
        for row in records:
            cells: dict[str, Any] = {}
            for column in columns:
                raw = row[column]
                text = raw is not None and column not in numbers  # csv_number rejects a missing cell
                cells[column] = raw if text else csv_number(path, records.line_num, column, raw)
            yield records.line_num, cells


NUMBER = "%.9g"  # the format of every float in a data file


def table_text(header: str, rows: Iterable[Iterable[object]]) -> str:
    """A data table: ``header``, one comma-joined line per row, and a final newline. A
    float cell (numpy's float64 too) is written with :data:`NUMBER`, ``None`` as an empty
    cell and any other cell with ``str``, so an int stays whole at any size."""

    def cell(v: object) -> str:
        return NUMBER % v if isinstance(v, float) else "" if v is None else str(v)

    return "\n".join([header, *(",".join(map(cell, row)) for row in rows)]) + "\n"


def load_config(path: str | Path) -> tuple[Calibration, list[Scenario]]:
    """Parse a config file into a calibration plus scenarios, in file order.

    Keys absent from the file inherit defaults. Raises :class:`ConfigError`
    naming the file, and the line on parse problems or the violated
    invariant on validation problems.
    """
    head, blocks = read_blocks(path, "scenario", _CALIBRATION_KEYS, _SCENARIO_KEYS)
    for name, lineno, _ in blocks:
        if "/" in name:  # the name becomes part of output file names
            raise ConfigError(f"{path}: line {lineno}: scenario name {name!r} must not contain '/'")

    def numbers(block: Block) -> dict[str, float]:
        return {key: block_value(path, block, key, finite, "finite") for key in block}

    overrides = numbers(head)
    scenario_values = [(name, lineno, numbers(block)) for name, lineno, block in blocks]
    calib = with_updates(default_calibration(), **overrides)
    violations = validate(calib)
    if violations:
        raise ConfigError(f"{path}: " + "; ".join(violations))

    scenarios: list[Scenario] = []
    for name, _, values in scenario_values:
        policy = PolicySpec(**{k: v for k, v in values.items() if k in _POLICY_KEYS})
        scenario = Scenario(
            name, policy=policy, **{k: v for k, v in values.items() if k not in _POLICY_KEYS}
        )
        s_violations = validate_scenario(scenario)
        if s_violations:
            raise ConfigError(f"{path}: " + "; ".join(s_violations))
        scenarios.append(scenario)
    return calib, scenarios


def serialize_config(c: Calibration, scenarios: list[Scenario] | None = None) -> str:
    """Render a calibration (and scenarios) back to config-file text.

    Floats are written with ``repr`` so a load/serialize/load cycle is
    field-wise exact.
    """
    lines = []
    for f in dataclasses.fields(Calibration):
        lines.append(f"{f.name} = {getattr(c, f.name)!r}")
    for s in scenarios or []:
        lines.append("")
        lines.append(f"[scenario.{s.name}]")
        if s.g_A_override is not None:
            lines.append(f"g_A_override = {s.g_A_override!r}")
        lines.append(f"horizon = {s.horizon!r}")
        lines.append(f"dt = {s.dt!r}")
        lines.append(f"tau = {s.policy.tau!r}")
        lines.append(f"lag = {s.policy.lag!r}")
        lines.append(f"start_time = {s.policy.start_time!r}")
    return "\n".join(lines) + "\n"
