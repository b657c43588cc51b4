"""Early-warning rule engine over user-supplied time series.

Each rule encodes a falsification (or trigger) condition: a transform of a
named series compared against a threshold over a trailing window. The
engine is deliberately three-valued: a window where every observation meets
the condition resolves the rule in its stated direction, a window where
every observation violates it resolves the opposite way, and mixed or
missing data stays indeterminate. This keeps the outcome monotone in the
window length: shortening a window can settle an indeterminate rule but
never flip a settled one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .params import ConfigError, block_value, finite, read_blocks, read_csv_rows, table_text

# A series is a list of (ISO-8601 date, value) pairs sorted by date.
Series = list[tuple[str, float]]

_COMPARATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class IndicatorRule:
    """One testable condition over a named series."""

    id: str
    series_name: str
    comparator: str          # < | <= | > | >=
    threshold: float | None  # None marks an analyst-template rule
    window: int = 4
    transform: str = "level"  # level | yoy_pct_change | gap_vs
    transform_param: str | int | None = None  # periods for yoy, series name for gap_vs
    direction: str = "falsifies"  # falsifies | triggers
    note: str = ""

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"rule {self.id}: window must be >= 1")
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"rule {self.id}: comparator must be one of {sorted(_COMPARATORS)}")
        if self.transform not in ("level", "yoy_pct_change", "gap_vs"):
            raise ValueError(f"rule {self.id}: unknown transform {self.transform!r}")
        if self.direction not in ("falsifies", "triggers"):
            raise ValueError(f"rule {self.id}: direction must be 'falsifies' or 'triggers'")
        if self.transform == "gap_vs" and not self.transform_param:
            raise ValueError(f"rule {self.id}: gap_vs transform needs a reference series name")


TRIGGERED = "Triggered"
FALSIFIED = "Falsified"
INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Signal:
    kind: str  # Triggered | Falsified | Indeterminate
    reason: str = ""  # insufficient data | qualitative rule | mixed data

    def __str__(self) -> str:
        return f"{self.kind}({self.reason})" if self.reason else self.kind


def _transform(series: Series, rule: IndicatorRule, bundle: dict[str, Series] | None) -> Series:
    if rule.transform == "level":
        return series
    if rule.transform == "yoy_pct_change":
        periods = int(rule.transform_param or 4)
        out: Series = []
        for i in range(periods, len(series)):
            prev = series[i - periods][1]
            if prev == 0.0:
                continue
            out.append((series[i][0], 100.0 * (series[i][1] / prev - 1.0)))
        return out
    # gap_vs: pointwise difference against a reference series, matched on date
    ref_name = str(rule.transform_param)
    if bundle is None or ref_name not in bundle:
        raise KeyError(f"rule {rule.id}: unknown reference series {ref_name!r}")
    ref = dict(bundle[ref_name])
    return [(d, v - ref[d]) for d, v in series if d in ref]


def evaluate_rule(
    series: Series, rule: IndicatorRule, bundle: dict[str, Series] | None = None
) -> Signal:
    """Evaluate one rule against a time-sorted series.

    The trailing ``window`` observations of the transformed series decide
    the outcome; see the module docstring for the three-valued semantics.
    """
    if rule.threshold is None:
        return Signal(INDETERMINATE, "qualitative rule")
    transformed = _transform(series, rule, bundle)
    if len(transformed) < rule.window:
        return Signal(INDETERMINATE, "insufficient data")
    tail = transformed[-rule.window:]
    cmp = _COMPARATORS[rule.comparator]
    hits = sum(1 for _, v in tail if cmp(v, rule.threshold))
    satisfied_signal = FALSIFIED if rule.direction == "falsifies" else TRIGGERED
    violated_signal = TRIGGERED if rule.direction == "falsifies" else FALSIFIED
    if hits == rule.window:
        return Signal(satisfied_signal)
    if hits == 0:
        return Signal(violated_signal)
    return Signal(INDETERMINATE, "mixed data")


def default_rules() -> list[IndicatorRule]:
    """The shipped rule set H1-H11.

    Only the three hypotheses with quantitative bounds carry thresholds
    (SaaS retention, the private-public credit mark gap, stablecoin share
    of card volume); the rest are templates that stay indeterminate until
    an analyst supplies a threshold and control series.
    """
    return [
        IndicatorRule("H1", "ai_exposed_relative_wage_growth_pct", ">=", None,
                      note="wage growth in AI-exposed occupations vs controls"),
        IndicatorRule("H2", "saas_net_retention_pct", ">=", 110.0, window=4,
                      note="seat-based revenue holds up"),
        IndicatorRule("H3", "credential_requirements_index", "<", None,
                      note="credential requirements in AI-exposed roles"),
        IndicatorRule("H4", "top_quintile_spending_growth_pct", ">=", None,
                      note="consumption decline concentration"),
        IndicatorRule("H5", "credit_mark_gap_bps", "<=", 200.0, window=4,
                      note="public-private credit mark gap stays inside the band"),
        IndicatorRule("H6", "m2_velocity_yoy_pct", ">=", None, transform="yoy_pct_change",
                      note="velocity holds while output grows"),
        IndicatorRule("H7", "enterprise_ai_deployment_pct", "<", None,
                      note="capability/adoption stays below the displacement range"),
        IndicatorRule("H8", "ai_sector_real_income_growth_pct", ">", None,
                      note="deflation outruns nominal wage compression"),
        IndicatorRule("H9", "reinstatement_absorption_rate", ">=", None,
                      note="new task creation absorbs at historical rates"),
        IndicatorRule("H10", "stablecoin_card_volume_pct", "<", 5.0, window=4,
                      note="payments stay on card rails"),
        IndicatorRule("H11", "prime_delinquency_gap_tech_metros_bps", "<=", None,
                      note="high-FICO delinquency in tech metros vs national"),
    ]


CRISIS_IDS = ("H1", "H2", "H3", "H4", "H5", "H6", "H10", "H11")
COMPETING_IDS = ("H8", "H9")
# Joint activation: labor-market displacement plus credit repricing.
_JOINT_LABOR = ("H1",)
_JOINT_CREDIT = ("H5", "H11")

UNLIKELY_BANNER = "crisis pathway unlikely: competing mechanisms falsified, no crisis triggers"
JOINT_FLAG = "joint condition: labor displacement and credit repricing signal simultaneously"


@dataclass(frozen=True)
class DashboardRow:
    rule: IndicatorRule
    signal: Signal


@dataclass(frozen=True)
class MissingSeries:
    """A series a rule with a threshold reads but the data lack: that rule reads
    ``Indeterminate(insufficient data)``. ``role`` is ``primary`` or ``reference``."""

    rule: str
    series: str
    role: str


@dataclass(frozen=True)
class DashboardReport:
    rows: tuple[DashboardRow, ...]
    crisis_triggered: int
    competing_falsified: int
    flags: tuple[str, ...] = field(default_factory=tuple)
    missing: tuple[MissingSeries, ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        return table_text("id,series,comparator,threshold,window,direction,signal,reason", [
            (row.rule.id, row.rule.series_name, row.rule.comparator, row.rule.threshold,
             row.rule.window, row.rule.direction, row.signal.kind, row.signal.reason)
            for row in self.rows
        ])

    def to_text(self) -> str:
        width = max(len(r.rule.series_name) for r in self.rows)
        lines = [f"{'id':<4} {'series':<{width}} signal"]
        for row in self.rows:
            lines.append(f"{row.rule.id:<4} {row.rule.series_name:<{width}} {row.signal}")
        lines.append("")
        lines.append(f"crisis indicators triggered: {self.crisis_triggered}")
        lines.append(f"competing mechanisms falsified: {self.competing_falsified}")
        for flag in self.flags:
            lines.append(f"flag: {flag}")
        return "\n".join(lines) + "\n"


def dashboard(rules: list[IndicatorRule], data: dict[str, Series]) -> DashboardReport:
    """Evaluate every rule and summarize crisis vs. competing-mechanism signals.

    The report lists every series a rule with a threshold reads that ``data``
    lacks, its primary series or a ``gap_vs`` reference, in rule order.
    """
    rows = []
    missing = []
    for rule in rules:
        if rule.threshold is not None:  # a qualitative rule reads no series
            wanted = [(rule.series_name, "primary")]
            if rule.transform == "gap_vs":
                wanted.append((str(rule.transform_param), "reference"))
            missing += [MissingSeries(rule.id, name, role) for name, role in wanted if name not in data]
        series = data.get(rule.series_name, [])
        try:
            signal = evaluate_rule(series, rule, data)
        except KeyError:
            signal = Signal(INDETERMINATE, "insufficient data")
        rows.append(DashboardRow(rule=rule, signal=signal))
    signals = {row.rule.id: row.signal for row in rows}

    def _is(rule_id: str, kind: str) -> bool:
        s = signals.get(rule_id)
        return s is not None and s.kind == kind

    crisis_triggered = sum(1 for rid in CRISIS_IDS if _is(rid, TRIGGERED))
    competing_falsified = sum(1 for rid in COMPETING_IDS if _is(rid, FALSIFIED))

    flags: list[str] = []
    if any(_is(rid, TRIGGERED) for rid in _JOINT_LABOR) and any(
        _is(rid, TRIGGERED) for rid in _JOINT_CREDIT
    ):
        flags.append(JOINT_FLAG)
    if competing_falsified == len(COMPETING_IDS) and crisis_triggered == 0:
        flags.append(UNLIKELY_BANNER)
    return DashboardReport(
        rows=tuple(rows),
        crisis_triggered=crisis_triggered,
        competing_falsified=competing_falsified,
        flags=tuple(flags),
        missing=tuple(missing),
    )


def _iso_date(text: str) -> None:
    """A ``ValueError`` unless ``text`` is a calendar date written ``YYYY-MM-DD`` with
    ASCII digits: only then does its text order match the order of the dates."""
    if not (len(text) == 10 and text[4] == text[7] == "-" and text.isascii()
            and (text[:4] + text[5:7] + text[8:]).isdigit()):
        raise ValueError("date must be zero-padded YYYY-MM-DD")
    date.fromisoformat(text)


def load_series_csv(path: str | Path) -> Series:
    """Read one series from a (date, value) CSV; a header row is optional.

    Every date must be a zero-padded ``YYYY-MM-DD`` calendar date, because
    the series is sorted by its date text, and every value a finite number;
    errors name the file, line and column (:func:`params.read_csv_rows`). A
    date given twice raises :class:`ConfigError` naming the file and the date.
    """
    rows = read_csv_rows(path, ("date", "value"), text_columns=1, check_text=_iso_date)
    out: Series = [(day, value) for [day], [value] in rows]
    out.sort(key=lambda p: p[0])
    for (day, _), (next_day, _) in zip(out, out[1:]):
        if day == next_day:
            raise ConfigError(f"{path}: date {day} repeats")
    return out


_RULE_KEYS = {"series", "comparator", "threshold", "window", "transform",
              "transform_param", "direction", "note"}


def _periods(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(raw)
    return value


def load_rules(path: str | Path) -> list[IndicatorRule]:
    """Read a rule set from the key-value format of :func:`params.read_blocks`.

    Blocks are introduced by ``[rule.<id>]``; keys are series, comparator,
    threshold, window, transform, transform_param, direction, note. Errors
    name the file and line, and the key when a value does not parse; a file
    with no block is refused.
    """
    _, blocks = read_blocks(path, "rule", (), _RULE_KEYS)
    if not blocks:
        raise ConfigError(f"{path}: no [rule.<id>] block")
    rules = []
    for rule_id, lineno, block in blocks:
        text = {key: raw for key, (raw, _) in block.items()}
        transform = text.get("transform", "level")
        transform_param: str | int | None = text.get("transform_param")
        if transform == "yoy_pct_change" and transform_param is not None:
            transform_param = block_value(
                path, block, "transform_param", _periods, "a whole number >= 1"
            )
        threshold = None
        if "threshold" in block:
            threshold = block_value(path, block, "threshold", finite, "a finite number")
        window = 4
        if "window" in block:
            window = block_value(path, block, "window", int, "a whole number")
        try:
            rules.append(
                IndicatorRule(
                    id=rule_id,
                    series_name=text.get("series", ""),
                    comparator=text.get("comparator", ">="),
                    threshold=threshold,
                    window=window,
                    transform=transform,
                    transform_param=transform_param,
                    direction=text.get("direction", "falsifies"),
                    note=text.get("note", ""),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    return rules
