import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrostress.indicators import (
    FALSIFIED,
    INDETERMINATE,
    JOINT_FLAG,
    TRIGGERED,
    UNLIKELY_BANNER,
    IndicatorRule,
    dashboard,
    default_rules,
    evaluate_rule,
    load_rules,
    load_series_csv,
)


def _series(values):
    return [(f"2026-{i + 1:02d}-01", float(v)) for i, v in enumerate(values)]


RETENTION_RULE = IndicatorRule(
    "H2", "saas_net_retention_pct", ">=", 110.0, window=4, direction="falsifies"
)


# --- rule evaluation ---------------------------------------------------------

def test_sustained_retention_falsifies():
    signal = evaluate_rule(_series([112, 113, 111, 115]), RETENTION_RULE)
    assert signal.kind == FALSIFIED


def test_sustained_compression_triggers():
    signal = evaluate_rule(_series([104, 102, 101, 98]), RETENTION_RULE)
    assert signal.kind == TRIGGERED


def test_mixed_window_is_indeterminate():
    signal = evaluate_rule(_series([112, 101, 111, 115]), RETENTION_RULE)
    assert signal.kind == INDETERMINATE
    assert signal.reason == "mixed data"


def test_empty_series_indeterminate():
    signal = evaluate_rule([], RETENTION_RULE)
    assert signal.kind == INDETERMINATE
    assert signal.reason == "insufficient data"


def test_window_uses_trailing_observations():
    # early compression followed by a sustained healthy window
    signal = evaluate_rule(_series([90, 95, 112, 113, 111, 115]), RETENTION_RULE)
    assert signal.kind == FALSIFIED


def test_stablecoin_share_rule():
    rule = IndicatorRule("H10", "stablecoin_card_volume_pct", "<", 5.0, window=4)
    assert evaluate_rule(_series([1.2, 1.5, 2.0, 2.4]), rule).kind == FALSIFIED
    assert evaluate_rule(_series([6.0, 7.5, 8.0, 9.1]), rule).kind == TRIGGERED


def test_credit_gap_rule_triggers_on_sustained_widening():
    rule = IndicatorRule("H5", "credit_mark_gap_bps", "<=", 200.0, window=4)
    assert evaluate_rule(_series([350, 355, 360, 340]), rule).kind == TRIGGERED
    assert evaluate_rule(_series([150, 120, 90, 180]), rule).kind == FALSIFIED


def test_qualitative_rule_stays_indeterminate():
    rule = IndicatorRule("H1", "wage_growth_gap", ">=", None)
    signal = evaluate_rule(_series([1, 2, 3, 4, 5]), rule)
    assert signal.kind == INDETERMINATE
    assert signal.reason == "qualitative rule"


def test_yoy_transform():
    rule = IndicatorRule(
        "H6", "m2_velocity", "<", 0.0, window=2,
        transform="yoy_pct_change", transform_param=4, direction="triggers",
    )
    # velocity falling ~5% year over year on quarterly data
    values = [1.60, 1.58, 1.56, 1.54, 1.52, 1.50, 1.48, 1.46]
    assert evaluate_rule(_series(values), rule).kind == TRIGGERED


def test_gap_vs_transform():
    rule = IndicatorRule(
        "HX", "gdp_growth", ">", 1.0, window=3,
        transform="gap_vs", transform_param="income_growth", direction="triggers",
    )
    bundle = {
        "gdp_growth": _series([3.0, 3.1, 3.2, 3.3]),
        "income_growth": _series([1.0, 1.0, 1.1, 1.2]),
    }
    assert evaluate_rule(bundle["gdp_growth"], rule, bundle).kind == TRIGGERED


def test_gap_vs_unknown_reference_raises():
    rule = IndicatorRule(
        "HX", "a", ">", 0.0, window=1, transform="gap_vs", transform_param="missing"
    )
    with pytest.raises(KeyError):
        evaluate_rule(_series([1.0]), rule, {"a": _series([1.0])})


def test_rule_validation():
    with pytest.raises(ValueError):
        IndicatorRule("H", "s", "!=", 1.0)
    with pytest.raises(ValueError):
        IndicatorRule("H", "s", ">", 1.0, window=0)
    with pytest.raises(ValueError):
        IndicatorRule("H", "s", ">", 1.0, transform="gap_vs")


def test_rule_evaluation_is_pure():
    series = _series([112, 113, 111, 115])
    first = evaluate_rule(series, RETENTION_RULE)
    for _ in range(5):
        assert evaluate_rule(series, RETENTION_RULE) == first


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(min_value=50, max_value=150), min_size=0, max_size=12),
    window=st.integers(min_value=2, max_value=8),
)
def test_shortening_window_never_flips_settled_signals(values, window):
    long_rule = IndicatorRule("H2", "s", ">=", 110.0, window=window)
    short_rule = IndicatorRule("H2", "s", ">=", 110.0, window=max(1, window - 1))
    series = _series(values)
    long_sig = evaluate_rule(series, long_rule)
    short_sig = evaluate_rule(series, short_rule)
    if long_sig.kind in (TRIGGERED, FALSIFIED):
        assert short_sig.kind == long_sig.kind


# --- dashboard ---------------------------------------------------------------

def test_dashboard_all_missing_series():
    report = dashboard(default_rules(), {})
    assert all(row.signal.kind == INDETERMINATE for row in report.rows)
    assert report.crisis_triggered == 0
    assert report.flags == ()


def test_dashboard_credit_gap_trigger_counts():
    data = {"credit_mark_gap_bps": _series([340, 350, 355, 360])}
    report = dashboard(default_rules(), data)
    by_id = {row.rule.id: row.signal for row in report.rows}
    assert by_id["H5"].kind == TRIGGERED
    assert report.crisis_triggered == 1


def test_dashboard_unlikely_banner():
    rules = default_rules()
    # analyst-configured thresholds for the two competing-mechanism rules
    rules = [
        r if r.id not in ("H8", "H9") else IndicatorRule(
            r.id, r.series_name, ">=", 1.0, window=2, direction=r.direction
        )
        for r in rules
    ]
    data = {
        "ai_sector_real_income_growth_pct": _series([1.5, 2.0]),
        "reinstatement_absorption_rate": _series([1.2, 1.4]),
        "saas_net_retention_pct": _series([112, 113, 111, 115]),
        "stablecoin_card_volume_pct": _series([1.2, 1.5, 2.0, 2.4]),
        "credit_mark_gap_bps": _series([100, 120, 110, 90]),
    }
    report = dashboard(rules, data)
    assert report.competing_falsified == 2
    assert report.crisis_triggered == 0
    assert UNLIKELY_BANNER in report.flags


def test_dashboard_joint_condition_flag():
    rules = [
        r if r.id != "H1" else IndicatorRule(
            "H1", r.series_name, ">=", 0.0, window=2, direction="falsifies"
        )
        for r in default_rules()
    ]
    data = {
        # wage growth gap sustained negative: displacement signal
        "ai_exposed_relative_wage_growth_pct": _series([-2.0, -3.0]),
        # credit gap sustained wide: repricing signal
        "credit_mark_gap_bps": _series([300, 320, 340, 360]),
    }
    report = dashboard(rules, data)
    by_id = {row.rule.id: row.signal for row in report.rows}
    assert by_id["H1"].kind == TRIGGERED
    assert by_id["H5"].kind == TRIGGERED
    assert JOINT_FLAG in report.flags


def test_dashboard_csv_and_text_render():
    report = dashboard(default_rules(), {})
    csv_text = report.to_csv()
    assert csv_text.startswith("id,series,comparator,")
    assert len(csv_text.strip().split("\n")) == 12
    assert "crisis indicators triggered: 0" in report.to_text()


# --- file formats ------------------------------------------------------------

def test_load_series_csv(tmp_path):
    p = tmp_path / "velocity.csv"
    p.write_text("date,value\n2026-01-01,1.41\n2026-04-01,1.39\n")
    assert load_series_csv(p) == [("2026-01-01", 1.41), ("2026-04-01", 1.39)]


def test_load_rules_round_trip(tmp_path):
    p = tmp_path / "rules.cfg"
    p.write_text(
        """
[rule.H2]
series = saas_net_retention_pct
comparator = >=
threshold = 110
window = 4
direction = falsifies

[rule.H5]
series = credit_mark_gap_bps
comparator = <=
threshold = 200
"""
    )
    rules = load_rules(p)
    assert len(rules) == 2
    assert rules[0].id == "H2" and rules[0].threshold == 110.0
    assert rules[1].window == 4


def test_load_rules_parses_yoy_periods(tmp_path):
    p = tmp_path / "rules.cfg"
    p.write_text("[rule.H9]\ntransform = yoy_pct_change\ntransform_param = 2\n"
                 "[rule.H5]\ntransform = gap_vs\ntransform_param = treasury\n")
    yoy, gap = load_rules(p)
    assert yoy.transform_param == 2 and gap.transform_param == "treasury"


def test_load_rules_unknown_key(tmp_path):
    from macrostress.params import ConfigError

    p = tmp_path / "rules.cfg"
    p.write_text("[rule.H2]\nwat = 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_rules(p)


@pytest.mark.parametrize("text,message", [
    ("[rule.H2]\nthreshold = 1\nwindow = 2\nthreshold = 2\n",
     "line 4: repeated key 'threshold' in [rule.H2], first at line 2"),
    ("[rule.H2]\nthreshold = 1\n[rule.H5]\n[rule.H2]\nthreshold = 2\n",
     "line 4: repeated section [rule.H2], first at line 1"),
    ("series = s\n[rule.H2]\n", "line 1: unknown key 'series' outside a [rule.<name>] block"),
    ("[rule.H2]\nthreshold = 1\n\n[rule.H5]\nwindow = 0\n", "line 4: rule H5: window must be >= 1"),
    ("[rule.H2]\nthreshold = 1\n[rule. ]\nthreshold = 2\n", "line 3: rule section needs a name"),
])
def test_load_rules_errors_name_file_and_line(tmp_path, text, message):
    from macrostress.params import ConfigError

    p = tmp_path / "rules.cfg"
    p.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_rules(p)
    assert str(exc.value) == f"{p}: {message}"
