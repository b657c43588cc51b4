import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrostress.cli import main
from macrostress.dynamics import simulate_path
from macrostress.indicators import load_rules
from macrostress.params import (
    BOUNDS,
    MAX_STEPS,
    Calibration,
    ConfigError,
    PolicySpec,
    Scenario,
    default_calibration,
    default_scenarios,
    load_config,
    read_csv_records,
    read_csv_rows,
    serialize_config,
    validate,
    validate_scenario,
    with_updates,
)


def test_default_values():
    c = default_calibration()
    assert c.s_L0 == 0.56
    assert c.mpc_labor == 0.85
    assert c.chi_top == 0.59
    assert c.g_A == 0.05
    assert c.d_bar == 0.80
    assert c.kappa == 2.0
    assert c.rho0 == 0.002
    assert c.eta == 0.003
    assert c.alpha_rho == 0.50
    assert c.beta_feedback == 0.30
    assert c.f_slope == 0.15
    assert c.V_obs == 1.41
    assert c.sigma_r == 0.20


def test_default_calibration_validates_clean():
    assert validate(default_calibration()) == []


def test_validate_flags_d_bar():
    c = with_updates(default_calibration(), d_bar=1.2)
    msgs = validate(c)
    assert any("d_bar" in m for m in msgs)


def test_validate_flags_alpha_rho_upper_bound():
    c = with_updates(default_calibration(), alpha_rho=1.0)
    msgs = validate(c)
    assert any("alpha_rho" in m for m in msgs)


def test_validate_flags_negative_g_A():
    assert "g_A must be >= 0" in validate(with_updates(default_calibration(), g_A=-0.5))
    assert validate(with_updates(default_calibration(), g_A=0.0)) == []


def test_validate_flags_non_positive_V_obs():
    for value in (-1.0, 0.0):
        assert "V_obs must be positive" in validate(with_updates(default_calibration(), V_obs=value))
    assert validate(with_updates(default_calibration(), V_obs=1e-9)) == []


def test_load_config_rejects_negative_g_A(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("g_A = -0.5\n")
    with pytest.raises(ConfigError, match="g_A must be >= 0"):
        load_config(path)


def test_validate_flags_low_mpc():
    c = with_updates(default_calibration(), mpc_labor=0.4)
    assert any("mpc_labor must exceed 0.5" in m for m in validate(c))


def test_validate_keeps_its_messages_and_their_order():
    every_fault = dataclasses.replace(
        default_calibration(), s_L0=1.0, mpc_labor=1.0, chi_top=-0.1,
        d_bar=0.0, g_A=-1.0, kappa=0.0, rho0=-1e-9, eta=-1.0, alpha_rho=1.0,
        beta_feedback=0.0, f_slope=-2.0, A0=0.0, V_obs=0.0, phi0=0.5, phi_min=-1.0,
        m0=-1.0, gamma_m=-1.0, gamma_phi=-1.0, sigma_r=0.0,
    )
    assert validate(every_fault) == [
        "s_L0 must be in (0, 1)",
        "mpc_labor must be below 1",
        "chi_top must be in [0, 1]",
        "d_bar must be in (0, 1]",
        "g_A must be >= 0",
        "kappa must be positive",
        "rho0 must be >= 0",
        "eta must be >= 0",
        "alpha_rho must be in (0, 1)",
        "beta_feedback must be positive",
        "f_slope must be positive",
        "A0 must be positive",
        "V_obs must be positive",
        "phi_min must be >= 0",
        "m0 must be >= 0",
        "gamma_m must be >= 0",
        "gamma_phi must be >= 0",
        "sigma_r must be positive",
    ]
    c = dataclasses.replace(default_calibration(), mpc_labor=0.5, phi_min=2.0)
    assert validate(c) == [
        "mpc_labor must exceed 0.5",
        "phi_min must not exceed phi0",
    ]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Calibration)])
def test_validate_rejects_non_finite_values(name, value):
    messages = validate(with_updates(default_calibration(), **{name: value}))
    assert any(re.search(rf"\b{name}\b", m) for m in messages), messages


def test_simulate_path_rejects_nan_V_obs():
    c = with_updates(default_calibration(), V_obs=math.nan)
    with pytest.raises(ValueError, match="V_obs must be positive"):
        simulate_path(default_scenarios()[0], c)


@pytest.mark.parametrize("name,value,message", [
    ("t0_diffusion", -math.inf, "t0_diffusion must be finite"),
    ("phi0", math.inf, "phi0 must be finite"),
])
def test_validate_checks_every_field(name, value, message):
    assert validate(with_updates(default_calibration(), **{name: value})) == [message]


def test_every_calibration_field_has_a_row():
    assert {row.field for row in BOUNDS} == {f.name for f in dataclasses.fields(Calibration)}


def _interval(rows):
    """The intersection of single-field rows, in interval notation."""
    lo = max(rows, key=lambda r: (r.lo, not r.lo_closed))
    hi = min(rows, key=lambda r: (r.hi, r.hi_closed))
    return f"{'[' if lo.lo_closed else '('}{lo.lo:g}, {hi.hi:g}{']' if hi.hi_closed else ')'}"


def test_readme_states_every_fields_interval():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for f in dataclasses.fields(Calibration):
        rows = [row for row in BOUNDS if row.field == f.name and row.of is None]
        cell = _interval(rows) if rows else ""
        assert f"| `{f.name}` | {cell}" in readme, f.name


def test_load_config_empty_file(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    calib, scenarios = load_config(path)
    assert calib == default_calibration()
    assert scenarios == []


def test_load_config_single_override(tmp_path):
    path = tmp_path / "g.cfg"
    path.write_text("g_A = 0.20\n")
    calib, _ = load_config(path)
    assert calib.g_A == 0.20
    # everything else inherits defaults
    assert calib.kappa == 2.0


def test_load_config_invariant_violation(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mpc_labor = 0.4\n")
    with pytest.raises(ConfigError, match="mpc_labor must exceed 0.5"):
        load_config(path)


def test_load_config_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("g_A = 0.05\nkappa == oops\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_load_config_unknown_key_names_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# comment\nnot_a_key = 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_load_config_scenarios_in_order(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(
        """
g_A = 0.07

[scenario.alpha]
g_A_override = 0.2
horizon = 8
dt = 0.02
tau = 0.05
lag = 1.5

[scenario.beta]
horizon = 5
"""
    )
    calib, scenarios = load_config(path)
    assert calib.g_A == 0.07
    assert [s.name for s in scenarios] == ["alpha", "beta"]
    assert scenarios[0].g_A_override == 0.2
    assert scenarios[0].policy == PolicySpec(tau=0.05, lag=1.5, start_time=0.0)
    assert scenarios[1].g_A_override is None
    assert scenarios[1].horizon == 5.0


@pytest.mark.parametrize("text,line,first", [
    ("g_A = 0.1\nkappa = 2\ng_A = 0.2\n", 3, 1),
    ("[scenario.x]\nhorizon = 5\n\nhorizon = 6\n", 4, 2),
])
def test_load_config_rejects_repeated_key(tmp_path, text, line, first):
    path = tmp_path / "r.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value).startswith(f"{path}: line {line}: repeated key")
    assert f"first at line {first}" in str(exc.value)


def test_load_config_rejects_repeated_scenario(tmp_path):
    path = tmp_path / "r.cfg"
    path.write_text("[scenario.x]\nhorizon = 5\n[scenario.y]\n[scenario.x]\nhorizon = 6\n")
    with pytest.raises(ConfigError, match=r"line 4: repeated section \[scenario.x\], first at line 1"):
        load_config(path)


def test_load_config_rejects_unnamed_scenario(tmp_path):
    path = tmp_path / "u.cfg"
    path.write_text("g_A = 0.1\n[scenario.]\nhorizon = 5\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}: line 2: scenario section needs a name"


def test_load_config_rejects_slash_in_scenario_name(tmp_path, capsys):
    # the name becomes part of output file names: trajectory_a/b.csv has no directory a
    path = tmp_path / "n.cfg"
    path.write_text("g_A = 0.1\n\n[scenario.a/b]\nhorizon = 5\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}: line 3: scenario name 'a/b' must not contain '/'"
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(path), "--scenario", "a/b", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not out.exists()


def test_load_config_rejects_quintiles_key(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("[scenario.q]\nquintiles = nope.csv\n")
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'quintiles' in \[scenario.q\]"):
        load_config(path)


@pytest.mark.parametrize("text", ["mpc_labor = 0.4\n", "[scenario.x]\ndt = 0.5\n"])
def test_load_config_validation_errors_name_the_file(tmp_path, text):
    path = tmp_path / "v.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value).startswith(f"{path}: ")


_KEY_VALUE_LINES = st.one_of(
    st.text(max_size=24),
    st.sampled_from(["", "# note", "[scenario.a]", "[rule.H2]", "[scenario.]", "[rule.",
                     "[other.x]", "="]),
    st.builds(
        "{} = {}".format,
        st.sampled_from(["g_A", "dt", "horizon", "tau", "mpc_labor", "series", "threshold",
                         "window", "transform", "transform_param", "comparator", "quintiles"]),
        st.one_of(st.sampled_from(["0.01", "2", "0", "-1", "nan", "1e400", "yoy_pct_change",
                                   "gap_vs", ">=", "!="]), st.text(max_size=6)),
    ),
)


@settings(max_examples=80, deadline=None)
@given(data=st.one_of(
    st.lists(_KEY_VALUE_LINES, max_size=8).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=48),
))
def test_key_value_readers_return_or_name_the_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.cfg"
    path.write_bytes(data)
    for load in (load_config, load_rules):
        try:
            load(path)
        except ConfigError as exc:
            assert str(exc).startswith(f"{path}: ")


_CSV_CELLS = st.one_of(
    st.sampled_from(["a", "b", "c", "x", "1", "-2.5", " 3 ", "1e400", "nan", "", " ", "1,2",
                     '"1"', '"a,b"', '"2\n3"', '"q""q"', '"open', 'mid"quote', "\x00"]),
    st.text(max_size=5),
)
_CSV_LINES = st.one_of(
    st.lists(_CSV_CELLS, max_size=5).map(",".join),   # ragged rows, header or data
    st.sampled_from(["", "  ", "a,b,c", "b,a", "c,c,a,b", '"a","b","c"', "a,,b"]),
)


@settings(max_examples=120, deadline=None)
@given(data=st.one_of(
    st.tuples(st.lists(_CSV_LINES, max_size=7), st.sampled_from(["\n", "\r\n", "\r"])).map(
        lambda lines_newline: lines_newline[1].join(lines_newline[0]).encode()),
    st.binary(max_size=48),
))
def test_csv_readers_return_or_name_the_file(tmp_path_factory, data):
    """Headers, quoting, ragged rows and blank lines: each CSV reader returns rows of the
    promised shape, or raises a ConfigError that starts with the path."""
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    path.write_bytes(data)
    try:
        for texts, numbers in read_csv_rows(path, ["a", "b", "c"], text_columns=1):
            assert len(texts) == 1 and isinstance(texts[0], str)
            assert len(numbers) == 2 and all(math.isfinite(v) for v in numbers)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}: ")
    try:
        for line, cells in read_csv_records(path, ["a", "b"], {"b"}):
            assert line >= 2 and list(cells) == ["a", "b"]
            assert isinstance(cells["a"], str) and math.isfinite(cells["b"])
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}: ")


def test_load_config_rejects_oversized_dt(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("[scenario.x]\ndt = 0.5\n")
    with pytest.raises(ConfigError, match="dt must not exceed 0.05"):
        load_config(path)


def test_serialize_round_trip(tmp_path):
    calib = with_updates(default_calibration(), g_A=0.123456789012, eta=0.0045)
    scenarios = [
        Scenario(name="run", g_A_override=0.31, horizon=7.0, dt=0.02,
                 policy=PolicySpec(tau=0.02, lag=0.75, start_time=0.5)),
    ]
    path = tmp_path / "round.cfg"
    path.write_text(serialize_config(calib, scenarios))
    calib2, scenarios2 = load_config(path)
    assert calib2 == calib
    assert scenarios2 == scenarios


def test_default_scenarios_cover_three_rates():
    rates = {s.name: s.g_A_override for s in default_scenarios()}
    assert rates == {"baseline": 0.05, "rapid": 0.20, "extreme": 0.40}
    for s in default_scenarios():
        assert validate_scenario(s) == []


def test_scenario_guard_dt_vs_horizon():
    s = Scenario(name="tiny", horizon=0.005, dt=0.01)
    assert any("dt must not exceed horizon" in m for m in validate_scenario(s))


def test_calibration_is_immutable():
    c = default_calibration()
    with pytest.raises(Exception):
        c.g_A = 0.9  # type: ignore[misc]


def test_scenario_guard_dt_must_divide_horizon():
    problems = validate_scenario(Scenario(name="odd", horizon=10.0, dt=0.03))
    assert len(problems) == 1
    assert "scenario odd" in problems[0] and "dt = 0.03" in problems[0]
    assert "does not divide horizon" in problems[0]
    # grids that divide up to rounding in the last place pass
    for horizon, dt in [(10.0, 0.01), (10.0, 0.001), (7.0, 0.02), (1.0, 0.05), (0.3, 0.1 / 3)]:
        assert validate_scenario(Scenario(name="ok", horizon=horizon, dt=dt)) == []


def test_scenario_guard_step_count_cap():
    problems = validate_scenario(Scenario(name="long", horizon=1e12, dt=0.01))
    assert len(problems) == 1
    assert "scenario long" in problems[0] and "horizon / dt" in problems[0]
    assert str(MAX_STEPS) in problems[0]
    at_cap = Scenario(name="cap", horizon=MAX_STEPS * 0.01, dt=0.01)
    assert validate_scenario(at_cap) == []
    over = Scenario(name="over", horizon=(MAX_STEPS + 1) * 0.01, dt=0.01)
    assert validate_scenario(over) != []


def test_scenario_guard_non_finite_horizon_and_dt():
    for horizon, dt in [(math.inf, 0.01), (math.nan, 0.01), (10.0, math.nan)]:
        problems = validate_scenario(Scenario(name="nf", horizon=horizon, dt=dt))
        assert any("must be finite" in m and "scenario nf" in m for m in problems)


def test_scenario_guard_non_finite_policy():
    for field in ("tau", "lag", "start_time"):
        for value in (math.nan, math.inf, -math.inf):
            policy = PolicySpec(**{field: value})
            problems = validate_scenario(Scenario(name="nf", policy=policy))
            assert f"scenario nf: {field} must be finite" in problems


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scenario_guard_non_finite_g_A_override(value):
    s = Scenario(name="x", g_A_override=value)
    assert "scenario x: g_A_override must be finite" in validate_scenario(s)
    # rejected up front, not as an IntegrationError at the first step
    with pytest.raises(ValueError, match="g_A_override must be finite"):
        simulate_path(s, default_calibration())


def test_load_config_rejects_misaligned_dt(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("[scenario.x]\ndt = 0.03\n")
    with pytest.raises(ConfigError, match="scenario x: dt = 0.03 does not divide"):
        load_config(path)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_config_rejects_non_finite_values(tmp_path, raw):
    path = tmp_path / "c.cfg"
    path.write_text(f"# velocity anchor\nV_obs = {raw}\n")
    with pytest.raises(ConfigError, match=f"line 2: value for 'V_obs' must be finite"):
        load_config(path)
    path.write_text(f"[scenario.s]\nhorizon = 10\ntau = {raw}\n")
    with pytest.raises(ConfigError, match=f"line 3: value for 'tau' must be finite"):
        load_config(path)
