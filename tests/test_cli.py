import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macrostress
from macrostress import cli
from macrostress.cli import main
from macrostress.params import default_calibration, load_config, serialize_config
from macrostress.stochastics import MAX_DRAWS


def run_cli(*argv):
    return main(list(argv))


# --- simulate ----------------------------------------------------------------

def test_simulate_baseline_writes_csv(tmp_path):
    out = tmp_path / "o"
    assert run_cli("simulate", "--scenario", "baseline", "--out", str(out)) == 0
    csv_path = out / "trajectory_baseline.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("t,s_L,d_t,")
    assert len(lines) == 1002
    # gradual drift, no collapse: final share close to its start
    final_s = float(lines[-1].split(",")[1])
    assert 0.50 <= final_s <= 0.60
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["engine_version"]
    assert manifest["outputs"] == ["trajectory_baseline.csv"]
    assert len(manifest["config_hash"]) == 64
    assert manifest["collapse_time"] == {"baseline": None}


@pytest.mark.parametrize("dt,rows", [(None, 1001), ("0.02", 501)])
def test_simulate_manifest_counts_its_work(tmp_path, dt, rows):
    out = tmp_path / "o"
    argv = ["simulate", "--scenario", "rapid", "--out", str(out)] + (["--dt", dt] if dt else [])
    assert run_cli(*argv) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["simulate"] == {"rapid": {"rows": rows, "rk4_steps": rows - 1}}
    assert len((out / "trajectory_rapid.csv").read_text().splitlines()) == rows + 1


def test_regress_manifest_counts_its_work(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("y,x1,x2\n1,1,0\n2,2,1\n3,3,1\n5,5,0\n4,4.5,1\n")
    out = tmp_path / "o"
    assert run_cli("regress", "--data", str(data), "--formula", "y ~ x1 + x2", "--out", str(out)) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    # the intercept counts as a regressor
    assert manifest["regress"] == {"n": 5, "regressors": 3}
    assert manifest["outputs"] == ["regression.csv"]


def test_manifest_regime_feedback_rate(tmp_path):
    # beta_feedback * (2 * mpc_labor - 1) / (mpc_labor * s_L0 + (1 - mpc_labor) * (1 - s_L0))
    expected = 0.30 * (2 * 0.85 - 1) / (0.85 * 0.56 + 0.15 * 0.44)
    out = tmp_path / "o"
    assert run_cli("repro", "--n", "20", "--out", str(out)) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    rates = {name: block["feedback_rate"] for name, block in manifest["regime"].items()}
    assert rates == pytest.approx({"baseline": expected, "rapid": expected, "extreme": expected},
                                  rel=1e-15)
    assert round(expected, 4) == 0.3875
    assert manifest["simulate"] == {name: {"rows": 1001, "rk4_steps": 1000}
                                    for name in ("baseline", "rapid", "extreme")}


@pytest.mark.parametrize("scenario,expected", [
    ("baseline", 1.0),     # never below s_L0: no step under the feedback
    ("rapid", 12.3136),    # 648 steps start below s_L0, from t = 3.52 on
    ("extreme", 7.7350),   # 528 steps, from t = 2.82 until the share reaches 0 at t = 8.1
])
def test_simulate_manifest_regime_amplification(tmp_path, scenario, expected):
    out = tmp_path / "o"
    assert run_cli("simulate", "--scenario", scenario, "--out", str(out)) == 0
    regime = json.loads((out / "run_manifest.json").read_text())["regime"][scenario]
    steps = round(math.log(regime["amplification"]) / (regime["feedback_rate"] * 0.01))
    assert regime["amplification"] == math.exp(regime["feedback_rate"] * 0.01 * steps)
    assert regime["amplification"] == pytest.approx(expected, abs=1e-4)


def test_simulate_unknown_scenario_exit_2(tmp_path, capsys):
    code = run_cli("simulate", "--scenario", "nope", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "baseline" in err and "rapid" in err and "extreme" in err


def test_simulate_rejects_oversized_dt(tmp_path):
    code = run_cli("simulate", "--scenario", "baseline", "--dt", "0.5", "--out", str(tmp_path))
    assert code == 2


def test_simulate_svg(tmp_path):
    out = tmp_path / "o"
    assert run_cli("simulate", "--scenario", "rapid", "--out", str(out), "--svg") == 0
    svg = (out / "trajectory_rapid.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


# sha256 of the data files `simulate --svg` writes for each shipped scenario,
# recorded before trajectories became columnar (CPython 3.11, glibc's libm).
# Any change to path assembly or CSV/SVG rendering that moves a byte fails here.
GOLDEN_SHA256 = {
    "baseline": ("081209ac0224b24d0c8d09c1a854429b540df652341c10af2c1ed07b7e5224f1",
                 "e3a5e033852d11721a5e322f85828cace47513731eb95046e24e7b74c560e709"),
    "rapid": ("79ab3bb5405da2c5fdcbaf197bba5b2eceaf028aa9dc61de6d7a9d10a34b1017",
              "4fc43fd86caf63fba3356977fd0aba7e0c61c90d1ae6c49f7b12656d5eba6103"),
    "extreme": ("ef3279a7790684047957b669d0e1ffc352d053c34e7509ccd338e44af4906cbe",
                "0bb118c4ba88750e1014b397e43b721447ca70cdc4f89b423195b16967ef611c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_simulate_outputs_byte_identical_to_golden(tmp_path, name):
    out = tmp_path / "o"
    assert run_cli("simulate", "--scenario", name, "--out", str(out), "--svg") == 0
    digests = tuple(
        hashlib.sha256((out / f"trajectory_{name}.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "svg")
    )
    assert digests == GOLDEN_SHA256[name]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["collapse_time"] == {name: 8.06 if name == "extreme" else None}


# sha256 of the same files at dt 0.001, recorded while the scalar integrator wrote
# out its four RK4 stages inline. At this step `rapid` and `extreme` take 6487 and
# 7182 of their 10000 steps through the integrator's per-step loop (649 and 719 of
# 1000 at the default dt), so its stage drift runs about ten times as often.
GOLDEN_SHA256_DT_0001 = {
    "baseline": ("2094b97adcf699ed8d2bd78bc1e077589420f4e4f71aca52b91a954c171f1ec7",
                 "b699f1fc616317b8a850d4b8c53ed3697f0fcf5d679fdfa92d61ac96718aaea8"),
    "rapid": ("1e96b06a01e263db75a9c06c3dbd0de736829871ac4d636594440810cfe42d4d",
              "8f2da7220aa2595433b1e0b2c566314c6f31b21749575612f1b55d462bdc8c75"),
    "extreme": ("0c70ceed905cb49fc60ba7581c95c627ff773ef8e3ea42e40fe78aed1667bc78",
                "f6706db5e3bc7e0983299601d4dbb8c6cb228a2aaa37413c6b6d9a3a342a5c85"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256_DT_0001))
def test_simulate_fine_step_outputs_byte_identical_to_golden(tmp_path, name):
    out = tmp_path / "o"
    assert run_cli("simulate", "--scenario", name, "--dt", "0.001", "--out", str(out), "--svg") == 0
    digests = tuple(
        hashlib.sha256((out / f"trajectory_{name}.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "svg")
    )
    assert digests == GOLDEN_SHA256_DT_0001[name]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["collapse_time"] == {name: 8.053 if name == "extreme" else None}


def test_simulate_with_config_scenario(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario.custom]\ng_A_override = 0.1\nhorizon = 2\n")
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(cfg), "--scenario", "custom", "--out", str(out)) == 0
    assert (out / "trajectory_custom.csv").exists()


# sha256 of the CSV and SVG of a config scenario whose name holds non-ASCII text and
# the characters the SVG escapes, and a "%": the chart's title is user text, written
# UTF-8 and never formatted with %, while its numbers are formatted as bytes
USER_TEXT_SCENARIO = 'daß&<%>"x'
USER_TEXT_SHA256 = ("26d18eb9479e6f537c4800c6caef02af36d7972dd82fcda89ad9a3339d210cfe",
                    "6e2f09a4c8cdeb3b59772fba28e8ea86b354b09da885bb195172d66a8d85892d")


def test_simulate_svg_of_a_scenario_named_in_user_text_byte_identical_to_golden(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario.{USER_TEXT_SCENARIO}]\ng_A_override = 0.1\nhorizon = 2\n",
                   encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(cfg), "--scenario", USER_TEXT_SCENARIO,
                   "--out", str(out), "--svg") == 0
    name = f"trajectory_{USER_TEXT_SCENARIO}"
    digests = tuple(hashlib.sha256((out / f"{name}.{ext}").read_bytes()).hexdigest()
                    for ext in ("csv", "svg"))
    assert digests == USER_TEXT_SHA256
    title = "Scenario 'daß&amp;&lt;%&gt;&quot;x'"
    assert f'font-family="sans-serif">{title}</text>' in (out / f"{name}.svg").read_text("utf-8")


@pytest.mark.parametrize("g_A,kind", [
    (0.1, "stable displacement"),
    (0.6, "explosive displacement"),
    (0.0, "reinstatement-dominated"),
])
def test_simulate_manifest_regime(tmp_path, g_A, kind):
    # decided from the manifest alone: the kind follows from g_A against the threshold g*
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario.custom]\ng_A_override = {g_A}\nhorizon = 2\n")
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(cfg), "--scenario", "custom", "--out", str(out)) == 0
    regime = json.loads((out / "run_manifest.json").read_text())["regime"]
    assert list(regime) == ["custom"]
    assert regime["custom"]["kind"] == kind
    assert regime["custom"]["g_A"] == g_A
    g_star = regime["custom"]["threshold"]
    assert g_star == 0.4564950980392157   # at the default calibration, whatever g_A
    if kind != "reinstatement-dominated":
        assert (g_A > g_star) == (kind == "explosive displacement")


# sha256 of the serialized default calibration: the config_hash of every run without --config
DEFAULT_CONFIG_HASH = "457af7268c96a151db3e676bf6ebfed20d1455221bd98528342efccd827b3c70"


@pytest.mark.parametrize("config", [None, "g_A = 0.10\n\n[scenario.managed]\ng_A_override = 0.20\n"
                                          "horizon = 10\ntau = 0.08\nlag = 1.5\n"])
def test_config_hash_is_sha256_of_the_serialized_config(tmp_path, config):
    argv = ["credit", "--out", str(tmp_path / "o")]
    calib, scenarios = default_calibration(), []
    if config is not None:
        path = tmp_path / "c.cfg"
        path.write_text(config)
        argv += ["--config", str(path)]
        calib, scenarios = load_config(path)
        assert scenarios
    assert run_cli(*argv) == 0
    manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
    expected = hashlib.sha256(serialize_config(calib, scenarios).encode("utf-8")).hexdigest()
    assert manifest["config_hash"] == expected
    assert (expected == DEFAULT_CONFIG_HASH) == (config is None)


def test_config_hash_falls_back_to_hashlib(tmp_path, monkeypatch):
    # without the interpreter's own SHA-256 modules, cli hashes through hashlib
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.delitem(sys.modules, "macrostress.cli")
    monkeypatch.setattr(macrostress, "cli", cli)  # the reimport rebinds it; put it back after
    fallback = importlib.import_module("macrostress.cli")
    assert fallback is not cli and fallback.sha256 is hashlib.sha256
    assert fallback.main(["credit", "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
    assert manifest["config_hash"] == DEFAULT_CONFIG_HASH


def test_cold_start_leaves_openssl_and_indicators_unloaded(tmp_path):
    script = (
        "import sys\n"
        "loaded = lambda: sorted({'_hashlib', 'macrostress.indicators'} & set(sys.modules))\n"
        "from macrostress import cli\n"
        "print(loaded(), file=sys.stderr)\n"
        "assert cli.main(sys.argv[1:3]) == 0\n"
        "print(loaded(), file=sys.stderr)\n"
        "assert cli.main(sys.argv[3:]) == 0\n"
    )
    argv = ["credit", f"--out={tmp_path / 'credit'}",
            "indicators", *_indicator_inputs(tmp_path), "--out", str(tmp_path / "ind")]
    env = {**os.environ, "PYTHONPATH": str(Path(macrostress.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[:2] == ["[]", "[]"]  # then the indicators warning
    text = (tmp_path / "ind" / "indicators_report.csv").read_bytes()
    assert hashlib.sha256(text).hexdigest() == INDICATORS_REPORT_SHA256


def test_montecarlo_sweep_and_repro_leave_numpy_ma_openssl_and_indicators_unloaded(tmp_path):
    # numpy.ma (np.median's NaN check) costs 8-16 ms and 1.23 MB of peak RSS,
    # _hashlib (OpenSSL) 3.6-3.7 MB; none of the three subcommands needs them
    script = (
        "import json, sys\n"
        "from macrostress import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0\n"
        "    print(sorted({'numpy.ma', '_hashlib', 'macrostress.indicators'} & set(sys.modules)),"
        " file=sys.stderr)\n"
    )
    runs = [["montecarlo", "--n", "50", "--out", str(tmp_path / "mc")],
            ["sweep", "--out", str(tmp_path / "sweep")],
            ["repro", "--n", "50", "--out", str(tmp_path / "repro")]]
    env = {**os.environ, "PYTHONPATH": str(Path(macrostress.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["[]", "[]", "[]"]


def test_unknown_flag_is_fatal():
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--not-a-flag")
    assert exc.value.code == 2


def test_capability_overflow_exit_3(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    # the path integrates; the capability column overflows near the horizon
    cfg.write_text("[scenario.x]\ng_A_override = 70.5\n")
    code = run_cli("simulate", "--config", str(cfg), "--scenario", "x",
                   "--out", str(tmp_path / "o"))
    assert code == 3
    err = capsys.readouterr().err
    assert "capability index overflows at t=9.93 (g_A*t=700.065)" in err
    assert not (tmp_path / "o" / "trajectory_x.csv").exists()


@pytest.mark.parametrize("line", ["kappa = 1e308", "t0_diffusion = 1e308", "t0_diffusion = -1e308"])
def test_adoption_argument_past_float_range_warns_nothing(tmp_path, capsys, line):
    # -kappa * (t - t0) overflows to +-inf: a tail of the logistic, as a finite e past 40 is
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_integration_failure_exit_3(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    # growth this extreme overflows the reinstatement exponential mid-run
    cfg.write_text("[scenario.blowup]\ng_A_override = 300\n")
    code = run_cli("simulate", "--config", str(cfg), "--scenario", "blowup",
                   "--out", str(tmp_path / "o"))
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


# --- credit ------------------------------------------------------------------

def test_credit_worked_rows(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(
        "credit", "--dscr", "1.5", "--sigma", "0.20", "--deltas", "0,0.20,0.30",
        "--out", str(out),
    ) == 0
    rows = (out / "credit_sensitivity.csv").read_text().strip().split("\n")
    assert rows[0] == "delta,dscr_post,pd"
    pds = [float(r.split(",")[2]) for r in rows[1:]]
    assert pds[0] == pytest.approx(0.021, abs=0.002)
    assert pds[1] == pytest.approx(0.181, abs=0.002)
    assert pds[2] == pytest.approx(0.403, abs=0.002)


# sha256 of credit_sensitivity.csv, recorded while Phi was a port of Cody's erfc
# (CPython 3.11, glibc's libm). The first grid's z = -ln(dscr_post)/sigma
# crosses +-0.663 and 5.657, where that port switched approximations; the
# second reaches the deep tail, where Phi is 0 below about z = -37.63.
CREDIT_SHA256 = {
    ("1.5", "0.2", "0,0.2,0.22,0.25,0.3,0.4,0.45,0.5,0.6,0.9,0.99"):
        "035741eedd65b1b5c6251322fc0829cbac2a91bddd32d8bfa03cd2c540df8dfe",
    ("5000", "0.2", "0,0.6,0.62,0.64,0.8,0.96,0.996,0.9996"):
        "ccc4d5aa2a4b5b94b0a3145bb7d870e7d057785536f2b2250a7c07614addf8d2",
}


@pytest.mark.parametrize("dscr,sigma,deltas", sorted(CREDIT_SHA256))
def test_credit_table_byte_identical_to_golden(tmp_path, dscr, sigma, deltas):
    out = tmp_path / "o"
    assert run_cli(
        "credit", "--dscr", dscr, "--sigma", sigma, "--deltas", deltas, "--out", str(out),
    ) == 0
    digest = hashlib.sha256((out / "credit_sensitivity.csv").read_bytes()).hexdigest()
    assert digest == CREDIT_SHA256[dscr, sigma, deltas]


def test_credit_non_finite_z_names_its_inputs_exit_2(tmp_path, capsys):
    # -ln(1e308) / 1e-308 overflows to -inf
    out = tmp_path / "o"
    assert run_cli("credit", "--dscr", "1e308", "--sigma", "1e-308", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "dscr = 1e+308" in err and "sigma_r = 1e-308" in err and "delta = 0.0" in err
    assert not out.exists()


@pytest.mark.parametrize("deltas,message", [
    ("", "credit table needs at least one delta"),
    (",", "credit table needs at least one delta"),
    ("0.1,0.1", "deltas must be strictly ascending: 0.1 repeats"),
    ("0,0.2,0.2,0.3", "deltas must be strictly ascending: 0.2 repeats"),
    ("0.3,0.1", "deltas must be ascending"),
    # the list is checked before any row: the repeat, not the out-of-range 1.2
    ("0.5,0.5,1.2", "deltas must be strictly ascending: 0.5 repeats"),
])
def test_credit_empty_or_repeated_deltas_exit_2(tmp_path, capsys, deltas, message):
    # a header-only table or a duplicate row is refused, as the sweep refuses its lists
    out = tmp_path / "o"
    assert run_cli("credit", f"--deltas={deltas}", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,block,table,count", [
    (["credit", "--deltas", "0,0.1,0.2,0.3"], "credit", "credit_sensitivity.csv", "deltas"),
    (["decompose"], "decompose", "decomposition.csv", "quintiles"),
    (["intermediation"], "intermediation", "sector_report.csv", "sectors"),
])
def test_table_command_manifest_counts_its_work(tmp_path, argv, block, table, count):
    # decided from the run's own table: one row per delta, quintile or sector
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 0
    rows = [r for r in (out / table).read_text().splitlines()[1:] if not r.startswith("total,")]
    assert json.loads((out / "run_manifest.json").read_text())[block] == {count: len(rows)}
    assert len(rows) == {"deltas": 4, "quintiles": 5, "sectors": 7}[count]


# --- decompose ---------------------------------------------------------------

def test_decompose_total(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("decompose", "--shock", "0.10", "--out", str(out)) == 0
    rows = (out / "decomposition.csv").read_text().strip().split("\n")
    total = float(rows[-1].split(",")[-1])
    assert total == pytest.approx(3.92, abs=0.05)
    top = float(rows[-2].split(",")[-1])
    assert top == pytest.approx(3.54, abs=0.05)


@pytest.mark.parametrize("rows,line,column,what", [
    (["0.08,0.85,0.05", "0.10,0.85,0.08", "0.11,0.85,abc"], 4, "exposure", "not a number"),
    (["0.08,0.85,0.05", "0.10,nan,0.08"], 3, "mpc", "finite"),
    (["0.08,0.85,0.05", "0.10,0.85"], 3, "exposure", "too short"),
    (["0.08,0.85,0.05", "share,mpc,exposure"], 3, "share", "not a number"),  # late header
])
def test_decompose_bad_quintile_row_exit_2(tmp_path, capsys, rows, line, column, what):
    q = tmp_path / "q.csv"
    filler = ["0.12,0.85,0.12", "0.59,0.85,0.60", "0.11,0.85,0.10"]
    q.write_text("\n".join(["share,mpc,exposure", *rows, *filler]) + "\n")
    code = run_cli("decompose", "--quintiles", str(q), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{q}: line {line}, column '{column}'" in err and what in err
    assert "Traceback" not in err


# --- intermediation ----------------------------------------------------------

def test_intermediation_report(tmp_path):
    out = tmp_path / "o"
    assert run_cli("intermediation", "--out", str(out)) == 0
    rows = (out / "sector_report.csv").read_text().strip().split("\n")
    assert len(rows) == 8
    top3 = {r.split(",")[1] for r in rows[1:4]}
    assert top3 == {"SaaS (seat)", "Mgmt. consulting", "Travel booking"}


_SECTOR_HEADER = "name,revenue_busd,friction_share_low,friction_share_high,switching,regulatory,net_exposure"


@pytest.mark.parametrize("rows,line,column,what", [
    (["A,10,0.1,0.2,Low,Low,High", "B,20"], 3, "friction_share_low", "too short"),
    (["A,10,0.1,0.2,Low,Low"], 2, "net_exposure", "too short"),
    (["A,nan,0.1,0.2,Low,Low,High"], 2, "revenue_busd", "finite"),
    (["A,10,0.1,0.2,Low,Low,High", "B,abc,0.1,0.2,Low,Low,High"], 3, "revenue_busd", "not a number"),
])
def test_intermediation_bad_sector_row_exit_2(tmp_path, capsys, rows, line, column, what):
    sectors = tmp_path / "s.csv"
    sectors.write_text("\n".join([_SECTOR_HEADER, *rows]) + "\n")
    out = tmp_path / "o"
    assert run_cli("intermediation", "--sectors", str(sectors), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{sectors}: line {line}, column '{column}'" in err and what in err
    assert "Traceback" not in err
    assert not (out / "sector_report.csv").exists()


def test_intermediation_rejected_sector_names_line(tmp_path, capsys):
    sectors = tmp_path / "s.csv"
    sectors.write_text(_SECTOR_HEADER + "\nA,10,0.3,0.2,Low,Low,High\n")
    assert run_cli("intermediation", "--sectors", str(sectors), "--out", str(tmp_path / "o")) == 2
    assert f"{sectors}: line 2: A: friction share range" in capsys.readouterr().err


# --- montecarlo --------------------------------------------------------------

def test_montecarlo_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(
            "montecarlo", "--n", "10", "--seed", "7", "--out", str(out)
        ) == 0
    assert (out1 / "mc_summary.txt").read_bytes() == (out2 / "mc_summary.txt").read_bytes()
    assert (out1 / "mc_histogram.csv").read_bytes() == (out2 / "mc_histogram.csv").read_bytes()


@pytest.mark.parametrize("command", ["montecarlo", "repro"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5", "abc"])
def test_seed_outside_uint64_exit_2(tmp_path, capsys, command, seed):
    # seeds used to be reduced modulo 2**64: -1 ran as 2**64 - 1, and 2**64 as 0
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--n", "5", f"--seed={seed}", "--out", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: expected a whole number in [0, 2**64), got '{seed}'" in err
    assert not out.exists()


def test_largest_seed_runs(tmp_path):
    out = tmp_path / "o"
    assert run_cli("montecarlo", "--n", "5", "--seed", str(2**64 - 1), "--out", str(out)) == 0
    assert "seed = 18446744073709551615\n" in (out / "mc_summary.txt").read_text()
    assert json.loads((out / "run_manifest.json").read_text())["seed"] == 2**64 - 1


def test_montecarlo_manifest_accounts_for_every_draw(tmp_path, monkeypatch):
    # g_A draws this large make some lanes overflow; the manifest alone must tell
    # which, and with the histogram account for every draw
    import dataclasses

    from macrostress import cli
    from macrostress.stochastics import default_ranges, uniform

    monkeypatch.setattr(cli, "default_ranges", lambda: dataclasses.replace(
        default_ranges(), g_A=uniform(100.0, 160.0), mpc_labor=uniform(0.3, 0.95),
    ))
    out = tmp_path / "o"
    assert run_cli("montecarlo", "--n", "40", "--seed", "3", "--out", str(out)) == 0
    counters = json.loads((out / "run_manifest.json").read_text())["monte_carlo"]
    assert set(counters) == {"lanes", "rk4_steps", "scalar_draws", "failed_draws"}
    rows = (out / "mc_histogram.csv").read_text().strip().split("\n")[1:]
    counts = sum(int(row.rsplit(",", 1)[1]) for row in rows)
    assert 0 < len(counters["failed_draws"]) < counters["lanes"] == 40
    assert len(counters["failed_draws"]) + counts == counters["lanes"]
    assert counters["rk4_steps"] == 40 * 1000
    assert 0 < counters["scalar_draws"] < 40
    summary = (out / "mc_summary.txt").read_text()
    assert f"n_failures = {len(counters['failed_draws'])}\n" in summary


def test_montecarlo_worker_count_invariance(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("montecarlo", "--n", "12", "--seed", "3", "--out", str(out1)) == 0
    assert run_cli("montecarlo", "--n", "12", "--seed", "3", "--jobs", "2", "--out", str(out2)) == 0
    assert (out1 / "mc_summary.txt").read_bytes() == (out2 / "mc_summary.txt").read_bytes()


# --- sweep -------------------------------------------------------------------

def test_sweep_csv(tmp_path):
    out = tmp_path / "o"
    assert run_cli(
        "sweep", "--lags", "0,1", "--taus", "0,0.1", "--out", str(out), "--svg"
    ) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "lag,tau,depth,s_L_final,consumption_decline_pct"
    assert len(rows) == 5
    assert (out / "sweep.svg").exists()


def test_sweep_manifest_counts_its_work(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario.short]\ng_A_override = 0.2\nhorizon = 2\ndt = 0.02\n")
    out = tmp_path / "o"
    assert run_cli("sweep", "--config", str(cfg), "--scenario", "short",
                   "--lags", "0,0.5,1", "--taus", "0.05,0.1", "--out", str(out)) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    # at g_A = 0.2 the no-policy path stays in its shared time-only prefix past t = 2, so
    # all horizon / dt = 100 steps run once, and the 2 groups (one per tau) add none
    assert manifest["sweep"] == {"cells": 6, "groups": 2, "prefix_steps": 100, "rk4_steps": 100}
    assert "monte_carlo" not in manifest
    assert len((out / "sweep.csv").read_text().strip().split("\n")) == 1 + 6


# sha256 of sweep.csv and sweep.svg on a 13 x 6 grid, recorded while the chart
# picked each tau's cells by value. The 7 x 3 default grid is pinned by the
# repro goldens (test_subcommand_files_equal_repro_goldens).
SWEEP_78_CELLS = ("0,0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.25,2.5,2.75,3", "0.01,0.03,0.05,0.07,0.09,0.12")
SWEEP_78_SHA256 = ("9da237f0d9e2c29bebf877e0f5f3f3e1c323e09db56d03d933e56c1621940df1",
                   "037f87e470409a0f4603fd3a580665d5bdec964197dcb0a25632a50de7914c1a")


def test_sweep_78_cells_byte_identical_to_golden(tmp_path):
    out = tmp_path / "o"
    lags, taus = SWEEP_78_CELLS
    assert run_cli("sweep", "--lags", lags, "--taus", taus, "--svg", "--out", str(out)) == 0
    digests = tuple(hashlib.sha256((out / f"sweep.{ext}").read_bytes()).hexdigest() for ext in ("csv", "svg"))
    assert digests == SWEEP_78_SHA256
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 78


@pytest.mark.parametrize("lags,taus,message", [
    ("0,1", "0.03,0.03,0.05", "policy grid taus must be strictly ascending: 0.03 repeats"),
    ("0,1.5,1.5", "0.05", "policy grid lags must be strictly ascending: 1.5 repeats"),
    ("0,0", "0.05,0.05", "policy grid lags must be strictly ascending: 0 repeats"),
])
def test_sweep_repeated_grid_value_exit_2(tmp_path, capsys, lags, taus, message):
    # a repeat would write duplicate sweep.csv rows and draw a series twice
    out = tmp_path / "o"
    assert run_cli("sweep", "--lags", lags, "--taus", taus, "--svg", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_past_the_cell_cap_exit_2(tmp_path, capsys):
    # 89 x 2809 = MAX_CELLS + 1 cells: refused before any cell is integrated
    out = tmp_path / "o"
    lags = ",".join(str(0.01 * i) for i in range(89))
    taus = ",".join(str(1e-5 * j) for j in range(2809))
    assert run_cli("sweep", "--lags", lags, "--taus", taus, "--svg", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: policy grid lags x taus = 89 x 2809 = 250001 cells; the cap is 250000\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--taus", "0.05", "--lags"], "scenario rapid_l-1.0_t0.05: lag must be >= 0"),
    (["sweep", "--lags", "0", "--taus"], "scenario rapid_l0.0_t-0.05: tau must be >= 0"),
    (["credit", "--deltas"], "delta must be in [0, 1); full income destruction is outside the model"),
    (["sweep", "--taus", "0.05", "--lag"], "scenario rapid_l-1.0_t0.05: lag must be >= 0"),
])
@pytest.mark.parametrize("joined", [False, True])
def test_negative_list_value_reaches_its_check_exit_2(tmp_path, capsys, argv, message, joined):
    # "--lags -1,0" reads as "--lags=-1,0", not as an option without its value
    *argv, option = argv
    value = {"--lags": "-1,0", "--lag": "-1,0", "--taus": "-0.05,0.1", "--deltas": "-0.1,0"}[option]
    given = [f"{option}={value}"] if joined else [option, value]
    out = tmp_path / "o"
    assert run_cli(*argv, *given, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["sweep", "--lags", "--taus", "0.05"], ["credit", "--deltas", "-x"]])
def test_list_option_without_a_value_is_fatal(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


# --- regress -----------------------------------------------------------------

def test_regress_fixture(tmp_path, capsys):
    data = tmp_path / "d.csv"
    lines = ["y,x1,x2"]
    for i in range(12):
        x1, x2 = float(i), float(i % 3)
        lines.append(f"{2 + 3 * x1 - 0.5 * x2},{x1},{x2}")
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert run_cli(
        "regress", "--data", str(data), "--formula", "y ~ x1 + x2", "--out", str(out)
    ) == 0
    rows = (out / "regression.csv").read_text().strip().split("\n")
    coefs = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
    assert coefs["intercept"] == pytest.approx(2.0, abs=1e-9)
    assert coefs["x1"] == pytest.approx(3.0, abs=1e-9)
    assert coefs["x2"] == pytest.approx(-0.5, abs=1e-9)
    assert "r_squared = 1" in capsys.readouterr().out


# A fit whose every coefficient needs all 9 significant digits, and the sha256
# of its regression.csv (CPython 3.11, numpy 2.4).
_REGRESS_NINE_DIGITS = (
    "y,x1,x2\n1.3,0.2,3.1\n2.9,1.7,2.2\n4.1,2.3,0.7\n6.2,3.9,1.9\n7.7,5.1,0.4\n9.4,6.6,2.8\n"
)
REGRESSION_SHA256 = "0092902e37f6819e62e82e54c14af7434ad9940c956600c56ad971fec2291495"


def _significant_digits(cell):
    mantissa = cell.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0"))


def test_regression_table_byte_identical_to_golden(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(_REGRESS_NINE_DIGITS)
    out = tmp_path / "o"
    assert run_cli(
        "regress", "--data", str(data), "--formula", "y ~ x1 + x2", "--out", str(out)
    ) == 0
    text = (out / "regression.csv").read_text()
    coefficients = [row.split(",")[1] for row in text.splitlines()[1:]]
    assert len(coefficients) == 3 and all(_significant_digits(c) == 9 for c in coefficients)
    assert hashlib.sha256(text.encode()).hexdigest() == REGRESSION_SHA256


def test_regress_bad_formula_exit_2(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("y,x\n1,2\n")
    assert run_cli("regress", "--data", str(data), "--formula", "nonsense") == 2


def test_regress_overflowing_squares_exit_3(tmp_path, capfd):
    # finite data whose squares overflow: no NaN table, no numpy warning
    data = tmp_path / "d.csv"
    data.write_text("y,x\n1e200,1\n2e200,2\n3e200,3\n5e200,4\n")
    out = tmp_path / "o"
    code = run_cli("regress", "--data", str(data), "--formula", "y ~ x", "--out", str(out))
    assert code == 3
    err = capfd.readouterr().err
    assert err.startswith("numeric error: regression hc1_se is not finite") and err.count("\n") == 1
    assert not out.exists()


_SCALE_Y, _SCALE_X = "1,2,3,5,4,7".split(","), [1.0, 2.0, 3.0, 5.0, 4.5, 6.0]


def _regress_scaled(tmp_path, scale):
    data = tmp_path / f"d{scale:g}.csv"
    data.write_text("y,x\n" + "".join(f"{y},{x * scale!r}\n" for y, x in zip(_SCALE_Y, _SCALE_X)))
    out = tmp_path / f"o{scale:g}"
    code = run_cli("regress", "--data", str(data), "--formula", "y ~ x", "--out", str(out))
    if code:
        return code, None
    rows = (out / "regression.csv").read_text().strip().split("\n")[1:]
    return code, [[float(v) for v in row.split(",")[1:]] for row in rows]


def test_regress_large_regressor_scale_is_not_dependent(tmp_path):
    # matrix_rank's tolerance follows the largest singular value: unscaled, x * 1e100
    # drowned the intercept column and was reported as dependent (exit 2)
    code, fit = _regress_scaled(tmp_path, 1.0)
    assert code == 0
    code, scaled = _regress_scaled(tmp_path, 1e100)
    assert code == 0
    (a, a_se), (b, b_se) = scaled
    assert [a, a_se, b * 1e100, b_se * 1e100] == pytest.approx(fit[0] + fit[1], rel=1e-9)


def test_regress_regressor_whose_cross_products_overflow_exit_3(tmp_path, capfd):
    # the rank test passes at 1e160, and X'X overflows in the solve
    assert _regress_scaled(tmp_path, 1e160)[0] == 3
    assert capfd.readouterr().err.startswith("numeric error: regression coefficients is not finite")


def test_regress_collinear_regressor_still_exit_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("y,x1,x2\n1,1,2e100\n2,2,4e100\n3,3,6e100\n5,5,1e101\n4,4.5,9e100\n")
    assert run_cli("regress", "--data", str(data), "--formula", "y ~ x1 + x2",
                   "--out", str(tmp_path / "o")) == 2
    assert "design matrix is rank deficient: column 2 is dependent" in capsys.readouterr().err


# --- indicators --------------------------------------------------------------

def test_indicators_command(tmp_path, capsys):
    data_dir = tmp_path / "series"
    data_dir.mkdir()
    (data_dir / "saas_net_retention_pct.csv").write_text(
        "2026-01-01,112\n2026-04-01,113\n2026-07-01,111\n2026-10-01,115\n"
    )
    out = tmp_path / "o"
    assert run_cli("indicators", "--data", str(data_dir), "--out", str(out)) == 0
    text = (out / "indicators_report.csv").read_text()
    assert "H2" in text and "Falsified" in text


# Every signal kind and reason, a 10-digit window (written as a whole number),
# a rule without a threshold (an empty cell) and thresholds that need 9 digits
# or an exponent; and the sha256 of the indicators_report.csv they give.
_INDICATOR_RULES = """\
[rule.falsified]
series = rising
comparator = >=
threshold = 1.23456789012
window = 3

[rule.triggered]
series = rising
comparator = <
threshold = 0.000123456789012
window = 2

[rule.triggers]
series = rising
comparator = >
threshold = -1e-9
direction = triggers

[rule.mixed]
series = rising
comparator = >=
threshold = 4

[rule.long_window]
series = rising
comparator = >=
threshold = 1
window = 1234567890

[rule.qualitative]
series = flat
comparator = <=
note = an analyst supplies the threshold

[rule.yoy]
series = rising
comparator = >
threshold = 123456789012.5
window = 2
transform = yoy_pct_change
transform_param = 1

[rule.gap]
series = rising
comparator = >=
threshold = -0.5
transform = gap_vs
transform_param = flat

[rule.absent]
series = absent
comparator = <
threshold = 0
"""
_INDICATOR_SERIES = {
    "rising": "date,value\n2024-01-01,1.25\n2024-04-01,2.5\n2024-07-01,3.75\n"
              "2024-10-01,5\n2025-01-01,6.25\n",
    "flat": "2024-01-01,1\n2024-04-01,1\n2024-07-01,1\n2024-10-01,1\n2025-01-01,1\n",
}
INDICATORS_REPORT_SHA256 = "bc19ac73338a3d7e9aae2971a4026c938d481ffce87209f814d24780617376e4"


def _indicator_inputs(tmp_path):
    rules = tmp_path / "rules.cfg"
    rules.write_text(_INDICATOR_RULES)
    data_dir = tmp_path / "series"
    data_dir.mkdir()
    for name, body in _INDICATOR_SERIES.items():
        (data_dir / f"{name}.csv").write_text(body)
    return ["--rules", str(rules), "--data", str(data_dir)]


def test_indicators_report_byte_identical_to_golden(tmp_path):
    out = tmp_path / "o"
    assert run_cli("indicators", *_indicator_inputs(tmp_path), "--out", str(out)) == 0
    text = (out / "indicators_report.csv").read_text()
    assert {row.split(",")[6] + row.split(",")[7] for row in text.splitlines()[1:]} == {
        "Falsified", "Triggered", "Indeterminatemixed data",
        "Indeterminateinsufficient data", "Indeterminatequalitative rule",
    }
    assert ",,1234567890," not in text and ",1234567890,falsifies," in text
    assert "qualitative,flat,<=,,4," in text
    assert hashlib.sha256(text.encode()).hexdigest() == INDICATORS_REPORT_SHA256


def test_indicators_manifest_counts_its_work(tmp_path):
    out = tmp_path / "o"
    assert run_cli("indicators", *_indicator_inputs(tmp_path), "--out", str(out)) == 0
    assert json.loads((out / "run_manifest.json").read_text())["indicators"] == {
        "rules": 9, "series": 2, "signals": {"Falsified": 2, "Triggered": 3, "Indeterminate": 4},
        "missing_series": [{"rule": "absent", "series": "absent", "role": "primary"}],
    }


def test_indicators_names_each_missing_series(tmp_path, capsys):
    # a gap_vs reference with a typo and an absent primary series: each is named on
    # stderr and in the manifest, and the rule still reads insufficient data, exit 0
    rules, data = _indicator_inputs(tmp_path)[1], tmp_path / "series"
    Path(rules).write_text(_INDICATOR_RULES.replace("transform_param = flat", "transform_param = flatt"))
    out = tmp_path / "o"
    assert run_cli("indicators", "--rules", rules, "--data", str(data), "--out", str(out)) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: rule gap: reference series 'flatt' has no file {data / 'flatt'}.csv; "
        "the rule reads insufficient data",
        f"warning: rule absent: primary series 'absent' has no file {data / 'absent'}.csv; "
        "the rule reads insufficient data",
    ]
    assert json.loads((out / "run_manifest.json").read_text())["indicators"]["missing_series"] == [
        {"rule": "gap", "series": "flatt", "role": "reference"},
        {"rule": "absent", "series": "absent", "role": "primary"},
    ]
    assert "gap,rising,>=,-0.5,4,falsifies,Indeterminate,insufficient data" in (
        out / "indicators_report.csv"
    ).read_text()


@pytest.mark.parametrize("body,line,what", [
    ("date,value\n2026-01-01,112\n2026-04-01,abc\n", 3, "not a number"),
    ("2026-01-01,112\n\n2026-04-01,nan\n", 3, "finite"),
    ("2026-01-01,112\n2026-04-01\n", 2, "too short"),
])
def test_indicators_bad_series_row_exit_2(tmp_path, capsys, body, line, what):
    data_dir = tmp_path / "series"
    data_dir.mkdir()
    series = data_dir / "saas_net_retention_pct.csv"
    series.write_text(body)
    code = run_cli("indicators", "--data", str(data_dir), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{series}: line {line}, column 'value'" in err and what in err
    assert "Traceback" not in err


# --- console entry point -----------------------------------------------------

def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "macrostress.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for cmd in ("simulate", "sweep", "montecarlo", "credit", "repro"):
        assert cmd in proc.stdout


# --- input errors ------------------------------------------------------------

@pytest.mark.parametrize("raw", ["inf", "nan", "-inf"])
def test_non_finite_config_value_exit_2(tmp_path, capsys, raw):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"V_obs = {raw}\n")
    code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "V_obs" in err and "finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "trajectory_baseline.csv").exists()


def test_negative_g_A_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("g_A = -0.5\n")
    code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "g_A must be >= 0" in err and "Traceback" not in err


# calibration fields that no engine path read, removed from the config format
@pytest.mark.parametrize("key", ["g_c", "sigma_ces", "sbar", "sbar_eff", "mpc_capital"])
def test_removed_calibration_key_config_exit_2(tmp_path, capsys, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"g_A = 0.1\n{key} = 0.5\n")
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: line 2: unknown key '{key}' outside a [scenario.<name>] block" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_non_positive_V_obs_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("V_obs = -1\n")
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "V_obs must be positive" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,option", [
    ("simulate", "--dt"),
    ("montecarlo", "--threshold"),
    ("credit", "--dscr"),
    ("credit", "--sigma"),
    ("decompose", "--shock"),
])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_float_option_exit_2(tmp_path, capsys, command, option, raw):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, f"{option}={raw}", "--out", str(out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected a finite number, got '{raw}'" in err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", str(MAX_DRAWS + 1)])
def test_repro_bad_draw_count_writes_nothing(tmp_path, capsys, n):
    # every result is computed before the first file is written
    out = tmp_path / "o"
    assert run_cli("repro", "--n", n, "--out", str(out)) == 2
    assert "monte_carlo needs n" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_environment_block(tmp_path):
    out = tmp_path / "o"
    assert run_cli("credit", "--out", str(out)) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    environment = manifest["environment"]
    assert set(environment) == {"python", "numpy", "numpy_dispatch", "platform"}
    dispatch = environment.pop("numpy_dispatch")
    assert all(isinstance(v, str) and v for v in environment.values())
    assert isinstance(dispatch, list) and all(isinstance(v, str) and v for v in dispatch)


@pytest.mark.parametrize("line,key,what", [
    ("window = x", "window", "a whole number"),
    ("window = 2.5", "window", "a whole number"),
    ("threshold = abc", "threshold", "a finite number"),
    ("threshold = nan", "threshold", "a finite number"),
    ("threshold = -inf", "threshold", "a finite number"),
    ("transform_param = four", "transform_param", "a whole number >= 1"),
    ("transform_param = 0", "transform_param", "a whole number >= 1"),
])
def test_indicators_bad_rule_value_exit_2(tmp_path, capsys, line, key, what):
    rules = tmp_path / "rules.cfg"
    rules.write_text(
        "[rule.H2]\nseries = s\ntransform = yoy_pct_change\ncomparator = >=\n" + line + "\n"
    )
    data = tmp_path / "data"
    data.mkdir()
    code = run_cli("indicators", "--rules", str(rules), "--data", str(data),
                   "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{rules}: line 5: value for '{key}' must be {what}" in err
    assert "Traceback" not in err


def test_indicators_repeated_rule_exit_2(tmp_path, capsys):
    rules = tmp_path / "rules.cfg"
    rules.write_text("[rule.H2]\nseries = s\nthreshold = 1\n\n[rule.H2]\nseries = s\n")
    data = tmp_path / "data"
    data.mkdir()
    code = run_cli("indicators", "--rules", str(rules), "--data", str(data),
                   "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{rules}: line 5: repeated section [rule.H2], first at line 1" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_indicators_rule_file_without_a_block_exit_2(tmp_path, capsys, text):
    rules = tmp_path / "rules.cfg"
    rules.write_text(text)
    data = tmp_path / "data"
    data.mkdir()
    code = run_cli("indicators", "--rules", str(rules), "--data", str(data),
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err == f"error: {rules}: no [rule.<id>] block\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("body", [
    "date,value\n2020-01-01,112\n2020-01-01,113\n",
    "2020-04-01,112\n2020-01-01,113\n2020-07-01,111\n2020-01-01,115\n",   # apart and unsorted
])
def test_indicators_repeated_date_exit_2(tmp_path, capsys, body):
    # one date is one observation: a repeat would fill two places of a window
    data_dir = tmp_path / "series"
    data_dir.mkdir()
    series = data_dir / "saas_net_retention_pct.csv"
    series.write_text(body)
    code = run_cli("indicators", "--data", str(data_dir), "--out", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err == f"error: {series}: date 2020-01-01 repeats\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("day,why", [
    ("2020-9-01", "date must be zero-padded YYYY-MM-DD"),   # would sort after 2020-12-01
    ("20200901", "date must be zero-padded YYYY-MM-DD"),
    ("2020-13-01", "month must be in 1..12"),
])
def test_indicators_date_not_zero_padded_iso_exit_2(tmp_path, capsys, day, why):
    # the series is sorted by its date text, which orders only zero-padded ISO dates
    data_dir = tmp_path / "series"
    data_dir.mkdir()
    series = data_dir / "saas_net_retention_pct.csv"
    series.write_text(f"date,value\n2020-06-01,112\n{day},113\n2020-12-01,111\n")
    code = run_cli("indicators", "--data", str(data_dir), "--out", str(tmp_path / "o"))
    assert code == 2
    assert capsys.readouterr().err == f"error: {series}: line 3, column 'date': {why}: {day!r}\n"
    assert not (tmp_path / "o").exists()


# one input of each reader, with a byte that is not UTF-8 on its second line
@pytest.mark.parametrize("name,argv", [
    ("c.cfg", lambda p: ["simulate", "--config", str(p)]),
    ("rules.cfg", lambda p: ["indicators", "--rules", str(p), "--data", str(p.parent)]),
    ("s.csv", lambda p: ["intermediation", "--sectors", str(p)]),
    ("d.csv", lambda p: ["regress", "--data", str(p), "--formula", "y ~ x"]),
    ("q.csv", lambda p: ["decompose", "--quintiles", str(p)]),
    ("saas_net_retention_pct.csv", lambda p: ["indicators", "--data", str(p.parent)]),
])
def test_input_not_utf8_exit_2_names_the_file(tmp_path, capsys, name, argv):
    (tmp_path / "inputs").mkdir()
    path = tmp_path / "inputs" / name
    path.write_bytes(b"# g_A = 0.1\n\xff\xfe = 1\n")
    out = tmp_path / "o"
    assert run_cli(*argv(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 text" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    lambda p: ["intermediation", "--sectors", str(p)],
    lambda p: ["regress", "--data", str(p), "--formula", "y ~ x"],
])
def test_csv_missing_column_exit_2(tmp_path, capsys, argv):
    data = tmp_path / "d.csv"
    data.write_text("name,y\nA,1\n")
    assert run_cli(*argv(data), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert f"{data}: missing columns [" in err and "Traceback" not in err


# a cell over the csv module's field size limit (131072 characters), on line 2
@pytest.mark.parametrize("name,header,argv", [
    ("d.csv", "y,x", lambda p: ["regress", "--data", str(p), "--formula", "y ~ x"]),
    ("saas_net_retention_pct.csv", "date,value", lambda p: ["indicators", "--data", str(p.parent)]),
    ("s.csv", "name,revenue_busd,friction_share_low,friction_share_high,switching,regulatory,"
     "net_exposure", lambda p: ["intermediation", "--sectors", str(p)]),
])
def test_csv_field_over_size_limit_exit_2(tmp_path, capsys, name, header, argv):
    (tmp_path / "inputs").mkdir()
    path = tmp_path / "inputs" / name
    path.write_text(f"{header}\n1,{'9' * 200_000}\n")
    out = tmp_path / "o"
    assert run_cli(*argv(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 2: field larger than field limit" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_misaligned_dt_exit_2(tmp_path, capsys):
    code = run_cli("simulate", "--scenario", "baseline", "--dt", "0.03", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "scenario baseline" in err and "does not divide" in err


def _regress_data(tmp_path, body):
    data = tmp_path / "d.csv"
    rows = [f"{2 + 3 * i},{i}" for i in range(6)]
    data.write_text("y,x\n" + "\n".join(rows) + "\n" + body)
    return data


@pytest.mark.parametrize("body,column,what", [
    ("20\n", "x", "too short"),
    ("nan,6\n", "y", "finite"),
    ("20,inf\n", "x", "finite"),
    ("20,abc\n", "x", "not a number"),
])
def test_regress_bad_row_exit_2(tmp_path, capsys, body, column, what):
    data = _regress_data(tmp_path, body)
    code = run_cli("regress", "--data", str(data), "--formula", "y ~ x",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert str(data) in err and "line 8" in err and f"column '{column}'" in err and what in err
    assert "Traceback" not in err


# --- repro is the subcommands at their defaults -------------------------------

def test_credit_sigma_defaults_to_calibration_sigma_r(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("sigma_r = 0.35\n")
    credit, repro = tmp_path / "credit", tmp_path / "repro"
    assert run_cli("credit", "--config", str(cfg), "--out", str(credit)) == 0
    assert run_cli("repro", "--config", str(cfg), "--n", "5", "--out", str(repro)) == 0
    table = (credit / "credit_sensitivity.csv").read_text()
    assert table == (repro / "credit_sensitivity.csv").read_text()
    # Phi(-ln(1.5) / 0.35) at delta = 0, not the 0.0213 of sigma_r = 0.20
    assert float(table.splitlines()[1].split(",")[2]) == pytest.approx(0.1233, abs=1e-4)


def test_repro_takes_its_scenarios_by_name(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[scenario.rapid]\ng_A_override = 0.3\n")
    simulate, sweep, repro = tmp_path / "simulate", tmp_path / "sweep", tmp_path / "repro"
    assert run_cli("simulate", "--config", str(cfg), "--scenario", "rapid",
                   "--out", str(simulate)) == 0
    assert run_cli("sweep", "--config", str(cfg), "--out", str(sweep)) == 0
    assert run_cli("repro", "--config", str(cfg), "--n", "5", "--out", str(repro)) == 0
    assert ((repro / "trajectory_rapid.csv").read_bytes()
            == (simulate / "trajectory_rapid.csv").read_bytes())
    assert (repro / "sweep.csv").read_bytes() == (sweep / "sweep.csv").read_bytes()
    # the sweep's base is the config's rapid, and so is the manifest's regime
    assert json.loads((repro / "run_manifest.json").read_text())["regime"]["rapid"]["g_A"] == 0.3


@pytest.mark.parametrize("command,inputs", [
    ("simulate", lambda p: []),
    ("sweep", lambda p: ["--lags", "0,1", "--taus", "0.05"]),
    ("montecarlo", lambda p: ["--n", "5"]),
    ("credit", lambda p: []),
    ("intermediation", lambda p: []),
    ("decompose", lambda p: []),
    ("regress", lambda p: ["--data", str(_regress_data(p, "")), "--formula", "y ~ x"]),
    ("indicators", lambda p: ["--data", str(p)]),
])
def test_subcommand_manifest_phases(tmp_path, command, inputs):
    out = tmp_path / "o"
    assert run_cli(command, *inputs(tmp_path), "--out", str(out)) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    phases = manifest["phases"]
    assert [p["name"] for p in phases] == [command, "write", "manifest"]
    assert all(p["seconds"] >= 0.0 for p in phases)
    assert sum(p["seconds"] for p in phases) <= manifest["wall_time_s"]


# Option text: one of the usual values, a finite number in [lo, hi], or one that is not finite.
def _number(lo, hi, *usual):
    return st.one_of(st.sampled_from(usual or (repr(lo),)), st.floats(lo, hi).map(repr),
                     st.sampled_from(["nan", "inf", "-inf", "1e400"]))


def _numbers(lo, hi, *usual):
    return st.lists(_number(lo, hi, *usual), max_size=3).map(",".join)


def _whole(lo, hi):
    return st.integers(lo, hi).map(str)


def _argv(*parts):
    """A strategy for argv: each part is fixed text or a strategy of text."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list)


# Each subcommand's options, and the values in the files it reads. Sizes stay
# small (no dt in (0, 0.004), at most 3 x 3 sweep cells, 12 draws) to keep the
# run short. {in} is a directory that holds the input files.
_FUZZ = {
    "simulate": _argv("--scenario", st.sampled_from(["baseline", "rapid", "extreme"]),
                      "--dt", st.one_of(_number(0.004, 1.0, "0.01", "0.02", "0.05"), _number(-0.1, 0.0)),
                      "--svg"),
    "sweep": _argv("--lags", _numbers(-1.0, 12.0, "0", "1"), "--taus", _numbers(-0.1, 1.0, "0.05"),
                   "--svg"),
    "montecarlo": _argv("--n", _whole(-1, 12), "--seed", _whole(-1, 2**64),
                        "--threshold", _number(-1.0, 2.0, "0.3")),
    "credit": _argv("--dscr", _number(-1.0, 1e6, "1.5"), "--sigma", _number(-1.0, 10.0, "0.2"),
                    "--deltas", _numbers(-0.5, 1.5, "0", "0.3")),
    "decompose": _argv("--shock", _number(-2.0, 2.0, "0.1")),
    "intermediation": _argv("--sectors", "{in}/s.csv", _argv(
        "name,revenue_busd,friction_share_low,friction_share_high,switching,regulatory,"
        "net_exposure\nA,", _number(-1.0, 1e4, "10"), ",", _number(-0.5, 1.5, "0.1"), ",",
        _number(-0.5, 1.5, "0.2"), ",Low,Low,High\n").map("".join)),
    "regress": _argv("--data", "{in}/d.csv", "--formula", "y ~ x", st.lists(
        st.tuples(_number(-1e6, 1e6), _number(-1e6, 1e6)).map(",".join), min_size=3, max_size=6,
    ).map(lambda rows: "y,x\n" + "\n".join(rows) + "\n")),
    "indicators": _argv("--data", "{in}", st.lists(
        _number(-1e3, 1e3), min_size=1, max_size=8,
    ).map(lambda values: "".join(f"2026-{i + 1:02d}-01,{v}\n" for i, v in enumerate(values)))),
    "repro": _argv("--n", _whole(-1, 6), "--seed", _whole(0, 2**64 - 1)),
}
# these two run the 1000-step lane kernel, about 0.06 and 0.15 s an example
_FUZZ_EXAMPLES = {"montecarlo": 5, "repro": 3}
_INPUT_FILES = {"intermediation": "s.csv", "regress": "d.csv",
                "indicators": "saas_net_retention_pct.csv"}
_NOT_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])", re.IGNORECASE)


@pytest.mark.parametrize("command", sorted(_FUZZ))
def test_fuzzed_options_exit_cleanly(command):
    # every subcommand, on finite and non-finite option values: a documented exit
    # code, no traceback, no nan or inf written, and no files from a failed run
    @settings(max_examples=_FUZZ_EXAMPLES.get(command, 10), deadline=None)
    @given(argv=_FUZZ[command])
    def check(argv):
        with tempfile.TemporaryDirectory() as tmp:
            inputs, out = Path(tmp) / "in", Path(tmp) / "o"
            inputs.mkdir()
            if command in _INPUT_FILES:
                *argv, body = argv
                (inputs / _INPUT_FILES[command]).write_text(body)
            argv = [a.replace("{in}", str(inputs)) for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main([command, *argv, "--out", str(out)])
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 2, 3, 4), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code == 0:
                for path in out.iterdir():
                    if path.name != "run_manifest.json":
                        assert not _NOT_FINITE.search(path.read_text()), (path.name, argv)
            else:
                assert not out.exists()

    check()
