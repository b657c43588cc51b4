"""The standing mutant table: small breaks of the engine that named tests must catch.

Run it from the root of a checkout (pytest does not collect this file):

    python tests/mutants.py              # every mutant
    python tests/mutants.py cap errstate # the mutants whose name contains "cap" or "errstate"

Each row names a file under ``src/``, an exact text in it, the text that replaces
it, and the tests that must fail. The runner first runs every named test on the
unchanged source, where each must pass. It then copies ``src/`` to a temporary
directory once per mutant, applies that one mutant, and runs only its tests
against the copy. A mutant is killed when every test it names fails, survives
when one of them passes, and is stale when its old text is not in the file
exactly once. The exit code is 0 only when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/macrostress
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root of the checkout


_DYN = "tests/test_dynamics.py::"
_POL = "tests/test_policy.py::"

MUTANTS = [
    # --- one exponential: the scalar rows, simulate_path's columns, the logistic
    # (the two math.exp mutants change bits only where numpy's exp differs from
    # math.exp, as under its AVX-512 dispatch; under x86-64-v3 they agree and survive)
    Mutant(
        "math_exp_in_the_scalar_rows", "dynamics.py",
        "        _drive(ts, *drive, at[0], at[1])\n",
        "        _drive(ts, *drive, at[0], at[1])\n"
        "        at[1] = drive[4] + drive[5] * np.array([math.exp(drive[6] * x) for x in ts.tolist()])\n",
        (_DYN + "test_scalar_integrator_equals_the_monte_carlo_lanes",
         _DYN + "test_scalar_integrator_equals_reference_on_sampled_draws"),
    ),
    Mutant(
        "math_exp_in_the_capability_column", "dynamics.py",
        "        A_t = ce.A0 * np.exp(x)\n",
        "        A_t = ce.A0 * np.array([math.exp(v) for v in x.tolist()])\n",
        (_DYN + "test_columns_equal_scalar_functions[scenario0]",),
    ),
    Mutant(
        "power_as_exp_of_log", "dynamics.py",
        "np.power(A_t, ce.alpha_rho)",
        "np.exp(ce.alpha_rho * np.log(A_t))",
        (_DYN + "test_columns_equal_scalar_functions[scenario0]",),
    ),
    Mutant(
        "adoption_tail_mask_dropped", "dynamics.py",
        "    out[upper] = 0.0\n    return out\n",
        "    return out\n",
        (_DYN + "test_logistic_equals_the_two_tailed_form_bit_for_bit",
         _DYN + "test_scalar_integrator_equals_reference_bit_for_bit[logistic_tail_at_tiny_share]"),
    ),
    # --- the reinstatement cap, found before the run
    Mutant(
        "cap_count_by_bisect_left", "dynamics.py",
        "bisect.bisect_right(range(n_steps), _EXP_CAP,",
        "bisect.bisect_left(range(n_steps), _EXP_CAP,",
        (_DYN + "test_steps_within_cap_at_exact_landings[0.01-0]",),
    ),
    Mutant(
        "cap_count_at_step_starts", "dynamics.py",
        "key=lambda i: rho_exp * (i * dt + dt))",
        "key=lambda i: rho_exp * (i * dt))",
        (_DYN + "test_scalar_integrator_equals_reference_bit_for_bit[overflow_at_end]",),
    ),
    Mutant(
        "cap_raised_before_the_path_error", "dynamics.py",
        "    if isinstance(end, IntegrationError):\n"
        "        raise end\n"
        "    if within < n_steps:  # step `within` has a stage past the cap: name the first\n",
        "    if within < n_steps:  # step `within` has a stage past the cap: name the first\n",
        (_DYN + "test_scalar_integrator_equals_reference_bit_for_bit[non_finite_before_the_cap]",),
    ),
    Mutant(
        "scalar_errstate_dropped", "dynamics.py",
        '    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic: inf, nan, silently\n',
        "    if True:\n",
        (_DYN + "test_scalar_integrator_equals_reference_bit_for_bit[non_finite]",),
    ),
    Mutant(
        "sweep_cap_check_dropped", "policy.py",
        "    if _steps_within_cap(drift[6], n_steps, base.dt) < n_steps:",
        "    if False:",
        (_POL + "test_lane_sweep_overflow_names_a_cell",),
    ),
    # --- the time-only prefix: the scalar path's one way into array arithmetic
    Mutant(
        "prefix_without_its_s_L0_guard", "dynamics.py",
        "        if s >= s0 and s > S_FLOOR:\n",
        "        if s > S_FLOOR:\n",
        (_DYN + "test_scalar_time_only_steps_at_and_below_s_L0",),
    ),
    Mutant(
        "prefix_without_its_floor_guard", "dynamics.py",
        "        if s >= s0 and s > S_FLOOR:\n",
        "        if s >= s0:\n",
        (_DYN + "test_scalar_integrator_equals_reference_bit_for_bit[rises_from_a_collapsed_start]",),
    ),
    Mutant(
        "scalar_path_without_the_prefix", "dynamics.py",
        "        r, states, chunks = _time_only_prefix(consts, within, dt, s_init)\n",
        "        r, states, chunks = (0, np.array([consts[8] if s_init is None else s_init]),\n"
        "                             _stage_rows(consts, within, dt))\n",
        (_DYN + "test_baseline_takes_every_step_as_array_arithmetic[0.01]",),
    ),
    # --- the scalar RK4 loop
    Mutant(
        "stage_1_margin_at_gap_zero", "dynamics.py",
        "                    if gap > 0.0:\n                        k1 = push1",
        "                    if gap >= 0.0:\n                        k1 = push1",
        (_DYN + "test_scalar_integrator_equals_reference_bit_for_bit[stage_1_input_at_s_L0]",),
    ),
    Mutant(
        "stage_4_margin_at_gap_zero", "dynamics.py",
        "                    if gap > 0.0:\n                        k4 = push4",
        "                    if gap >= 0.0:\n                        k4 = push4",
        (_DYN + "test_scalar_integrator_equals_reference_bit_for_bit[stage_4_input_at_s_L0]",),
    ),
    Mutant(
        "range_test_excludes_zero", "dynamics.py",
        "                    if not 0.0 <= s <= 1.0:  # False on NaN too\n",
        "                    if not 0.0 < s <= 1.0:\n",
        (_DYN + "test_scalar_integrator_equals_reference_bit_for_bit[collapse]",),
    ),
    Mutant(
        "finiteness_check_dropped", "dynamics.py",
        "                        if not math.isfinite(s):\n",
        "                        if False:\n",
        (_DYN + "test_scalar_integrator_equals_reference_bit_for_bit[non_finite]",),
    ),
    # --- the lane kernel
    Mutant(
        "kernel_time_only_steps_at_r", "dynamics.py",
        "leading = chunk > 1 and s_r is None",
        "leading = chunk > 1",
        (_POL + "test_kernel_lanes_do_not_retry_the_step_the_prefix_refused",),
    ),
    Mutant(
        "kernel_time_only_steps_not_from_t0", "dynamics.py",
        "leading = chunk > 1 and s_r is None",
        "leading = chunk > 1 and s_r is not None",
        (_DYN + "test_small_monte_carlo_tries_the_time_only_steps",
         _DYN + "test_sweep_grids_take_their_early_chunks_as_array_arithmetic[repro]"),
    ),
    Mutant(
        "kernel_time_only_steps_after_a_refusal", "dynamics.py",
        "            leading = bool(ok.all())\n        if leading:\n",
        "        if leading and ok.all():\n",
        (_DYN + "test_lane_kernel_stops_trying_the_time_only_steps_at_the_first_refusal",),
    ),
    Mutant(
        "kernel_transfer_after_its_first_time", "dynamics.py",
        "if times[r1 - 1] >= first_transfer:",
        "if times[r1 - 1] > first_transfer:",
        (_DYN + "test_lane_kernel_equals_reference_at_every_step[lanes_1001]",),
    ),
    Mutant(
        "kernel_transfer_at_gap_zero", "dynamics.py",
        "raw = raw + transfer * (gap > zero)",
        "raw = raw + transfer * (gap >= zero)",
        (_POL + "test_grouped_sweep_equals_one_lane_per_cell[lags_at_r]",),
    ),
    # --- the policy sweep's groups and fold
    Mutant(
        "sweep_groups_by_tau_alone", "policy.py",
        "index.setdefault((tau, start if tau and start > on_at else -math.inf), len(index))",
        "index.setdefault((tau, -math.inf), len(index))",
        (_POL + "test_grouped_sweep_equals_one_lane_per_cell[lags_after_r]",),
    ),
    Mutant(
        "sweep_activation_at_r_counts_as_later", "policy.py",
        "start if tau and start > on_at else",
        "start if tau and start > on_at + 1e-9 else",
        (_POL + "test_grouped_sweep_equals_one_lane_per_cell[lags_at_r]",),
    ),
    Mutant(
        "sweep_area_by_reduce", "policy.py",
        "        return np.add.accumulate(np.concatenate((area[None], steps)), axis=0)[-1]\n",
        "        return area + np.add.reduce(steps, axis=0)\n",
        (_POL + "test_grouped_sweep_equals_one_lane_per_cell[lags_after_r]",),
    ),
    Mutant(
        "sweep_depth_without_the_transfer", "policy.py",
        "        gap = (ce.s_L0 - path) - np.where(ts >= activation, transfer, 0.0)\n",
        "        gap = ce.s_L0 - path\n",
        (_POL + "test_grouped_sweep_equals_one_lane_per_cell[lags_after_r]",),
    ),
    # --- the row view, built with the collector paused
    Mutant(
        "row_view_enables_the_collector_always", "dynamics.py",
        "            if enabled:\n                gc.enable()\n",
        "            gc.enable()\n",
        (_DYN + "test_row_view_builds_without_a_collection_and_restores_the_collector",),
    ),
    Mutant(
        "row_view_without_the_pause", "dynamics.py",
        "        gc.disable()\n        try:\n",
        "        try:\n",
        (_DYN + "test_row_view_builds_without_a_collection_and_restores_the_collector",),
    ),
    # --- the manifest
    Mutant(
        "manifest_dispatch_lists_every_target", "cli.py",
        '"numpy_dispatch": [k for k in __cpu_dispatch__ if __cpu_features__[k]],',
        '"numpy_dispatch": list(__cpu_dispatch__),',
        ("tests/test_acceptance.py::test_repro_bytes_do_not_depend_on_numpy_dispatch",),
    ),
]


def _run_tests(src: Path, tests: tuple[str, ...], report: Path) -> dict[str, bool]:
    """Run ``tests`` against the package under ``src``; return whether each node id passed.
    A node id pytest did not run is missing from the result."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    passed = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            path = case.get("classname", "").replace(".", "/") + ".py"
            failed = any(child.tag in ("failure", "error", "skipped") for child in case)
            passed[f"{path}::{case.get('name')}"] = not failed
    return passed


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tmp = Path(tmp)
        named = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        baseline = _run_tests(ROOT / "src", named, tmp / "baseline.xml")
        broken = [t for t in named if not baseline.get(t)]
        if broken:
            print("named tests that do not pass on the unchanged source:", *broken, sep="\n  ")
            return 1
        results = []
        for m in chosen:
            copy = tmp / m.name / "src"
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            path = copy / "macrostress" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                results.append((m.name, "stale", []))
                continue
            path.write_text(text.replace(m.old, m.new))
            passed = _run_tests(copy, m.tests, tmp / f"{m.name}.xml")
            survivors = [t for t in m.tests if passed.get(t, True)]
            results.append((m.name, "survived" if survivors else "killed", survivors))
    for name, verdict, survivors in results:
        print(f"{verdict:9} {name}", *survivors, sep="\n          " if survivors else "")
    bad = [r for r in results if r[1] != "killed"]
    print(f"{len(results) - len(bad)} of {len(results)} mutants killed in {time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
