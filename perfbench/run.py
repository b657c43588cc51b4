"""macrostress benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {repro,sweep_grid,paths_export} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs the workload untraced and traced in turn and reports the
per-layer metrics. Every operation's output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Details (samples, digests, environment) go to
``perfbench/out/results/<workload>-s<seed>-t<trace>.json`` and the spans of
a traced run to ``perfbench/out/<workload>-s<seed>-t1/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SETUP_PROBES = 7
# op_wall_s of an in-process workload is scaled to this reference-kernel time.
# On a shared machine the host's speed drifts by tens of percent within
# minutes; the kernel, timed before every operation in the same thread, tracks
# most of that drift. It does not track the two-process repro CLI or the
# set-up probes' fresh interpreters, which are reported unscaled.
REF_S = 0.08
_CLI = "import sys; from macrostress.cli import main; sys.exit(main())"


def _reference_kernel() -> int:
    """Fixed pure-Python work, independent of the engine: build 40000 small records, render
    them as CSV text and sort them, as the engine's point assembly and rendering do."""
    rows = [(i * 0.001, math.sin(i * 0.001), {"i": i}) for i in range(40000)]
    text = "\n".join(f"{t:.9g},{y:.9g}" for t, y, _ in rows)
    rows.sort(key=lambda row: row[1])
    return len(text)


class Run:
    """Operations attempted and failed, the problems found, and the reference-kernel times."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_s: list[float] = []

    def sample_speed(self) -> None:
        self.reference_s.append(timed(_reference_kernel)[1])

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems


def until(seconds: float, step, sample=None) -> None:
    """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` have passed; at least twice.

    In untraced runs operation 0 warms the caches: it is checked but not timed,
    so ``sample()``, if given, runs before every operation but the first.
    """
    start, i = perf_counter(), 0
    while i < 2 or perf_counter() - start < seconds:
        if sample is not None and i > 0:
            sample()
        step(i)
        i += 1


def timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return result, perf_counter() - t0


# ---------------------------------------------------------------- processes

def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _tree_rss_kb(pid: int) -> int:
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status", encoding="ascii") as fh:
                total += next((int(line.split()[1]) for line in fh if line.startswith("VmRSS:")), 0)
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children", encoding="ascii") as fh:
                    todo += [int(c) for c in fh.read().split()]
        except (OSError, ValueError):
            continue  # the process ended between two reads
    return total


class TreeRss(threading.Thread):
    """Samples the summed resident memory of a process and its descendants every 10 ms."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid, self.peak_kb, self.done = pid, 0, threading.Event()

    def run(self) -> None:
        while not self.done.is_set():
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(self.pid))
            self.done.wait(0.01)


def cli_repro(argv: list[str]) -> tuple[int, float, int]:
    """One cold `macrostress repro` process: (exit code, wall seconds, peak tree RSS in KiB)."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", _CLI, *argv], env=_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
        sampler = TreeRss(proc.pid)
        sampler.start()
        _, err = proc.communicate()
        wall = perf_counter() - t0
        sampler.done.set()
        sampler.join()
    if proc.returncode:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode, wall, sampler.peak_kb


def setup_probes(workload: str, seed: int, work: Path, run: Run) -> tuple[list[float], list[float]]:
    """Set-up time from before the spawn of a fresh interpreter to inputs ready; one warm-up."""
    setup, imports = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), workload, str(seed),
             str(work / "probe")],
            env=_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode:
            run.problems.append(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
            break
        probe = json.loads(proc.stdout.splitlines()[-1])
        if i:
            setup.append(probe["ready"] - t0)
            imports.append(probe["import_s"])
    return setup, imports


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=30,
                                     capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------- workloads
# Each runner returns (end-to-end samples, (per-layer metrics, self-time
# shares) or None, output digests). Untraced runs fill the samples; traced
# runs alternate an untraced and a traced operation and fill the per-layer
# metrics.
# `workloads` and `tracing` import macrostress, so they are imported only
# after main() has checked the source tree and put src/ on the path.

class Reference:
    """The first correct output of a run. Later outputs must be byte-identical to it,
    and every output identical to it shares the oracle's verdict on it."""

    def __init__(self) -> None:
        self.digests: dict[str, str] | None = None
        self.first = ""
        self.verdict: list[str] = []

    def compare(self, what: str, digests: dict[str, str], oracle) -> list[str]:
        if self.digests is None:
            self.digests, self.first, self.verdict = digests, what, oracle()
        changed = sorted(n for n in self.digests if digests.get(n) != self.digests[n])
        if changed:
            return [f"{what}: output differs from the {self.first} output in {changed}"]
        return self.verdict


def _layers(tracer, plain: dict, traced: dict):
    """Per-layer metrics; the overhead is the median over pairs of traced / untraced wall - 1."""
    import tracing

    if not traced:
        return {}, {}  # no traced operation succeeded: every per-layer metric is missing
    layers, shares = tracing.layer_metrics(tracer, traced)
    layers["trace.overhead_ratio"] = statistics.median(
        traced[i] / plain[i] for i in traced if i in plain) - 1.0
    return layers, shares


def parallel_efficiency(name: str, call, rounds: int, samples: dict) -> float:
    """t(jobs=1) / (2 t(jobs=2)) from untraced ``call(jobs)``, medians over ``rounds`` of each.

    The calls run in ABBA order (1, 2, 2, 1, ...), which cancels a linear drift
    of the host's speed. The times are kept in ``samples``.
    """
    times: dict[int, list[float]] = {1: [], 2: []}
    for r in range(rounds):
        for jobs in ((1, 2) if r % 2 == 0 else (2, 1)):
            times[jobs].append(timed(call, jobs)[1])
    samples[f"{name}.jobs1_s"], samples[f"{name}.jobs2_s"] = times[1], times[2]
    return statistics.median(times[1]) / (2.0 * statistics.median(times[2]))


def run_repro(seed, seconds, tracer, run, work):
    """Untraced: cold `--jobs 2` CLI processes. Traced: in-process jobs=1 runs, untraced
    and traced in turn, then one `--jobs 2` CLI run, whose output must be identical."""
    from workloads import (REPRO_DATA_FILES, check_repro, file_digests, monte_carlo,
                           oracle_repro, repro_argv, repro_grid, repro_in_process, run_sweep)

    reference = Reference()
    samples: dict[str, list[float]] = {"op_wall_s": [], "peak_rss_mb": []}

    def checked(out: Path, code: int, what: str) -> list[str]:
        return check_repro(out, code) or reference.compare(
            what, file_digests(out, REPRO_DATA_FILES), lambda: oracle_repro(seed, out))

    def cli_op(i):
        out = work / "cli"
        shutil.rmtree(out, ignore_errors=True)
        code, wall, peak_kb = cli_repro(repro_argv(seed, 2, out))
        if run.record(checked(out, code, "--jobs 2 CLI")) and i > 0:
            samples["op_wall_s"].append(wall)
            samples["peak_rss_mb"].append(peak_kb / 1024.0)

    if tracer is None:
        until(seconds, cli_op)
        return samples, None, reference.digests

    plain, traced = {}, {}

    def pair(i):
        for op in (None, i):
            out = work / ("jobs1" if op is None else "traced")
            shutil.rmtree(out, ignore_errors=True)
            argv = repro_argv(seed, 1, out)
            try:
                if op is None:
                    code, wall = timed(repro_in_process, argv)
                else:
                    with tracer.installed(op):
                        code, wall = timed(tracer.wrap("cli.repro", repro_in_process), argv)
                        tracer.count("cli.repro.bytes_written",
                                     sum(p.stat().st_size for p in out.iterdir()))
            except Exception as exc:  # a failing operation is counted, and the loop goes on
                run.record([f"in-process repro {i} raised {exc!r}"])
                continue
            if run.record(checked(out, code, "jobs=1 in-process" if op is None else "jobs=1 traced")):
                (plain if op is None else traced)[i] = wall

    until(seconds, pair)
    cli_op(0)
    layers, shares = _layers(tracer, plain, traced)
    summaries = set()

    def mc(jobs):
        summary = monte_carlo(seed, jobs)
        summaries.add((summary.to_text(), summary.histogram))

    layers["stochastics.monte_carlo.parallel_efficiency"] = parallel_efficiency(
        "stochastics.monte_carlo", mc, 2, samples)
    run.record([] if len(summaries) == 1 else ["monte_carlo: the jobs=2 summary differs from jobs=1"])
    grid, calib = repro_grid()
    layers["policy.policy_sweep.parallel_efficiency"] = parallel_efficiency(
        "policy.policy_sweep", lambda jobs: run_sweep(grid, calib, jobs), 6, samples)
    return samples, (layers, shares), reference.digests


def _in_process(seconds, tracer, run, operation, check, prepare=None):
    """Closed loop over ``operation()`` in this process; ``check(result)`` gives its problems.

    Untraced, the reference kernel is timed before every operation. Traced, an
    untraced and a traced operation run in turn.
    """
    plain, traced, peak_mb = {}, {}, []

    def step(i, op):
        if prepare is not None:
            prepare()
        try:
            if op is None:
                result, wall = timed(operation)
            else:
                with tracer.installed(op):
                    result, wall = timed(operation)
        except Exception as exc:  # a failing operation is counted, and the loop goes on
            run.record([f"operation {i} raised {exc!r}"])
            return
        if i == 0:  # before the reference kernel first runs and adds its own peak
            peak_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if run.record(check(result)):
            (plain if op is None else traced)[i] = wall

    if tracer is None:
        until(seconds, lambda i: step(i, None), run.sample_speed)
        return {"op_wall_s": [wall for i, wall in plain.items() if i > 0],
                "peak_rss_mb": peak_mb}, None
    until(seconds, lambda i: (step(i, None), step(i, i)))
    return {}, _layers(tracer, plain, traced)


def run_sweep_grid(seed, seconds, tracer, run, work):
    from workloads import cells_digest, check_sweep, oracle_cells, run_sweep, sweep_inputs

    grid, calib = sweep_inputs(seed)
    reference = Reference()

    def check(cells):
        rows = [(c.lag, c.tau, c.depth, c.s_L_final) for c in cells]
        return check_sweep("sweep", rows, grid.lags, grid.taus) or reference.compare(
            "sweep", {"cells": cells_digest(cells)},
            lambda: oracle_cells(seed, rows, grid.base, calib))

    samples, layers = _in_process(seconds, tracer, run, lambda: run_sweep(grid, calib), check)
    if layers is not None:
        layers[0]["policy.policy_sweep.parallel_efficiency"] = parallel_efficiency(
            "policy.policy_sweep", lambda jobs: run_sweep(grid, calib, jobs), 6, samples)
    return samples, layers, reference.digests


def run_paths_export(seed, seconds, tracer, run, work):
    from workloads import check_paths, file_digests, oracle_paths, path_inputs, run_paths

    scenarios, calib = path_inputs(seed)
    names = [f"trajectory_{s.name}.{ext}" for s in scenarios for ext in ("csv", "svg")]
    out = work / "paths"
    reference = Reference()

    def prepare():
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)

    def check(_):
        return check_paths(out, scenarios) or reference.compare(
            "paths", file_digests(out, names), lambda: oracle_paths(seed, scenarios, calib, out))

    samples, layers = _in_process(
        seconds, tracer, run, lambda: run_paths(scenarios, calib, out), check, prepare)
    return samples, layers, reference.digests


RUNNERS = {"repro": run_repro, "sweep_grid": run_sweep_grid, "paths_export": run_paths_export}


# ---------------------------------------------------------------- main

def _baseline_digests(workload: str, seed: int, digests: dict) -> dict:
    """Digests are compared with the committed baseline's, when it holds this seed; reported, not failed."""
    path = BENCH / "baseline.json"
    known = json.loads(path.read_text()).get("digests", {}).get(workload, {}) if path.is_file() else {}
    if str(seed) not in known:
        return {"status": "seed not in baseline"}
    changed = sorted(n for n in digests if known[str(seed)].get(n) != digests[n])
    return {"status": "changed" if changed else "same", "changed": changed}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "macrostress" / "__init__.py").is_file():
        print(f"perfbench: no macrostress source at {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import macrostress

    if Path(macrostress.__file__).resolve().parent != (src / "macrostress").resolve():
        print(f"perfbench: imported macrostress from {macrostress.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = BENCH / "out" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    run = Run()
    setup, imports = setup_probes(args.workload, args.seed, work, run)
    tracer = tracing.Tracer() if args.trace else None
    samples, layers, digests = RUNNERS[args.workload](args.seed, args.seconds, tracer, run, work)

    raw, scale = {}, None
    if args.trace:
        values, shares = layers
        if imports:
            values["cli.import_s"] = statistics.median(imports)
        values.setdefault("stochastics.monte_carlo.parallel_efficiency", 0.0)
        values.setdefault("policy.policy_sweep.parallel_efficiency", 0.0)
        tracer.write(work / "spans.jsonl")
    else:
        samples["setup_s"] = setup
        raw = {name: statistics.median(v) for name, v in samples.items() if v}
        values = dict(raw)
        if run.reference_s and "op_wall_s" in raw:
            scale = REF_S / statistics.median(run.reference_s)
            values["op_wall_s"] = raw["op_wall_s"] * scale
        shares = {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        run.problems.append(f"no measurement for {missing}")
    result = {"correct": run.failed == 0 and not missing, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}

    # The per-workload names of op_wall_s that the design record uses.
    named = {}
    if "op_wall_s" in raw:
        label, size = {"repro": ("repro_wall_s", None), "sweep_grid": ("sweep_cells_per_s", 78),
                       "paths_export": ("path_rows_per_s", 30003)}[args.workload]
        for suffix, wall in (("", values["op_wall_s"]), (".raw", raw["op_wall_s"])):
            named[label + suffix] = size / wall if size else wall
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), **result,
        "failed_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "problems": run.problems[:50], "named_metrics": named,
        "raw_medians": raw, "speed_scale": scale,
        "samples": {**samples, "setup_s": setup, "cli.import_s": imports,
                    "reference_s": run.reference_s},
        "self_time_shares": shares, "digests": digests,
        "digests_vs_baseline": _baseline_digests(args.workload, args.seed, digests),
    }
    results = BENCH / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {run.attempted} operations, "
          f"{run.failed} failed (failed_ratio {details['failed_ratio']:.6g})")
    for problem in run.problems[:10]:
        print(f"  problem: {problem}")
    for name, m in {**metrics, **{k: {"value": v, "unit": ""} for k, v in named.items()}}.items():
        n = len(samples.get(name, [])) or ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}" + (f" (median of {n})" if n else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
