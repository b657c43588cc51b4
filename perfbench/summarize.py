"""Summarise benchmark results across runs; optionally write the committed baseline.

Usage: ``python3 perfbench/summarize.py [--write-baseline]``

Reads ``perfbench/out/results/*.json`` (one file per workload, seed and
trace flag, as ``run.py`` writes them). For each workload and end-to-end
metric it prints the number of runs, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median. Traced runs
give the per-layer medians. ``--write-baseline`` stores all of it, with the
environment and the output digests per seed, in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv: list[str]) -> int:
    runs = [json.loads(p.read_text()) for p in sorted((BENCH / "out" / "results").glob("*.json"))]
    if not runs:
        print("no results under perfbench/out/results", file=sys.stderr)
        return 1
    e2e: dict = defaultdict(lambda: defaultdict(list))
    layers: dict = defaultdict(lambda: defaultdict(list))
    shares: dict = defaultdict(lambda: defaultdict(list))
    digests: dict = defaultdict(dict)
    failed: dict = defaultdict(lambda: [0, 0])
    for r in runs:
        w = r["workload"]
        failed[w][0] += r["failed"]
        failed[w][1] += r["attempted"]
        digests[w][str(r["seed"])] = r["digests"]
        target = layers if r["trace"] else e2e
        for name, m in r["metrics"].items():
            target[w][name].append(m["value"])
        for span, share in r.get("self_time_shares", {}).items():
            shares[w][span].append(share)

    summary = {"end_to_end": {}, "per_layer": {}, "self_time_shares": {}}
    for w in sorted(failed):
        print(f"{w}: failed_ratio {failed[w][0]}/{failed[w][1]}")
        summary["end_to_end"][w] = {name: spread(v) for name, v in e2e[w].items()}
        for name, s in summary["end_to_end"][w].items():
            print(f"  {name:<14} runs {s['runs']:>2}  median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        summary["per_layer"][w] = {name: statistics.median(v) for name, v in layers[w].items()}
        summary["self_time_shares"][w] = {s: statistics.median(v) for s, v in shares[w].items()}
        for name, value in summary["per_layer"][w].items():
            print(f"  {name:<46} {value:.6g}")

    if "--write-baseline" in argv:
        baseline = {"environment": runs[-1]["environment"], **summary, "digests": digests}
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print("wrote perfbench/baseline.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
