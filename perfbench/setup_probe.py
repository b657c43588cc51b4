"""Set-up of one workload in a fresh interpreter: import ``macrostress.cli``, build the inputs.

Usage: ``python3 perfbench/setup_probe.py <repo root> <workload> <seed> <out dir>``.
Prints one JSON line: the import time and the ``time.monotonic()`` reading at
which the inputs are ready, so the parent can time from before the spawn.
"""

import sys
import time

t0 = time.monotonic()
root, workload, seed, out = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
sys.path.insert(0, root + "/src")
import macrostress.cli  # noqa: E402,F401

t1 = time.monotonic()
import workloads  # noqa: E402

workloads.build_inputs(workload, seed, out)
t2 = time.monotonic()

import json  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "ready": t2}))
