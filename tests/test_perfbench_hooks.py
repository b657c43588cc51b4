"""The engine names that the benchmark under ``perfbench/`` patches or calls exist.

The tracer skips a patch whose attribute is gone, so without these checks a
deletion in the engine would show only as missing spans in a benchmark run.
The benchmark's files are only parsed here, never imported or run.
"""

import ast
from functools import reduce
from pathlib import Path

import pytest

from macrostress import cli, dynamics, intermediation, monetary, policy, stochastics, svg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {m.__name__.rsplit(".", 1)[1]: m
           for m in (cli, dynamics, intermediation, monetary, policy, stochastics, svg)}


def _tree(name):
    return ast.parse((PERFBENCH / f"{name}.py").read_text(encoding="utf-8"))


def _dotted(node):
    """``a.b.c`` as ["a", "b", "c"]."""
    if isinstance(node, ast.Name):
        return [node.id]
    return [*_dotted(node.value), node.attr]


def test_every_traced_patch_resolves():
    [patches] = [
        node.value for node in _tree("tracing").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_PATCHES" for t in node.targets)
    ]
    missing = []
    for row in patches.elts:
        module, *path = _dotted(row.elts[0])
        owner = reduce(getattr, path, MODULES[module])
        if row.elts[1].value not in vars(owner):  # the tracer looks in the owner's __dict__
            missing.append(f"{owner.__name__}.{row.elts[1].value}")
    assert patches.elts
    assert missing == []


@pytest.mark.parametrize("name", ["workloads", "tracing"])
def test_every_engine_name_the_benchmark_reads_resolves(name):
    used = {
        (node.value.id, node.attr) for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    }
    assert used
    assert sorted(f"{m}.{a}" for m, a in used if not hasattr(MODULES[m], a)) == []


def test_trajectory_row_view_the_paths_workload_reads():
    # workloads.run_paths reads traj.points and these fields of each point
    assert "points" in vars(dynamics.Trajectory)
    assert {"t", "s_L", "velocity", "consumption_ratio"} <= set(dynamics.TrajectoryPoint._fields)
