"""The lane kernel's constants built one lane at a time: the scalar reference that
the tests hold ``dynamics.column_lane_constants`` to, and the tests' own way to
build kernel lanes from a list of (calibration, policy) pairs."""

from collections.abc import Iterable

import numpy as np

from macrostress.dynamics import _drift_constants
from macrostress.params import Calibration, PolicySpec


def lane_constants(lanes: Iterable[tuple[Calibration, PolicySpec]]) -> np.ndarray:
    """One row per drift constant, then ``tau`` and the activation time
    ``start_time + lag``; one column per (calibration, policy) lane."""
    rows = [(*_drift_constants(c), p.tau, p.start_time + p.lag) for c, p in lanes]
    # The explicit 12 keeps the shape for zero lanes.
    return np.ascontiguousarray(np.array(rows, dtype=np.float64).reshape(-1, 12).T)
