"""Borrower default probabilities from debt-service coverage.

A borrower with coverage ratio r defaults when log income shocks push the
ratio below 1; with lognormal income volatility sigma_r the annual default
probability is Phi(-ln(r)/sigma_r), with Phi from the standard library's
``math.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SQRT1_2 = 0.7071067811865475244  # 1/sqrt(2)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x); Phi(0) = 0.5 exactly.

    Below about x = -37.63, where ``(x/sqrt(2))**2 > 708`` and Phi is a
    subnormal under 3.6e-310, it returns 0, as the credit tables always have.
    """
    if not math.isfinite(x):
        raise ValueError("std_normal_cdf requires a finite argument")
    u = x * _SQRT1_2
    if u < 0.0 and u * u > 708.0:
        return 0.0
    return 0.5 * math.erfc(-u)


@dataclass(frozen=True)
class BorrowerState:
    """Coverage ratio (income over debt service) and income volatility."""

    dscr: float
    sigma_r: float

    def __post_init__(self) -> None:
        if self.dscr <= 0.0:
            raise ValueError("dscr must be positive")
        if self.sigma_r <= 0.0:
            raise ValueError("sigma_r must be positive")


def default_probability(b: BorrowerState) -> float:
    """Annual default probability Phi(-ln(dscr)/sigma_r); 0.5 at dscr = 1."""
    return shocked_default_probability(b, 0.0)


def shocked_default_probability(b: BorrowerState, delta: float) -> float:
    """Default probability after a permanent income reduction of ``delta``; a non-finite
    ``-ln(dscr)/sigma_r`` raises a ``ValueError`` naming ``dscr``, ``sigma_r`` and ``delta``."""
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must be in [0, 1); full income destruction is outside the model")
    shocked = BorrowerState(dscr=b.dscr * (1.0 - delta), sigma_r=b.sigma_r)
    z = -math.log(shocked.dscr) / shocked.sigma_r
    if not math.isfinite(z):
        raise ValueError(f"-ln(dscr * (1 - delta)) / sigma_r is not finite at dscr = {b.dscr!r}, "
                         f"sigma_r = {b.sigma_r!r}, delta = {delta!r}")
    return std_normal_cdf(z)


def dscr_sensitivity(
    b: BorrowerState, deltas: list[float]
) -> list[tuple[float, float, float]]:
    """Rows of (delta, post-shock dscr, default probability), one per delta.

    The deltas must be at least one and strictly ascending, checked before any
    row is computed: an empty or repeated delta would give a header-only table
    or a duplicate row."""
    deltas = list(deltas)
    if not deltas:
        raise ValueError("credit table needs at least one delta")
    if deltas != sorted(deltas):
        raise ValueError("deltas must be ascending")
    for lo, hi in zip(deltas, deltas[1:]):
        if lo == hi:
            raise ValueError(f"deltas must be strictly ascending: {lo:g} repeats")
    return [
        (d, b.dscr * (1.0 - d), shocked_default_probability(b, d))
        for d in deltas
    ]
