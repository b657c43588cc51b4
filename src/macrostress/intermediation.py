"""Intermediary margin compression and the sector exposure report.

Intermediaries price information friction. Capability growth erodes the
friction exponentially down to a regulatory/institutional floor, so margins
converge to infrastructure cost plus the floor premium rather than to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .params import Calibration, ConfigError, read_csv_records

# Regulatory ordinal -> friction floor as a fraction of the pre-AI friction
# level. Declared convention; preserves the qualitative sector ranking.
REGULATORY_FLOOR_FRACTION = {"Low": 0.0, "Moderate": 0.25, "High": 0.5}

# Ordinal -> exposure discount used by the ranking score. Higher switching
# costs or regulatory barriers shelter a sector from repricing.
_ORDINAL_DISCOUNT = {"Low": 0.0, "Moderate": 0.25, "High": 0.5}

_ORDINALS = ("Low", "Moderate", "High")
_NET_EXPOSURES = ("Low", "Low-Moderate", "Moderate", "High")


@dataclass(frozen=True)
class SectorProfile:
    name: str
    revenue_busd: float            # annual US revenue, $B
    friction_share_low: float      # fraction of margin attributable to friction
    friction_share_high: float
    switching: str                 # Low | Moderate | High
    regulatory: str                # Low | Moderate | High
    net_exposure: str              # Low | Low-Moderate | Moderate | High

    def __post_init__(self) -> None:
        if not 0.0 <= self.friction_share_low <= self.friction_share_high <= 1.0:
            raise ValueError(f"{self.name}: friction share range must satisfy 0 <= low <= high <= 1")
        if self.revenue_busd <= 0.0:
            raise ValueError(f"{self.name}: revenue must be positive")
        if self.switching not in _ORDINALS or self.regulatory not in _ORDINALS:
            raise ValueError(f"{self.name}: ordinals must be one of {_ORDINALS}")
        if self.net_exposure not in _NET_EXPOSURES:
            raise ValueError(f"{self.name}: net exposure must be one of {_NET_EXPOSURES}")


def default_sectors() -> list[SectorProfile]:
    """The seven shipped sector rows."""
    return [
        SectorProfile("SaaS (seat)", 300.0, 0.60, 0.80, "Moderate", "Low", "High"),
        SectorProfile("Card payments", 120.0, 0.40, 0.60, "High", "High", "Moderate"),
        SectorProfile("Insurance brokerage", 50.0, 0.40, 0.50, "Moderate", "High", "Low-Moderate"),
        SectorProfile("Mgmt. consulting", 330.0, 0.50, 0.70, "Low", "Low", "High"),
        SectorProfile("Financial advisory", 120.0, 0.30, 0.50, "Moderate", "High", "Moderate"),
        SectorProfile("Legal services", 370.0, 0.30, 0.50, "Moderate", "High", "Low-Moderate"),
        SectorProfile("Travel booking", 60.0, 0.60, 0.80, "Low", "Low", "High"),
    ]


def friction(A: float, c: Calibration) -> float:
    """Information-friction index at capability A: floored exponential decay."""
    if A < 0.0:
        raise ValueError("capability index must be >= 0")
    x = c.gamma_phi * A
    decayed = 0.0 if x > 700.0 else c.phi0 * math.exp(-x)
    return max(c.phi_min, decayed)


def margin(phi: float, c: Calibration) -> float:
    """Intermediary margin at friction phi: infrastructure floor plus friction premium."""
    if phi < 0.0:
        raise ValueError("friction index must be >= 0")
    return c.m0 + c.gamma_m * phi


def margin_compression_rate(A: float, c: Calibration) -> float:
    """Margin drift per year at capability A, along A(t) = A0 * exp(g_A t).

    Zero once the friction floor binds; otherwise the chain rule gives
    ``-gamma_m * gamma_phi * phi0 * exp(-gamma_phi A) * g_A * A``.
    """
    if A <= 0.0:
        raise ValueError("capability index must be positive")
    if friction(A, c) <= c.phi_min:
        return 0.0
    return -c.gamma_m * c.gamma_phi * c.phi0 * math.exp(-c.gamma_phi * A) * c.g_A * A


@dataclass(frozen=True)
class SectorReportRow:
    rank: int
    name: str
    revenue_busd: float
    friction_share_mid: float
    floor_fraction: float
    revenue_at_risk_busd: float
    exposure_score: float
    net_exposure: str


def sector_report(sectors: list[SectorProfile]) -> list[SectorReportRow]:
    """Rank sectors by repricing exposure.

    Point estimates use friction-share midpoints. Revenue at risk assumes
    friction is eliminated down to the floor implied by the sector's
    regulatory ordinal. The exposure score discounts the friction share by
    switching-cost and regulatory shelter; the ranking is a declared
    convention, not data.
    """
    if not sectors:
        raise ValueError("sector report needs at least one sector")
    scored = []
    for s in sectors:
        mid = 0.5 * (s.friction_share_low + s.friction_share_high)
        floor_frac = REGULATORY_FLOOR_FRACTION[s.regulatory]
        at_risk = s.revenue_busd * mid * (1.0 - floor_frac)
        score = (
            mid
            * (1.0 - _ORDINAL_DISCOUNT[s.switching])
            * (1.0 - _ORDINAL_DISCOUNT[s.regulatory])
        )
        scored.append((score, s, mid, floor_frac, at_risk))
    scored.sort(key=lambda item: (-item[0], item[1].name))
    return [
        SectorReportRow(
            rank=i + 1,
            name=s.name,
            revenue_busd=s.revenue_busd,
            friction_share_mid=mid,
            floor_fraction=floor_frac,
            revenue_at_risk_busd=at_risk,
            exposure_score=score,
            net_exposure=s.net_exposure,
        )
        for i, (score, s, mid, floor_frac, at_risk) in enumerate(scored)
    ]


REPORT_CSV_HEADER = (
    "rank,sector,revenue_busd,friction_share_mid,floor_fraction,"
    "revenue_at_risk_busd,exposure_score,net_exposure"
)


def report_to_csv(rows: list[SectorReportRow]) -> str:
    out = [REPORT_CSV_HEADER]
    for r in rows:
        out.append(
            f"{r.rank},{r.name},{r.revenue_busd:.9g},{r.friction_share_mid:.9g},"
            f"{r.floor_fraction:.9g},{r.revenue_at_risk_busd:.9g},"
            f"{r.exposure_score:.9g},{r.net_exposure}"
        )
    return "\n".join(out) + "\n"


_SECTOR_COLUMNS = (
    "name", "revenue_busd", "friction_share_low", "friction_share_high",
    "switching", "regulatory", "net_exposure",
)
_SECTOR_NUMBERS = {"revenue_busd", "friction_share_low", "friction_share_high"}


def load_sectors_csv(path: str | Path) -> list[SectorProfile]:
    """Read sector rows from a CSV mirroring the shipped table columns.

    The header names the columns (:func:`params.read_csv_records`). A row
    that is short, a number cell that does not parse or is not finite, and
    a row :class:`SectorProfile` rejects raise :class:`ConfigError` naming
    the file and line, and the column where there is one.
    """
    sectors: list[SectorProfile] = []
    for line, cells in read_csv_records(path, _SECTOR_COLUMNS, _SECTOR_NUMBERS):
        try:
            sectors.append(SectorProfile(**cells))
        except ValueError as exc:
            raise ConfigError(f"{path}: line {line}: {exc}") from None
    return sectors
