import math

import pytest

from macrostress.intermediation import (
    SectorProfile,
    default_sectors,
    friction,
    load_sectors_csv,
    margin,
    margin_compression_rate,
    report_to_csv,
    sector_report,
)
from macrostress.params import default_calibration, with_updates

C = default_calibration()


def test_friction_at_zero_capability():
    assert friction(0.0, C) == C.phi0


def test_friction_direct_evaluation():
    assert friction(2.0, C) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_friction_floor_binds_for_large_capability():
    assert friction(100.0, C) == C.phi_min
    for a, b in [(0.0, 1.0), (1.0, 3.0), (3.0, 50.0)]:
        assert friction(b, C) <= friction(a, C)


def test_margin_examples():
    assert margin(0.0, C) == C.m0
    assert margin(1.0, C) == pytest.approx(0.52, rel=1e-12)
    # long-run margin with the floor binding sits strictly above m0
    assert margin(friction(1e6, C), C) == pytest.approx(0.07, rel=1e-12)
    assert margin(friction(1e6, C), C) > C.m0


def test_margin_converges_to_floor_composition():
    limit = C.m0 + C.gamma_m * C.phi_min
    assert abs(margin(friction(80.0, C), C) - limit) < 1e-9
    c0 = with_updates(C, phi_min=0.0)
    # with no regulatory floor: within 1e-9 of m0 once gamma_phi*A >= 25
    assert abs(margin(friction(25.0 / c0.gamma_phi, c0), c0) - c0.m0) < 1e-9


def test_compression_rate_zero_cases():
    c = with_updates(C, gamma_m=0.0)
    assert margin_compression_rate(1.0, c) == 0.0
    c = with_updates(C, gamma_phi=0.0, phi_min=0.0)
    assert margin_compression_rate(1.0, c) == 0.0
    assert margin_compression_rate(100.0, C) == 0.0  # floor binding


def test_compression_rate_direct_evaluation():
    expected = -0.5 * 0.5 * 1.0 * math.exp(-0.5) * 0.05 * 1.0
    assert margin_compression_rate(1.0, C) == pytest.approx(expected, rel=1e-12)


def test_compression_rate_matches_finite_difference():
    # analytic dm/dt vs finite differences of margin(friction(A(t))) in t
    for A in (0.5, 1.0, 2.0, 3.5):
        t = math.log(A / C.A0) / C.g_A
        h = 1e-6

        def m_at(tt):
            a = C.A0 * math.exp(C.g_A * tt)
            return margin(friction(a, C), C)

        fd = (m_at(t + h) - m_at(t - h)) / (2 * h)
        assert margin_compression_rate(A, C) == pytest.approx(fd, rel=1e-6)


def test_accounting_identity():
    # friction premium eliminated + retained margin = gamma_m*phi0*Q + m0*Q
    for A in (0.0, 0.7, 2.0, 9.0):
        Q = 250.0
        lhs = C.gamma_m * (C.phi0 - friction(A, C)) * Q + margin(friction(A, C), C) * Q
        rhs = C.gamma_m * C.phi0 * Q + C.m0 * Q
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_default_sector_table_shape():
    sectors = default_sectors()
    assert len(sectors) == 7
    names = {s.name for s in sectors}
    assert {"SaaS (seat)", "Card payments", "Mgmt. consulting", "Travel booking"} <= names


def test_report_ranks_high_friction_low_moat_sectors_top():
    report = sector_report(default_sectors())
    top3 = {row.name for row in report[:3]}
    assert top3 == {"SaaS (seat)", "Mgmt. consulting", "Travel booking"}
    assert [row.rank for row in report] == list(range(1, 8))
    # scores strictly ordered down the report (ties broken by name)
    scores = [row.exposure_score for row in report]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_report_zero_friction_sector():
    s = SectorProfile("Null", 10.0, 0.0, 0.0, "Low", "Low", "Low")
    row = sector_report([s])[0]
    assert row.revenue_at_risk_busd == 0.0
    assert row.rank == 1


def test_report_single_sector_rank():
    rows = sector_report([default_sectors()[0]])
    assert len(rows) == 1 and rows[0].rank == 1


def test_report_empty_rejected():
    with pytest.raises(ValueError):
        sector_report([])


def test_sector_csv_round_trip(tmp_path):
    sectors = default_sectors()
    path = tmp_path / "sectors.csv"
    lines = ["name,revenue_busd,friction_share_low,friction_share_high,switching,regulatory,net_exposure"]
    for s in sectors:
        lines.append(
            f"{s.name},{s.revenue_busd},{s.friction_share_low},{s.friction_share_high},"
            f"{s.switching},{s.regulatory},{s.net_exposure}"
        )
    path.write_text("\n".join(lines) + "\n")
    assert load_sectors_csv(path) == sectors


def test_report_csv_header():
    text = report_to_csv(sector_report(default_sectors()))
    assert text.startswith("rank,sector,revenue_busd,")
    assert len(text.strip().split("\n")) == 8
