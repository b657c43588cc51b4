import math

import numpy as np
import pytest

from macrostress import svg
from macrostress.svg import write_line_chart


def test_lists_and_arrays_render_the_same_bytes(tmp_path):
    xs = [0.0, 0.25, 0.5, 1.0, 3.0]
    series = [("a", xs, [0.3, -0.1, 0.7, 0.7, 2.0]), ("b", [1, 2], [5, 4])]
    write_line_chart(tmp_path / "lists.svg", "t", "x", "y", series)
    arrays = [(label, np.array(x, dtype=float), np.array(y, dtype=float)) for label, x, y in series]
    write_line_chart(tmp_path / "arrays.svg", "t", "x", "y", arrays)
    text = (tmp_path / "lists.svg").read_text()
    assert text == (tmp_path / "arrays.svg").read_text()
    assert 'points="70.00,' in text  # x = 0 sits on the left margin


def test_shared_sequence_renders_as_its_copies(tmp_path):
    # a sequence that several series share is converted once; the bytes are those of copies
    ts = [0.0, 0.5, 1.0, 1.5]
    shared = [("a", ts, [1.0, 2.0, 0.5, 3.0]), ("b", ts, ts), ("c", ts, [0.0, 0.0, 1.0, 1.0])]
    write_line_chart(tmp_path / "shared.svg", "t", "x", "y", shared)
    copies = [(label, list(xs), list(ys)) for label, xs, ys in shared]
    write_line_chart(tmp_path / "copies.svg", "t", "x", "y", copies)
    text = (tmp_path / "shared.svg").read_text()
    assert text == (tmp_path / "copies.svg").read_text()
    assert text.endswith("</svg>\n") and len(_polylines(tmp_path / "shared.svg")) == 3


def test_series_pairs_points_up_to_the_shorter_sequence(tmp_path):
    write_line_chart(tmp_path / "c.svg", "t", "x", "y", [("a", [0.0, 1.0, 2.0], [1.0, 2.0])])
    [polyline] = [line for line in (tmp_path / "c.svg").read_text().splitlines()
                  if line.startswith("<polyline")]
    assert polyline.split('points="')[1].count(",") == 2


@pytest.mark.parametrize("series", [[], [("a", [], [])], [("a", [1.0], [])]])
def test_nothing_to_plot(tmp_path, series):
    with pytest.raises(ValueError, match="nothing to plot"):
        write_line_chart(tmp_path / "e.svg", "t", "x", "y", series)


def _polylines(path):
    return [line.split('points="')[1].split('"')[0]
            for line in path.read_text().splitlines() if line.startswith("<polyline")]


def _reference_points(series):
    """Each series' points as "%.2f,%.2f" per point, the pixel transform in scalar arithmetic."""
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi, y_lo, y_hi = min(xs_all), max(xs_all), min(ys_all), max(ys_all)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w, plot_h = svg._W - svg._ML - svg._MR, svg._H - svg._MT - svg._MB
    return [
        " ".join(
            "%.2f,%.2f" % (svg._ML + (x - x_lo) / (x_hi - x_lo) * plot_w,
                           svg._MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h)
            for x, y in zip(map(float, xs), map(float, ys))
        )
        for _, xs, ys in series
    ]


_XS = [0.0, 0.137, 0.5, 1.25, 2.718, 3.0]
_OTHER_XS = [0.3, 0.9, 1.4, 2.0, 2.2, 2.9]


@pytest.mark.parametrize("series", [
    pytest.param([("a", _XS, [0.31, 0.27, 0.4, 0.1, 0.9, 0.5]),
                  ("b", _XS, [1.0, 0.3, 0.77, 0.12, 0.5, 0.05]),
                  ("c", _XS, [0.6, 0.6, 0.2, 0.33, 0.41, 0.8])], id="one-shared-x-object"),
    pytest.param([("a", _XS, [0.31, 0.27, 0.4, 0.1, 0.9, 0.5]),
                  ("b", list(_XS), [1.0, 0.3, 0.77, 0.12, 0.5, 0.05]),
                  ("c", np.array(_XS), [0.6, 0.6, 0.2, 0.33, 0.41, 0.8])], id="equal-x-values"),
    pytest.param([("a", _XS, [0.31, 0.27, 0.4, 0.1, 0.9, 0.5]),
                  ("b", _OTHER_XS, [1.0, 0.3, 0.77, 0.12, 0.5, 0.05]),
                  ("c", _XS, [0.6, 0.6, 0.2, 0.33, 0.41, 0.8])], id="middle-x-differs"),
    pytest.param([("a", _XS, [0.31, 0.27]),
                  ("b", _XS, [1.0, 0.3, 0.77, 0.12, 0.5, 0.05]),
                  ("c", _XS[:4], [0.6, 0.6, 0.2, 0.33, 0.41, 0.8]),
                  ("d", _XS, [0.2, 0.9, 0.4])], id="unequal-lengths"),
])
def test_polyline_points_match_per_point_formatting(tmp_path, series):
    write_line_chart(tmp_path / "p.svg", "t", "x", "y", series)
    assert _polylines(tmp_path / "p.svg") == _reference_points(series)


def _float_corpus() -> list[float]:
    """Random float64 bit patterns over every exponent, values at the scale of a chart's
    pixels, and the edge cases: NaN of both signs, +-inf, +-0.0, subnormals, the largest
    finite float and exact ties of both formats (k/8 for %.2f, k + 0.5 near 1e8 for %.9g)."""
    rng = np.random.default_rng(32)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64)
    subnormal = rng.integers(1, 2**52, 2_000, dtype=np.uint64)
    edges = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                      2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                      0.125, 0.375, 2.5, -2.5, 0.005, 1.005, 999.995, 123456788.5, 100000000.5])
    values = np.concatenate([
        bits.view(np.float64), subnormal.view(np.float64), -subnormal.view(np.float64),
        rng.uniform(-1000.0, 1000.0, 100_000), np.arange(-8000, 8000) / 8.0,
        np.arange(99_999_000, 100_001_000) + 0.5, edges,
    ])
    return values.tolist()


@pytest.mark.parametrize("fmt", ["%.9g", "%.2f"])
def test_bytes_and_str_percent_formats_agree(fmt):
    # to_csv and write_line_chart format their numbers with bytes %: the premise is that it
    # writes the bytes of str %, which the per-row and per-point references use
    values = _float_corpus()
    assert np.isnan(values[-20]) and math.copysign(1.0, values[-19]) == -1.0
    assert (" ".join([fmt] * len(values)) % tuple(values)).encode("ascii") == (
        b" ".join([fmt.encode("ascii")] * len(values)) % tuple(values)
    )
