import numpy as np
import pytest

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


def test_series_pairs_points_up_to_the_shorter_sequence(tmp_path):
    write_line_chart(tmp_path / "c.svg", "t", "x", "y", [("a", [0.0, 1.0, 2.0], [1.0, 2.0])])
    [polyline] = [line for line in (tmp_path / "c.svg").read_text().splitlines()
                  if line.startswith("<polyline")]
    assert polyline.split('points="')[1].count(",") == 2


@pytest.mark.parametrize("series", [[], [("a", [], [])], [("a", [1.0], [])]])
def test_nothing_to_plot(tmp_path, series):
    with pytest.raises(ValueError, match="nothing to plot"):
        write_line_chart(tmp_path / "e.svg", "t", "x", "y", series)
