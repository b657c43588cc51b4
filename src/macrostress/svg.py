"""Minimal self-contained SVG line charts; no plotting dependency."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_W, _H = 880, 560
_ML, _MR, _MT, _MB = 70, 180, 50, 60


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def write_line_chart(
    path: str | Path,
    title: str,
    x_label: str,
    y_label: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
) -> None:
    """Write one chart: (label, xs, ys) per series, shared axes, legend at right.

    ``xs`` and ``ys`` are sequences or arrays of numbers; the points of a
    series pair them up to the shorter of the two. The polylines' numbers are
    formatted with ``bytes %`` and each line is decoded once. The title, the
    axis labels and the legend are user text: they are escaped, never passed
    through ``%``, and written UTF-8 with the rest of the file.
    """
    # by id: a sequence that several series share is converted once
    distinct = {id(values): values for _, xs, ys in series for values in (xs, ys)}
    arrays = {key: np.asarray(values, dtype=np.float64) for key, values in distinct.items()}
    columns = [(arrays[id(xs)], arrays[id(ys)]) for _, xs, ys in series]
    xs_all = np.concatenate([np.empty(0), *(xs for xs, _ in columns)])
    ys_all = np.concatenate([np.empty(0), *(ys for _, ys in columns)])
    if not xs_all.size or not ys_all.size:
        raise ValueError("nothing to plot")
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    # The pixel transform; written once for scalars and arrays, in one operation order.
    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{_W / 2:.1f}" y="28" text-anchor="middle" font-size="18" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]
    for yt in _ticks(y_lo, y_hi):
        y = py(yt)
        out.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_ML + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{yt:.3g}</text>'
        )
    for xt in _ticks(x_lo, x_hi):
        x = px(xt)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MT + plot_h}" x2="{x:.2f}" y2="{_MT + plot_h + 5}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MT + plot_h + 20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{xt:.3g}</text>'
        )
    out.append(
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" y2="{_MT + plot_h}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )
    # A polyline is "%.2f,%.2f" per (x, y) point, paired up to the shorter column. Its x
    # text is formatted once for a run of series with equal x columns, into a template
    # that holds "%.2f" in place of each y; each series then fills in its y values.
    # Both are bytes %, which writes the bytes of str % on floats, decoded once per line.
    x_column, template = np.empty(0), b""
    for i, ((label, _, _), (xs, ys)) in enumerate(zip(series, columns)):
        color = _COLORS[i % len(_COLORS)]
        n = min(xs.size, ys.size)
        if not np.array_equal(xs[:n], x_column):
            x_column = xs[:n]
            template = b" ".join([b"%.2f,%%.2f"] * n) % tuple(px(x_column).tolist())
        pts = (template % tuple(py(ys[:n]).tolist())).decode("ascii")
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'
        )
        ly = _MT + 16 + i * 22
        lx = _ML + plot_w + 14
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )
    out.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{_escape(x_label)}</text>'
    )
    mid_y = _MT + plot_h / 2
    out.append(
        f'<text x="20" y="{mid_y:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 20 {mid_y:.1f})">'
        f"{_escape(y_label)}</text>"
    )
    out.append("</svg>")
    Path(path).write_text("\n".join([*out, ""]), encoding="utf-8")
