"""Self-contained SVG line plots, no plotting library required.

Good enough for the shipped figures: multiple labeled series, axes with
ticks, a legend, and phase-plane plots (any series may use an arbitrary
x signal).  Output is deterministic text so files diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvio import _write_text
from .errors import DomainError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

WIDTH, HEIGHT = 880, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 66, 18, 34, 50


@dataclass
class Series:
    name: str
    x: np.ndarray
    y: np.ndarray


def _escape(text: str) -> str:
    """``text`` with &, < and > replaced by their XML entities; ``&`` goes
    first so the other entities keep their ampersands."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bounds(values):
    """(lo, hi) of all ``values``, widened by 4 % of the span on each side."""
    lo = float(min(np.min(v) for v in values))
    hi = float(max(np.max(v) for v in values))
    if hi == lo:
        pad = 1.0 if hi == 0.0 else 0.1 * abs(hi)
    else:
        pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def render_svg(series: Sequence[Series], path, x_label: str = "",
               y_label: str = "", title: str = "") -> None:
    """Render the series set as a standalone SVG file."""
    if len(series) == 0:
        raise DomainError("need at least one series")
    for s in series:
        if len(s.x) == 0 or len(s.x) != len(s.y):
            raise DomainError(
                f"series {s.name!r} needs equal nonzero x/y lengths")
        if not (np.all(np.isfinite(s.x)) and np.all(np.isfinite(s.y))):
            raise DomainError(f"series {s.name!r} contains non-finite values")

    x_lo, x_hi = _bounds([s.x for s in series])
    y_lo, y_hi = _bounds([s.y for s in series])
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#333" stroke-width="1"/>')
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{_escape(title)}</text>')

    for xv in np.linspace(x_lo, x_hi, 6):
        X = px(xv)
        out.append(f'<line x1="{X:.2f}" y1="{MARGIN_T + plot_h}" x2="{X:.2f}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{X:.2f}" y="{MARGIN_T + plot_h + 19}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{xv:.4g}</text>')
    for yv in np.linspace(y_lo, y_hi, 6):
        Y = py(yv)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{Y:.2f}" x2="{MARGIN_L}" '
                   f'y2="{Y:.2f}" stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{Y + 4:.2f}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{yv:.4g}</text>')
    if x_label:
        out.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="13">{_escape(x_label)}</text>')
    if y_label:
        cy = MARGIN_T + plot_h / 2
        out.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13" '
                   f'transform="rotate(-90 16 {cy:.1f})">{_escape(y_label)}</text>')

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{px(xx):.2f},{py(yy):.2f}"
                       for xx, yy in zip(s.x, s.y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.4"/>')
        ly = MARGIN_T + 16 + 16 * idx
        lx = WIDTH - MARGIN_R - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{_escape(s.name)}</text>')

    out.append("</svg>")
    _write_text(path, ["\n".join(out) + "\n"])
