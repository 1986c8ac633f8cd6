"""Minimal static SVG line plots with deterministic byte output.

Fixed 800x400 viewBox, fixed palette, fixed numeric formatting — the same
data always renders to the same bytes, so plot files can be diffed and
hashed like any other artifact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["Series", "polyline_svg", "write_svg"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 800
_HEIGHT = 400
_ML, _MR, _MT, _MB = 62, 16, 28, 38


@dataclass(frozen=True)
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ConfigurationError("series needs matching 1-d x/y with >= 2 points")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _span(lo: float, hi: float) -> tuple[float, float]:
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ConfigurationError("plot data must be finite")
    if hi <= lo:
        return lo - 1.0, lo + 1.0
    pad = 0.02 * (hi - lo)
    return lo - pad, hi + pad


def _points_text(px: np.ndarray, py: np.ndarray) -> str:
    """``x,y`` pixel pairs to two decimals, space-separated, in one ``%``."""
    pairs = np.column_stack((px, py)).ravel().tolist()
    return (("%.2f,%.2f " * px.size) % tuple(pairs))[:-1]


def polyline_svg(series: list[Series], *, title: str = "",
                 x_label: str = "", y_label: str = "",
                 comments: tuple[str, ...] = ()) -> str:
    """Render series as colored polylines with axes, ticks and a legend."""
    if not series:
        raise ConfigurationError("need at least one series")
    x0, x1 = _span(min(float(np.min(s.x)) for s in series),
                   max(float(np.max(s.x)) for s in series))
    y0, y1 = _span(min(float(np.min(s.y)) for s in series),
                   max(float(np.max(s.y)) for s in series))
    inner_w = _WIDTH - _ML - _MR
    inner_h = _HEIGHT - _MT - _MB

    def sx(x):
        return _ML + (x - x0) / (x1 - x0) * inner_w

    def sy(y):
        return _HEIGHT - _MB - (y - y0) / (y1 - y0) * inner_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'width="{_WIDTH}" height="{_HEIGHT}">',
    ]
    for comment in comments:
        out.append(f"<!-- {_escape(comment)} -->")
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(f'<text x="{_WIDTH / 2:.2f}" y="18" text-anchor="middle" '
                   f'font-family="monospace" font-size="13">{_escape(title)}</text>')

    axis = (f'M {_ML:.2f} {_MT:.2f} L {_ML:.2f} {_HEIGHT - _MB:.2f} '
            f'L {_WIDTH - _MR:.2f} {_HEIGHT - _MB:.2f}')
    out.append(f'<path d="{axis}" stroke="#333333" fill="none" stroke-width="1"/>')

    for tick in np.linspace(x0, x1, 5):
        px = sx(float(tick))
        out.append(f'<line x1="{px:.2f}" y1="{_HEIGHT - _MB:.2f}" x2="{px:.2f}" '
                   f'y2="{_HEIGHT - _MB + 5:.2f}" stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{_HEIGHT - _MB + 18:.2f}" text-anchor="middle" '
                   f'font-family="monospace" font-size="11">{tick:.6g}</text>')
    for tick in np.linspace(y0, y1, 5):
        py = sy(float(tick))
        out.append(f'<line x1="{_ML - 5:.2f}" y1="{py:.2f}" x2="{_ML:.2f}" '
                   f'y2="{py:.2f}" stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-family="monospace" font-size="11">{tick:.6g}</text>')
    if x_label:
        out.append(f'<text x="{_ML + inner_w / 2:.2f}" y="{_HEIGHT - 6:.2f}" '
                   f'text-anchor="middle" font-family="monospace" font-size="11">'
                   f'{_escape(x_label)}</text>')
    if y_label:
        out.append(f'<text x="14" y="{_MT + inner_h / 2:.2f}" text-anchor="middle" '
                   f'font-family="monospace" font-size="11" '
                   f'transform="rotate(-90 14 {_MT + inner_h / 2:.2f})">'
                   f'{_escape(y_label)}</text>')

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        # sx/sy map whole arrays with the same IEEE operations, in the same
        # order, as they map one Python float, so the pixels are bit-equal
        pts = _points_text(sx(s.x), sy(s.y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.2"/>')
        if s.label:
            ly = _MT + 14 + 14 * i
            out.append(f'<line x1="{_WIDTH - _MR - 150:.2f}" y1="{ly - 4:.2f}" '
                       f'x2="{_WIDTH - _MR - 130:.2f}" y2="{ly - 4:.2f}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{_WIDTH - _MR - 125:.2f}" y="{ly:.2f}" '
                       f'font-family="monospace" font-size="11">{_escape(s.label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(file_path: str, svg: str) -> None:
    with open(file_path, "w", newline="\n") as fh:
        fh.write(svg)
