import re

import numpy as np
import pytest

from fracsew import ConfigurationError
from fracsew import svgplot
from fracsew.svgplot import Series, polyline_svg


def _reference_points(series):
    """Each series' ``points`` text by the per-point formula, one Python
    float at a time."""
    x0, x1 = svgplot._span(min(float(np.min(s.x)) for s in series),
                           max(float(np.max(s.x)) for s in series))
    y0, y1 = svgplot._span(min(float(np.min(s.y)) for s in series),
                           max(float(np.max(s.y)) for s in series))
    inner_w = svgplot._WIDTH - svgplot._ML - svgplot._MR
    inner_h = svgplot._HEIGHT - svgplot._MT - svgplot._MB

    def sx(x: float) -> float:
        return svgplot._ML + (x - x0) / (x1 - x0) * inner_w

    def sy(y: float) -> float:
        return svgplot._HEIGHT - svgplot._MB - (y - y0) / (y1 - y0) * inner_h

    return [" ".join(f"{sx(float(xv)):.2f},{sy(float(yv)):.2f}"
                     for xv, yv in zip(s.x, s.y))
            for s in series]


def _points(svg: str) -> list[str]:
    return re.findall(r'<polyline points="([^"]*)"', svg)


def _edge_values(lo: float, hi: float, inner: int) -> np.ndarray:
    """Data values in (lo, hi) whose pixels land on or within a few ulps of
    a ``.xx5`` tie of ``%.2f`` (k + 1/8 and k + 3/8 are exact binary ties,
    and so are their mirror images on the y axis)."""
    span_lo, span_hi = svgplot._span(lo, hi)
    offsets = np.add.outer(np.arange(1, inner, 7), [0.125, 0.375]).ravel()
    x = span_lo + offsets / inner * (span_hi - span_lo)
    for _ in range(3):
        x = np.concatenate((x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)))
    x = np.unique(x)
    return x[(lo < x) & (x < hi)]


def test_polyline_points_match_per_point_formula():
    inner_w = svgplot._WIDTH - svgplot._ML - svgplot._MR
    inner_h = svgplot._HEIGHT - svgplot._MT - svgplot._MB
    x = np.sort(np.concatenate(([-0.0, -1.0, 3.0, 0.1, 1.0 / 3.0],
                                _edge_values(-1.0, 3.0, inner_w))))
    y = np.clip(np.random.default_rng(11).standard_normal(x.size), -2.5, 7.125)
    y_edge = np.concatenate(([-0.0, -2.5, 7.125],
                             _edge_values(-2.5, 7.125, inner_h)))
    series = [Series(x, y, "first"),
              Series(np.linspace(-1.0, 3.0, y_edge.size), y_edge, "second")]
    svg = polyline_svg(series, title="t", x_label="x", y_label="y")
    assert _points(svg) == _reference_points(series)
    assert ">first</text>" in svg and ">second</text>" in svg


def test_polyline_constant_series_uses_unit_span():
    series = [Series(np.array([-0.0, 0.0, 1.0]), np.array([2.0, 2.0, 2.0]))]
    svg = polyline_svg(series)
    assert _points(svg) == _reference_points(series)
    # y spans [1, 3], so the constant 2 sits at the middle of the plot
    mid = svgplot._HEIGHT - svgplot._MB - 0.5 * (
        svgplot._HEIGHT - svgplot._MT - svgplot._MB)
    assert {pt.split(",")[1] for pt in _points(svg)[0].split()} == {f"{mid:.2f}"}


def test_polyline_rejects_non_finite_data():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError):
            polyline_svg([Series(np.array([0.0, 1.0]), np.array([0.0, bad]))])
    with pytest.raises(ConfigurationError):
        polyline_svg([Series(np.array([0.0, np.inf]), np.array([0.0, 1.0]))])
    with pytest.raises(ConfigurationError):
        polyline_svg([])


def test_series_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        Series(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ConfigurationError):
        Series(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        Series(np.zeros((2, 2)), np.zeros((2, 2)))


def _per_point_join(px: np.ndarray, py: np.ndarray) -> str:
    return " ".join("%.2f,%.2f" % pt for pt in zip(px.tolist(), py.tolist()))


@pytest.mark.parametrize("px,py", [
    (np.array([62.0]), np.array([362.0])),
    (np.array([-0.004, -0.0, 0.0049]), np.array([-0.001, 1.005, -0.005])),
    (np.random.default_rng(5).uniform(-10.0, 810.0, 257),
     np.random.default_rng(6).uniform(-10.0, 410.0, 257)),
], ids=["one_point", "negative_zero_pixels", "random"])
def test_points_text_matches_per_point_join(px, py):
    text = svgplot._points_text(px, py)
    assert text == _per_point_join(px, py)
    assert not text.endswith(" ")
