"""Local-time estimators for one-dimensional rough Gaussian paths.

Four estimator families for the local time L_T(a) (occupation density at
level a), all reduced to a common scale:

* weighted up-crossing sums (optionally |increment|^gamma weighted),
* plain crossing counts (the gamma = 0 up-crossing sum),
* endpoint-excess sums over up-crossing intervals,
* a kernel occupation-density estimator (the classical reference).

The limiting constant of the weighted up-crossing family is the positive-
part moment E[(W)_+^{1+gamma}] of a centered Gaussian W with the increment
variance at unit lag, half a Gaussian absolute moment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigurationError, DomainError
from .fbm import FbmPath, _read_only, c_h
from .numerics import _as_count, _level_sums, _range_sums, normal_abs_moment
from .sewing import Germ, Partition, _interval_values, riemann_sum

__all__ = [
    "frak_c",
    "validate_m_condition",
    "upcrossing_sum",
    "crossing_count_estimator",
    "upcrossing_excess_sum",
    "occupation_density_estimator",
    "default_bandwidth",
    "default_level_grid",
    "LocalTimeCurve",
    "local_time_curve",
    "CumulativeCurve",
    "cumulative_local_time",
    "upcross_germ",
]


def frak_c(hurst: float, gamma: float) -> float:
    """Limiting constant of the gamma-weighted up-crossing sums.

    Equals E[(W)_+^(1+gamma)] with W ~ N(0, c_h(hurst)), which is half the
    absolute moment: c_h^((1+gamma)/2) E|Z|^(1+gamma) / 2.  At gamma=0 this
    is sqrt(c_h / (2 pi)), at gamma=1 it is c_h / 2.
    """
    if not 0.0 <= gamma:
        raise DomainError(f"gamma must be nonnegative, got {gamma!r}")
    return 0.5 * c_h(hurst) ** (0.5 * (1.0 + gamma)) * normal_abs_moment(1.0 + gamma)


def validate_m_condition(hurst: float, m: float) -> bool:
    """Moment-exponent admissibility for L_m convergence of the estimators.

    True when the driver is rough enough (hurst <= 1/2) or when
    1/m > 1 - 1/(2 hurst).
    """
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"hurst must lie in (0, 1), got {hurst!r}")
    if not m >= 1.0:
        raise DomainError(f"m must be >= 1, got {m!r}")
    if hurst <= 0.5:
        return True
    return 1.0 / m > 1.0 - 1.0 / (2.0 * hurst)


def _check_one_dim(path: FbmPath) -> None:
    if path.dim != 1:
        raise DomainError("local-time estimators are one-dimensional")


def _crossing_weight(dt: np.ndarray, inc: np.ndarray, hurst: float,
                     gamma: float) -> np.ndarray:
    """(t-s)^(1-(1+gamma)H) |B_t - B_s|^gamma for each crossing interval."""
    w = dt ** (1.0 - (1.0 + gamma) * hurst)
    if gamma != 0.0:
        w = w * np.abs(inc) ** gamma
    return w


def upcross_germ(a: float, hurst: float, gamma: float = 0.0) -> Germ:
    """Up-crossing germ at level a for a driver of index ``hurst``.

    Per interval: (t-s)^(1-(1+gamma)H) |B_t - B_s|^gamma on up-crossings of
    a (B_s < a < B_t), zero elsewhere; the weights are computed on the
    up-crossings only.  Its :func:`riemann_sum` is :func:`upcrossing_sum`.
    """
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be nonnegative, got {gamma!r}")

    def batch(dt: np.ndarray, bs: np.ndarray, bt: np.ndarray) -> np.ndarray:
        dt, bs, bt = np.broadcast_arrays(dt, bs, bt)
        mask = (bs < a) & (a < bt)
        out = np.zeros(mask.shape)
        out[mask] = _crossing_weight(dt[mask], bt[mask] - bs[mask], hurst, gamma)
        return out

    return Germ(name=f"upcross[a={a:g},gamma={gamma:g}]", batch=batch)


def upcrossing_sum(path: FbmPath, partition: Partition, a: float,
                   gamma: float = 0.0) -> float:
    """Weighted up-crossing sum at level a.

    The :func:`riemann_sum` of :func:`upcross_germ`: sums
    (t-s)^(1-(1+gamma)H) |B_t - B_s|^gamma over partition intervals with
    B_s < a < B_t (strict).  Dividing by :func:`frak_c` estimates the local
    time at a.
    """
    _check_one_dim(path)
    return riemann_sum(upcross_germ(a, path.hurst, gamma), path, partition)


def crossing_count_estimator(path: FbmPath, n: int, a: float) -> float:
    """(T/n)^(1-H) times the number of up-crossings on the uniform n-grid.

    Identical, term by term, to the gamma=0 up-crossing sum on the uniform
    n-interval partition (exactly so on grids where the uniform break points
    are exactly representable, e.g. dyadic ones).  n must divide the path's
    grid.
    """
    n = _as_count(n, "n", 1)
    _check_one_dim(path)
    if path.grid_n % n != 0:
        raise AlignmentError(
            f"n={n} does not divide the path grid ({path.grid_n} intervals)")
    stride = path.grid_n // n
    vals = path.values[::stride]
    count = int(np.count_nonzero((vals[:-1] < a) & (a < vals[1:])))
    # np.power, not the builtin: the crossing-sum weights come from a numpy
    # array power, and the two pow routines differ in the last ulp
    return count * float(np.power(path.horizon / n, 1.0 - path.hurst))


def upcrossing_excess_sum(path: FbmPath, partition: Partition, a: float) -> float:
    """Endpoint-excess sum: |B_t - a|^(1/H - 1) over up-crossing intervals.
    Dividing by H frak_c(H, 1/H - 1) estimates the local time at a."""
    _check_one_dim(path)
    _, left, right = _interval_values(path, partition)
    return float(_excess_curve_values(left, right, 1.0 / path.hurst - 1.0,
                                      np.array([a], dtype=float))[0])


def occupation_density_estimator(path: FbmPath, a: float,
                                 bandwidth: float) -> float:
    """Kernel occupation-density estimate at level a.

    Time spent (left-endpoint rule on the path's own grid) with
    fl(a - bandwidth) <= B <= fl(a + bandwidth), divided by the window
    width 2*bandwidth: the occupation curve's value at the level a.
    """
    _check_one_dim(path)
    return float(_occupation_values(path, np.array([a], dtype=float), bandwidth)[0])


def default_bandwidth(path: FbmPath) -> float:
    """Natural increment scale (T / grid_n)^H for the occupation estimator."""
    return (path.horizon / path.grid_n) ** path.hurst


def default_level_grid(path: FbmPath, n_levels: int = 400,
                       pad: float = 0.1) -> np.ndarray:
    """Uniform spatial grid spanning the path range, padded by ``pad`` of it."""
    n_levels = _as_count(n_levels, "n_levels", 2)
    lo, hi = float(np.min(path.values)), float(np.max(path.values))
    grid = np.linspace(lo - pad * (hi - lo), hi + pad * (hi - lo), n_levels)
    if not (np.isfinite(grid).all() and np.all(np.diff(grid) > 0.0)):
        raise ConfigurationError(f"the path's range {hi - lo:g} at offset {lo:g} "
                                 f"cannot hold {n_levels} distinct levels")
    return grid


@dataclass(frozen=True)
class LocalTimeCurve:
    """Local-time values over a grid of spatial levels.

    ``estimator`` records which estimator produced it (including parameters);
    ``normalized`` says whether the limiting constant has been divided out so
    that different estimators live on a common scale.
    """
    levels: np.ndarray
    values: np.ndarray
    estimator: str
    hurst: float
    partition_n: int
    horizon: float
    normalized: bool

    def __post_init__(self) -> None:
        levels = _check_level_grid(_read_only(self.levels))
        values = _read_only(self.values)
        if values.shape != levels.shape:
            raise ConfigurationError("values must match the level grid")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise DomainError("curve values must be finite and nonnegative")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "values", values)

    def trapezoid_integral(self) -> float:
        """Integral of the curve over its level grid (trapezoid rule)."""
        return float(np.trapezoid(self.values, self.levels))


def _check_level_grid(levels: np.ndarray) -> np.ndarray:
    if not (levels.ndim == 1 and levels.size >= 2 and np.isfinite(levels).all()
            and np.all(np.diff(levels) > 0.0)):
        raise ConfigurationError("level grid must be 1-d, finite, strictly "
                                 "increasing and hold at least two levels")
    return levels


def _level_index(levels, keys, side):
    """Indices of ``keys`` in nondecreasing ``levels`` as numpy's searchsorted gives
    them, by one argsort of the keys and a search of the levels among them."""
    order = np.argsort(keys)
    found = np.searchsorted(keys[order], levels, "right" if side == "left" else "left")
    index = np.empty(keys.size, dtype=np.intp)
    index[order] = np.cumsum(np.bincount(found, minlength=keys.size + 1))[:keys.size]
    return index


def _crossing_curve_values(low, high, dt, hurst, gamma, levels):
    """Correctly rounded sums, per level, of the crossing weights of the
    intervals from ``low`` up to ``high`` over the levels strictly between.
    Up-crossings pass (left, right); down-crossings pass (right, left)."""
    keep = high > low
    lo = _level_index(levels, low[keep], "right")
    hi = _level_index(levels, high[keep], "left")
    w = _crossing_weight(dt[keep], high[keep] - low[keep], hurst, gamma)
    return _range_sums(w, lo, hi, levels.size)


_EXCESS_BLOCK = 2 ** 15     # most (level, interval) pairs an excess block expands


def _excess_curve_values(left, right, p, levels):
    """Correctly rounded sums, per level a, of |B_t - a|^p over the intervals with
    B_s < a < B_t, in level blocks of at most _EXCESS_BLOCK pairs or one level."""
    keep, n = right > left, levels.size
    lo = _level_index(levels, left[keep], "right")
    hi = _level_index(levels, right[keep], "left")
    right, out, j0 = right[keep], np.zeros(n), 0
    depth = np.cumsum(np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1))
    below = np.concatenate(([0], np.cumsum(depth[:n])))    # pairs under level j
    while j0 < n:
        j1 = max(int(np.searchsorted(below, below[j0] + _EXCESS_BLOCK, "right")) - 1, j0 + 1)
        if below[j1] > below[j0]:
            a = np.maximum(lo, j0)
            count = np.maximum(np.minimum(hi, j1) - a, 0)
            # each interval's pairs: a run of count levels from a
            level = np.arange(count.sum()) + np.repeat(a - np.cumsum(count) + count, count)
            out[j0:j1] = _level_sums(np.abs(np.repeat(right, count) - levels[level]) ** p,
                                     level - j0, j1 - j0)
        j0 = j1
    return out


def _occupation_values(path, levels, bw):
    """Per level a, the time (left-endpoint rule) with fl(a - bw) <= B_k <=
    fl(a + bw), correctly rounded, divided by the window width 2 bw."""
    if not bw > 0.0:
        raise DomainError(f"bandwidth must be positive, got {bw!r}")
    b = path.values[:-1]
    lo = _level_index(levels + bw, b, "left")
    hi = _level_index(levels - bw, b, "right")
    return _range_sums(np.diff(path.times), lo, hi, levels.size) / (2.0 * bw)


def local_time_curve(path: FbmPath, partition: Partition, estimator: str,
                     levels: np.ndarray | None = None, *,
                     gamma: float = 0.0, bandwidth: float | None = None,
                     normalized: bool = True) -> LocalTimeCurve:
    """Evaluate one estimator over a whole grid of spatial levels.

    ``estimator`` is one of ``"upcross"`` (gamma-weighted), ``"count"``
    (the gamma = 0 up-crossing curve on ``partition``), ``"excess"``,
    ``"bidirectional"`` or ``"occupation"``.  At every level the upcross,
    count and excess curves are the correctly rounded sums of their scalar
    estimators, and bidirectional is the up- plus the down-crossing sum.
    With ``normalized=True`` the estimator's limiting constant is divided
    out so all tags estimate the same curve: frak_c(H, gamma) for upcross,
    frak_c(H, 0) for count, 2 frak_c for bidirectional, H frak_c(H, 1/H - 1)
    for excess; the occupation estimator is already on the local-time
    scale.  ``levels`` must be a 1-d, finite, strictly increasing grid of
    at least two levels.
    """
    _check_one_dim(path)
    levels = _check_level_grid(np.asarray(
        default_level_grid(path) if levels is None else levels, dtype=float))
    H, n, g = path.hurst, partition.n_intervals, 0.0 if estimator == "count" else gamma
    if estimator == "occupation":
        bw = default_bandwidth(path) if bandwidth is None else float(bandwidth)
        values = _occupation_values(path, levels, bw)
        n, scale, tag = path.grid_n, 1.0, f"occupation(bw={bw:.6g})"
    elif estimator == "excess":
        p = 1.0 / H - 1.0
        values = _excess_curve_values(*_interval_values(path, partition)[1:], p, levels)
        scale, tag = H * frak_c(H, p), "excess"
    elif estimator in ("upcross", "count", "bidirectional"):
        dt, left, right = _interval_values(path, partition)
        values = _crossing_curve_values(left, right, dt, H, g, levels)
        scale = frak_c(H, g)
        tag = "count" if estimator == "count" else f"{estimator}(gamma={g:g})"
        if estimator == "bidirectional":
            values = values + _crossing_curve_values(right, left, dt, H, g, levels)
            scale *= 2.0
    else:
        raise ConfigurationError(f"unknown estimator tag {estimator!r}")
    return LocalTimeCurve(levels, values / (scale if normalized else 1.0), tag,
                          H, n, path.horizon, normalized)


@dataclass(frozen=True)
class CumulativeCurve:
    """Running local time at a fixed level as a function of time."""
    times: np.ndarray
    values: np.ndarray
    level: float
    estimator: str
    hurst: float

    def __post_init__(self) -> None:
        times = _read_only(self.times)
        values = _read_only(self.values)
        if times.shape != values.shape or times.ndim != 1:
            raise ConfigurationError("times and values must be 1-d and aligned")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def cumulative_local_time(path: FbmPath, partition: Partition, a: float) -> CumulativeCurve:
    """Normalized running up-crossing estimate (gamma = 0) of the local time at a.

    Per-interval crossing contributions accumulate left to right, so the
    curve is nondecreasing by construction.
    """
    _check_one_dim(path)
    contrib = upcross_germ(a, path.hurst).evaluate_batch(
        *_interval_values(path, partition))
    contrib /= frak_c(path.hurst, 0.0)
    values = np.concatenate(([0.0], np.cumsum(contrib)))
    return CumulativeCurve(partition.breakpoints, values, float(a),
                           "upcross(gamma=0)", path.hurst)

