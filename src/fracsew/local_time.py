"""Local-time estimators for one-dimensional rough Gaussian paths.

Four estimator families for the local time L_T(a) (occupation density at
level a), all reduced to a common scale:

* weighted up-crossing sums (optionally |increment|^gamma weighted),
* plain crossing counts on a uniform subgrid,
* endpoint-excess sums over up-crossing intervals,
* a kernel occupation-density estimator (the classical reference).

The limiting constant of the weighted up-crossing family is the positive-
part moment E[(W)_+^{1+gamma}] of a centered Gaussian W with the increment
variance at unit lag, half a Gaussian absolute moment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigurationError, DomainError
from .fbm import FbmPath, _read_only, c_h
from .numerics import _as_count, normal_abs_moment
from .sewing import Germ, Partition, _interval_indices, riemann_sum

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
        raise DomainError("crossing estimators are one-dimensional")


def _crossing_arrays(path: FbmPath, partition: Partition):
    _check_one_dim(path)
    i, j = _interval_indices(path, partition)
    # the grid times' differences, as the crossing germ takes them
    return path.values[i], path.values[j], path.times[j] - path.times[i]


def _crossing_weight(dt: np.ndarray, inc: np.ndarray, hurst: float,
                     gamma: float) -> np.ndarray:
    """(t-s)^(1-(1+gamma)H) |B_t - B_s|^gamma for each crossing interval."""
    w = dt ** (1.0 - (1.0 + gamma) * hurst)
    if gamma != 0.0:
        w = w * np.abs(inc) ** gamma
    return w


def upcross_germ(a: float, gamma: float = 0.0) -> Germ:
    """Up-crossing germ at level a; the convergence-rate harness sums it.

    Per interval: (t-s)^(1-(1+gamma)H) |B_t - B_s|^gamma on up-crossings of
    a (B_s < a < B_t), zero elsewhere.  Its :func:`riemann_sum` is
    :func:`upcrossing_sum`.
    """
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be nonnegative, got {gamma!r}")

    def batch(path: FbmPath, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        bs, bt = path.values[i], path.values[j]
        mask = (bs < a) & (a < bt)
        out = np.zeros(len(i))
        out[mask] = _crossing_weight(path.times[j[mask]] - path.times[i[mask]],
                                     bt[mask] - bs[mask], path.hurst, gamma)
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
    return riemann_sum(upcross_germ(a, gamma), path, partition)


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

    Dividing by H frak_c(H, 1/H - 1) estimates the local time at a.
    """
    left, right, _ = _crossing_arrays(path, partition)
    return _excess_at(left, right, a, 1.0 / path.hurst - 1.0)


def occupation_density_estimator(path: FbmPath, a: float,
                                 bandwidth: float) -> float:
    """Kernel occupation-density estimate at level a.

    Time spent (left-endpoint rule on the path's own grid) within
    ``bandwidth`` of a, divided by the window width 2*bandwidth.
    """
    if not bandwidth > 0.0:
        raise DomainError(f"bandwidth must be positive, got {bandwidth!r}")
    if path.dim != 1:
        raise DomainError("occupation estimator is one-dimensional")
    dt = np.diff(path.times)
    inside = np.abs(path.values[:-1] - a) <= bandwidth
    return math.fsum(dt[inside].tolist()) / (2.0 * bandwidth)


def default_bandwidth(path: FbmPath) -> float:
    """Natural increment scale (T / grid_n)^H for the occupation estimator."""
    return (path.horizon / path.grid_n) ** path.hurst


def default_level_grid(path: FbmPath, n_levels: int = 400,
                       pad: float = 0.1) -> np.ndarray:
    """Uniform spatial grid spanning the path range, padded by ``pad`` of it."""
    n_levels = _as_count(n_levels, "n_levels", 2)
    lo = float(np.min(path.values))
    hi = float(np.max(path.values))
    width = max(hi - lo, 1e-8)
    return np.linspace(lo - pad * width, hi + pad * width, n_levels)


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
        levels = _read_only(self.levels)
        values = _read_only(self.values)
        if levels.ndim != 1 or levels.size < 2:
            raise ConfigurationError("level grid must hold at least two levels")
        if np.any(np.diff(levels) <= 0.0):
            raise ConfigurationError("level grid must be strictly increasing")
        if values.shape != levels.shape:
            raise ConfigurationError("values must match the level grid")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise DomainError("curve values must be finite and nonnegative")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "values", values)

    def trapezoid_integral(self) -> float:
        """Integral of the curve over its level grid (trapezoid rule)."""
        return float(np.trapezoid(self.values, self.levels))


def _range_accumulate(lo_idx: np.ndarray, hi_idx: np.ndarray,
                      weights: np.ndarray, n_levels: int) -> np.ndarray:
    """Sum ``weights[k]`` into every slot of [lo_idx[k], hi_idx[k])."""
    diff = np.zeros(n_levels + 1)
    np.add.at(diff, lo_idx, weights)
    np.add.at(diff, hi_idx, -weights)
    out = np.cumsum(diff)[:n_levels]
    # each slot is a sum of nonnegative weights; cumsum cancellation can
    # leave ~1e-15 residue where the true value is zero
    return np.maximum(out, 0.0)


def _crossing_curve_values(low, high, dt, hurst, gamma, levels):
    """Crossing weights of the intervals running from ``low`` up to ``high``,
    accumulated over the levels strictly between the two ends.

    Up-crossings pass (left, right); down-crossings pass (right, left).
    """
    keep = high > low
    lo = np.searchsorted(levels, low[keep], side="right")
    hi = np.searchsorted(levels, high[keep], side="left")
    w = _crossing_weight(dt[keep], high[keep] - low[keep], hurst, gamma)
    return _range_accumulate(lo, hi, w, levels.size)


def _excess_at(left, right, a, p):
    """|B_t - a|^p summed over the intervals with B_s < a < B_t."""
    mask = (left < a) & (a < right)
    return math.fsum((np.abs(right[mask] - a) ** p).tolist())


def _excess_curve_values(left, right, hurst, levels):
    p = 1.0 / hurst - 1.0
    keep = right > left
    ls, rs = left[keep], right[keep]
    return np.array([_excess_at(ls, rs, a, p) for a in levels])


def _occupation_curve_values(path: FbmPath, levels, bandwidth):
    dt = np.diff(path.times)
    order = np.argsort(path.values[:-1], kind="stable")
    sorted_vals = path.values[:-1][order]
    prefix = np.concatenate(([0.0], np.cumsum(dt[order])))
    lo = np.searchsorted(sorted_vals, levels - bandwidth, side="left")
    hi = np.searchsorted(sorted_vals, levels + bandwidth, side="right")
    return (prefix[hi] - prefix[lo]) / (2.0 * bandwidth)


def local_time_curve(path: FbmPath, partition: Partition, estimator: str,
                     levels: np.ndarray | None = None, *,
                     gamma: float = 0.0, bandwidth: float | None = None,
                     normalized: bool = True) -> LocalTimeCurve:
    """Evaluate one estimator over a whole grid of spatial levels.

    ``estimator`` is one of ``"upcross"`` (gamma-weighted), ``"count"``
    (uniform-grid up-crossing count), ``"excess"``, ``"bidirectional"`` or
    ``"occupation"``.  With ``normalized=True`` the estimator's limiting
    constant is divided out so all tags estimate the same curve:
    frak_c(H, gamma) for upcross, frak_c(H, 0) for count,
    2 frak_c for bidirectional, H frak_c(H, 1/H - 1) for excess; the
    occupation estimator is already on the local-time scale.
    """
    if levels is None:
        levels = default_level_grid(path)
    levels = np.asarray(levels, dtype=float)
    if path.dim != 1:
        raise DomainError("local-time curves are one-dimensional")
    if np.any(np.diff(levels) <= 0.0):
        raise ConfigurationError("level grid must be strictly increasing")
    H = path.hurst

    if estimator == "occupation":
        bw = default_bandwidth(path) if bandwidth is None else float(bandwidth)
        if not bw > 0.0:
            raise DomainError(f"bandwidth must be positive, got {bw!r}")
        values = _occupation_curve_values(path, levels, bw)
        return LocalTimeCurve(levels, values, f"occupation(bw={bw:.6g})", H,
                              path.grid_n, path.horizon, normalized)

    left, right, dt = _crossing_arrays(path, partition)
    if estimator == "upcross":
        values = _crossing_curve_values(left, right, dt, H, gamma, levels)
        scale = frak_c(H, gamma) if normalized else 1.0
        tag = f"upcross(gamma={gamma:g})"
    elif estimator == "bidirectional":
        values = (_crossing_curve_values(left, right, dt, H, gamma, levels)
                  + _crossing_curve_values(right, left, dt, H, gamma, levels))
        scale = 2.0 * frak_c(H, gamma) if normalized else 1.0
        tag = f"bidirectional(gamma={gamma:g})"
    elif estimator == "count":
        values = _crossing_curve_values(left, right, dt, H, 0.0, levels)
        scale = frak_c(H, 0.0) if normalized else 1.0
        tag = "count"
    elif estimator == "excess":
        values = _excess_curve_values(left, right, H, levels)
        scale = H * frak_c(H, 1.0 / H - 1.0) if normalized else 1.0
        tag = "excess"
    else:
        raise ConfigurationError(f"unknown estimator tag {estimator!r}")
    return LocalTimeCurve(levels, values / scale, tag, H,
                          partition.n_intervals, path.horizon, normalized)


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
    i, j = _interval_indices(path, partition)
    contrib = upcross_germ(a).evaluate_batch(path, i, j)
    contrib /= frak_c(path.hurst, 0.0)
    values = np.concatenate(([0.0], np.cumsum(contrib)))
    return CumulativeCurve(partition.breakpoints, values, float(a),
                           "upcross(gamma=0)", path.hurst)

