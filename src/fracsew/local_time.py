"""Local-time estimators for one-dimensional rough Gaussian paths.

Four estimator families for the local time L_T(a) (occupation density at
level a), all reduced to a common scale:

* weighted up-crossing sums (optionally |increment|^gamma weighted),
* plain crossing counts on a uniform subgrid,
* endpoint-excess sums over up-crossing intervals,
* a kernel occupation-density estimator (the classical reference).

The limiting constant of the weighted up-crossing family is the positive-
part moment E[(W)_+^{1+gamma}] of a centered Gaussian W with the increment
variance at unit lag; it is exposed in closed form and via quadrature so the
two routes can be cross-checked.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigurationError, DomainError, RegimeWarning
from .fbm import FbmPath, c_h
from .numerics import _as_count, adaptive_quad, log_gamma
from .sewing import Germ, Partition, riemann_sum

__all__ = [
    "frak_c",
    "frak_c_quadrature",
    "validate_m_condition",
    "upcrossing_sum",
    "downcrossing_sum",
    "bidirectional_sum",
    "crossing_count_estimator",
    "upcrossing_excess_sum",
    "occupation_density_estimator",
    "default_bandwidth",
    "default_level_grid",
    "LocalTimeCurve",
    "local_time_curve",
    "CumulativeCurve",
    "cumulative_local_time",
    "lm_distance_over_levels",
    "upcross_germ",
]


def frak_c(hurst: float, gamma: float) -> float:
    """Limiting constant of the gamma-weighted up-crossing sums.

    Equals E[(W)_+^(1+gamma)] with W ~ N(0, c_h(hurst)); in closed form
    c_h^((1+gamma)/2) 2^(gamma/2) Gamma(gamma/2 + 1) / sqrt(2 pi).  At
    gamma=0 this is sqrt(c_h / (2 pi)), at gamma=1 it is c_h / 2.
    """
    if not 0.0 <= gamma:
        raise DomainError(f"gamma must be nonnegative, got {gamma!r}")
    c = c_h(hurst)
    logv = (0.5 * (1.0 + gamma) * math.log(c) + 0.5 * gamma * math.log(2.0)
            + log_gamma(0.5 * gamma + 1.0) - 0.5 * math.log(2.0 * math.pi))
    return math.exp(logv)


def frak_c_quadrature(hurst: float, gamma: float, tol: float = 1e-12) -> float:
    """Independent quadrature route to :func:`frak_c`.

    Integrates x^(1+gamma) times the N(0, c_h) density over x > 0 directly.
    """
    if not 0.0 <= gamma:
        raise DomainError(f"gamma must be nonnegative, got {gamma!r}")
    sd = math.sqrt(c_h(hurst))

    def dens(x: float) -> float:
        return x ** (1.0 + gamma) * math.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))

    return adaptive_quad(dens, 0.0, 40.0 * sd, tol=tol, singularity="lower").value


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
    idx = path.indices_of(partition.breakpoints)
    vals = path.values[idx]
    # the grid times' differences, as the crossing germ takes them
    return vals[:-1], vals[1:], np.diff(path.times[idx])


def _crossing_weight(dt: np.ndarray, inc: np.ndarray, hurst: float,
                     gamma: float) -> np.ndarray:
    """(t-s)^(1-(1+gamma)H) |B_t - B_s|^gamma for each crossing interval."""
    w = dt ** (1.0 - (1.0 + gamma) * hurst)
    if gamma != 0.0:
        w = w * np.abs(inc) ** gamma
    return w


def _crossing_germ(a: float, gamma: float, direction: str) -> Germ:
    """(t-s)^(1-(1+gamma)H) |B_t - B_s|^gamma on the intervals that cross a
    upwards (B_s < a < B_t) or downwards (B_t < a < B_s), zero elsewhere."""
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be nonnegative, got {gamma!r}")

    def batch(path: FbmPath, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        bs, bt = path.values[i], path.values[j]
        low, high = (bs, bt) if direction == "up" else (bt, bs)
        mask = (low < a) & (a < high)
        out = np.zeros(len(i))
        out[mask] = _crossing_weight(path.times[j[mask]] - path.times[i[mask]],
                                     bt[mask] - bs[mask], path.hurst, gamma)
        return out

    return Germ(name=f"{direction}cross[a={a:g},gamma={gamma:g}]", batch=batch)


def upcrossing_sum(path: FbmPath, partition: Partition, a: float,
                   gamma: float = 0.0) -> float:
    """Weighted up-crossing sum at level a.

    The :func:`riemann_sum` of :func:`upcross_germ`: sums
    (t-s)^(1-(1+gamma)H) |B_t - B_s|^gamma over partition intervals with
    B_s < a < B_t (strict).  Dividing by :func:`frak_c` estimates the local
    time at a.
    """
    _check_one_dim(path)
    return riemann_sum(_crossing_germ(a, gamma, "up"), path, partition)


def downcrossing_sum(path: FbmPath, partition: Partition, a: float,
                     gamma: float = 0.0) -> float:
    """Mirror of :func:`upcrossing_sum` over intervals with B_t < a < B_s."""
    _check_one_dim(path)
    return riemann_sum(_crossing_germ(a, gamma, "down"), path, partition)


def bidirectional_sum(path: FbmPath, partition: Partition, a: float,
                      gamma: float = 0.0) -> float:
    """Up- plus down-crossing sums; divide by 2 frak_c for the local time."""
    return (upcrossing_sum(path, partition, a, gamma)
            + downcrossing_sum(path, partition, a, gamma))


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
    return float(math.fsum(dt[inside])) / (2.0 * bandwidth)


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
        levels = np.asarray(self.levels, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if levels.ndim != 1 or levels.size < 2:
            raise ConfigurationError("level grid must hold at least two levels")
        if np.any(np.diff(levels) <= 0.0):
            raise ConfigurationError("level grid must be strictly increasing")
        if values.shape != levels.shape:
            raise ConfigurationError("values must match the level grid")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise DomainError("curve values must be finite and nonnegative")
        levels.flags.writeable = False
        values.flags.writeable = False
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
    return math.fsum(np.abs(right[mask] - a) ** p)


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
    frak_c(H, gamma) for upcross, sqrt(c_h/(2 pi)) for count,
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
        scale = math.sqrt(c_h(H) / (2.0 * math.pi)) if normalized else 1.0
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
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ConfigurationError("times and values must be 1-d and aligned")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def cumulative_local_time(path: FbmPath, partition: Partition, a: float, *,
                          estimator: str = "upcross",
                          gamma: float = 0.0) -> CumulativeCurve:
    """Normalized running estimate of the local time at a over time.

    Per-interval crossing contributions accumulate left to right, so the
    curve is nondecreasing by construction.
    """
    if estimator not in ("upcross", "bidirectional"):
        raise ConfigurationError(
            f"cumulative curves support 'upcross' and 'bidirectional', got {estimator!r}")
    _check_one_dim(path)
    idx = path.indices_of(partition.breakpoints)
    i, j = idx[:-1], idx[1:]
    H = path.hurst
    contrib = _crossing_germ(a, gamma, "up").evaluate_batch(path, i, j)
    scale = frak_c(H, gamma)
    if estimator == "bidirectional":
        contrib += _crossing_germ(a, gamma, "down").evaluate_batch(path, i, j)
        scale = 2.0 * scale
    contrib /= scale
    values = np.concatenate(([0.0], np.cumsum(contrib)))
    return CumulativeCurve(partition.breakpoints.copy(), values, float(a),
                           f"{estimator}(gamma={gamma:g})", H)


def lm_distance_over_levels(curve_a: LocalTimeCurve, curve_b: LocalTimeCurve,
                            m: float = 2.0) -> float:
    """L_m distance between two curves over their (shared) level grid.

    Warns when the moment condition of :func:`validate_m_condition` fails
    for the curves' hurst index.
    """
    if not m >= 1.0:
        raise DomainError(f"m must be >= 1, got {m!r}")
    if curve_a.levels.shape != curve_b.levels.shape or \
            not np.allclose(curve_a.levels, curve_b.levels, rtol=0.0, atol=1e-12):
        raise AlignmentError("curves live on different level grids")
    if not validate_m_condition(curve_a.hurst, m):
        warnings.warn(
            f"moment condition fails for hurst={curve_a.hurst}, m={m}: "
            "L_m distances are outside the guaranteed regime",
            RegimeWarning, stacklevel=2)
    gap = np.abs(curve_a.values - curve_b.values) ** m
    return float(np.trapezoid(gap, curve_a.levels)) ** (1.0 / m)


def upcross_germ(a: float, gamma: float = 0.0) -> Germ:
    """Up-crossing germ for the convergence-rate harness.

    Per interval: (t-s)^(1-(1+gamma)H) |B_t - B_s|^gamma on up-crossings of
    a, zero elsewhere.  Its :func:`riemann_sum` is :func:`upcrossing_sum`.
    """
    return _crossing_germ(a, gamma, "up")
