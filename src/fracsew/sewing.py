"""Partitions, two-parameter germs, and the empirical convergence-rate harness.

A *germ* assigns a number A(s, t) to each interval of a partition; the
Riemann sum accumulates it over consecutive intervals, and the harness
measures, in L_m over independent paths, how fast those sums converge as the
partition refines.  The coarsening operation regularizes an arbitrary
partition into one whose mesh and minimum gap differ by at most a factor 3,
refined by the original — the combinatorial step that lets uneven partitions
be compared against uniform ones.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (AlignmentError, CapabilityError, ConfigurationError,
                     DomainError, FracsewError, RegimeWarning)
from .fbm import FbmConfig, FbmPath, sample_fbm
from .numerics import (McEstimate, _as_count, _exact_sum, mc_lm_norm, mc_mean,
                       split_seed)

__all__ = [
    "Partition",
    "uniform_partition",
    "dyadic_partition",
    "coarsen",
    "Germ",
    "SewingExponents",
    "riemann_sum",
    "delta_germ",
    "RateFitResult",
    "estimate_convergence_rate",
]


@dataclass(frozen=True)
class Partition:
    """Strictly increasing breakpoints from 0 to the horizon."""
    breakpoints: np.ndarray
    # (times, i, j, dt): the interval ends' indices on the last grid the
    # breakpoints were mapped to and their time steps; see _interval_values
    _on_grid: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise DomainError("a partition needs at least two breakpoints")
        if bp[0] != 0.0:
            raise DomainError(f"partitions start at 0, got {bp[0]!r}")
        if not np.all(np.diff(bp) > 0.0):
            raise DomainError("breakpoints must be strictly increasing")
        bp = bp.copy()
        bp.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return bool(np.array_equal(self.breakpoints, other.breakpoints))

    def __hash__(self) -> int:
        # the first breakpoint is always +-0.0, which compare equal but
        # differ in their bytes; the rest are positive
        return hash(self.breakpoints[1:].tobytes())

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def n_intervals(self) -> int:
        return self.breakpoints.size - 1

    @property
    def mesh(self) -> float:
        return float(np.diff(self.breakpoints).max())

    @property
    def min_gap(self) -> float:
        return float(np.diff(self.breakpoints).min())

    def refines(self, coarser: "Partition") -> bool:
        """True when every breakpoint of ``coarser`` appears here exactly."""
        if coarser.horizon != self.horizon:
            return False
        return bool(np.isin(coarser.breakpoints, self.breakpoints,
                            assume_unique=True).all())


def uniform_partition(horizon: float, n: int) -> Partition:
    n = _as_count(n, "n", 1)
    if not horizon > 0.0:
        raise DomainError(f"horizon must be positive, got {horizon!r}")
    return Partition((np.arange(n + 1) * horizon) / n)


def dyadic_partition(horizon: float, level: int) -> Partition:
    level = _as_count(level, "level", 0)
    if level > 30:
        raise ConfigurationError(f"level must be an integer in [0, 30], got {level!r}")
    return uniform_partition(horizon, 2 ** level)


def coarsen(partition: Partition) -> Partition:
    """Regularize a partition: same horizon, comparable mesh and min gap.

    Walks the breakpoints greedily, keeping the first point at distance at
    least the original mesh from the last kept one, and merging the tail.
    The result pi' satisfies, and this function checks, that

    * ``partition`` refines the result,
    * mesh(pi') <= 3 mesh(pi),
    * min_gap(pi') >= mesh(pi') / 3.
    """
    t = partition.breakpoints
    n = partition.n_intervals
    mesh = partition.mesh
    kept = [0.0]
    k_prev = -1
    while True:
        target = t[k_prev + 1] + mesh
        # smallest j > k_prev with t[j+1] >= target; "none" maps to n
        j = int(np.searchsorted(t, target, side="left")) - 1
        j = max(j, k_prev + 1)
        if j >= n:
            break
        # peek: if the next k would be n, this point is replaced by the
        # horizon (tail merge), so stop before keeping it
        nxt = int(np.searchsorted(t, t[j + 1] + mesh, side="left")) - 1
        if max(nxt, j + 1) >= n:
            break
        kept.append(t[j + 1])
        k_prev = j
    kept.append(t[n])
    out = Partition(np.array(kept))

    slack = 1.0 + 1e-12
    if not partition.refines(out):
        raise FracsewError("coarsen postcondition failed: result not refined by input")
    if out.mesh > 3.0 * mesh * slack:
        raise FracsewError(
            f"coarsen postcondition failed: mesh {out.mesh:g} > 3*{mesh:g}")
    if out.min_gap * slack < out.mesh / 3.0:
        raise FracsewError(
            f"coarsen postcondition failed: min gap {out.min_gap:g} < mesh/3 {out.mesh / 3.0:g}")
    return out


@dataclass(frozen=True)
class SewingExponents:
    """Exponent bookkeeping for a germ family.

    ``alpha`` is the singularity weight, ``beta1``/``beta2`` the conditional
    and unconditional increment-defect orders and ``m`` the moment index.
    """
    alpha: float
    beta1: float
    beta2: float
    m: float

    def validate(self) -> "SewingExponents":
        problems = []
        if not self.beta1 > 1.0:
            problems.append(f"beta1 must exceed 1 (got {self.beta1!r})")
        if not self.beta2 > 0.5:
            problems.append(f"beta2 must exceed 1/2 (got {self.beta2!r})")
        if not self.beta1 - self.alpha > 0.5:
            problems.append(
                f"beta1 - alpha must exceed 1/2 (got {self.beta1 - self.alpha!r})")
        if not self.m >= 1.0:
            problems.append(f"m must be at least 1 (got {self.m!r})")
        if problems:
            raise ConfigurationError("invalid sewing exponents: " + "; ".join(problems))
        return self


@dataclass(frozen=True)
class Germ:
    """Two-parameter interval functional A(s, t) of t - s, B_s and B_t.

    ``batch(dt, bs, bt)`` takes broadcastable arrays of those three, as
    :func:`_interval_values` gathers them, and returns one value per
    interval.  A path of dimension d > 1 has its state on the trailing axis.
    """
    name: str
    batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    exponents: SewingExponents | None = None

    def evaluate_batch(self, dt: np.ndarray, bs: np.ndarray, bt: np.ndarray) -> np.ndarray:
        return np.asarray(self.batch(dt, bs, bt), dtype=float)


def _interval_values(path: FbmPath, partition: Partition) -> tuple[np.ndarray, ...]:
    """``(t - s, B_s, B_t)`` on every interval [s, t] of the partition.

    The breakpoints must lie on distinct grid points, else
    :class:`AlignmentError`.  They are mapped once per (grid, partition):
    the partition keeps the read-only grid indices ``i``, ``j`` of the
    interval ends and ``dt = times[j] - times[i]`` for the last grid it was
    mapped to, together with that grid's ``times`` array, and a path whose
    ``times`` is that very array reuses them.  The grid's times and the
    breakpoints are read-only (see :class:`FbmPath`), so the cache stays
    valid while the partition lives; a failed mapping is not kept.
    """
    cached = partition._on_grid
    if cached is None or cached[0] is not path.times:
        idx = path.indices_of(partition.breakpoints)
        idx.setflags(write=False)
        i, j = idx[:-1], idx[1:]
        if not (j > i).all():
            raise AlignmentError("two breakpoints map to the same grid point")
        dt = path.times[j] - path.times[i]
        dt.setflags(write=False)
        cached = (path.times, i, j, dt)
        object.__setattr__(partition, "_on_grid", cached)
    _, i, j, dt = cached
    return dt, path.values[i], path.values[j]


def riemann_sum(germ: Germ, path: FbmPath, partition: Partition) -> float:
    """Sum of the germ over consecutive partition intervals.

    The germ is evaluated on the :func:`_interval_values` of the partition.
    The sum is correctly rounded, so it depends neither on the order of the
    intervals nor on evaluation batching: :func:`numerics._exact_sum` splits
    the values by Rump, Ogita and Oishi's error-free vector extraction
    (SIAM J. Sci. Comput. 31, 2008) into partial sums that are exact in any
    order, and returns the same float as the stdlib's ``fsum`` of the values.
    A germ must return one value per interval, else :class:`CapabilityError`.
    """
    values = germ.evaluate_batch(*_interval_values(path, partition))
    if values.shape != (partition.n_intervals,):
        raise CapabilityError(f"{germ.name} returned shape {values.shape} for "
                              f"{partition.n_intervals} intervals")
    return _exact_sum(values)


def delta_germ(germ: Germ, path: FbmPath, s: float, u: float, t: float) -> float:
    """Sewing defect A(s,t) - A(s,u) - A(u,t) for on-grid s < u < t.

    The three times are mapped to grid indices once and the germ is
    evaluated on the gathered pairs of [s,t], [s,u] and [u,t].
    """
    idx = path.indices_of([s, u, t])
    if not idx[0] < idx[1] < idx[2]:
        raise DomainError(f"delta_germ needs s < u < t on the grid, got ({s!r}, {u!r}, {t!r})")
    i, j = idx[[0, 0, 1]], idx[[2, 1, 2]]
    a_st, a_su, a_ut = germ.evaluate_batch(path.times[j] - path.times[i],
                                           path.values[i], path.values[j])
    return float(a_st - a_su - a_ut)


@dataclass(frozen=True)
class RateFitResult:
    """Empirical L_m convergence diagnostics of a germ's Riemann sums."""
    germ_name: str
    m: float
    replicas: int
    levels: tuple[int, ...]
    meshes: np.ndarray
    lm_distances: tuple[McEstimate, ...]
    limit_estimate: McEstimate
    epsilon_hat: float
    r_squared: float
    exact: bool


def _fit_rate(meshes: np.ndarray, distances: np.ndarray) -> tuple[float, float]:
    """Slope and R^2 of the plain log-log OLS of distance against mesh.

    The distances are those between consecutive levels, ||S_l - S_{l+1}||,
    each set at the coarser level's mesh.  If ||S_l - S|| ~ C mesh_l^eps,
    these decay at the same rate eps, and no point is measured against a
    sum that shares its own discretization error.
    """
    log_x, log_y = np.log(meshes), np.log(distances)
    slope, intercept = np.polyfit(log_x, log_y, 1)
    ss_res = float(np.sum((log_y - (slope * log_x + intercept)) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def estimate_convergence_rate(germ: Germ,
                              config: FbmConfig,
                              levels: Sequence[int],
                              m: float = 2.0,
                              replicas: int = 64,
                              method: str = "circulant") -> RateFitResult:
    """Empirical L_m convergence rate of the germ's Riemann sums.

    For each replica path the sum is computed on every dyadic level; the
    finest level serves as the limit estimate and ``lm_distances[i]`` is the
    L_m norm of (sum at level i) - (sum at finest).  ``epsilon_hat`` and
    ``r_squared`` come from the log-log least-squares fit of the L_m norms
    of consecutive differences (sum at level i) - (sum at level i+1) against
    the mesh of level i, over every pair of consecutive levels (see
    :func:`_fit_rate`).  Germs that are exactly additive report
    ``exact=True`` with an infinite rate.  A germ whose declared exponents
    fail :meth:`SewingExponents.validate` is still measured, with a
    :class:`RegimeWarning`.
    """
    levels = [int(l) for l in levels]
    if len(levels) < 4:
        raise ConfigurationError("rate estimation needs at least 4 levels")
    if sorted(set(levels)) != levels:
        raise ConfigurationError("levels must be strictly increasing")
    replicas = _as_count(replicas, "replicas", 2)
    n = config.grid_n
    if n & (n - 1) or n < 2 ** levels[-1]:
        raise ConfigurationError(
            f"grid_n must be a power of two >= 2^{levels[-1]}, got {n}")

    if germ.exponents is not None:
        try:
            germ.exponents.validate()
        except ConfigurationError as exc:
            warnings.warn(f"{germ.name} is outside the sewing regime: {exc}",
                          RegimeWarning, stacklevel=2)

    partitions = [dyadic_partition(config.horizon, l) for l in levels]
    sums = np.empty((replicas, len(levels)))
    for r in range(replicas):
        path = sample_fbm(replace(config, seed=split_seed(config.seed, r)),
                          method=method)
        sums[r] = [riemann_sum(germ, path, p) for p in partitions]

    limit_estimate = mc_mean(sums[:, -1])
    diffs = sums - sums[:, -1:]
    lm = tuple(mc_lm_norm(diffs[:, i], m) for i in range(len(levels)))
    meshes = np.array([config.horizon / 2 ** l for l in levels])

    scale = max(1.0, abs(limit_estimate.value))
    values = np.array([e.value for e in lm])
    if np.all(values <= 1e-12 * scale):
        return RateFitResult(germ.name, float(m), replicas, tuple(levels), meshes,
                             lm, limit_estimate, math.inf, 1.0, True)

    steps = np.array([mc_lm_norm(sums[:, i] - sums[:, i + 1], m).value
                      for i in range(len(levels) - 1)])
    keep = steps > 0.0
    if keep.sum() < 2:
        raise ConfigurationError(
            "not enough levels with nonzero distance to fit a rate")
    eps, r2 = _fit_rate(meshes[:-1][keep], steps[keep])
    return RateFitResult(germ.name, float(m), replicas, tuple(levels), meshes,
                         lm, limit_estimate, eps, r2, False)
