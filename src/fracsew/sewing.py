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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, FracsewError, RegimeWarning
from .fbm import FbmConfig, FbmPath, sample_fbm
from .numerics import McEstimate, _as_count, mc_lm_norm, mc_mean, split_seed

__all__ = [
    "Partition",
    "uniform_partition",
    "dyadic_partition",
    "random_partition",
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

    @property
    def lefts(self) -> np.ndarray:
        return self.breakpoints[:-1]

    @property
    def rights(self) -> np.ndarray:
        return self.breakpoints[1:]

    def refines(self, coarser: "Partition") -> bool:
        """True when every breakpoint of ``coarser`` appears here exactly."""
        if coarser.horizon != self.horizon:
            return False
        return bool(np.isin(coarser.breakpoints, self.breakpoints,
                            assume_unique=True).all())

    def insert(self, t: float) -> "Partition":
        t = float(t)
        if not (0.0 < t < self.horizon):
            raise DomainError(f"insertion point {t!r} outside (0, horizon)")
        if t in self.breakpoints:
            raise DomainError(f"breakpoint {t!r} already present")
        return Partition(np.sort(np.append(self.breakpoints, t)))

    def remove_interior(self, index: int) -> "Partition":
        """Drop the index-th interior breakpoint (0-based among interiors)."""
        if not (0 <= index < self.n_intervals - 1):
            raise DomainError(f"no interior breakpoint at position {index!r}")
        return Partition(np.delete(self.breakpoints, index + 1))


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


def random_partition(horizon: float, n: int, rng: np.random.Generator,
                     min_fraction: float = 1e-4) -> Partition:
    """A random partition with n intervals; gaps bounded below to stay valid."""
    gaps = min_fraction + rng.random(n)
    cuts = np.concatenate([[0.0], np.cumsum(gaps)])
    return Partition(cuts * (horizon / cuts[-1]))


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
    """Two-parameter interval functional A(path, s, t).

    ``batch(path, i, j)`` takes integer arrays of the grid indices of the
    interval ends, s = ``path.times[i]`` and t = ``path.times[j]``, and
    returns one value per interval.  It reads ``path.values`` and
    ``path.times`` at those indices directly; the callers map times to
    indices once, and raise :class:`AlignmentError` for off-grid times.
    """
    name: str
    batch: Callable[[FbmPath, np.ndarray, np.ndarray], np.ndarray]
    exponents: SewingExponents | None = None

    def evaluate(self, path: FbmPath, s: float, t: float) -> float:
        if not s < t:
            raise DomainError(f"germ interval needs s < t, got ({s!r}, {t!r})")
        idx = path.indices_of([s, t])
        return float(self.evaluate_batch(path, idx[:1], idx[1:])[0])

    def evaluate_batch(self, path: FbmPath, i: np.ndarray,
                       j: np.ndarray) -> np.ndarray:
        return np.asarray(self.batch(path, i, j), dtype=float)


def riemann_sum(germ: Germ, path: FbmPath, partition: Partition) -> float:
    """Sum of the germ over consecutive partition intervals.

    The breakpoints are mapped to grid indices ``idx`` once (they must lie
    on the path grid) and the germ is evaluated on ``idx[:-1], idx[1:]``.
    Accumulation is compensated (correctly-rounded) in breakpoint order, so
    the result does not depend on evaluation batching.
    """
    idx = path.indices_of(partition.breakpoints)
    return float(math.fsum(germ.evaluate_batch(path, idx[:-1], idx[1:])))


def delta_germ(germ: Germ, path: FbmPath, s: float, u: float, t: float) -> float:
    """Sewing defect A(s,t) - A(s,u) - A(u,t) for on-grid s < u < t.

    The three times are mapped to grid indices once and the germ is
    evaluated on the index pairs of [s,t], [s,u] and [u,t].
    """
    if not (s < u < t):
        raise DomainError(f"delta_germ needs s < u < t, got ({s!r}, {u!r}, {t!r})")
    idx = path.indices_of([s, u, t])
    a_st, a_su, a_ut = germ.evaluate_batch(path, idx[[0, 0, 1]], idx[[2, 1, 2]])
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


def _ols_loglog(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(log_x, log_y, 1)
    fitted = slope * log_x + intercept
    ss_res = float(np.sum((log_y - fitted) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _fit_rate(meshes: np.ndarray, distances: np.ndarray) -> tuple[float, float]:
    """Plain log-log OLS of distance against mesh.

    Distances are measured against the finest-level sum rather than the
    unobservable limit, so the points nearest the proxy are deflated; the
    caller drops the two finest levels to keep that contamination mild.
    Generous level ranges tighten the estimate further.
    """
    slope, _, r2 = _ols_loglog(np.log(meshes), np.log(distances))
    return slope, r2


def estimate_convergence_rate(germ: Germ,
                              config: FbmConfig,
                              levels: Sequence[int],
                              m: float = 2.0,
                              replicas: int = 64,
                              method: str = "circulant") -> RateFitResult:
    """Empirical L_m convergence rate of the germ's Riemann sums.

    For each replica path the sum is computed on every dyadic level; the
    finest level serves as the proxy limit and ``lm_distances[i]`` is the
    L_m norm of (sum at level i) - (sum at finest).  ``epsilon_hat`` is the
    log-log least-squares slope over all levels except the finest two (those
    sit too close to the proxy).  Germs that are exactly additive report
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

    keep = values[:-2] > 0.0
    if keep.sum() < 2:
        raise ConfigurationError(
            "not enough levels with nonzero distance to fit a rate")
    eps, r2 = _fit_rate(meshes[:-2][keep], values[:-2][keep])
    return RateFitResult(germ.name, float(m), replicas, tuple(levels), meshes,
                         lm, limit_estimate, eps, r2, False)
