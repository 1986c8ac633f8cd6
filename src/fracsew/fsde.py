"""Young differential equations driven by rough Gaussian paths.

Explicit left-point Euler stepping for dX = b(X)dt + sigma(X)dB with an fBM
driver (guaranteed regime: hurst > 1/2), Gaussian mollification of
coefficients, a built-in diffusion whose gradient is exactly delta-Holder at
the origin, the three delta-thresholds governing uniqueness, and a joint
refinement/mollification probe that looks for the branching a non-unique
equation would produce.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (CapabilityError, ConfigurationError, DomainError,
                     NumericalError, RegimeWarning)
from .fbm import FbmConfig, FbmPath, _read_only, sample_fbm
from .numerics import _as_count, _hermite_rule, split_seed
from .sewing import Partition, _interval_values

__all__ = [
    "CoefficientPair",
    "SolutionPath",
    "young_euler_solve",
    "mollify_coefficient",
    "builtin_holder_sigma",
    "constant_pair",
    "geometric_pair",
    "holder_pair",
    "bounded_drift",
    "verify_norm_bounds",
    "Thresholds",
    "delta_thresholds",
    "ProbeReport",
    "uniqueness_probe",
]


@dataclass(frozen=True)
class CoefficientPair:
    """Drift and diffusion of a Young equation, with declared smoothness.

    Batch contract: for states of shape (..., d), with any leading batch
    axes, ``drift`` returns shape (..., d) and ``diffusion`` (..., d, d).
    ``drift=None`` means b = 0: the Euler loop then makes no drift call and
    adds no drift term.  A coefficient may return a view of its input; the
    loop never writes into a coefficient's input or output.
    One Euler loop steps both :func:`young_euler_solve` and
    :func:`uniqueness_probe`, and raises :class:`CapabilityError` on any
    other output shape.  ``drift_bound`` and
    ``diffusion_bound`` are declared upper bounds for sup|f| + sup|grad f|;
    they are claims, checkable by :func:`verify_norm_bounds`.
    ``grad_holder_delta`` records the Holder exponent of the diffusion's
    gradient when known.
    """
    drift: Callable[[np.ndarray], np.ndarray] | None
    diffusion: Callable[[np.ndarray], np.ndarray]
    dim: int = 1
    name: str = ""
    drift_bound: float | None = None
    diffusion_bound: float | None = None
    grad_holder_delta: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _as_count(self.dim, "dim", 1))


def verify_norm_bounds(pair: CoefficientPair, radius: float = 3.0,
                       n_points: int = 256, seed: int = 0,
                       h: float = 1e-5) -> dict[str, bool]:
    """Probabilistic check that declared C^1 bounds hold on a compact box.

    Samples points uniformly in [-radius, radius]^d, estimates
    sup|f| + sup|grad f| by central differences, and compares against the
    declared bound.  Bounds declared as None are skipped (reported True),
    and a drift of None is the zero function.
    """
    rng = split_seed(seed, 0).generator()
    pts = rng.uniform(-radius, radius, size=(n_points, pair.dim))
    out: dict[str, bool] = {}
    for tag, fn, bound, shape in (
            ("drift", pair.drift, pair.drift_bound, pts.shape),
            ("diffusion", pair.diffusion, pair.diffusion_bound, pts.shape + (pair.dim,))):
        if bound is None:
            out[tag] = True
            continue
        if fn is None:
            out[tag] = 0.0 <= bound
            continue
        sup_f = float(np.max(np.abs(_coefficient(fn, pts, shape, tag))))
        sup_g = 0.0
        for e in h * np.eye(pair.dim):
            grad = (_coefficient(fn, pts + e, shape, tag)
                    - _coefficient(fn, pts - e, shape, tag)) / (2.0 * h)
            sup_g = max(sup_g, float(np.max(np.abs(grad))))
        out[tag] = sup_f + sup_g <= bound * (1.0 + 1e-6)
    return out


@dataclass(frozen=True)
class SolutionPath:
    """Discrete solution of a Young equation on a partition grid."""
    times: np.ndarray
    values: np.ndarray
    dim: int
    step_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _read_only(self.times))
        object.__setattr__(self, "values", _read_only(self.values))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def _as_state(x0, dim: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (dim,):
        raise DomainError(f"initial state must have shape ({dim},), got {x.shape}")
    return x


def young_euler_solve(coeffs: CoefficientPair, x0, driver: FbmPath,
                      partition: Partition) -> SolutionPath:
    """Explicit left-point stepping X_{k+1} = X_k + b(X_k)dt + sigma(X_k)dB.

    The scheme is exact for constant diffusion with zero drift.  Drivers at
    or below hurst 1/2 are outside the guaranteed regime and warn.
    """
    if coeffs.dim != driver.dim:
        raise DomainError(
            f"coefficient dimension {coeffs.dim} does not match driver dimension {driver.dim}")
    if driver.hurst <= 0.5:
        warnings.warn("young_euler_solve outside its guaranteed regime for "
                      f"hurst={driver.hurst}", RegimeWarning, stacklevel=2)
    _, bs, bt = _interval_values(driver, partition)
    db = (bt - bs).reshape(partition.n_intervals, driver.dim)
    out = _batched_euler(coeffs, _as_state(x0, coeffs.dim), np.diff(partition.breakpoints), db)
    values = out[:, 0] if coeffs.dim == 1 else out
    return SolutionPath(times=partition.breakpoints, values=values,
                        dim=coeffs.dim, step_count=partition.n_intervals)


def _coefficient(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                 shape: tuple[int, ...], tag: str) -> np.ndarray:
    """``fn(x)`` as floats, held to the batch contract's output shape."""
    value = np.asarray(fn(x), dtype=float)
    if value.shape != shape:
        raise CapabilityError(f"{tag} returned shape {value.shape} for states "
                              f"of shape {x.shape}; the batch contract needs {shape}")
    return value


def _batched_euler(coeffs: CoefficientPair, x0: np.ndarray, dt: np.ndarray,
                   db: np.ndarray) -> np.ndarray:
    """Euler stepping of a state of shape (..., d) on a shared step grid.

    x0: (..., d); dt: (N,); db: (N, ..., d), broadcast against the state's
    batch axes.  Returns (N+1, ..., d).  Step k reads ``traj[k]`` and
    writes ``traj[k + 1]`` in place, so the coefficients' inputs and
    outputs are never written to.
    """
    n_steps = dt.size
    traj = np.empty((n_steps + 1,) + x0.shape)
    traj[0] = x0
    drift = coeffs.drift
    sigma_shape = x0.shape + x0.shape[-1:]
    db_col = db[..., None]
    noise = np.empty(x0.shape + (1,))
    dx = noise[..., 0]
    finite = np.empty(x0.shape, dtype=bool)
    for k in range(n_steps):
        x, x_next = traj[k], traj[k + 1]
        if drift is not None:
            bx = _coefficient(drift, x, x0.shape, "drift")
        sx = _coefficient(coeffs.diffusion, x, sigma_shape, "diffusion")
        np.matmul(sx, db_col[k], out=noise)
        if drift is None:
            np.add(x, dx, out=x_next)
        else:
            np.multiply(bx, dt[k], out=x_next)
            np.add(x, x_next, out=x_next)
            np.add(x_next, dx, out=x_next)
        # np.count_nonzero has a smaller fixed cost than ndarray.all() on
        # the small states stepped here
        np.isfinite(x_next, out=finite)
        if np.count_nonzero(finite) < finite.size:
            raise NumericalError(f"non-finite state at step {k}", step=k)
    return traj


def mollify_coefficient(fn: Callable[[np.ndarray], np.ndarray], scale: float,
                        dim: int = 1) -> Callable[[np.ndarray], np.ndarray]:
    """Gaussian smoothing x -> E[fn(x + scale Z)], Z standard normal in R^d.

    ``fn`` is a diffusion under :class:`CoefficientPair`'s batch contract:
    states (..., d) map to matrices (..., d, d), and any other output shape
    raises :class:`CapabilityError`.  Evaluated by tensorized 32-node
    Gauss--Hermite quadrature with a fixed summation order, so results do
    not depend on how calls are batched; exact for affine maps.  Dimensions
    above 2 are not supported.
    """
    if not scale > 0.0:
        raise DomainError(f"scale must be positive, got {scale!r}")
    nodes1, w = _hermite_rule(32)
    if dim == 1:
        offsets = nodes1[:, None]
    elif dim == 2:
        xx, yy = np.meshgrid(nodes1, nodes1, indexing="ij")
        offsets = np.column_stack([xx.ravel(), yy.ravel()])
        w = np.outer(w, w).ravel()
    else:
        raise CapabilityError("mollification supports dim <= 2")
    shifts = scale * offsets
    w = w[:, None, None]

    def smooth(x: np.ndarray) -> np.ndarray:
        pts = np.asarray(x, dtype=float)[..., None, :] + shifts
        vals = _coefficient(fn, pts, pts.shape[:-1] + (dim, dim), "diffusion")
        return np.add.reduce(w * vals, axis=-3)

    return smooth


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _radial_bump(x: np.ndarray, radius: float) -> np.ndarray:
    """Smooth cutoff: 1 at the origin, support |x| < radius.

    From the radius on, r2 is capped just below 1, where exp(1 - 1/(1 - r2)) is 0.
    Returns a fresh array of shape ``x.shape[:-1]`` (0-d for one state), so
    callers may keep computing in it.
    """
    r2 = np.empty(x.shape[:-1])
    if x.shape[-1] == 1:
        np.multiply(x[..., 0], x[..., 0], out=r2)
    else:
        np.add.reduce(x * x, axis=-1, out=r2)
    np.divide(r2, radius * radius, out=r2)
    np.minimum(r2, _BELOW_ONE, out=r2)
    np.subtract(1.0, r2, out=r2)
    np.divide(1.0, r2, out=r2)
    np.subtract(1.0, r2, out=r2)
    return np.exp(r2, out=r2)


_HOLDER_RADIUS = 2.0  # support radius of the Holder diffusion's cutoff


def builtin_holder_sigma(delta: float, dim: int = 1,
                         kappa: float = 0.5) -> Callable[[np.ndarray], np.ndarray]:
    """Diagonal diffusion whose gradient is exactly delta-Holder at 0.

    sigma(x) = I * (1 + kappa * psi(x) * sign(x_1) |x_1|^(1+delta)) with a
    smooth radial cutoff psi of support radius 2; sigma(0) = I, and
    the scalar factor stays in (1 - kappa', 1 + kappa') so the matrix is
    symmetric positive definite for kappa small enough.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    eye = np.eye(dim)

    def sigma(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        x1 = x[..., 0]
        factor = _radial_bump(x, _HOLDER_RADIUS)
        np.multiply(kappa, factor, out=factor)
        odd = np.abs(x1, out=np.empty(x1.shape))
        np.power(odd, 1.0 + delta, out=odd)
        # sign(x1) |x1|^(1+delta) by copysign: rounding is sign-symmetric, so
        # the product below equals the one with np.sign(x1) bit for bit
        np.copysign(odd, x1, out=odd)
        np.multiply(factor, odd, out=factor)
        np.add(1.0, factor, out=factor)
        if dim == 1:
            return factor[..., None, None]
        return factor[..., None, None] * eye

    return sigma


def bounded_drift(strength: float = 0.5) -> Callable[[np.ndarray], np.ndarray]:
    """Componentwise -strength * tanh(x): smooth, bounded, bounded gradient."""
    def drift(x: np.ndarray) -> np.ndarray:
        return -strength * np.tanh(np.asarray(x, dtype=float))
    return drift


def constant_pair(matrix, dim: int = 1) -> CoefficientPair:
    """Zero drift with a constant diffusion matrix (solver is exact here)."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    if mat.shape != (dim, dim):
        raise DomainError(f"matrix must be {dim}x{dim}, got {mat.shape}")
    mat.flags.writeable = False

    def sigma(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(mat, x.shape[:-1] + (dim, dim))

    bound = float(np.max(np.abs(mat)))
    return CoefficientPair(drift=None, diffusion=sigma, dim=dim,
                           name="constant", drift_bound=0.0,
                           diffusion_bound=bound, grad_holder_delta=None)


def geometric_pair() -> CoefficientPair:
    """d=1, zero drift, sigma(x) = x; closed form x0 exp(B_t - B_0)."""
    def sigma(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[..., None]

    return CoefficientPair(drift=None, diffusion=sigma, dim=1,
                           name="geometric")


def holder_pair(delta: float, dim: int = 1, kappa: float = 0.5,
                drift_strength: float = 0.0) -> CoefficientPair:
    """Built-in test equation: optional bounded drift + the delta-Holder sigma."""
    drift = None if drift_strength == 0.0 else bounded_drift(drift_strength)
    sigma = builtin_holder_sigma(delta, dim=dim, kappa=kappa)
    return CoefficientPair(
        drift=drift, diffusion=sigma, dim=dim,
        name=f"holder(delta={delta:g},drift={drift_strength:g})",
        drift_bound=2.0 * abs(drift_strength),
        diffusion_bound=1.0 + kappa * (_HOLDER_RADIUS ** (1.0 + delta)) * 4.0,
        grad_holder_delta=delta)


class Thresholds(NamedTuple):
    strong: float
    weak: float
    young: float


def delta_thresholds(hurst: float) -> Thresholds:
    """The three gradient-Holder thresholds for uniqueness, by strength.

    strong = (1-H)(2-H)/(H(3-H)); weak = (1-H)(2-H)/(1+H-H^2);
    young = (1-H)/H (the classical pathwise requirement).  For every
    H in (1/2, 1): strong < weak < young, so uniqueness is available below
    the classical threshold.
    """
    H = hurst
    if not 0.5 < H < 1.0:
        raise DomainError(f"hurst must lie in (1/2, 1), got {hurst!r}")
    num = (1.0 - H) * (2.0 - H)
    return Thresholds(strong=num / (H * (3.0 - H)),
                      weak=num / (1.0 + H - H * H),
                      young=(1.0 - H) / H)


@dataclass(frozen=True)
class ProbeReport:
    """Output of :func:`uniqueness_probe`.

    ``pair_table`` rows are (replica, level_a, scale_a, level_b, scale_b,
    sup_distance) over all cell pairs.  ``diag_distances[k]`` is the
    max-over-replicas sup-distance between the k-th diagonal cell and the
    finest diagonal cell; ``fitted_decay`` is the fitted per-index decay
    rate of those distances (positive = shrinking), ``extrapolated_final``
    its prediction at the last comparison, and ``plateau_free`` whether the
    observed final distance stays within 10x that prediction with a
    negative-slope fit (None when there are too few diagonal cells to fit).
    """
    hurst: float
    delta: float
    coefficient_name: str
    x0: float
    levels: tuple[int, ...]
    scales: tuple[float, ...]
    replicas: int
    thresholds: Thresholds
    pair_table: np.ndarray
    diag_levels: tuple[int, ...]
    diag_scales: tuple[float, ...]
    diag_distances: np.ndarray
    fitted_decay: float
    extrapolated_final: float
    max_final_distance: float
    plateau_free: bool | None


def _sup_distance(traj_a: np.ndarray, traj_b: np.ndarray,
                  level_a: int, level_b: int) -> np.ndarray:
    """Per-replica sup distance of two trajectories on their common grid."""
    if level_a <= level_b:
        coarse, fine, gap = traj_a, traj_b, level_b - level_a
    else:
        coarse, fine, gap = traj_b, traj_a, level_a - level_b
    fine = fine[:: 2 ** gap]
    diff = coarse - fine
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    return np.max(dist, axis=0)


def uniqueness_probe(hurst: float, delta: float, *, x0: float = 0.1,
                     mesh_levels: tuple[int, ...] = (8, 9, 10, 11, 12),
                     scales: tuple[float, ...] = (2 ** -4, 2 ** -5, 2 ** -6, 2 ** -7, 2 ** -8),
                     replicas: int = 20, seed: int = 0, horizon: float = 1.0,
                     coeffs: CoefficientPair | None = None) -> ProbeReport:
    """Joint refinement/mollification probe for pathwise uniqueness.

    For each replica (one driving path), solves the equation on every
    (dyadic mesh level, mollification scale) cell — the diffusion smoothed
    at that scale — and reports all pairwise sup-distances between cell
    solutions of the same replica.  If the equation selected a single
    solution, distances along the diagonal toward the finest cell must decay
    without a plateau; branching (non-uniqueness) would show up as distances
    that stop shrinking.
    """
    thresholds = delta_thresholds(hurst)
    levels = tuple(int(l) for l in mesh_levels)
    scales = tuple(float(s) for s in scales)
    if len(levels) < 2 or len(scales) < 2:
        raise ConfigurationError("probe needs at least two mesh levels and two scales")
    if sorted(set(levels)) != list(levels):
        raise ConfigurationError(f"mesh levels must be strictly increasing, got {levels!r}")
    if levels[0] < 1:
        raise ConfigurationError(f"mesh levels must be at least 1, got {levels!r}")
    if any(s <= 0.0 for s in scales) or sorted(set(scales), reverse=True) != list(scales):
        raise ConfigurationError(f"scales must be positive and strictly decreasing, got {scales!r}")
    replicas = _as_count(replicas, "replicas", 1)
    if coeffs is None:
        coeffs = holder_pair(delta, dim=1)
    dim = coeffs.dim

    finest = levels[-1]
    grid_n = 2 ** finest
    drivers = []
    for r in range(replicas):
        cfg = FbmConfig(hurst=hurst, horizon=horizon, grid_n=grid_n,
                        seed=split_seed(seed, r), dim=dim)
        drivers.append(sample_fbm(cfg, method="circulant"))
    stack = np.stack([d.values.reshape(grid_n + 1, dim) for d in drivers], axis=1)
    times = drivers[0].times
    # all scales of one mesh level step as one (S, R, d) state on shared
    # increments; each scale's mollified sigma is still called on its own
    # slice, once per scale and step
    x0_state = np.full((len(scales), replicas, dim), float(x0))
    smooth_sigma = [mollify_coefficient(coeffs.diffusion, s, dim=dim) for s in scales]

    def stacked_sigma(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape + x.shape[-1:])
        for j, sigma in enumerate(smooth_sigma):
            out[j] = sigma(x[j])
        return out

    stacked = replace(coeffs, diffusion=stacked_sigma)
    cells = [(lev, sc) for lev in levels for sc in scales]
    trajs = {}
    for lev in levels:
        stride = 2 ** (finest - lev)
        traj = _batched_euler(stacked, x0_state, np.diff(times[::stride]),
                              np.diff(stack[::stride], axis=0))
        for j, sc in enumerate(scales):
            trajs[lev, sc] = traj[:, j]

    pairs = list(itertools.combinations(cells, 2))
    pair_table = np.empty((len(pairs), replicas, 6))
    pair_table[:, :, 0] = np.arange(replicas)
    for block, (cell_a, cell_b) in zip(pair_table, pairs):
        block[:, 1:5] = (cell_a[0], cell_a[1], cell_b[0], cell_b[1])
        block[:, 5] = _sup_distance(trajs[cell_a], trajs[cell_b],
                                    cell_a[0], cell_b[0])
    pair_table = pair_table.reshape(-1, 6)

    n_diag = min(len(levels), len(scales))
    lev_pick = [round(k * (len(levels) - 1) / (n_diag - 1)) for k in range(n_diag)]
    sc_pick = [round(k * (len(scales) - 1) / (n_diag - 1)) for k in range(n_diag)]
    diag = [(levels[a], scales[b]) for a, b in zip(lev_pick, sc_pick)]
    fin = diag[-1]
    diag_d = np.array([float(np.max(_sup_distance(trajs[c], trajs[fin],
                                                  c[0], fin[0])))
                       for c in diag[:-1]])

    fitted = float("nan")
    extrapolated = float("nan")
    plateau_free: bool | None = None
    n_fit = n_diag - 2
    if n_fit >= 2 and np.all(diag_d[:n_fit] > 0.0):
        slope, intercept = np.polyfit(np.arange(n_fit), np.log(diag_d[:n_fit]), 1)
        fitted = -float(slope)
        extrapolated = float(np.exp(intercept + slope * (n_diag - 2)))
        plateau_free = bool(slope < 0.0 and diag_d[-1] < 10.0 * extrapolated)

    return ProbeReport(
        hurst=hurst, delta=float(delta), coefficient_name=coeffs.name,
        x0=float(x0), levels=levels, scales=scales, replicas=replicas,
        thresholds=thresholds, pair_table=pair_table,
        diag_levels=tuple(c[0] for c in diag),
        diag_scales=tuple(c[1] for c in diag),
        diag_distances=diag_d, fitted_decay=fitted,
        extrapolated_final=extrapolated,
        max_final_distance=float(diag_d[-1]),
        plateau_free=plateau_free)
