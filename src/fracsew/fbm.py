"""Fractional Brownian motion: covariance structure, exact samplers, and
conditional increment moments.

The process is normalized so that the variance of an increment over a lag u
is ``c_h(H) * u**(2H)`` where ``c_h`` is the moving-average constant below
(``c_h(1/2) == 1``, so H = 1/2 is standard Brownian motion).  All samplers
draw from the same law; they differ in cost and in what provenance they can
attach to the path:

``cholesky``
    exact covariance via a dense Cholesky factor, O(n^2) memory;
``circulant``
    exact covariance via the Davies-Harte circulant embedding of size 2n,
    drawn from 2n real normals per component in Hermitian layout (Wood &
    Chan 1994; Dietrich & Newsam 1997) and one inverse real FFT for all
    components, O(n log n);
``kernel``
    truncated moving-average discretization driven by explicit white-noise
    cells on [-A, T].  Slightly approximate in law (documented O(A^(2H-2))
    truncation tail plus an O((h/(s-v))^(2H)) projection loss near the
    increment singularity) but the only method that carries driving-noise
    provenance, which the conditional-expectation oracles require.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (AlignmentError, ConfigurationError, DomainError,
                     EmbeddingError, NumericalError)
from .numerics import SeedSpec, _as_count, adaptive_quad, as_seed_spec, beta

__all__ = [
    "c_h",
    "fbm_cov",
    "fgn_cov",
    "FbmConfig",
    "DrivingNoise",
    "FbmPath",
    "sample_fbm",
    "kernel_cell_weights",
    "ConditionalMoments",
    "conditional_increment_moments",
    "KernelCorrelation",
    "kernel_correlation",
]


def _check_hurst(hurst: float) -> float:
    if not (0.0 < hurst < 1.0):
        raise DomainError(f"hurst must lie in (0, 1), got {hurst!r}")
    return float(hurst)


def c_h(hurst: float) -> float:
    """Increment-variance constant of the moving-average normalization.

    c_h(H) = ((3/2 - H) / (2H)) * B(2 - 2H, H + 1/2); equals 1 at H = 1/2.
    """
    H = _check_hurst(hurst)
    return (1.5 - H) / (2.0 * H) * beta(2.0 - 2.0 * H, H + 0.5)


def _pow_plus(x: np.ndarray, expo: float) -> np.ndarray:
    """(x)_+^expo with the convention that nonpositive bases give 0.

    For expo == 0 this is the indicator of x > 0, which is the consistent
    zero-exponent reading of the moving-average kernel at H = 1/2.
    """
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    out = np.zeros_like(x)
    if expo == 0.0:
        out[pos] = 1.0
    else:
        out[pos] = x[pos] ** expo
    return out


def fbm_cov(s, t, hurst: float, var0: float = 0.0):
    """Covariance of path values at times s and t (s, t >= 0).

    var0 + (c_h/2) (t^(2H) + s^(2H) - |t-s|^(2H)).  Vectorized.
    """
    H = _check_hurst(hurst)
    if var0 < 0.0:
        raise DomainError(f"var0 must be nonnegative, got {var0!r}")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise DomainError("fbm_cov is defined for nonnegative times")
    c = c_h(H)
    out = var0 + 0.5 * c * (t ** (2 * H) + s ** (2 * H) - np.abs(t - s) ** (2 * H))
    if out.ndim == 0:
        return float(out)
    return out


def fgn_cov(lag, hurst: float, step: float):
    """Covariance of consecutive-grid increments at integer lag.

    (c_h/2) (|k+1|^(2H) + |k-1|^(2H) - 2|k|^(2H)) * step^(2H).
    """
    H = _check_hurst(hurst)
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    k = np.abs(np.asarray(lag, dtype=float))
    out = 0.5 * c_h(H) * ((k + 1.0) ** (2 * H) + np.abs(k - 1.0) ** (2 * H)
                          - 2.0 * k ** (2 * H)) * step ** (2 * H)
    if out.ndim == 0:
        return float(out)
    return out


@lru_cache(maxsize=8)
def _grid_times(grid_n: int, horizon: float) -> np.ndarray:
    # (k * horizon) / grid_n keeps dyadic sub-partitions exactly on-grid
    times = (np.arange(grid_n + 1) * horizon) / grid_n
    times.setflags(write=False)
    return times


@dataclass(frozen=True)
class FbmConfig:
    """Parameters of one path draw."""
    hurst: float
    horizon: float = 1.0
    grid_n: int = 1024
    var0: float = 0.0
    seed: int | SeedSpec = 0
    dim: int = 1

    def __post_init__(self) -> None:
        _check_hurst(self.hurst)
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ConfigurationError(
                f"horizon must be positive and finite, got {self.horizon!r}")
        grid_n = _as_count(self.grid_n, "grid_n", 1)
        object.__setattr__(self, "grid_n", grid_n)
        # a subnormal step loses precision: the time stamps repeat or step
        # unevenly
        step = self.horizon / grid_n
        if step < sys.float_info.min:
            raise ConfigurationError(
                f"horizon / grid_n = {step!r} is subnormal; "
                f"raise the horizon {self.horizon!r} or lower grid_n")
        # every increment variance is c_h step^(2H) times an O(1) factor; a
        # subnormal scale leaves the sampler a zero (or imprecise) covariance
        scale = step ** (2.0 * self.hurst)
        if scale < sys.float_info.min:
            raise ConfigurationError(
                f"increment variance scale step^(2H) = {scale!r} underflows at "
                f"step {step!r}, hurst {self.hurst!r}; raise the horizon or lower grid_n")
        if not (self.var0 >= 0.0 and math.isfinite(self.var0)):
            raise ConfigurationError(
                f"var0 must be nonnegative and finite, got {self.var0!r}")
        object.__setattr__(self, "dim", _as_count(self.dim, "dim", 1))
        as_seed_spec(self.seed)

    @property
    def step(self) -> float:
        return self.horizon / self.grid_n

    def times(self) -> np.ndarray:
        """The grid times, one shared read-only array per (grid_n, horizon)."""
        return _grid_times(self.grid_n, self.horizon)


@dataclass(frozen=True)
class DrivingNoise:
    """White-noise provenance of a kernel-discretized path.

    ``boundaries`` are the m+1 cell edges spanning [-truncation, horizon];
    ``normals`` holds one standard normal per cell (shape (m,) for dim 1,
    else (dim, m)).  The raw increment of the driving noise over cell j is
    sqrt(width_j) * normals[j].
    """
    boundaries: np.ndarray
    normals: np.ndarray
    truncation: float


def _read_only(a) -> np.ndarray:
    """``a`` as a read-only float array; a writable one is copied first."""
    arr = np.asarray(a, dtype=float)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FbmPath:
    """A sampled path on a uniform grid, with provenance.

    ``times`` and ``values`` are read-only.  A writable array passed in is
    copied and the copy frozen; a read-only one is kept as it is.  Every
    path sampled on one grid shares one ``times`` array,
    :meth:`FbmConfig.times`, so a partition's grid indices, once computed
    for that array, serve every such path.
    """
    hurst: float
    times: np.ndarray
    values: np.ndarray
    var0: float
    method: str
    seed: SeedSpec
    noise: DrivingNoise | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _read_only(self.times))
        object.__setattr__(self, "values", _read_only(self.values))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def grid_n(self) -> int:
        return len(self.times) - 1

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else int(self.values.shape[1])

    def indices_of(self, t) -> np.ndarray:
        """Grid indices of the given times; raises if any is off-grid."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.rint(t * self.grid_n / self.horizon).astype(np.int64)
        ok = (idx >= 0) & (idx <= self.grid_n)
        if not ok.all():
            bad = t[~ok][0]
            raise AlignmentError(f"time {bad!r} outside [0, {self.horizon!r}]")
        err = np.abs(self.times[idx] - t)
        atol = 1e-9 * max(1.0, self.horizon)
        if err.max() > atol:
            bad = t[np.argmax(err)]
            raise AlignmentError(f"time {bad!r} is not on the sampling grid")
        return idx


# ---------------------------------------------------------------------------
# samplers


@lru_cache(maxsize=8)
def _cholesky_factor(hurst: float, grid_n: int, step: float) -> np.ndarray:
    lag = np.abs(np.arange(grid_n)[:, None] - np.arange(grid_n)[None, :])
    cov = fgn_cov(lag, hurst, step)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factor of the fGn covariance failed (H={hurst}, n={grid_n}): {exc}"
        ) from exc


def _embedding_eigs(row: np.ndarray, context: str = "") -> np.ndarray:
    eigs = np.fft.fft(row).real
    floor = -1e-9 * float(eigs.max())
    if eigs.min() < floor:
        idx = int(np.argmin(eigs))
        raise EmbeddingError(
            f"circulant embedding failed: eigenvalue {eigs[idx]:.6g} at index "
            f"{idx} below tolerance {floor:.3g}{context}",
            index=idx, eigenvalue=float(eigs[idx]))
    return np.clip(eigs, 0.0, None)


@lru_cache(maxsize=8)
def _circulant_weights(hurst: float, grid_n: int, step: float) -> np.ndarray:
    """Half-spectrum weights w_0 .. w_n of the size-2n embedding.

    The circulant's first row is [g_0 .. g_n, g_{n-1} .. g_1] with g the fGn
    autocovariance; with its eigenvalues lam, w_k = sqrt(lam_k * n) for
    0 < k < n and sqrt(lam_k * 2n) at k = 0 and k = n, the two real modes.
    """
    g = fgn_cov(np.arange(grid_n + 1), hurst, step)
    row = np.concatenate([g, g[-2:0:-1]])
    eigs = _embedding_eigs(row, f" (H={hurst}, n={grid_n})")[:grid_n + 1]
    scale = np.full(grid_n + 1, float(grid_n))
    scale[[0, -1]] = 2.0 * grid_n
    weights = np.sqrt(eigs * scale)
    weights.setflags(write=False)
    return weights


def _sample_fgn_circulant(rng: np.random.Generator, weights: np.ndarray,
                          dim: int) -> np.ndarray:
    """(dim, n) fGn rows from one (dim, 2n) block of standard normals.

    Row c of the block fills the Hermitian half-spectrum h_0 .. h_n of
    component c: Re h_k = z_k for k = 0 .. n and Im h_k = z_{n+k} for
    0 < k < n (h_0 and h_n are real).  The inverse real FFT of h * w has
    the circulant's covariance; its first n entries are the fGn.
    """
    n = weights.size - 1
    z = rng.standard_normal((dim, 2 * n))
    h = np.zeros((dim, n + 1), dtype=complex)
    h.real = z[:, :n + 1]
    h.imag[:, 1:n] = z[:, n + 1:]
    h *= weights
    return np.fft.irfft(h, 2 * n, axis=-1)[:, :n]


def _left_tail_boundaries(step: float, truncation: float) -> np.ndarray:
    """Geometrically coarsened cell edges on [-truncation, -step]."""
    if truncation <= step:
        return np.array([-truncation])
    # cell widths grow away from the origin; ratio ~ sqrt(2) per cell
    count = max(1, 2 * int(math.ceil(math.log2(truncation / step))))
    return -np.geomspace(truncation, step, count + 1)


@lru_cache(maxsize=4)
def _kernel_weight_matrix(hurst: float, grid_n: int, horizon: float,
                          truncation: float) -> tuple[np.ndarray, np.ndarray]:
    times = _grid_times(grid_n, horizon)
    step = horizon / grid_n
    boundaries = np.concatenate([
        _left_tail_boundaries(step, truncation), [0.0], times[1:]])
    weights = kernel_cell_weights(hurst, times, boundaries)
    weights.setflags(write=False)
    boundaries.setflags(write=False)
    return boundaries, weights


def kernel_cell_weights(hurst: float, times, boundaries: np.ndarray) -> np.ndarray:
    """Unit-normal weights of the moving-average kernel over noise cells.

    Row k holds, for each cell [a, b), the exact integral of K(times[k], r)
    over the cell divided by sqrt(b - a): the L2 projection of the kernel
    onto piecewise-constant white noise.  The antiderivative is closed-form,
    so no quadrature is involved.
    """
    H = _check_hurst(hurst)
    t = np.atleast_1d(np.asarray(times, dtype=float))[:, None]
    a = np.asarray(boundaries[:-1], dtype=float)[None, :]
    b = np.asarray(boundaries[1:], dtype=float)[None, :]
    e = H + 0.5
    anti = lambda x: _pow_plus(x, e)
    num = (anti(t - a) - anti(t - b)) - (anti(-a) - anti(-b))
    return num / (e * np.sqrt(b - a))


def sample_fbm(config: FbmConfig, method: str = "circulant",
               truncation: float | None = None) -> FbmPath:
    """Draw one path of the process described by ``config``.

    ``method`` is one of ``cholesky``, ``circulant`` or ``kernel`` (see the
    module docstring).  ``truncation`` (kernel method only) is the length A
    of the driving-noise window [-A, horizon]; defaults to 50 * horizon.

    Draw order, fixed for reproducibility: the value-at-0 normals first, then
    either one (dim, 2n) block of circulant normals (row c drives component
    c), or per component the n fGn normals (cholesky), or one (dim, m) block
    of cell normals (kernel).
    """
    if method not in ("cholesky", "circulant", "kernel"):
        raise ConfigurationError(f"unknown sampling method {method!r}")
    if truncation is not None and method != "kernel":
        raise ConfigurationError("truncation only applies to the kernel method")
    spec = as_seed_spec(config.seed)
    rng = spec.generator()
    n, d = config.grid_n, config.dim
    times = config.times()
    b0 = math.sqrt(config.var0) * rng.standard_normal(d)
    noise = None

    if method == "kernel":
        trunc = 50.0 * config.horizon if truncation is None else float(truncation)
        if not trunc > 0.0:
            raise ConfigurationError(f"truncation must be positive, got {trunc!r}")
        boundaries, weights = _kernel_weight_matrix(
            config.hurst, n, config.horizon, trunc)
        xi = rng.standard_normal((d, boundaries.size - 1))
        values = b0[None, :] + (weights @ xi.T)
        noise = DrivingNoise(boundaries=boundaries,
                             normals=xi[0] if d == 1 else xi,
                             truncation=trunc)
    else:
        if method == "cholesky":
            factor = _cholesky_factor(config.hurst, n, config.step)
            fgn = np.stack([factor @ rng.standard_normal(n) for _ in range(d)])
        else:
            weights = _circulant_weights(config.hurst, n, config.step)
            fgn = _sample_fgn_circulant(rng, weights, d)
        values = b0[None, :] + np.concatenate(
            [np.zeros((1, d)), np.cumsum(fgn, axis=1).T])

    if not np.all(np.isfinite(values)):
        raise NumericalError("sampler produced non-finite values")
    if d == 1:
        values = values[:, 0]
    values.setflags(write=False)
    return FbmPath(hurst=config.hurst, times=times, values=values,
                   var0=config.var0, method=method, seed=spec, noise=noise)


# ---------------------------------------------------------------------------
# conditional structure of one increment given the past


def _window_integral(length: float, gap: float, hurst: float, power: int) -> float:
    """Integral over [0, length] of x^(2a) ((1 + gap/x)^a - 1)^power, a = H - 1/2.

    With x = s - r, gap = t - s, length = s - v and D(r) = K(t,r) - K(s,r),
    power 1 integrates K(s,r) D(r) over [v, s], the conditional covariance
    of B_s with the increment; power 2 integrates D(r)^2, the part of the
    increment's conditional variance that comes from [v, s].
    (1 + gap/x)^a - 1 goes through expm1/log1p, so D keeps its relative
    precision where gap << x; the range is cut at gap, 4 gap, 16 gap, ...
    so the quadrature resolves the scale gap however small it is.
    """
    a = hurst - 0.5
    if gap == 0.0 or a == 0.0:
        return 0.0
    fn = lambda x: x ** (2 * a) * math.expm1(a * math.log1p(gap / x)) ** power
    edges = [0.0, min(gap, length)]
    while edges[-1] < length:
        edges.append(min(4.0 * edges[-1], length))
    piece_tol = 1e-11 / (len(edges) - 1)  # 1e-11 absolute over the window
    total = adaptive_quad(fn, 0.0, edges[1], tol=piece_tol, singularity="lower").value
    for lo, hi in zip(edges[1:-1], edges[2:]):
        total += adaptive_quad(fn, lo, hi, tol=piece_tol).value
    return total


@dataclass(frozen=True)
class ConditionalMoments:
    """Second-moment structure of (B_s, B_t - B_s) given the past up to v.

    ``sigma_s_sq`` is the conditional variance of B_s, ``sigma_st_sq`` that
    of the increment, ``rho_st`` their conditional covariance, and
    ``kappa_st_sq = sigma_st_sq - rho_st^2 / sigma_s_sq`` the residual
    increment variance after projecting out B_s (nonnegative).
    """
    sigma_s_sq: float
    sigma_st_sq: float
    rho_st: float
    kappa_st_sq: float

    @property
    def sigma_s(self) -> float:
        return math.sqrt(self.sigma_s_sq)


def conditional_increment_moments(v: float, s: float, t: float,
                                  hurst: float) -> ConditionalMoments:
    """Exact conditional moments over the window that starts at v.

    The conditional variance of B_s is closed-form, (s-v)^(2H) / (2H); the
    covariance and the increment's variance integrate the kernel difference
    K(t,r) - K(s,r) over [v, s] by adaptive quadrature (see
    :func:`_window_integral`), so neither is a difference of two nearly
    equal numbers when t - s is small.
    """
    H = _check_hurst(hurst)
    if not (0.0 <= v < s <= t):
        raise DomainError(f"need 0 <= v < s <= t, got ({v!r}, {s!r}, {t!r})")
    sigma_s_sq = (s - v) ** (2 * H) / (2 * H)
    rho_st = _window_integral(s - v, t - s, H, 1)
    sigma_st_sq = (_window_integral(s - v, t - s, H, 2)
                   + (t - s) ** (2 * H) / (2 * H))
    kappa = sigma_st_sq - rho_st * rho_st / sigma_s_sq
    if kappa < -1e-10 * max(sigma_st_sq, 1e-300):
        raise NumericalError(
            f"residual conditional variance came out negative ({kappa:g})")
    return ConditionalMoments(sigma_s_sq=sigma_s_sq, sigma_st_sq=sigma_st_sq,
                              rho_st=rho_st, kappa_st_sq=max(kappa, 0.0))


@dataclass(frozen=True)
class KernelCorrelation:
    """Kernel product integral, its short-increment expansion, and the gap."""
    value: float
    asymptotic: float
    remainder: float


def kernel_correlation(v: float, s: float, t: float, hurst: float) -> KernelCorrelation:
    """Correlation integral of the kernel against its time-shift.

    value      = integral over [v, s] of K(s,r) K(t,r) dr,
    asymptotic = (s-v)^(2H)/(2H) + (s-v)^(2H-1)(t-s)/2 - c_h (t-s)^(2H)/2,
    remainder  = value - asymptotic, of order (s-v)^(2H-2) (t-s)^2 when
    t - s <= s - v (enforced).  H = 1/2 is excluded (the expansion is
    degenerate there: the kernel is an indicator).
    """
    H = _check_hurst(hurst)
    if H == 0.5:
        raise DomainError("kernel_correlation requires hurst != 1/2")
    if not (0.0 <= v < s <= t):
        raise DomainError(f"need 0 <= v < s <= t, got ({v!r}, {s!r}, {t!r})")
    if t - s > s - v:
        raise DomainError(
            f"short-increment regime requires t - s <= s - v, got t-s={t - s!r}, s-v={s - v!r}")
    if t == s:
        value = (s - v) ** (2 * H) / (2 * H)
        return KernelCorrelation(value=value, asymptotic=value, remainder=0.0)
    value = (s - v) ** (2 * H) / (2 * H) + _window_integral(s - v, t - s, H, 1)
    asym = ((s - v) ** (2 * H) / (2 * H)
            + 0.5 * (s - v) ** (2 * H - 1) * (t - s)
            - 0.5 * c_h(H) * (t - s) ** (2 * H))
    return KernelCorrelation(value=value, asymptotic=asym, remainder=value - asym)
