"""Integral approximations along sampled paths.

Left-point (Ito-style) and trapezoid (Stratonovich-style) Riemann sums for
f(path) against the path's own increments, power-variation sums, the exact
chain-rule value for gradient integrands, and a conditional-expectation
oracle for the left-point germ given the past of the driving noise.

The conditional oracle and its Monte Carlo companion both require a path
sampled with the ``kernel`` method: that is the only sampler that knows its
own driving white noise.  The oracle takes its moments from the continuous
kernel; the Monte Carlo check redraws the noise after v through the
cell-projected weights that built the path, so the two stay independent.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (CapabilityError, ConfigurationError, DomainError,
                     NumericalError, RegimeWarning)
from .fbm import (FbmPath, c_h, conditional_increment_moments,
                  kernel_cell_weights)
from .numerics import (McEstimate, _as_count, adaptive_quad,
                       gauss_hermite_expect, mc_mean, normal_abs_moment,
                       split_seed)
from .sewing import Germ, Partition, SewingExponents, riemann_sum

__all__ = [
    "IntegrandSpec",
    "get_integrand",
    "ito_left_sum",
    "stratonovich_trapezoid_sum",
    "variation_sum",
    "variation_reference",
    "chain_rule_oracle",
    "gaussian_smooth_F",
    "conditional_ito_oracle",
    "conditional_mc_check",
    "ito_germ",
    "stratonovich_germ",
    "variation_germ",
]


@dataclass(frozen=True)
class IntegrandSpec:
    """An integrand f together with the structure the estimators rely on.

    ``regularity`` is one of ``"bounded"``, ``"holder"`` (with
    ``holder_gamma``) or ``"gradient"`` (with ``potential`` such that the
    integrand is its derivative/gradient).  ``jumps`` lists state-space
    discontinuity locations so expectation routines can hand exact break
    points to the quadrature; ``discontinuous`` integrands are averaged by
    density quadrature rather than Gauss--Hermite.
    """
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    dim: int = 1
    regularity: str = "bounded"
    holder_gamma: float | None = None
    potential: Callable[[np.ndarray], float] | None = None
    discontinuous: bool = False
    jumps: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.regularity not in ("bounded", "holder", "gradient"):
            raise ConfigurationError(f"unknown regularity tag {self.regularity!r}")
        if self.regularity == "holder" and self.holder_gamma is None:
            raise ConfigurationError("holder regularity needs holder_gamma")
        if self.regularity == "gradient" and self.potential is None:
            raise ConfigurationError("gradient regularity needs a potential")
        object.__setattr__(self, "dim", _as_count(self.dim, "dim", 1))


def get_integrand(tag: str) -> IntegrandSpec:
    """Built-in scalar integrands by tag.

    ``identity``, ``sign``, ``sin_prime`` (cosine, the derivative of sine),
    ``abs_pow:<gamma>`` (|x|^gamma) and ``indicator_pos`` (x > 0).
    """
    if tag == "identity":
        return IntegrandSpec("identity", lambda x: np.asarray(x, dtype=float),
                             regularity="gradient",
                             potential=lambda x: 0.5 * float(x) ** 2)
    if tag == "sign":
        return IntegrandSpec("sign", lambda x: np.sign(x),
                             regularity="bounded", discontinuous=True,
                             jumps=(0.0,))
    if tag == "sin_prime":
        return IntegrandSpec("sin_prime", np.cos, regularity="gradient",
                             potential=lambda x: math.sin(float(x)))
    if tag == "indicator_pos":
        return IntegrandSpec("indicator_pos",
                             lambda x: (np.asarray(x) > 0.0).astype(float),
                             regularity="bounded", discontinuous=True,
                             jumps=(0.0,))
    if tag.startswith("abs_pow:"):
        gamma = float(tag.split(":", 1)[1])
        if not 0.0 < gamma <= 1.0:
            raise ConfigurationError(
                f"abs_pow exponent must lie in (0, 1], got {gamma!r}")
        return IntegrandSpec(tag, lambda x, g=gamma: np.abs(x) ** g,
                             regularity="holder", holder_gamma=gamma)
    raise ConfigurationError(f"unknown integrand tag {tag!r}")


def _check_dim(f: IntegrandSpec, path: FbmPath) -> None:
    if f.dim != path.dim:
        raise DomainError(
            f"integrand dimension {f.dim} does not match path dimension {path.dim}")


def ito_left_sum(f: IntegrandSpec, path: FbmPath, partition: Partition) -> float:
    """Left-point Riemann sum: sum of f(B_s) . (B_t - B_s) over intervals.

    The left-point limit theory needs a driver smoother than Brownian
    (H > 1/2); a :class:`RegimeWarning` is emitted otherwise (the sum is
    still computed).
    """
    if path.hurst <= 0.5:
        warnings.warn("left-point sums are outside their guaranteed regime "
                      f"for hurst={path.hurst}", RegimeWarning, stacklevel=2)
    _check_dim(f, path)
    return riemann_sum(ito_germ(f), path, partition)


def stratonovich_trapezoid_sum(f: IntegrandSpec, path: FbmPath,
                               partition: Partition) -> float:
    """Trapezoid Riemann sum: sum of (f(B_s)+f(B_t))/2 . (B_t - B_s).

    For multidimensional drivers at or below hurst 1/4 the limit only exists
    for gradient-type integrands; that combination is rejected.  Very rough
    drivers (hurst <= 1/6) warn.
    """
    if path.dim > 1 and path.hurst <= 0.25 and f.regularity != "gradient":
        raise DomainError(
            "trapezoid sums with a multidimensional driver at hurst <= 1/4 "
            "require a gradient-type integrand")
    if path.hurst <= 1.0 / 6.0:
        warnings.warn("trapezoid sums are outside their guaranteed regime "
                      f"for hurst={path.hurst}", RegimeWarning, stacklevel=2)
    _check_dim(f, path)
    return riemann_sum(stratonovich_germ(f), path, partition)


def variation_sum(path: FbmPath, partition: Partition, p: float) -> float:
    """Power-variation sum: sum of |B_t - B_s|^p over partition intervals."""
    return riemann_sum(variation_germ(p, path.dim), path, partition)


def variation_reference(hurst: float, horizon: float) -> float:
    """Limit of the (1/H)-variation sums under this increment normalization.

    Increments over a lag u are centered Gaussian with variance
    c_h(H) u^(2H), so |increment|^(1/H) has mean c_h^(1/(2H)) E|Z|^(1/H) u,
    and the sums telescope to c_h(H)^(1/(2H)) * E|Z|^(1/H) * horizon.  The
    superficially tempting value c_h(H) * horizon is not the limit of these
    sums: it has the wrong dependence on the increment law (they only agree
    at H = 1/2, where both reduce to the quadratic variation T).
    """
    H = hurst
    if not horizon > 0.0:
        raise DomainError(f"horizon must be positive, got {horizon!r}")
    return c_h(H) ** (0.5 / H) * normal_abs_moment(1.0 / H) * horizon


def chain_rule_oracle(f: IntegrandSpec, path: FbmPath) -> float:
    """Exact limit of trapezoid sums for gradient integrands.

    potential(end value) - potential(start value); requires a gradient-type
    spec.
    """
    if f.regularity != "gradient" or f.potential is None:
        raise CapabilityError(
            f"chain_rule_oracle needs a gradient integrand, got {f.name!r}")
    first = path.values[0]
    last = path.values[-1]
    return float(f.potential(last)) - float(f.potential(first))


def gaussian_smooth_F(fn: Callable[[np.ndarray], np.ndarray],
                      mu: float, sigma: float, *,
                      discontinuous: bool = False,
                      jumps: tuple[float, ...] = ()) -> float:
    """E[fn(mu + sigma Z)], Z standard normal.

    Smooth integrands go through 64-node Gauss--Hermite; discontinuous ones
    through density quadrature (tol 1e-10) split at the jump locations.
    """
    if sigma < 0.0:
        raise DomainError(f"sigma must be nonnegative, got {sigma!r}")
    if sigma == 0.0:
        return float(fn(np.float64(mu)))
    if not discontinuous:
        return gauss_hermite_expect(fn, mu, sigma, order=64)
    # integrate fn(mu + sigma x) phi(x) over |x| <= 12, splitting at jumps
    cut = 12.0
    pts = sorted({(j - mu) / sigma for j in jumps if abs((j - mu) / sigma) < cut})
    edges = [-cut, *pts, cut]
    dens = lambda x: fn(mu + sigma * x) * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    total, pieces = 0.0, len(edges) - 1
    for a, b in zip(edges[:-1], edges[1:]):
        total += adaptive_quad(dens, a, b, tol=1e-10 / pieces).value
    return total


def _condition_on_past(path: FbmPath, v: float, s: float, t: float):
    """Split a kernel-sampled path at v for the conditional oracles.

    Returns the on-grid times (v, s, t), the parts y_s and y_t of B_s and
    B_t carried by the realized noise up to v, and the (2, m) weights of
    B_s and B_t on the m noise cells to the right of v.
    """
    if path.noise is None:
        raise CapabilityError(
            "this operation needs driving-noise provenance; sample the path "
            "with method='kernel'")
    if path.dim != 1:
        raise CapabilityError("conditional oracles are one-dimensional")
    tv, ts, tt = (float(path.times[i]) for i in path.indices_of([v, s, t]))
    if not (0.0 <= tv < ts <= tt):
        raise DomainError(f"need 0 <= v < s <= t on-grid, got ({v!r}, {s!r}, {t!r})")
    bounds = path.noise.boundaries
    past = bounds[1:] <= tv + 1e-12 * max(1.0, path.horizon)
    w = kernel_cell_weights(path.hurst, [ts, tt], bounds)
    b0 = float(path.values[0])
    y_s = b0 + float(w[0, past] @ path.noise.normals[past])
    y_t = b0 + float(w[1, past] @ path.noise.normals[past])
    return tv, ts, tt, y_s, y_t, w[:, ~past]


def conditional_ito_oracle(f: IntegrandSpec, path: FbmPath,
                           v: float, s: float, t: float) -> float:
    """E[f(B_s)(B_t - B_s) | past up to v] for a kernel-sampled path.

    Writes B = Y + (fresh part) where Y is the contribution of the noise up
    to v, and evaluates a0 * (Y_t - Y_s) + a1 * rho where a0 = E f(Y_s + X),
    a1 = sigma^{-2} E[f(Y_s + X) X], X ~ N(0, sigma^2) is the fresh part of
    B_s, and rho the conditional covariance of B_s with the increment.
    """
    tv, ts, tt, y_s, y_t, _ = _condition_on_past(path, v, s, t)
    if f.dim != 1:
        raise DomainError("conditional_ito_oracle needs a scalar integrand")
    if tt == ts:
        return 0.0
    mom = conditional_increment_moments(tv, ts, tt, path.hurst)
    sig = mom.sigma_s
    a0 = gaussian_smooth_F(f.fn, y_s, sig, discontinuous=f.discontinuous,
                           jumps=f.jumps)
    weighted = lambda z: np.asarray(f.fn(z), dtype=float) * (np.asarray(z, dtype=float) - y_s)
    a1 = gaussian_smooth_F(weighted, y_s, sig, discontinuous=f.discontinuous,
                           jumps=f.jumps) / mom.sigma_s_sq
    return a0 * (y_t - y_s) + a1 * mom.rho_st


def conditional_mc_check(f: IntegrandSpec, path: FbmPath,
                         v: float, s: float, t: float,
                         n_samples: int = 10 ** 5,
                         seed: int = 0) -> McEstimate:
    """Monte Carlo companion of :func:`conditional_ito_oracle`.

    Keeps the realized noise up to v, redraws the noise cells to the right
    of v ``n_samples`` times, and averages f(B_s)(B_t - B_s) over the
    redraws.  Given the past, the fresh parts of B_s and of the increment
    are the future cell normals seen through two fixed weight rows, those
    of B_s and of B_t - B_s; so they are exactly bivariate Gaussian with
    the 2x2 Gram matrix of those rows as covariance, and each redraw takes
    two normals through its Cholesky factor.  Only the cell-projected
    weights that built the path enter, never the continuous
    conditional-moment formulas the oracle uses.  The increment is drawn
    directly, so t = s gives exactly 0 with stderr 0.
    """
    n_samples = _as_count(n_samples, "n_samples", 2)
    _, _, _, y_s, y_t, w = _condition_on_past(path, v, s, t)
    w_s, w_inc = w[0], w[1] - w[0]
    var_s, cov, var_inc = float(w_s @ w_s), float(w_s @ w_inc), float(w_inc @ w_inc)
    # var_s > 0: the cells in (v, s] all carry weight into B_s
    l_s = math.sqrt(var_s)
    l_c = cov / l_s
    resid = var_inc - l_c * l_c
    if resid < -1e-10 * max(var_inc, 1e-300):
        raise NumericalError(
            f"residual redraw variance came out negative ({resid:g})")
    l_r = math.sqrt(max(resid, 0.0))
    z = split_seed(seed, 0).generator().standard_normal((2, n_samples))
    b_s = y_s + l_s * z[0]
    inc = (y_t - y_s) + (l_c * z[0] + l_r * z[1])
    return mc_mean(np.asarray(f.fn(b_s), dtype=float) * inc)


# ---------------------------------------------------------------------------
# germ adapters for the convergence-rate harness


# germs of a scalar path multiply elementwise, so they broadcast in every
# axis; those of a path of dimension d > 1 reduce the trailing state axis
def _dot(fv: np.ndarray, inc: np.ndarray) -> np.ndarray:
    return np.sum(fv * inc, axis=-1)


def ito_germ(f: IntegrandSpec, hurst: float | None = None) -> Germ:
    """Left-point germ f(B_s)(B_t - B_s) for the rate harness.

    When the driver's hurst index is supplied, the germ carries the size /
    coherence exponents of the left-point scheme for a bounded integrand
    (size hurst, coherence 2*hurst conditionally and hurst in moments);
    these satisfy the harness inequalities exactly when hurst > 1/2.
    """
    product = np.multiply if f.dim == 1 else _dot

    def batch(dt: np.ndarray, bs: np.ndarray, bt: np.ndarray) -> np.ndarray:
        return product(np.asarray(f.fn(bs), dtype=float), bt - bs)

    expo = None
    if hurst is not None:
        expo = SewingExponents(alpha=hurst, beta1=2.0 * hurst, beta2=hurst,
                               m=2.0)
    return Germ(name=f"ito[{f.name}]", batch=batch, exponents=expo)


def stratonovich_germ(f: IntegrandSpec, hurst: float | None = None) -> Germ:
    """Trapezoid germ (f(B_s)+f(B_t))/2 (B_t - B_s) for the rate harness.

    With a hurst index and a holder-type integrand of exponent gamma the
    germ carries size hurst and coherence (1+gamma)*hurst exponents.
    """
    product = np.multiply if f.dim == 1 else _dot

    def batch(dt: np.ndarray, bs: np.ndarray, bt: np.ndarray) -> np.ndarray:
        fv = 0.5 * (np.asarray(f.fn(bs), dtype=float)
                    + np.asarray(f.fn(bt), dtype=float))
        return product(fv, bt - bs)

    expo = None
    if hurst is not None:
        gamma = f.holder_gamma if f.holder_gamma is not None else 1.0
        expo = SewingExponents(alpha=hurst, beta1=(1.0 + gamma) * hurst,
                               beta2=(1.0 + gamma) * hurst / 2.0, m=2.0)
    return Germ(name=f"strat[{f.name}]", batch=batch, exponents=expo)


def variation_germ(p: float, dim: int = 1) -> Germ:
    """Power-variation germ |B_t - B_s|^p of a ``dim``-dimensional path."""
    if not p > 0.0:
        raise DomainError(f"variation order must be positive, got {p!r}")
    dim = _as_count(dim, "dim", 1)

    def batch(dt: np.ndarray, bs: np.ndarray, bt: np.ndarray) -> np.ndarray:
        inc = bt - bs
        mag = np.abs(inc) if dim == 1 else np.sqrt(_dot(inc, inc))
        return mag ** p

    return Germ(name=f"variation[p={p:g}]", batch=batch)
