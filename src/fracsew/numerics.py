"""Low-level numeric utilities shared by every other module.

Nothing in this module knows about stochastic processes.  It provides the
special functions, Gaussian-expectation quadrature, adaptive integration,
Monte Carlo norm reductions and deterministic stream splitting that the rest
of the toolkit treats as solved problems.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import (AccuracyError, CapabilityError, ConfigurationError,
                     DomainError)

__all__ = [
    "log_gamma",
    "beta",
    "normal_abs_moment",
    "gauss_hermite_expect",
    "QuadResult",
    "adaptive_quad",
    "McEstimate",
    "mc_lm_norm",
    "mc_mean",
    "SeedSpec",
    "as_seed_spec",
    "split_seed",
]

# Lanczos approximation with g = 7 and 9 terms (Godfrey's coefficient set,
# also used by Boost.Math and the GSL).  Relative error stays below ~1e-13
# on the positive real axis, comfortably inside the 1e-12 contract, and the
# fixed published set keeps ports to other languages bit-comparable.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for real ``x > 0``.

    Lanczos approximation (g=7, 9 terms); arguments below 1/2 go through the
    reflection formula so the series is only ever evaluated on [0.5, inf).
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # log Gamma(x) = log(pi / sin(pi x)) - log Gamma(1 - x)
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def beta(a: float, b: float) -> float:
    """Euler beta function B(a, b) for ``a, b > 0``, via log-gamma."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({a!r}, {b!r})")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def normal_abs_moment(q: float) -> float:
    """E|Z|^q for a standard normal Z and real ``q > -1``.

    Equals 2^{q/2} Gamma((q+1)/2) / sqrt(pi).
    """
    if not q > -1.0:
        raise DomainError(f"normal_abs_moment requires q > -1, got {q!r}")
    if q == 0.0:
        return 1.0
    return 2.0 ** (0.5 * q) * math.exp(log_gamma(0.5 * (q + 1.0))) / math.sqrt(math.pi)


@lru_cache(maxsize=16)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    # Physicists' rule rescaled for N(0,1) expectations:
    #   E[g(Z)] ~= sum_i w_i g(sqrt(2) x_i) / sqrt(pi)
    nodes, weights = hermgauss(order)
    return nodes * math.sqrt(2.0), weights / math.sqrt(math.pi)


def gauss_hermite_expect(fn: Callable[[np.ndarray], np.ndarray],
                         mu: float = 0.0,
                         sigma: float = 1.0,
                         order: int = 64) -> float:
    """E[fn(mu + sigma Z)] for standard normal Z by Gauss--Hermite quadrature.

    ``fn`` maps an array of nodes to an array of the same shape; any other
    shape raises :class:`CapabilityError`, and an exception raised by ``fn``
    propagates unchanged.  ``sigma == 0`` short-circuits to ``fn(mu)``.
    """
    order = _as_count(order, "order", 2)
    if sigma < 0.0:
        raise DomainError(f"sigma must be nonnegative, got {sigma!r}")
    if sigma == 0.0:
        return float(fn(np.float64(mu)))
    nodes, weights = _hermite_rule(order)
    pts = mu + sigma * nodes
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape != pts.shape:
        raise CapabilityError(
            f"gauss_hermite_expect needs a vectorized fn: nodes of shape "
            f"{pts.shape} gave values of shape {vals.shape}")
    return float(np.sum(weights * vals))


class QuadResult(NamedTuple):
    value: float
    error: float


def adaptive_quad(fn: Callable[[float], float],
                  a: float,
                  b: float,
                  tol: float = 1e-10,
                  singularity: str | None = None) -> QuadResult:
    """Adaptive integral of ``fn`` over [a, b] with absolute error below ``tol``.

    ``singularity`` may be ``"lower"``, ``"upper"`` or ``"both"`` to flag an
    integrable endpoint singularity; the corresponding substitution
    r = a + u^2 (resp. r = b - u^2) is applied before subdividing, which turns
    power singularities milder than 1/sqrt into smooth integrands.

    Raises :class:`AccuracyError` (carrying the best estimate and its bound)
    when the requested tolerance cannot be certified.
    """
    # imported here so that commands which never integrate skip loading scipy
    from scipy import integrate

    if singularity not in (None, "lower", "upper", "both"):
        raise ConfigurationError(f"unknown singularity flag {singularity!r}")
    if not tol > 0.0:
        raise ConfigurationError(f"tol must be positive, got {tol!r}")
    if b < a:
        raise DomainError(f"adaptive_quad needs a <= b, got ({a!r}, {b!r})")
    if a == b:
        return QuadResult(0.0, 0.0)
    if singularity == "both":
        mid = 0.5 * (a + b)
        lo = adaptive_quad(fn, a, mid, 0.5 * tol, "lower")
        hi = adaptive_quad(fn, mid, b, 0.5 * tol, "upper")
        return QuadResult(lo.value + hi.value, lo.error + hi.error)
    if singularity == "upper":
        g = lambda u: 2.0 * u * fn(b - u * u)
        lo_u, hi_u = 0.0, math.sqrt(b - a)
    elif singularity == "lower":
        g = lambda u: 2.0 * u * fn(a + u * u)
        lo_u, hi_u = 0.0, math.sqrt(b - a)
    else:
        g, lo_u, hi_u = fn, a, b
    out = integrate.quad(g, lo_u, hi_u, epsabs=0.25 * tol, epsrel=1e-12,
                         limit=400, full_output=1)
    value, abserr = float(out[0]), float(out[1])
    if not (abserr < tol) or not math.isfinite(value):
        raise AccuracyError(
            f"quadrature failed to certify tol={tol:g} on [{a:g}, {b:g}] "
            f"(best estimate {value:.17g}, error bound {abserr:g})",
            estimate=value, error_bound=abserr)
    return QuadResult(value, abserr)


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error.

    ``m_exponent`` records which reduction produced it: a float m for an
    L_m norm, or the string ``"mean"`` for a plain average.
    """
    value: float
    stderr: float
    replicas: int
    m_exponent: float | str

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise DomainError("McEstimate needs at least one replica")
        if self.stderr < 0.0:
            raise DomainError("stderr must be nonnegative")


def mc_lm_norm(samples: Sequence[float] | np.ndarray, m: float) -> McEstimate:
    """Empirical L_m norm (mean |x|^m)^(1/m) with a delta-method stderr.

    m = 2 is computed as a plain root-mean-square (x*x, not |x|**2.0) so that
    centered second moments take the exact RMS path.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise DomainError("mc_lm_norm requires a nonempty sample")
    if not m >= 1.0:
        raise DomainError(f"mc_lm_norm requires m >= 1, got {m!r}")
    if m == 2.0:
        y = x * x
    else:
        y = np.abs(x) ** m
    mu = float(y.mean())
    value = math.sqrt(mu) if m == 2.0 else mu ** (1.0 / m)
    if x.size < 2 or mu == 0.0:
        stderr = 0.0
    else:
        se_mu = float(y.std(ddof=1)) / math.sqrt(x.size)
        # delta method for g(mu) = mu^(1/m): g'(mu) = value / (m mu)
        stderr = se_mu * value / (m * mu)
    return McEstimate(value, stderr, int(x.size), float(m))


def mc_mean(samples: Sequence[float] | np.ndarray) -> McEstimate:
    """Plain Monte Carlo average with standard error, tagged ``"mean"``."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise DomainError("mc_mean requires a nonempty sample")
    value = float(x.mean())
    stderr = 0.0 if x.size < 2 else float(x.std(ddof=1)) / math.sqrt(x.size)
    return McEstimate(value, stderr, int(x.size), "mean")


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream address: a master seed plus a stream path.

    The generator is Philox4x64 (counter-based) keyed through
    ``numpy.random.SeedSequence(entropy=master, spawn_key=path)``; this is a
    pure function of ``(master, path)``, so distinct paths give reproducible,
    statistically independent streams and the same spec always reproduces the
    same draws.
    """
    master: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "master", _as_count(self.master, "master seed", 0))
        object.__setattr__(self, "path", tuple(
            _as_count(i, "stream path entry", 0) for i in self.path))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seed=ss))

    def split(self, index: int) -> "SeedSpec":
        return SeedSpec(self.master, self.path + (index,))


def as_seed_spec(seed: int | SeedSpec) -> SeedSpec:
    """Coerce an int (or pass through a SeedSpec) to a SeedSpec."""
    return seed if isinstance(seed, SeedSpec) else SeedSpec(seed)


def _as_count(value, name: str, minimum: int) -> int:
    """``value`` as a Python int >= ``minimum``.

    Anything with ``__index__`` passes (numpy integers included); bools and
    floats do not.
    """
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return n


def split_seed(seed: int | SeedSpec, index: int) -> SeedSpec:
    """Child stream ``index`` of ``seed`` (see :class:`SeedSpec` for the map)."""
    return as_seed_spec(seed).split(index)
