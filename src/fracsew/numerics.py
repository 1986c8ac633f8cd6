"""Low-level numeric utilities shared by every other module.

Nothing in this module knows about stochastic processes.  It provides the
beta function and Gaussian absolute moments (closed forms over the stdlib's
gamma functions), Gaussian-expectation quadrature, adaptive integration,
correctly rounded summation, Monte Carlo norm reductions and deterministic
stream splitting that the rest of the toolkit treats as solved problems.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import (AccuracyError, CapabilityError, ConfigurationError,
                     DomainError, NumericalError)

__all__ = [
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


def beta(a: float, b: float) -> float:
    """Euler beta function B(a, b) for ``a, b > 0``, via :func:`math.lgamma`."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({a!r}, {b!r})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def normal_abs_moment(q: float) -> float:
    """E|Z|^q for a standard normal Z and real ``q > -1``.

    Equals 2^{q/2} Gamma((q+1)/2) / sqrt(pi).
    """
    if not q > -1.0:
        raise DomainError(f"normal_abs_moment requires q > -1, got {q!r}")
    if q == 0.0:
        return 1.0
    return 2.0 ** (0.5 * q) * math.gamma(0.5 * (q + 1.0)) / math.sqrt(math.pi)


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
    vals = _vectorized_values(fn, mu + sigma * nodes, "gauss_hermite_expect")
    return float(np.sum(weights * vals))


def _vectorized_values(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                       caller: str) -> np.ndarray:
    """``fn(x)`` as floats; any shape but x's raises CapabilityError."""
    vals = np.asarray(fn(x), dtype=float)
    if vals.shape != x.shape:
        raise CapabilityError(
            f"{caller} needs a vectorized fn: nodes of shape {x.shape} "
            f"gave values of shape {vals.shape}")
    return vals


class QuadResult(NamedTuple):
    value: float
    error: float


_QUAD_PANEL_CAP = 400
_EPS = float(np.finfo(float).eps)
# inner edges of the graded panels on [0, 1], 1/4 down to 4^-26 = eps
_GRADING = 0.25 ** np.arange(1, 27)


@lru_cache(maxsize=1)
def _legendre_pair() -> tuple[np.ndarray, np.ndarray]:
    # nodes of the 15- and 10-point Gauss--Legendre rules on [-1, 1], side
    # by side, and a (25, 2) matrix whose columns weigh them for G15 and G10
    x15, w15 = leggauss(15)
    x10, w10 = leggauss(10)
    weights = np.zeros((25, 2))
    weights[:15, 0], weights[15:, 1] = w15, w10
    return np.concatenate([x15, x10]), weights


def _panel_sums(fn: Callable[[np.ndarray], np.ndarray], panels: np.ndarray,
                quadratic: bool) -> tuple[np.ndarray, np.ndarray]:
    """G15 and its error bound on each row (lo, hi, end) of ``panels``.

    One call to ``fn`` takes every node.  Without ``quadratic`` a panel is
    [lo, hi] in x; with it, [lo, hi] in u, where x = end + u^2 and
    dx = 2u du.  A node whose x rounds onto ``end`` counts as zero in the
    sums and as the panel's largest |value| in the error.
    """
    nodes, weights = _legendre_pair()
    lo, hi, end = panels.T
    half = 0.5 * (hi - lo)
    u = (lo + half)[:, None] + half[:, None] * nodes
    if quadratic:
        x = end[:, None] + u * u
        keep = x != end[:, None]
        g = np.zeros(x.shape)
        g[keep] = _vectorized_values(fn, x[keep], "adaptive_quad")
        g *= 2.0 * u
    else:
        g = _vectorized_values(fn, u.ravel(), "adaptive_quad").reshape(u.shape)
    g15, g10 = (g @ weights).T * half
    # roundoff floor, as in QUADPACK: 50 eps times the panel's integral of |g|
    err = np.maximum(np.abs(g15 - g10), 50.0 * _EPS * half * (np.abs(g) @ weights[:, 0]))
    if quadratic and not keep.all():
        err += half * ((~keep) @ weights[:, 0]) * np.abs(g).max(axis=1)
    return g15, err


def _graded_panels(end: float, span: float) -> np.ndarray:
    """Rows (lo, hi, end) covering u in [0, span], each 1/4 as wide as
    the next toward u = 0.

    The grading stops at width eps span, or before the first node of the
    panel nearest u = 0 fails to resolve r - end to sqrt(eps).  With no
    room for a cut, [0, span] is halved if the half [0, span/2] keeps a
    node whose r does not round onto end, and is returned whole otherwise.
    """
    cuts = span * _GRADING
    if end != 0.0:
        first, last = 0.5 * (1.0 + _legendre_pair()[0][[0, 14]])
        cuts = cuts[(first * cuts) ** 2 >= math.sqrt(_EPS) * abs(end)]
        if cuts.size == 0 and end + (0.5 * last * span) ** 2 != end:
            cuts = np.array([0.5 * span])
    edges = np.concatenate([[0.0], cuts[::-1], [span]])
    rows = np.empty((edges.size - 1, 3))
    rows[:, 0], rows[:, 1], rows[:, 2] = edges[:-1], edges[1:], end
    return rows


def adaptive_quad(fn: Callable[[np.ndarray], np.ndarray],
                  a: float,
                  b: float,
                  tol: float = 1e-10,
                  singularity: str | None = None) -> QuadResult:
    """Integral of ``fn`` over [a, b] with absolute error below ``tol``.

    ``fn`` maps an array of nodes to an array of values of the same shape;
    any other shape raises :class:`CapabilityError`.  Each round calls it
    once, on every node of every new panel.

    Every panel gets a 15-point and a 10-point Gauss--Legendre sum: G15 is
    the panel's value and |G15 - G10| its error, floored at roundoff (50 eps
    times G15 of |fn|, as in QUADPACK).  Each round halves every panel whose
    error exceeds an equal share of 0.25 tol, until the errors sum to at
    most 0.25 tol or the next round would pass 400 panels.

    ``singularity="lower"`` flags an integrable singularity at e = a (reflect
    r -> a + b - r for one at b).  The flagged end goes to u = 0 under
    r = e + u^2, which turns power singularities milder than 1/sqrt into
    smooth integrands.  The first panels shrink by 1/4 toward u = 0 until
    they fall below double resolution: down to eps times the range of u at
    e = 0, and elsewhere only while the nearest node still resolves r - e
    to sqrt(eps).  A failing panel at u = 0 is graded again instead of
    halved, or kept whole once it is below double resolution.  A node whose
    r rounds onto e counts as zero, and its weight times the panel's largest
    |value| is added to the panel's error.

    Raises :class:`DomainError` unless a and b are finite with a <= b, and
    :class:`AccuracyError` (carrying the best estimate and its bound) when
    the errors still sum to tol or more.
    """
    if singularity not in (None, "lower"):
        raise ConfigurationError(f"unknown singularity flag {singularity!r}")
    if not tol > 0.0:
        raise ConfigurationError(f"tol must be positive, got {tol!r}")
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"adaptive_quad needs finite a <= b, got ({a!r}, {b!r})")
    if a == b:
        return QuadResult(0.0, 0.0)
    quadratic = singularity is not None
    panels = (_graded_panels(a, math.sqrt(b - a)) if quadratic
              else np.array([[a, b, 0.0]], dtype=float))
    target = 0.25 * tol
    value, err = _panel_sums(fn, panels, quadratic)
    while not err.sum() <= target:
        split = ~(err <= target / err.size)
        halve = split & (panels[:, 0] > 0.0) if quadratic else split
        left, right = panels[halve], panels[halve]
        left[:, 1] = right[:, 0] = 0.5 * (left[:, 0] + left[:, 1])
        new = [left, right]
        # a failing panel at a flagged end is graded again, not halved,
        # and is kept whole once it reaches double resolution
        for i in np.flatnonzero(split & ~halve):
            rows = _graded_panels(panels[i, 2], panels[i, 1])
            if len(rows) > 1:
                new.append(rows)
            else:
                split[i] = False
        new = np.concatenate(new)
        if not len(new) or len(panels) - np.count_nonzero(split) + len(new) > _QUAD_PANEL_CAP:
            break
        new_value, new_err = _panel_sums(fn, new, quadratic)
        panels = np.concatenate([panels[~split], new])
        value = np.concatenate([value[~split], new_value])
        err = np.concatenate([err[~split], new_err])
    total, abserr = float(value.sum()), float(err.sum())
    if not (abserr < tol and math.isfinite(total)):
        raise AccuracyError(
            f"quadrature failed to certify tol={tol:g} on [{a:g}, {b:g}] "
            f"(best estimate {total:.17g}, error bound {abserr:g})",
            estimate=total, error_bound=abserr)
    return QuadResult(total, abserr)


# arrays of at most this many values go to math.fsum, which is faster than
# the fixed numpy cost of the vectorized passes there
_FSUM_MAX_N = 384


def _extract(x: np.ndarray, parts: int, reduce) -> list | None:
    """Exact partial sums of ``x`` by error-free vector extraction (Rump,
    Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008), or None.

    With |p| < 2^e and 2^k >= parts + 2, sigma = 2^(e+k) splits p exactly
    into q = (sigma + p) - sigma, on the grid sigma 2^-53, and p - q, below
    2^(e+k-53).  Sums of up to ``parts`` entries of q are exact in any
    order, and ``reduce(q)`` forms such sums.  Each pass appends one and
    lowers e by 53 - k.  None unless 0 < max|x| <= 2^900 and the residual
    is all zero before it would fall below 2^-960.
    """
    top = float(np.abs(x).max()) if x.size else math.nan
    if not 0.0 < top <= 2.0 ** 900:
        return None
    k = (parts + 1).bit_length()    # 2^k >= parts + 2
    e = math.frexp(top)[1]          # top < 2^e
    partials = []
    p = x
    while e + k >= -960:
        sigma = math.ldexp(1.0, e + k)
        q = (sigma + p) - sigma
        partials.append(reduce(q))
        p = p - q
        if not p.any():
            return partials
        e += k - 53
    return None


def _exact_sum(values: np.ndarray) -> float:
    """Correctly rounded sum of a 1-D float array: the float math.fsum gives.

    math.fsum of the partials of :func:`_extract` by ``np.add.reduce``;
    up to ``_FSUM_MAX_N`` values, or where they are None, math.fsum of the
    input, with its results and its exceptions.
    """
    x = np.asarray(values, dtype=float)
    partials = _extract(x, x.size, np.add.reduce) if x.size > _FSUM_MAX_N else None
    return math.fsum(x.tolist() if partials is None else partials)


def _range_sums(values: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                n: int) -> np.ndarray:
    """For each j < n, the correctly rounded sum of the values[k] with
    lo[k] <= j < hi[k] (lo and hi in [0, n]).

    :func:`_extract` reduces q by ``np.cumsum`` of the difference array
    ``np.bincount`` builds from +q at lo and -q at hi: exact, as each sum
    has at most 2 len(values) parts.  One float addition rounds up to two
    partials, math.fsum more; where they are None, fsum level by level.
    """
    x = np.asarray(values, dtype=float)
    at = np.concatenate([lo, hi])
    partials = _extract(x, 2 * x.size, lambda q: np.cumsum(np.bincount(
        at, np.concatenate([q, -q]), minlength=n + 1)[:n]))
    if partials is None:
        return np.array([math.fsum(x[(lo <= j) & (j < hi)].tolist()) for j in range(n)])
    if len(partials) <= 2:
        return partials[0] if len(partials) == 1 else partials[0] + partials[1]
    return np.array([math.fsum(row) for row in np.column_stack(partials).tolist()])


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
    centered second moments take the exact RMS path.  Raises
    :class:`NumericalError` when the mean of |x|^m underflows to 0 on a
    sample that is not all zero, or when the mean or the norm is not finite.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise DomainError("mc_lm_norm requires a nonempty sample")
    if not m >= 1.0:
        raise DomainError(f"mc_lm_norm requires m >= 1, got {m!r}")
    with np.errstate(over="ignore"):
        y = x * x if m == 2.0 else np.abs(x) ** m
    mu = float(y.mean())
    value = math.sqrt(mu) if m == 2.0 else mu ** (1.0 / m)
    if not math.isfinite(value):
        raise NumericalError(f"the mean of |x|^{m:g} is {mu!r}, not finite")
    if mu == 0.0 and x.any():
        raise NumericalError(
            f"the mean of |x|^{m:g} underflows to 0 on a sample that is not all zero")
    if x.size < 2 or mu == 0.0:
        stderr = 0.0
    else:
        # y and mu scaled by 2^e, the power of two that brings max(y) into
        # [1/2, 1): exact, so the stderr keeps its bits, and the squares in
        # std cannot overflow
        e = -math.frexp(float(y.max()))[1]
        se_mu = float(np.ldexp(y, e).std(ddof=1)) / math.sqrt(x.size)
        # delta method for g(mu) = mu^(1/m): g'(mu) = value / (m mu)
        stderr = se_mu * value / (m * math.ldexp(mu, e))
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
