import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsew import (
    AccuracyError,
    CapabilityError,
    ConfigurationError,
    DomainError,
    McEstimate,
    NumericalError,
    SeedSpec,
    adaptive_quad,
    as_seed_spec,
    beta,
    gauss_hermite_expect,
    mc_lm_norm,
    mc_mean,
    normal_abs_moment,
    split_seed,
)
from fracsew import numerics
from fracsew.numerics import _exact_sum, _range_sums


@given(st.floats(0.05, 50.0), st.floats(0.05, 50.0))
@settings(max_examples=80, deadline=None)
def test_beta_symmetry(a, b):
    assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-12)


@given(st.floats(0.1, 20.0), st.floats(0.1, 20.0))
@settings(max_examples=80, deadline=None)
def test_beta_recurrence(a, b):
    # B(a+1, b) = B(a, b) * a / (a + b)
    assert beta(a + 1.0, b) == pytest.approx(beta(a, b) * a / (a + b), rel=1e-11)


def test_normal_abs_moment_known_values():
    assert normal_abs_moment(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)
    assert normal_abs_moment(2.0) == pytest.approx(1.0, rel=1e-13)
    assert normal_abs_moment(4.0) == pytest.approx(3.0, rel=1e-13)


def test_normal_abs_moment_quadrature_route():
    # independent check: integrate |x|^q phi(x) directly
    q = 1.0 / 0.3
    quad = adaptive_quad(
        lambda x: 2.0 * x ** q * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
        0.0, 40.0, tol=1e-11)
    assert normal_abs_moment(q) == pytest.approx(quad.value, rel=1e-9)


def test_gauss_hermite_second_moment():
    for mu, sigma in [(0.0, 1.0), (2.5, 0.3), (-1.0, 2.0)]:
        got = gauss_hermite_expect(lambda x: x * x, mu, sigma)
        assert got == pytest.approx(mu * mu + sigma * sigma, rel=1e-13)


def test_gauss_hermite_degenerate_sigma():
    assert gauss_hermite_expect(lambda x: x * x, 3.0, 0.0) == 9.0


def test_gauss_hermite_needs_a_vectorized_function():
    # a scalar-only fn is not retried point by point
    with pytest.raises(CapabilityError):
        gauss_hermite_expect(lambda x: np.sum(x ** 2), 1.0, 1.0)

    class Boom(Exception):
        pass

    def fails(x):
        raise Boom("inside fn")

    with pytest.raises(Boom, match="inside fn"):
        gauss_hermite_expect(fails, 1.0, 1.0)
    with pytest.raises(TypeError, match="only"):
        gauss_hermite_expect(lambda x: float(x) ** 2, 1.0, 1.0)


def test_gauss_hermite_order_validation():
    for bad in (1, True, 64.0):
        with pytest.raises(ConfigurationError):
            gauss_hermite_expect(lambda x: x, order=bad)
    assert gauss_hermite_expect(lambda x: x * x, 0.5, 2.0, order=np.int64(32)) == \
        gauss_hermite_expect(lambda x: x * x, 0.5, 2.0, order=32)
    with pytest.raises(DomainError):
        gauss_hermite_expect(lambda x: x, sigma=-1.0)


def test_adaptive_quad_smooth():
    res = adaptive_quad(np.sin, 0.0, math.pi, tol=1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.error < 1e-12


def test_adaptive_quad_lower_singularity():
    res = adaptive_quad(lambda x: x ** -0.5, 0.0, 1.0, tol=1e-10, singularity="lower")
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_adaptive_quad_empty_interval():
    assert adaptive_quad(np.sin, 1.0, 1.0) == (0.0, 0.0)


def test_adaptive_quad_rejects_reversed_interval():
    with pytest.raises(DomainError):
        adaptive_quad(np.sin, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        adaptive_quad(np.sin, 0.0, 1.0, singularity="sideways")
    # a singularity at b is reflected onto a by the caller
    for flag in ("upper", "both"):
        with pytest.raises(ConfigurationError):
            adaptive_quad(np.sin, 0.0, 1.0, singularity=flag)


def test_adaptive_quad_rejects_non_finite_limits():
    for a, b in ((0.0, math.nan), (math.nan, 0.0), (-math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(DomainError):
            adaptive_quad(np.sin, a, b)


def test_adaptive_quad_needs_a_vectorized_function():
    sizes = []

    def sin(x):
        sizes.append(x.shape)
        return np.sin(x)

    # one round: the 15 + 10 nodes of the single panel in one call
    adaptive_quad(sin, 0.0, 1.0, tol=1e-12)
    assert sizes == [(25,)]
    with pytest.raises(CapabilityError):
        adaptive_quad(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(TypeError):
        adaptive_quad(math.sin, 0.0, 1.0)


def test_adaptive_quad_strong_lower_singularity():
    # u^(-0.6) after r = u^2: the panel at u = 0 is graded again
    res = adaptive_quad(lambda x: x ** -0.8, 0.0, 1.0, tol=1e-10, singularity="lower")
    assert res.value == pytest.approx(5.0, abs=1e-10)


def test_adaptive_quad_lower_end_away_from_zero():
    seen = []

    def f(x):
        seen.append(x.min())
        return (x - 2.0) ** -0.5

    res = adaptive_quad(f, 2.0, 3.0, tol=1e-10, singularity="lower")
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert min(seen) > 2.0
    # about 3e-3 of this integral lies where r - 1 is below double
    # resolution, so the tolerance cannot be certified
    with pytest.raises(AccuracyError):
        adaptive_quad(lambda x: (x - 1.0) ** -0.8, 1.0, 2.0, tol=1e-10,
                      singularity="lower")


def test_adaptive_quad_unattainable_tolerance():
    with pytest.raises(AccuracyError) as exc:
        adaptive_quad(np.sin, 0.0, math.pi, tol=1e-18)
    assert exc.value.estimate == pytest.approx(2.0, rel=1e-10)
    assert exc.value.error_bound > 1e-18


def test_mc_lm_norm_is_rms_for_m2():
    x = np.array([3.0, -4.0, 0.0, 1.0])
    est = mc_lm_norm(x, 2.0)
    assert est.value == pytest.approx(math.sqrt(26.0 / 4.0), rel=1e-15)
    assert est.replicas == 4
    assert est.m_exponent == 2.0


def test_mc_lm_norm_constant_sample_has_zero_stderr():
    est = mc_lm_norm(np.full(50, 2.5), 3.0)
    assert est.value == pytest.approx(2.5, rel=1e-13)
    assert est.stderr == 0.0


def test_mc_lm_norm_stderr_shrinks():
    rng = np.random.default_rng(0)
    small = mc_lm_norm(rng.standard_normal(100), 2.0)
    large = mc_lm_norm(rng.standard_normal(10000), 2.0)
    assert large.stderr < small.stderr


def test_mc_lm_norm_validation():
    with pytest.raises(DomainError):
        mc_lm_norm([], 2.0)
    with pytest.raises(DomainError):
        mc_lm_norm([1.0], 0.5)


def test_mc_lm_norm_raises_when_the_mean_underflows():
    """(1e-2)^400 underflows: the mean of |x|^m is 0 on nonzero samples."""
    with pytest.raises(NumericalError, match="underflows"):
        mc_lm_norm([0.01, -0.02, 0.005], 400.0)
    # an all-zero sample is an exact zero, not an underflow
    est = mc_lm_norm(np.zeros(4), 400.0)
    assert est.value == 0.0 and est.stderr == 0.0


@pytest.mark.parametrize("samples, m", [
    ([1e200, 1.0], 2.0),          # x*x overflows
    ([3e10, -1.0], 40.0),         # |x|^m overflows
    ([1.0, math.nan], 2.0),
    ([1.0, math.inf], 3.0),
])
def test_mc_lm_norm_raises_on_a_non_finite_mean(samples, m):
    with pytest.raises(NumericalError, match="not finite"):
        mc_lm_norm(samples, m)


def test_mc_lm_norm_stderr_is_finite_when_the_squares_overflow():
    """|x|^m is finite but its squares in the sample variance are not: the
    stderr is taken on y scaled by a power of two, so it stays finite and
    no overflow warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for samples, m in (([1e154, 0.0, 3.0], 2.0), ([1e100, 0.0, 3.0], 3.0)):
            est = mc_lm_norm(samples, m)
            # one dominant sample of three: the stderr is value / m
            assert math.isfinite(est.stderr)
            assert est.stderr == pytest.approx(est.value / m, rel=1e-12)


def test_mc_lm_norm_scaled_stderr_keeps_its_bits():
    """On ordinary samples the power-of-two scaling is exact: the stderr
    equals the unscaled delta-method formula bit for bit."""
    rng = np.random.default_rng(11)
    for k in range(200):
        x = rng.standard_normal(int(rng.integers(2, 600))) * 10.0 ** rng.uniform(-30, 30)
        m = (2.0, 1.0, 1.5, 3.0)[k % 4]
        y = x * x if m == 2.0 else np.abs(x) ** m
        mu = float(y.mean())
        value = math.sqrt(mu) if m == 2.0 else mu ** (1.0 / m)
        want = float(y.std(ddof=1)) / math.sqrt(x.size) * value / (m * mu)
        assert mc_lm_norm(x, m).stderr == want


def test_mc_mean_tag():
    est = mc_mean([1.0, 2.0, 3.0])
    assert est.value == 2.0
    assert est.m_exponent == "mean"


def test_mc_estimate_validation():
    with pytest.raises(DomainError):
        McEstimate(0.0, -1.0, 3, 2.0)
    with pytest.raises(DomainError):
        McEstimate(0.0, 0.0, 0, 2.0)


def test_seed_spec_reproducible():
    a = SeedSpec(123).generator().standard_normal(8)
    b = SeedSpec(123).generator().standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_seed_spec_split_streams_differ():
    root = SeedSpec(7)
    x = root.split(0).generator().standard_normal(4)
    y = root.split(1).generator().standard_normal(4)
    assert not np.array_equal(x, y)
    # and the split is itself a pure function
    np.testing.assert_array_equal(x, root.split(0).generator().standard_normal(4))


def test_split_seed_accepts_ints():
    assert split_seed(5, 2) == SeedSpec(5, (2,))
    assert split_seed(SeedSpec(5, (1,)), 3) == SeedSpec(5, (1, 3))


def test_as_seed_spec_validation():
    assert as_seed_spec(9) == SeedSpec(9)
    with pytest.raises(ConfigurationError):
        as_seed_spec("nine")
    for bad in (-1, True, 3.0):
        with pytest.raises(ConfigurationError):
            SeedSpec(bad)
    with pytest.raises(ConfigurationError):
        SeedSpec(3, (1, False))
    assert SeedSpec(np.int64(3), (np.int64(1),)) == SeedSpec(3, (1,))
    assert as_seed_spec(np.int64(9)) == SeedSpec(9)


def test_split_streams_look_uniform():
    """First uniform draw across many sibling streams covers [0,1) evenly."""
    root = SeedSpec(2024)
    firsts = np.array([root.split(i).generator().random() for i in range(2000)])
    # mean of U(0,1) is 0.5 with sd 1/sqrt(12n)
    assert abs(firsts.mean() - 0.5) < 4.0 / math.sqrt(12.0 * 2000)
    counts, _ = np.histogram(firsts, bins=10, range=(0.0, 1.0))
    chi2 = ((counts - 200.0) ** 2 / 200.0).sum()
    assert chi2 < 33.7  # chi-square(9) at ~1e-4


# ---------------------------------------------------------------------------
# correctly rounded summation


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _summands(rng, kind: str, n: int) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "positive":      # one sign near the max: sum(q) near n 2^e
        return rng.uniform(0.5, 1.0, n) * 2.0 ** int(rng.integers(-20, 20))
    if kind == "spread":        # +-300 decades: tails end below the guard
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    if kind == "spread250":     # +-250 decades: ~40 vectorized passes
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-250, 250, n)
    if kind == "cancel":        # pairs x, -x: the exact sum is 0
        half = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-30, 30, n // 2)
        return rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
    if kind == "tie":           # base + half an ulp of it, plus pairs x, -x
        base = rng.choice([1.0, 1.0 + 2.0 ** -52, -3.0, 2.0 ** 60])
        pairs, odd = divmod(max(n - 2, 0), 2)
        half = rng.standard_normal(pairs) * 10.0 ** rng.uniform(-5, 5, pairs)
        head = [base, rng.choice([1.0, -1.0]) * math.ulp(base) / 2]
        tail = np.zeros(odd)
        return rng.permutation(np.concatenate([head, half, -half, tail]))[:n]
    if kind == "subnormal":
        return rng.integers(-2 ** 40, 2 ** 40, n) * 5e-324
    if kind == "ints":          # a coarse grid: one pass leaves no residual
        return rng.integers(-10, 10, n) * 2.0 ** int(rng.integers(-60, 60))
    raise AssertionError(kind)


_CROSSOVER = numerics._FSUM_MAX_N


_KINDS = ["normal", "positive", "spread", "spread250", "cancel", "tie", "subnormal",
          "ints"]


@pytest.mark.parametrize("kind", _KINDS)
def test_exact_sum_is_fsum_bit_for_bit(kind):
    rng = np.random.default_rng(_KINDS.index(kind))
    sizes = [1, 2, 3, _CROSSOVER, _CROSSOVER + 1, 1000, 5000]
    sizes += rng.integers(1, 5001, 18).tolist()
    for n in sizes:
        a = _summands(rng, kind, n)
        assert _bits(_exact_sum(a)) == _bits(math.fsum(a.tolist())), (kind, n)


@pytest.mark.parametrize("a", [
    [0.0], [-0.0], [-0.0] * 1000, [0.0, -0.0] * 600, [1.0, -1.0, -0.0] * 400,
    [2.0 ** -1074, -(2.0 ** -1074)] * 300, [1e-310] * 999,
], ids=["+0", "-0", "-0*1000", "+-0*1200", "cancel", "subnormal-cancel", "subnormal"])
def test_exact_sum_zeros_and_subnormals_match_fsum(a):
    assert _bits(_exact_sum(np.array(a))) == _bits(math.fsum(a))


@pytest.mark.parametrize("n", [3, 1000])
@pytest.mark.parametrize("extra", [
    [math.inf], [-math.inf], [-math.inf, math.inf], [math.nan],
    [1e308, 1e308], [math.inf, 1e308, 1e308], [2.0 ** 901],
], ids=["inf", "-inf", "-inf+inf", "nan", "overflow", "inf+overflow", "big"])
def test_exact_sum_non_finite_and_overflow_follow_fsum(n, extra):
    a = np.concatenate([np.linspace(-1.0, 2.0, n), extra])
    try:
        want = math.fsum(a.tolist())
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            _exact_sum(a)
        return
    got = _exact_sum(a)
    assert _bits(got) == _bits(want) or (math.isnan(got) and math.isnan(want))


class _FsumLog:
    """Stands in for the math module and logs each fsum call's length."""

    def __init__(self) -> None:
        self.lengths: list[int] = []

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, values):
        values = list(values)
        self.lengths.append(len(values))
        return math.fsum(values)


def test_exact_sum_uses_fsum_only_up_to_the_crossover(monkeypatch):
    log = _FsumLog()
    monkeypatch.setattr(numerics, "math", log)
    rng = np.random.default_rng(11)
    small = rng.standard_normal(_CROSSOVER)
    assert _exact_sum(small) == math.fsum(small.tolist())
    assert log.lengths == [_CROSSOVER]
    log.lengths.clear()
    large = rng.standard_normal(4096)
    assert _exact_sum(large) == math.fsum(large.tolist())
    # fsum only rounds the handful of exact partial sums
    assert len(log.lengths) == 1 and 1 <= log.lengths[0] <= 3


def _range_fsum(x, lo, hi, n):
    """The reference: math.fsum over each level's values."""
    return np.array([math.fsum(x[(lo <= j) & (j < hi)].tolist()) for j in range(n)])


def _ranges(rng, m, n):
    lo = rng.integers(0, n + 1, m)
    return lo, rng.integers(lo, n + 1)


def _extract_passes(monkeypatch) -> list:
    """Logs how many partials each _extract call returns (None for None)."""
    passes = []
    real = numerics._extract

    def spy(*args):
        out = real(*args)
        passes.append(None if out is None else len(out))
        return out

    monkeypatch.setattr(numerics, "_extract", spy)
    return passes


@pytest.mark.parametrize("kind", ["normal", "positive", "spread250", "cancel", "ints"])
def test_range_sums_are_fsum_level_by_level(kind, monkeypatch):
    passes = _extract_passes(monkeypatch)
    rng = np.random.default_rng(100 + _KINDS.index(kind))
    for m, n in [(1, 1), (2, 3), (7, 5), (1000, 40), (5000, 400)]:
        x = _summands(rng, kind, m)
        lo, hi = _ranges(rng, m, n)
        got = _range_sums(x, lo, hi, n)
        assert got.tobytes() == _range_fsum(x, lo, hi, n).tobytes(), (kind, m, n)
    if kind == "spread250":     # +-250 decades: many passes, then fsum's rows
        assert passes[-1] >= 3


def test_range_sums_round_half_ulp_ties_to_even():
    """Every level holds base, half an ulp of it and pairs x, -x, so its
    exact sum is a tie that the float addition base + ulp/2 rounds alike."""
    rng = np.random.default_rng(5)
    m, n = 300, 50
    for base in (1.0, 1.0 + 2.0 ** -52, -3.0, 2.0 ** 60):
        half = rng.standard_normal(m) * 10.0 ** rng.uniform(-5, 5, m)
        x = np.concatenate([[base, math.ulp(base) / 2], half, -half])
        lo, hi = _ranges(rng, m, n)
        lo, hi = np.concatenate([[0, 0], lo, lo]), np.concatenate([[n, n], hi, hi])
        got = _range_sums(x, lo, hi, n)
        assert got.tobytes() == _range_fsum(x, lo, hi, n).tobytes()
        assert (got == base + math.ulp(base) / 2).all()


def test_range_sums_of_nothing_are_zero():
    none = np.empty(0, dtype=np.int64)
    assert _range_sums(np.empty(0), none, none, 4).tobytes() == np.zeros(4).tobytes()


@pytest.mark.parametrize("kind", ["spread", "big", "tiny"])
def test_range_sums_fall_back_to_fsum_level_by_level(kind, monkeypatch):
    """+-300 decades and a value of 2^-1020 leave a residual below 2^-960;
    a value above 2^900 is never extracted."""
    passes = _extract_passes(monkeypatch)
    rng = np.random.default_rng(9)
    m, n = 500, 30
    x = _summands(rng, "spread" if kind == "spread" else "normal", m)
    x[3] = {"spread": x[3], "big": 2.0 ** 901, "tiny": 2.0 ** -1020}[kind]
    lo, hi = _ranges(rng, m, n)
    assert _range_sums(x, lo, hi, n).tobytes() == _range_fsum(x, lo, hi, n).tobytes()
    assert passes == [None]
