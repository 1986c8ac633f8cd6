import math

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
    SeedSpec,
    adaptive_quad,
    as_seed_spec,
    beta,
    gauss_hermite_expect,
    log_gamma,
    mc_lm_norm,
    mc_mean,
    normal_abs_moment,
    split_seed,
)


def test_log_gamma_matches_stdlib():
    xs = np.geomspace(1e-3, 1e3, 400)
    for x in xs:
        want = math.lgamma(x)
        got = log_gamma(float(x))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), x


def test_log_gamma_half_integer():
    # Gamma(1/2) = sqrt(pi)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)


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
        lambda x: 2.0 * x ** q * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
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
    res = adaptive_quad(math.sin, 0.0, math.pi, tol=1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.error < 1e-12


def test_adaptive_quad_lower_singularity():
    res = adaptive_quad(lambda x: x ** -0.5, 0.0, 1.0, tol=1e-10, singularity="lower")
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_adaptive_quad_upper_singularity():
    res = adaptive_quad(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, tol=1e-10,
                        singularity="upper")
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_adaptive_quad_both_endpoints():
    res = adaptive_quad(lambda x: (x * (1.0 - x)) ** -0.5, 0.0, 1.0, tol=1e-9,
                        singularity="both")
    assert res.value == pytest.approx(math.pi, abs=1e-9)


def test_adaptive_quad_empty_interval():
    assert adaptive_quad(math.sin, 1.0, 1.0) == (0.0, 0.0)


def test_adaptive_quad_rejects_reversed_interval():
    with pytest.raises(DomainError):
        adaptive_quad(math.sin, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        adaptive_quad(math.sin, 0.0, 1.0, singularity="sideways")


def test_adaptive_quad_unattainable_tolerance():
    with pytest.raises(AccuracyError) as exc:
        adaptive_quad(math.sin, 0.0, math.pi, tol=1e-18)
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
