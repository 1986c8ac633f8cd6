import math

import numpy as np
import pytest

from fracsew import (
    CapabilityError,
    ConfigurationError,
    DomainError,
    FbmConfig,
    Partition,
    RegimeWarning,
    chain_rule_oracle,
    conditional_ito_oracle,
    conditional_mc_check,
    dyadic_partition,
    gaussian_smooth_F,
    get_integrand,
    ito_germ,
    ito_left_sum,
    sample_fbm,
    stratonovich_germ,
    stratonovich_trapezoid_sum,
    uniform_partition,
    variation_germ,
    variation_reference,
    variation_sum,
)


# ---------------------------------------------------------------------------
# integrand registry


def test_registry_builtins():
    ident = get_integrand("identity")
    assert ident.regularity == "gradient"
    assert ident.potential(3.0) == pytest.approx(4.5)
    sgn = get_integrand("sign")
    assert sgn.jumps == (0.0,)
    assert sgn.fn(np.array([-2.0, 3.0])).tolist() == [-1.0, 1.0]
    cosf = get_integrand("sin_prime")
    assert cosf.potential(0.0) == 0.0
    ap = get_integrand("abs_pow:0.5")
    assert ap.regularity == "holder" and ap.holder_gamma == 0.5
    ind = get_integrand("indicator_pos")
    assert ind.fn(np.array([-1.0, 1.0])).tolist() == [0.0, 1.0]


def test_registry_rejects_unknown_and_bad_exponent():
    with pytest.raises(ConfigurationError):
        get_integrand("tanh")
    with pytest.raises(ConfigurationError):
        get_integrand("abs_pow:1.5")
    with pytest.raises(ConfigurationError):
        get_integrand("abs_pow:0")


def test_integrand_spec_validation():
    from fracsew import IntegrandSpec
    with pytest.raises(ConfigurationError):
        IntegrandSpec("bad", lambda x: x, regularity="smooth")
    with pytest.raises(ConfigurationError):
        IntegrandSpec("bad", lambda x: x, regularity="holder")
    with pytest.raises(ConfigurationError):
        IntegrandSpec("bad", lambda x: x, regularity="gradient")
    for bad in (0, True, 1.5):
        with pytest.raises(ConfigurationError):
            IntegrandSpec("bad", lambda x: x, dim=bad)
    assert IntegrandSpec("ok", lambda x: x, dim=np.int64(2)).dim == 2


# ---------------------------------------------------------------------------
# sums


def _smooth_path(H=0.75, n=1024, seed=0):
    return sample_fbm(FbmConfig(hurst=H, grid_n=n, seed=seed))


def test_ito_left_sum_manual():
    p = _smooth_path(n=4, seed=5)
    part = uniform_partition(1.0, 4)
    f = get_integrand("identity")
    want = sum(p.values[k] * (p.values[k + 1] - p.values[k]) for k in range(4))
    assert ito_left_sum(f, p, part) == pytest.approx(want, rel=1e-14)


def test_ito_left_sum_warns_at_or_below_half():
    p = sample_fbm(FbmConfig(hurst=0.5, grid_n=8, seed=1))
    with pytest.warns(RegimeWarning):
        ito_left_sum(get_integrand("identity"), p, uniform_partition(1.0, 8))


def test_trapezoid_identity_integrand_is_exact():
    """(f = x): trapezoid sums telescope to (B_T^2 - B_0^2)/2 on any
    partition."""
    p = _smooth_path(seed=11)
    f = get_integrand("identity")
    want = 0.5 * (p.values[-1] ** 2 - p.values[0] ** 2)
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(1, 40))
        idx = np.unique(np.concatenate([[0, 1024], rng.integers(1, 1024, size=k)]))
        part = Partition(p.times[idx])
        got = stratonovich_trapezoid_sum(f, p, part)
        assert got == pytest.approx(want, abs=1e-12)


def test_trapezoid_dimension_gate():
    p = sample_fbm(FbmConfig(hurst=0.2, grid_n=8, seed=1, dim=2))
    f = get_integrand("sign")
    bad = type(f)(name="sign2", fn=f.fn, dim=2, regularity="bounded",
                  jumps=(0.0,))
    with pytest.raises(DomainError):
        stratonovich_trapezoid_sum(bad, p, uniform_partition(1.0, 8))


def test_trapezoid_warns_for_very_rough_driver():
    p = sample_fbm(FbmConfig(hurst=0.15, grid_n=8, seed=1))
    with pytest.warns(RegimeWarning):
        stratonovich_trapezoid_sum(get_integrand("identity"), p,
                                   uniform_partition(1.0, 8))


def test_dimension_mismatch_rejected():
    p = sample_fbm(FbmConfig(hurst=0.75, grid_n=8, seed=1, dim=2))
    with pytest.raises(DomainError):
        ito_left_sum(get_integrand("identity"), p, uniform_partition(1.0, 8))


def test_variation_sum_manual_and_validation():
    p = _smooth_path(n=8, seed=2)
    part = uniform_partition(1.0, 8)
    want = float(np.sum(np.abs(np.diff(p.values))))
    assert variation_sum(p, part, 1.0) == pytest.approx(want, rel=1e-14)
    with pytest.raises(DomainError):
        variation_sum(p, part, 0.0)


def test_variation_sum_euclidean_for_vector_paths():
    p = sample_fbm(FbmConfig(hurst=0.5, grid_n=4, seed=3, dim=2))
    part = uniform_partition(1.0, 4)
    inc = np.diff(p.values, axis=0)
    want = float(np.sum(np.sqrt((inc ** 2).sum(axis=1)) ** 2))
    assert variation_sum(p, part, 2.0) == pytest.approx(want, rel=1e-14)


def test_variation_reference_brownian_is_horizon():
    assert variation_reference(0.5, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert variation_reference(0.5, 3.5) == pytest.approx(3.5, abs=1e-12)


def test_variation_reference_monte_carlo_consistency():
    """200 paths at a fine dyadic level stay within 3 stderr of the limit."""
    H = 0.3
    part = dyadic_partition(1.0, 12)
    vals = np.empty(200)
    for i in range(200):
        p = sample_fbm(FbmConfig(hurst=H, grid_n=2 ** 12, seed=70000 + i))
        vals[i] = variation_sum(p, part, 1.0 / H)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - variation_reference(H, 1.0)) <= 3 * se


def test_chain_rule_oracle():
    p = _smooth_path(seed=4)
    f = get_integrand("sin_prime")
    assert chain_rule_oracle(f, p) == pytest.approx(
        math.sin(p.values[-1]) - math.sin(p.values[0]), rel=1e-14)
    with pytest.raises(CapabilityError):
        chain_rule_oracle(get_integrand("sign"), p)


def test_trapezoid_converges_to_chain_rule():
    """Dyadic refinement drives the trapezoid sum to the potential increment."""
    f = get_integrand("sin_prime")
    p = _smooth_path(H=0.7, n=2 ** 10, seed=8)
    want = chain_rule_oracle(f, p)
    errs = [abs(stratonovich_trapezoid_sum(f, p, dyadic_partition(1.0, lev)) - want)
            for lev in (3, 6, 10)]
    assert errs[2] < errs[0]
    assert errs[2] < 1e-3


# ---------------------------------------------------------------------------
# gaussian smoothing


def test_gaussian_smooth_smooth_function():
    got = gaussian_smooth_F(lambda x: x ** 2, 1.5, 0.5)
    assert got == pytest.approx(1.5 ** 2 + 0.25, rel=1e-12)


def test_gaussian_smooth_sign_closed_form():
    sgn = get_integrand("sign")
    for mu, sigma in [(0.3, 0.5), (-0.2, 1.3), (0.0, 0.7), (2.0, 0.1)]:
        got = gaussian_smooth_F(sgn.fn, mu, sigma, jumps=sgn.jumps)
        assert got == pytest.approx(math.erf(mu / (sigma * math.sqrt(2.0))),
                                    abs=1e-9)


def test_gaussian_smooth_degenerate_and_domain():
    assert gaussian_smooth_F(lambda x: x ** 2, 2.0, 0.0) == 4.0
    with pytest.raises(DomainError):
        gaussian_smooth_F(lambda x: x, 0.0, -1.0)


def test_gaussian_smooth_indicator_closed_form():
    ind = get_integrand("indicator_pos")
    # P(mu + sigma Z > 0) = Phi(mu/sigma)
    got = gaussian_smooth_F(ind.fn, 0.4, 0.9, jumps=ind.jumps)
    want = 0.5 * (1.0 + math.erf(0.4 / (0.9 * math.sqrt(2.0))))
    assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# conditional oracle


def test_conditional_oracle_needs_noise_provenance():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=16, seed=0))  # circulant
    f = get_integrand("sign")
    with pytest.raises(CapabilityError):
        conditional_ito_oracle(f, p, 0.25, 0.5, 0.75)
    with pytest.raises(CapabilityError):
        conditional_mc_check(f, p, 0.25, 0.5, 0.75)


def test_conditional_oracle_domain():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=16, seed=0), method="kernel")
    f = get_integrand("sign")
    with pytest.raises(DomainError):
        conditional_ito_oracle(f, p, 0.5, 0.5, 0.75)


def test_conditional_oracle_degenerate_increment():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=16, seed=0), method="kernel")
    assert conditional_ito_oracle(get_integrand("sign"), p, 0.25, 0.5, 0.5) == 0.0
    mc = conditional_mc_check(get_integrand("sign"), p, 0.25, 0.5, 0.5)
    assert mc.value == 0.0 and mc.stderr == 0.0


def test_conditional_oracle_identity_reduces_to_moments():
    """f = x makes the oracle a closed form in (y_s, y_t, rho)."""
    from fracsew import conditional_increment_moments, kernel_cell_weights
    p = sample_fbm(FbmConfig(hurst=0.35, grid_n=32, seed=7), method="kernel")
    v, s, t = 0.25, 0.5, 0.75
    got = conditional_ito_oracle(get_integrand("identity"), p, v, s, t)
    bounds = p.noise.boundaries
    past = bounds[1:] <= v + 1e-12
    w = kernel_cell_weights(0.35, [s, t], bounds)
    y_s = float(w[0, past] @ p.noise.normals[past])
    y_t = float(w[1, past] @ p.noise.normals[past])
    mom = conditional_increment_moments(v, s, t, 0.35)
    assert got == pytest.approx(y_s * (y_t - y_s) + mom.rho_st, rel=1e-9)


def test_conditional_oracle_against_monte_carlo():
    p = sample_fbm(FbmConfig(hurst=0.75, grid_n=2 ** 7, seed=3), method="kernel")
    f = get_integrand("sign")
    v, s, t = 0.25, 0.5, 0.5625
    oracle = conditional_ito_oracle(f, p, v, s, t)
    mc = conditional_mc_check(f, p, v, s, t, n_samples=40000, seed=1)
    assert abs(oracle - mc.value) <= 4.0 * mc.stderr


def test_conditional_mc_is_unbiased_for_the_sampled_process():
    """f = x makes E[B_s (B_t - B_s) | past] a closed form in the cell
    weights that built the path: y_s (y_t - y_s) + Cov(fresh B_s, fresh
    increment).  At H = 0.3, where the oracle's continuous moments differ
    from the cell-projected ones, the check still agrees with it; this is
    c10's H = 0.3 identity triple with the largest oracle z-score."""
    from fracsew import kernel_cell_weights
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=512, seed=90_002), method="kernel")
    v, s, t = 152 / 512, 205 / 512, 209 / 512
    bounds = p.noise.boundaries
    past = bounds[1:] <= v + 1e-12
    w = kernel_cell_weights(0.3, [s, t], bounds)
    y_s = float(w[0, past] @ p.noise.normals[past])
    y_t = float(w[1, past] @ p.noise.normals[past])
    fresh_s, fresh_t = w[0, ~past], w[1, ~past]
    want = y_s * (y_t - y_s) + float(fresh_s @ (fresh_t - fresh_s))
    mc = conditional_mc_check(get_integrand("identity"), p, v, s, t,
                              n_samples=100_000, seed=19)
    assert abs(mc.value - want) <= 4.0 * mc.stderr


def test_conditional_mc_deterministic():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=32, seed=5), method="kernel")
    f = get_integrand("identity")
    a = conditional_mc_check(f, p, 0.25, 0.5, 0.75, n_samples=5000, seed=9)
    b = conditional_mc_check(f, p, 0.25, 0.5, 0.75, n_samples=5000, seed=9)
    assert a == b
    c = conditional_mc_check(f, p, 0.25, 0.5, 0.75, n_samples=5000, seed=10)
    assert a.value != c.value
    assert conditional_mc_check(f, p, 0.25, 0.5, 0.75, n_samples=np.int64(5000),
                                seed=9) == a
    for bad in (True, 5000.0, np.int64(1)):
        with pytest.raises(ConfigurationError):
            conditional_mc_check(f, p, 0.25, 0.5, 0.75, n_samples=bad, seed=9)


# ---------------------------------------------------------------------------
# germ adapters


def test_germ_names_and_exponents():
    f = get_integrand("sign")
    g = ito_germ(f, hurst=0.75)
    assert g.name == "ito[sign]"
    g.exponents.validate()  # alpha=0.75, beta1=1.5, beta2=0.75
    assert ito_germ(f).exponents is None

    hold = get_integrand("abs_pow:0.9")
    sg = stratonovich_germ(hold, hurst=0.75)
    assert sg.exponents.beta1 == pytest.approx(1.9 * 0.75)
    assert stratonovich_germ(hold).exponents is None


def test_ito_exponents_fail_below_half():
    g = ito_germ(get_integrand("sign"), hurst=0.3)
    with pytest.raises(ConfigurationError):
        g.exponents.validate()


def test_germ_values_match_module_sums():
    p = _smooth_path(n=64, seed=6)
    part = uniform_partition(1.0, 16)
    f = get_integrand("sign")
    from fracsew import riemann_sum
    assert riemann_sum(ito_germ(f), p, part) == pytest.approx(
        ito_left_sum(f, p, part), rel=1e-13)
    assert riemann_sum(stratonovich_germ(f), p, part) == pytest.approx(
        stratonovich_trapezoid_sum(f, p, part), rel=1e-13)
    assert riemann_sum(variation_germ(1.3), p, part) == pytest.approx(
        variation_sum(p, part, 1.3), rel=1e-13)


def test_variation_germ_validation():
    with pytest.raises(DomainError):
        variation_germ(-1.0)
