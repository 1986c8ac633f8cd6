import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracsew import (
    AlignmentError,
    ConfigurationError,
    DomainError,
    EmbeddingError,
    FbmConfig,
    FracsewError,
    NumericalError,
    QuadResult,
    SeedSpec,
    adaptive_quad,
    beta,
    c_h,
    conditional_increment_moments,
    fbm_cov,
    fgn_cov,
    kernel_cell_weights,
    kernel_correlation,
    sample_fbm,
)
import fracsew.fbm
from fracsew.fbm import (_cholesky_factor, _circulant_weights,
                         _sample_fgn_circulant)


# ---------------------------------------------------------------------------
# normalization constant


def test_c_h_is_one_at_half():
    assert c_h(0.5) == 1.0


def _both_ends(fn, reflected, tol):
    """Integral over [0, 1] of an integrand singular at either end: the
    halves [0, 1/2] of ``fn`` and of ``reflected`` (fn at 1 - r, written
    without the cancellation of 1 - r) with their singular end flagged."""
    return sum(adaptive_quad(g, 0.0, 0.5, tol=0.5 * tol, singularity="lower").value
               for g in (fn, reflected))


def test_c_h_against_beta_integral():
    """Dual route: recompute the Beta factor by direct quadrature.  H = 0.1
    has a strong singularity at u = 1, which the reflection moves to 0."""
    for H in (0.75, 0.25, 0.1):
        direct = _both_ends(
            lambda u: u ** (1.0 - 2.0 * H) * (1.0 - u) ** (H - 0.5),
            lambda r: (1.0 - r) ** (1.0 - 2.0 * H) * r ** (H - 0.5), tol=1e-11)
        want = (1.5 - H) / (2.0 * H) * direct
        assert c_h(H) == pytest.approx(want, abs=1e-10)


def test_c_h_matches_beta_function():
    for H in (0.1, 0.3, 0.6, 0.9):
        want = (1.5 - H) / (2.0 * H) * beta(2.0 - 2.0 * H, H + 0.5)
        assert c_h(H) == pytest.approx(want, rel=1e-14)


def test_c_h_domain():
    with pytest.raises(DomainError):
        c_h(0.0)
    with pytest.raises(DomainError):
        c_h(1.0)


# ---------------------------------------------------------------------------
# kernel and covariance


def test_fbm_cov_brownian_is_min():
    assert fbm_cov(0.3, 0.8, 0.5) == pytest.approx(0.3, rel=1e-13)
    assert fbm_cov(0.8, 0.3, 0.5) == pytest.approx(0.3, rel=1e-13)


def test_fbm_cov_diagonal_is_variance():
    for H in (0.2, 0.6):
        assert fbm_cov(0.7, 0.7, H) == pytest.approx(c_h(H) * 0.7 ** (2 * H), rel=1e-13)


def test_fbm_cov_var0_offset():
    assert fbm_cov(0.2, 0.5, 0.3, var0=2.0) == pytest.approx(
        2.0 + fbm_cov(0.2, 0.5, 0.3), rel=1e-13)


def test_fbm_cov_rejects_negative_times():
    with pytest.raises(DomainError):
        fbm_cov(-0.1, 0.5, 0.3)
    with pytest.raises(DomainError):
        fbm_cov(0.1, 0.5, 0.3, var0=-1.0)


def _mvn_kernel(t, s, hurst):
    """Moving-average kernel K(t, s) = (t-s)_+^(H-1/2) - (-s)_+^(H-1/2) at
    an array of s.

    A nonpositive base gives 0; at H = 1/2 the kernel is the indicator of
    0 <= s < t.
    """
    expo = hurst - 0.5

    def pow_plus(x):
        pos = x > 0.0
        return np.where(pos, np.where(pos, x, 1.0) ** expo, 0.0)

    return pow_plus(t - s) - pow_plus(-s)


def test_fbm_cov_against_kernel_quadrature():
    """Dual route: covariance as the kernel product integrated over the line."""
    s, t = 0.3, 0.7
    for H, flag in ((0.7, None), (0.25, "lower")):
        f = lambda r: _mvn_kernel(s, r, H) * _mvn_kernel(t, r, H)
        # r = -u / (1 - u) maps [0, 1) onto (-inf, 0]; the integrand grows
        # like (1 - u)^(-0.4) at u = 1 for H = 0.7 and like u^(-0.5) at
        # u = 0 for H = 0.25
        tail = _both_ends(lambda u: f(-u / (1.0 - u)) / (1.0 - u) ** 2,
                          lambda v: f((v - 1.0) / v) / (v * v), tol=2e-8)
        # the body's singularity at r = s is reflected onto 0 by r -> s - r
        body = adaptive_quad(lambda r: f(s - r), 0.0, s, tol=2e-8,
                             singularity=flag).value
        assert fbm_cov(s, t, H) == pytest.approx(tail + body, abs=1e-6)


def test_fgn_cov_lag_zero_is_increment_variance():
    for H in (0.3, 0.8):
        assert fgn_cov(0, H, 0.25) == pytest.approx(c_h(H) * 0.25 ** (2 * H), rel=1e-13)


def test_fgn_cov_consistent_with_fbm_cov():
    H, h = 0.7, 0.125
    # Cov(B_h - B_0, B_3h - B_2h) from the value covariance
    want = (fbm_cov(h, 3 * h, H) - fbm_cov(h, 2 * h, H)
            - fbm_cov(0.0, 3 * h, H) + fbm_cov(0.0, 2 * h, H))
    assert fgn_cov(2, H, h) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# samplers


def test_sampler_determinism_and_seed_sensitivity():
    cfg = FbmConfig(hurst=0.3, grid_n=64, seed=11)
    for method in ("cholesky", "circulant", "kernel"):
        a = sample_fbm(cfg, method=method)
        b = sample_fbm(cfg, method=method)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_fbm(FbmConfig(hurst=0.3, grid_n=64, seed=12), method=method)
        assert not np.array_equal(a.values, c.values)


def test_sampler_basic_shape_and_start():
    cfg = FbmConfig(hurst=0.7, horizon=2.0, grid_n=32, seed=0)
    p = sample_fbm(cfg)
    assert p.values.shape == (33,)
    assert p.values[0] == 0.0  # var0 = 0
    assert p.times[-1] == 2.0
    assert p.method == "circulant"


def test_sampler_var0_randomizes_start():
    cfg = FbmConfig(hurst=0.5, grid_n=8, var0=1.0, seed=4)
    p = sample_fbm(cfg)
    assert p.values[0] != 0.0


def test_cholesky_factor_reproduces_fgn_covariance():
    H, n, step = 0.3, 16, 1.0 / 16
    L = _cholesky_factor(H, n, step)
    want = fgn_cov(np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]), H, step)
    np.testing.assert_allclose(L @ L.T, want, atol=1e-12)


def test_circulant_eigs_nonnegative_across_hurst():
    for H in (0.05, 0.3, 0.5, 0.7, 0.95):
        w = _circulant_weights(H, 256, 1.0 / 256)
        assert w.shape == (257,) and np.all(np.isfinite(w))


class _IdentityNormals:
    """Stands in for a generator: a (k, k) draw is the identity basis."""

    def standard_normal(self, shape):
        assert shape[0] == shape[1]
        return np.eye(shape[0])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 256])
@pytest.mark.parametrize("H", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_circulant_map_has_exact_fgn_covariance(n, H):
    """The sampler is a linear map L of its 2n normals; applied to the
    identity basis it yields L^T row by row, and L L^T is the fGn Toeplitz
    covariance to rounding."""
    Lt = _sample_fgn_circulant(_IdentityNormals(), _circulant_weights(H, n, 1.0 / n), 2 * n)
    assert Lt.shape == (2 * n, n)
    want = fgn_cov(np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]), H, 1.0 / n)
    np.testing.assert_allclose(Lt.T @ Lt, want, rtol=0.0,
                               atol=1e-12 * float(np.abs(want).max()))


def test_circulant_components_use_consecutive_blocks():
    """A dim-3 draw: after the three value-at-0 normals, component c is the
    sampler's map of normals [2nc, 2n(c+1)) of the same stream."""
    H, n, d = 0.3, 16, 3
    cfg = FbmConfig(hurst=H, grid_n=n, seed=29, dim=d)
    p = sample_fbm(cfg)
    Lt = _sample_fgn_circulant(_IdentityNormals(), _circulant_weights(H, n, cfg.step), 2 * n)
    rng = SeedSpec(29).generator()
    rng.standard_normal(d)
    z = rng.standard_normal(2 * n * d).reshape(d, 2 * n)
    np.testing.assert_allclose(np.diff(p.values, axis=0), (z @ Lt).T, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [64, 4096])
def test_irfft_of_a_block_is_its_rows_bit_for_bit(n):
    """A draw of R replicas in one irfft over an (R, n+1) block of
    half-spectra gives each replica the bits of its own one-row call, as a
    1-D row and as a (1, n+1) slice.  R = 7 covers whole and partial
    groups of rows if the FFT works on several rows at once."""
    R = 7
    rng = np.random.default_rng(n)
    h = np.zeros((R, n + 1), dtype=complex)
    h.real = rng.standard_normal((R, n + 1))
    h.imag[:, 1:n] = rng.standard_normal((R, n - 1))
    h *= _circulant_weights(0.75, n, 1.0 / n)
    block = np.fft.irfft(h, 2 * n, axis=-1)
    for r in range(R):
        assert block[r].tobytes() == np.fft.irfft(h[r], 2 * n).tobytes()
        assert block[r].tobytes() == np.fft.irfft(h[r:r + 1], 2 * n, axis=-1).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("var0", [0.0, 0.5])
def test_cholesky_matches_per_column_reference_bit_for_bit(dim, var0):
    """The Cholesky branch draws n normals per component, one component
    after another; t = 0 stays +0.0 when var0 = 0 (b0 is then -0.0 for a
    negative normal, and -0.0 + 0.0 is +0.0)."""
    H, n, seed = 0.3, 32, 8
    p = sample_fbm(FbmConfig(hurst=H, grid_n=n, seed=seed, var0=var0, dim=dim),
                   method="cholesky")
    rng = SeedSpec(seed).generator()
    b0 = math.sqrt(var0) * rng.standard_normal(dim)
    L = _cholesky_factor(H, n, 1.0 / n)
    cols = [b0[c] + np.concatenate([[0.0], np.cumsum(L @ rng.standard_normal(n))])
            for c in range(dim)]
    want = np.stack(cols, axis=1)
    if dim == 1:
        want = want[:, 0]
    assert p.values.shape == want.shape
    assert p.values.tobytes() == want.tobytes()
    if var0 == 0.0:
        assert not np.any(np.signbit(p.values[0]))


def test_circulant_rejects_indefinite_embedding():
    # a hand-built row whose circulant eigenvalues go negative
    from fracsew.fbm import _embedding_eigs
    with pytest.raises(EmbeddingError):
        _embedding_eigs(np.array([1.0, 2.0]))


def test_samplers_agree_in_law_small_grid():
    """Empirical increment covariance of each sampler vs the exact matrix."""
    H, n, npaths = 0.3, 4, 4000
    lagmat = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    want = fgn_cov(lagmat, H, 1.0 / n)
    for method in ("cholesky", "circulant", "kernel"):
        incs = np.empty((npaths, n))
        for i in range(npaths):
            p = sample_fbm(FbmConfig(hurst=H, grid_n=n, seed=60000 + i), method=method)
            incs[i] = np.diff(p.values)
        got = incs.T @ incs / npaths
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want ** 2) / npaths)
        tol = 5.0 if method != "kernel" else 6.0  # kernel carries truncation bias
        assert np.all(np.abs(got - want) <= tol * se), method


def test_single_interval_grid():
    cfg = FbmConfig(hurst=0.4, grid_n=1, seed=3)
    p = sample_fbm(cfg)
    assert p.values.shape == (2,)
    draws = np.array([sample_fbm(FbmConfig(hurst=0.4, grid_n=1, seed=i)).values[1]
                      for i in range(4000)])
    var = draws.var()
    want = c_h(0.4)
    se = want * math.sqrt(2.0 / 4000)
    assert abs(var - want) < 5 * se


def test_kernel_sampler_carries_noise():
    cfg = FbmConfig(hurst=0.3, grid_n=16, seed=9)
    p = sample_fbm(cfg, method="kernel")
    assert p.noise is not None
    assert p.noise.boundaries[0] == pytest.approx(-50.0)  # default window
    assert p.noise.boundaries[-1] == pytest.approx(1.0)
    assert p.noise.normals.shape == (p.noise.boundaries.size - 1,)
    # other samplers carry none, and refuse the truncation knob
    assert sample_fbm(cfg).noise is None
    with pytest.raises(ConfigurationError):
        sample_fbm(cfg, method="cholesky", truncation=10.0)
    with pytest.raises(ConfigurationError):
        sample_fbm(cfg, method="walsh")


def test_kernel_path_is_weighted_noise():
    """The stored white-noise cells reproduce the path values exactly."""
    cfg = FbmConfig(hurst=0.35, grid_n=8, seed=21)
    p = sample_fbm(cfg, method="kernel")
    w = kernel_cell_weights(0.35, p.times, p.noise.boundaries)
    np.testing.assert_allclose(w @ p.noise.normals, p.values, atol=1e-12)


def test_kernel_cell_weights_zero_for_future_cells():
    boundaries = np.array([-1.0, 0.0, 0.5, 1.0])
    w = kernel_cell_weights(0.3, np.array([0.5]), boundaries)
    assert w[0, 2] == 0.0  # cell (0.5, 1.0) is entirely after t = 0.5


def test_indices_of():
    p = sample_fbm(FbmConfig(hurst=0.5, grid_n=8, seed=1))
    np.testing.assert_array_equal(p.indices_of([0.0, 0.25, 1.0]), [0, 2, 8])
    with pytest.raises(AlignmentError):
        p.indices_of(0.3)
    with pytest.raises(AlignmentError):
        p.indices_of(1.5)


def test_config_validation():
    with pytest.raises(DomainError):
        FbmConfig(hurst=1.2)
    with pytest.raises(ConfigurationError):
        FbmConfig(hurst=0.5, grid_n=0)
    with pytest.raises(ConfigurationError):
        FbmConfig(hurst=0.5, horizon=-1.0)
    with pytest.raises(ConfigurationError):
        FbmConfig(hurst=0.5, horizon=math.inf)
    with pytest.raises(ConfigurationError):
        FbmConfig(hurst=0.5, var0=math.nan)
    with pytest.raises(ConfigurationError):
        FbmConfig(hurst=0.5, seed="abc")
    assert FbmConfig(hurst=0.5, grid_n=np.int64(8)) == FbmConfig(hurst=0.5, grid_n=8)
    for bad in (True, 8.0, np.float64(8.0), np.int64(0)):
        with pytest.raises(ConfigurationError):
            FbmConfig(hurst=0.5, grid_n=bad)
    # a subnormal step would repeat time stamps or space them unevenly
    for n in (1024, 4096):
        with pytest.raises(ConfigurationError, match="subnormal"):
            FbmConfig(hurst=0.5, horizon=1e-320, grid_n=n)
    cfg = FbmConfig(hurst=0.3, dim=np.int64(2))
    assert cfg == FbmConfig(hurst=0.3, dim=2) and type(cfg.dim) is int
    for bad in (True, 2.0, np.float64(2.0), np.int64(0)):
        with pytest.raises(ConfigurationError):
            FbmConfig(hurst=0.3, dim=bad)


def test_config_rejects_underflowing_increment_variance():
    # the step 1.6e-302 is normal, but step^(2H) = step^1.5 underflows to 0,
    # which left the circulant sampler a path of zeros
    with pytest.raises(ConfigurationError, match="underflows"):
        FbmConfig(hurst=0.75, horizon=1e-300, grid_n=64)
    # below H = 1/2 the variance scale exceeds the step, so a normal step passes
    assert FbmConfig(hurst=0.3, horizon=1e-300, grid_n=64).step > 0.0


def _indefinite_fgn_cov(lag, hurst, step):
    """A covariance with a negative diagonal, which no Cholesky factor takes."""
    return np.where(lag == 0, -1.0, 0.0)


def test_cholesky_failure_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(fracsew.fbm, "fgn_cov", _indefinite_fgn_cov)
    # a Hurst index no other test factors, so the factor cache cannot hold it
    cfg = FbmConfig(hurst=0.6180339887, grid_n=64)
    with pytest.raises(NumericalError, match="Cholesky") as info:
        sample_fbm(cfg, method="cholesky")
    assert isinstance(info.value, FracsewError)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_multidimensional_path_components_independent():
    cfg = FbmConfig(hurst=0.5, grid_n=256, seed=17, dim=2)
    p = sample_fbm(cfg)
    assert p.values.shape == (257, 2)
    incs = np.diff(p.values, axis=0)
    corr = np.corrcoef(incs.T)[0, 1]
    assert abs(corr) < 0.2  # independent components, n = 256


# ---------------------------------------------------------------------------
# conditional structure


def test_conditional_moments_brownian_closed_form():
    m = conditional_increment_moments(0.25, 0.5, 0.75, 0.5)
    assert m.sigma_s_sq == pytest.approx(0.25, abs=1e-14)
    assert m.rho_st == pytest.approx(0.0, abs=1e-14)
    assert m.sigma_st_sq == pytest.approx(0.25, abs=1e-14)
    assert m.kappa_st_sq == pytest.approx(0.25, abs=1e-14)


def test_conditional_moments_degenerate_increment():
    m = conditional_increment_moments(0.1, 0.6, 0.6, 0.3)
    assert m.sigma_st_sq == 0.0
    assert m.sigma_s_sq == pytest.approx(0.5 ** 0.6 / 0.6, rel=1e-13)


def test_conditional_moments_domain():
    with pytest.raises(DomainError):
        conditional_increment_moments(0.5, 0.5, 0.7, 0.3)
    with pytest.raises(DomainError):
        conditional_increment_moments(-0.1, 0.5, 0.7, 0.3)


@given(st.floats(0.1, 0.9), st.floats(0.01, 0.5), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
# rough cases where s - u^2 used to round to s in the quadrature
@example(H=0.1015625, v=0.125, su=0.0, tu=0.00390625)
@example(H=0.1, v=0.125, su=0.0, tu=0.005859375)
@example(H=0.109375, v=0.5, su=0.9499154817626578, tu=0.125)
@example(H=0.109375, v=0.5, su=0.875, tu=0.125)
# an increment one ulp long, where the variance used to cancel to noise
@example(H=0.25, v=0.5, su=0.0, tu=2.220446049250313e-16)
def test_conditional_moments_are_a_valid_gaussian(H, v, su, tu):
    s = v + 0.05 + 0.8 * su
    t = s + 0.8 * tu
    m = conditional_increment_moments(v, s, t, H)
    assert m.sigma_s_sq > 0.0
    assert m.sigma_st_sq >= 0.0
    assert m.kappa_st_sq >= 0.0
    # Cauchy-Schwarz for the conditional pair
    assert m.rho_st ** 2 <= m.sigma_s_sq * m.sigma_st_sq * (1.0 + 1e-9) + 1e-15


def test_conditional_moments_agree_with_quadpack(monkeypatch):
    """The panel rule against QUADPACK (scipy, a reference only) over c10's
    ranges at 2^9."""
    integrate = pytest.importorskip("scipy.integrate")

    def quadpack(fn, a, b, tol=1e-10, singularity=None):
        # QUADPACK on r = a + u^2 at a flagged lower end, the only flag used
        assert singularity in (None, "lower")
        if singularity == "lower":
            g, lo, hi = (lambda u: 2.0 * u * fn(a + u * u)), 0.0, math.sqrt(b - a)
        else:
            g, lo, hi = fn, a, b
        return QuadResult(*integrate.quad(g, lo, hi, epsabs=0.25 * tol,
                                          epsrel=1e-12, limit=400)[:2])

    n = 2 ** 9
    rng = np.random.default_rng(10)
    for H in (0.1, 0.3, 0.75, 0.9):
        for _ in range(100):
            iv = int(rng.integers(n // 8, n // 3))
            isv = iv + int(rng.integers(n // 16, n // 4))
            it = isv + int(rng.integers(1, n // 8))
            got = conditional_increment_moments(iv / n, isv / n, it / n, H)
            with monkeypatch.context() as m:
                m.setattr(fracsew.fbm, "adaptive_quad", quadpack)
                want = conditional_increment_moments(iv / n, isv / n, it / n, H)
            for name in ("rho_st", "sigma_st_sq", "kappa_st_sq"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-11)


def test_kernel_correlation_degenerate_and_domain():
    kc = kernel_correlation(0.2, 0.7, 0.7, 0.3)
    assert kc.remainder == 0.0
    assert kc.value == pytest.approx(0.5 ** 0.6 / 0.6, rel=1e-13)
    with pytest.raises(DomainError):
        kernel_correlation(0.2, 0.7, 0.8, 0.5)  # H = 1/2 excluded
    with pytest.raises(DomainError):
        kernel_correlation(0.2, 0.3, 0.9, 0.3)  # increment longer than window


def test_kernel_correlation_remainder_is_second_order():
    """remainder * (s-v)^(2-2H) / (t-s)^2 stays bounded as t -> s."""
    for H in (0.3, 0.7):
        ratios = []
        v, s = 0.25, 0.75
        for k in range(3, 11):
            ts = 0.5 * 2.0 ** -k
            kc = kernel_correlation(v, s, s + ts, H)
            ratios.append(abs(kc.remainder) * 0.5 ** (2 - 2 * H) / ts ** 2)
        assert max(ratios) / min(ratios) < 3.0
        assert max(ratios) < 1.0
