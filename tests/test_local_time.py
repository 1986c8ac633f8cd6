import math
from dataclasses import replace

import numpy as np
import pytest

from fracsew import (
    AlignmentError,
    ConfigurationError,
    DomainError,
    FbmConfig,
    FbmPath,
    Partition,
    RegimeWarning,
    SeedSpec,
    bidirectional_sum,
    c_h,
    crossing_count_estimator,
    cumulative_local_time,
    default_bandwidth,
    default_level_grid,
    downcrossing_sum,
    dyadic_partition,
    frak_c,
    frak_c_quadrature,
    lm_distance_over_levels,
    local_time_curve,
    occupation_density_estimator,
    riemann_sum,
    sample_fbm,
    uniform_partition,
    upcross_germ,
    upcrossing_excess_sum,
    upcrossing_sum,
    validate_m_condition,
)
from fracsew.local_time import LocalTimeCurve


# ---------------------------------------------------------------------------
# limiting constants


def test_frak_c_matches_quadrature():
    for H in (0.3, 0.5, 0.7):
        for gamma in (0.0, 0.5, 1.0, 1.0 / H - 1.0):
            assert frak_c(H, gamma) == pytest.approx(
                frak_c_quadrature(H, gamma), abs=1e-10)


def test_frak_c_closed_forms():
    for H in (0.2, 0.5, 0.8):
        assert frak_c(H, 0.0) == pytest.approx(
            math.sqrt(c_h(H) / (2.0 * math.pi)), abs=1e-12)
        assert frak_c(H, 1.0) == pytest.approx(c_h(H) / 2.0, abs=1e-12)


def test_frak_c_domain():
    with pytest.raises(DomainError):
        frak_c(0.0, 0.0)
    with pytest.raises(DomainError):
        frak_c(0.5, -0.5)


def test_m_condition():
    assert validate_m_condition(0.7, 2.0) is True
    assert validate_m_condition(0.7, 8.0) is False
    assert validate_m_condition(0.3, 50.0) is True   # rough side: always fine
    assert validate_m_condition(0.5, 100.0) is True
    with pytest.raises(DomainError):
        validate_m_condition(1.0, 2.0)
    with pytest.raises(DomainError):
        validate_m_condition(0.5, 0.5)


# ---------------------------------------------------------------------------
# scalar estimators on hand-built paths


def _synthetic(values, hurst=0.4):
    values = np.asarray(values, dtype=float)
    times = np.linspace(0.0, 1.0, values.size)
    return FbmPath(hurst=hurst, times=times, values=values, var0=0.0,
                   method="synthetic", seed=SeedSpec(0))


def test_single_upcrossing_weights():
    H = 0.4
    p = _synthetic([-0.3, 0.4, 0.8], hurst=H)
    part = Partition(np.array([0.0, 0.5, 1.0]))
    assert upcrossing_sum(p, part, 0.0) == pytest.approx(0.5 ** (1.0 - H),
                                                         rel=1e-14)
    # gamma weight multiplies by |increment|^gamma
    assert upcrossing_sum(p, part, 0.0, gamma=1.0) == pytest.approx(
        0.5 ** (1.0 - 2.0 * H) * 0.7, rel=1e-14)
    # excess uses the endpoint gap, not the increment
    assert upcrossing_excess_sum(p, part, 0.0) == pytest.approx(
        0.4 ** (1.0 / H - 1.0), rel=1e-14)
    assert downcrossing_sum(p, part, 0.0) == 0.0
    # level above the whole path: nothing crosses
    assert upcrossing_sum(p, part, 5.0) == 0.0
    assert upcrossing_excess_sum(p, part, 5.0) == 0.0


def test_strict_inequalities_at_endpoints():
    p = _synthetic([0.0, 1.0, 0.5])
    part = Partition(np.array([0.0, 0.5, 1.0]))
    # a == left endpoint: not an up-crossing
    assert upcrossing_sum(p, part, 0.0) == 0.0
    # a == right endpoint of the down-leg: not a down-crossing
    assert downcrossing_sum(p, part, 0.5) == 0.0
    assert downcrossing_sum(p, part, 0.75) > 0.0


def test_bidirectional_is_sum_of_directions():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 10, seed=17))
    part = dyadic_partition(1.0, 8)
    for a in (-0.2, 0.0, 0.3):
        assert bidirectional_sum(p, part, a) == (
            upcrossing_sum(p, part, a) + downcrossing_sum(p, part, a))


def test_gamma_validation():
    p = _synthetic([0.0, 1.0])
    part = Partition(np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        upcrossing_sum(p, part, 0.5, gamma=-0.1)


def test_downcrossing_is_upcrossing_of_mirrored_path():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 10, seed=19))
    mirrored = replace(p, values=-p.values)
    part = dyadic_partition(1.0, 9)
    for a in (-0.2, 0.0, 0.3):
        for gamma in (0.0, 0.5):
            down = downcrossing_sum(p, part, a, gamma)
            assert down > 0.0
            assert down == upcrossing_sum(mirrored, part, -a, gamma)


def test_crossing_count_equals_flat_upcross_sum():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 10, seed=23))
    for n in (2 ** 6, 2 ** 8, 2 ** 10):
        part = uniform_partition(1.0, n)
        assert crossing_count_estimator(p, n, 0.1) == upcrossing_sum(
            p, part, 0.1, gamma=0.0)


def test_crossing_count_validation():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 6, seed=0))
    with pytest.raises(AlignmentError):
        crossing_count_estimator(p, 48, 0.0)
    for bad in (0, True, 16.0):
        with pytest.raises(ConfigurationError):
            crossing_count_estimator(p, bad, 0.0)
    assert crossing_count_estimator(p, np.int64(16), 0.0) == \
        crossing_count_estimator(p, 16, 0.0)


def test_occupation_unit_slope():
    n = 2 ** 12
    times = np.linspace(0.0, 1.0, n + 1)
    p = FbmPath(hurst=0.5, times=times, values=times.copy(), var0=0.0,
                method="synthetic", seed=SeedSpec(0))
    # B_t = t spends exactly 2*bw time units within bw of any interior level
    got = occupation_density_estimator(p, 0.5, 0.25)
    assert got == pytest.approx(1.0, rel=5e-3)
    with pytest.raises(DomainError):
        occupation_density_estimator(p, 0.5, 0.0)


def test_default_bandwidth_formula():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=64, seed=0))
    assert default_bandwidth(p) == pytest.approx((1.0 / 64) ** 0.3, rel=1e-14)


def test_multidimensional_paths_rejected():
    p = sample_fbm(FbmConfig(hurst=0.5, grid_n=8, seed=0, dim=2))
    part = uniform_partition(1.0, 8)
    with pytest.raises(DomainError):
        upcrossing_sum(p, part, 0.0)
    with pytest.raises(DomainError):
        occupation_density_estimator(p, 0.0, 0.1)


# ---------------------------------------------------------------------------
# level curves


def test_curve_matches_scalar_estimators():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 10, seed=31))
    part = dyadic_partition(1.0, 9)
    levels = default_level_grid(p, n_levels=41)

    up = local_time_curve(p, part, "upcross", levels, gamma=0.5,
                          normalized=False)
    exc = local_time_curve(p, part, "excess", levels, normalized=False)
    bi = local_time_curve(p, part, "bidirectional", levels, gamma=0.0,
                          normalized=False)
    occ = local_time_curve(p, part, "occupation", levels, bandwidth=0.05)
    for i, a in enumerate(levels):
        assert up.values[i] == pytest.approx(
            upcrossing_sum(p, part, a, gamma=0.5), rel=1e-12, abs=1e-15)
        assert exc.values[i] == pytest.approx(
            upcrossing_excess_sum(p, part, a), rel=1e-12, abs=1e-15)
        assert bi.values[i] == pytest.approx(
            bidirectional_sum(p, part, a), rel=1e-12, abs=1e-15)
        assert occ.values[i] == pytest.approx(
            occupation_density_estimator(p, a, 0.05), rel=1e-12, abs=1e-15)


def test_count_curve_matches_scalar_count():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 10, seed=33))
    n = 2 ** 8
    part = uniform_partition(1.0, n)
    levels = default_level_grid(p, n_levels=31)
    curve = local_time_curve(p, part, "count", levels, normalized=False)
    for i, a in enumerate(levels):
        assert curve.values[i] == pytest.approx(
            crossing_count_estimator(p, n, a), rel=1e-12, abs=1e-15)


def test_normalization_scales():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 9, seed=35))
    part = dyadic_partition(1.0, 9)
    levels = default_level_grid(p, n_levels=21)
    raw = local_time_curve(p, part, "upcross", levels, normalized=False)
    norm = local_time_curve(p, part, "upcross", levels, normalized=True)
    np.testing.assert_allclose(norm.values, raw.values / frak_c(0.3, 0.0),
                               rtol=1e-13)
    assert norm.estimator == "upcross(gamma=0)"
    assert raw.partition_n == part.n_intervals


def test_curve_unknown_estimator_and_bad_levels():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=64, seed=0))
    part = uniform_partition(1.0, 64)
    with pytest.raises(ConfigurationError):
        local_time_curve(p, part, "histogram")
    with pytest.raises(ConfigurationError):
        local_time_curve(p, part, "upcross", np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        local_time_curve(p, part, "occupation", bandwidth=-0.1)


def test_curve_validation():
    levels = np.linspace(-1, 1, 5)
    with pytest.raises(DomainError):
        LocalTimeCurve(levels, np.array([0.0, 1.0, -0.5, 0.0, 0.0]),
                       "upcross(gamma=0)", 0.3, 64, 1.0, True)
    with pytest.raises(ConfigurationError):
        LocalTimeCurve(levels, np.zeros(4), "upcross(gamma=0)", 0.3, 64, 1.0,
                       True)
    with pytest.raises(ConfigurationError):
        LocalTimeCurve(np.array([1.0]), np.array([0.0]), "x", 0.3, 64, 1.0,
                       True)


def test_default_level_grid_shape():
    p = sample_fbm(FbmConfig(hurst=0.5, grid_n=64, seed=1))
    grid = default_level_grid(p, n_levels=11, pad=0.5)
    assert grid.size == 11
    width = p.values.max() - p.values.min()
    assert grid[0] == pytest.approx(p.values.min() - 0.5 * width)
    assert grid[-1] == pytest.approx(p.values.max() + 0.5 * width)
    np.testing.assert_array_equal(default_level_grid(p, n_levels=np.int64(11), pad=0.5),
                                  grid)
    for bad in (1, True, 11.0):
        with pytest.raises(ConfigurationError):
            default_level_grid(p, n_levels=bad)


def test_trapezoid_integral_recovers_occupation_mass():
    """Integrating the occupation curve over a wide grid recovers ~T."""
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 12, seed=41))
    levels = default_level_grid(p, n_levels=800, pad=0.3)
    occ = local_time_curve(p, uniform_partition(1.0, 4), "occupation", levels)
    assert occ.trapezoid_integral() == pytest.approx(1.0, rel=0.02)


# ---------------------------------------------------------------------------
# cumulative curves


def test_cumulative_curve_properties():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 10, seed=43))
    part = dyadic_partition(1.0, 10)
    cum = cumulative_local_time(p, part, 0.0)
    assert cum.values[0] == 0.0
    assert np.all(np.diff(cum.values) >= 0.0)
    assert cum.values.size == part.breakpoints.size
    assert cum.values[-1] == pytest.approx(
        upcrossing_sum(p, part, 0.0) / frak_c(0.3, 0.0), rel=1e-12)
    bi = cumulative_local_time(p, part, 0.0, estimator="bidirectional")
    assert bi.values[-1] == pytest.approx(
        bidirectional_sum(p, part, 0.0) / (2.0 * frak_c(0.3, 0.0)), rel=1e-12)
    with pytest.raises(ConfigurationError):
        cumulative_local_time(p, part, 0.0, estimator="count")


# ---------------------------------------------------------------------------
# curve distances


def test_lm_distance_basics():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 9, seed=45))
    levels = default_level_grid(p, n_levels=21)
    a = local_time_curve(p, dyadic_partition(1.0, 9), "upcross", levels)
    b = local_time_curve(p, dyadic_partition(1.0, 7), "upcross", levels)
    assert lm_distance_over_levels(a, a) == 0.0
    assert lm_distance_over_levels(a, b) > 0.0
    other = local_time_curve(p, dyadic_partition(1.0, 9), "upcross",
                             np.linspace(-9.0, 9.0, 21))
    with pytest.raises(AlignmentError):
        lm_distance_over_levels(a, other)
    with pytest.raises(DomainError):
        lm_distance_over_levels(a, b, m=0.5)


def test_lm_distance_moment_guard():
    p = sample_fbm(FbmConfig(hurst=0.7, grid_n=2 ** 9, seed=47))
    levels = default_level_grid(p, n_levels=21)
    a = local_time_curve(p, dyadic_partition(1.0, 9), "upcross", levels)
    b = local_time_curve(p, dyadic_partition(1.0, 7), "upcross", levels)
    with pytest.warns(RegimeWarning):
        lm_distance_over_levels(a, b, m=8.0)
    # m = 2 at H = 0.7 satisfies the moment condition: no warning
    assert lm_distance_over_levels(a, b, m=2.0) >= 0.0


# ---------------------------------------------------------------------------
# statistical agreement between estimator families


def test_up_and_down_crossings_balance():
    """Up- and down-crossing masses agree on average at a visited level."""
    tot_up = tot_dn = 0.0
    part = dyadic_partition(1.0, 11)
    for i in range(200):
        p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 11, seed=80000 + i))
        tot_up += upcrossing_sum(p, part, 0.0)
        tot_dn += downcrossing_sum(p, part, 0.0)
    assert 0.9 <= tot_dn / tot_up <= 1.1


def test_count_estimator_stabilizes_under_refinement():
    """Normalized counts at n=2^13 sit within 10% of n=2^10 on average."""
    coarse = fine = 0.0
    for i in range(300):
        p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 13, seed=81000 + i))
        coarse += crossing_count_estimator(p, 2 ** 10, 0.0)
        fine += crossing_count_estimator(p, 2 ** 13, 0.0)
    assert abs(fine / coarse - 1.0) < 0.10


def test_upcross_and_occupation_agree_in_mean():
    """Two estimator families target the same curve after normalization."""
    part = dyadic_partition(1.0, 13)
    tot_up = tot_occ = 0.0
    for i in range(120):
        p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 13, seed=82000 + i))
        tot_up += upcrossing_sum(p, part, 0.0) / frak_c(0.3, 0.0)
        tot_occ += occupation_density_estimator(p, 0.0, default_bandwidth(p))
    assert 0.85 <= tot_up / tot_occ <= 1.15


# ---------------------------------------------------------------------------
# germ adapter


def test_upcross_germ_matches_sum():
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 9, seed=51))
    part = dyadic_partition(1.0, 7)
    g = upcross_germ(0.1, gamma=0.5)
    assert g.name == "upcross[a=0.1,gamma=0.5]"
    assert riemann_sum(g, p, part) == pytest.approx(
        upcrossing_sum(p, part, 0.1, gamma=0.5), rel=1e-12)
    # scalar evaluation agrees with the batch route
    s, t = part.breakpoints[3], part.breakpoints[4]
    i, j = p.indices_of([s, t])
    assert g.evaluate(p, s, t) == g.batch(p, np.array([i]), np.array([j]))[0]
    with pytest.raises(DomainError):
        upcross_germ(0.0, gamma=-1.0)
