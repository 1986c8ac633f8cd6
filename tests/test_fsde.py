import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracsew import (
    CapabilityError,
    CoefficientPair,
    ConfigurationError,
    DomainError,
    FbmConfig,
    NumericalError,
    Partition,
    RegimeWarning,
    bounded_drift,
    constant_pair,
    delta_thresholds,
    dyadic_partition,
    geometric_pair,
    holder_pair,
    mollify_coefficient,
    sample_fbm,
    split_seed,
    uniform_partition,
    uniqueness_probe,
    verify_norm_bounds,
    young_euler_solve,
)
from fracsew import fsde
from fracsew.fsde import _batched_euler, _radial_bump, builtin_holder_sigma


# ---------------------------------------------------------------------------
# thresholds


def test_thresholds_closed_form():
    th = delta_thresholds(0.75)
    assert th.strong == pytest.approx(0.18518518518518517, abs=1e-15)
    assert th.weak == pytest.approx(0.2631578947368421, abs=1e-15)
    assert th.young == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_threshold_ordering_everywhere():
    for H in np.linspace(0.51, 0.99, 25):
        th = delta_thresholds(float(H))
        assert 0.0 < th.strong < th.weak < th.young


def test_threshold_domain():
    for H in (0.5, 1.0, 0.3):
        with pytest.raises(DomainError):
            delta_thresholds(H)


# ---------------------------------------------------------------------------
# solver exactness and validation


def _driver(H=0.75, n=2 ** 10, seed=7, dim=1):
    return sample_fbm(FbmConfig(hurst=H, grid_n=n, seed=seed, dim=dim))


def test_euler_exact_for_constant_diffusion():
    p = _driver(n=2 ** 6, seed=3)
    part = dyadic_partition(1.0, 6)
    sol = young_euler_solve(constant_pair(2.5), 0.7, p, part)
    np.testing.assert_allclose(sol.values,
                               0.7 + 2.5 * (p.values - p.values[0]),
                               rtol=0.0, atol=1e-14)
    assert sol.values.ndim == 1
    assert sol.step_count == 64
    assert sol.horizon == 1.0

    frozen = young_euler_solve(constant_pair(0.0), -1.2, p, part)
    assert np.all(frozen.values == -1.2)


def test_euler_dimension_checks():
    p = _driver(n=8)
    with pytest.raises(DomainError):
        young_euler_solve(constant_pair(np.eye(2), dim=2), [0.0, 0.0], p,
                          uniform_partition(1.0, 8))
    with pytest.raises(DomainError):
        young_euler_solve(constant_pair(1.0), [0.0, 0.0], p,
                          uniform_partition(1.0, 8))
    # coefficients outside the batch contract: a scalar drift, a (d,) sigma
    scalar_drift = CoefficientPair(drift=lambda x: 0.0,
                                   diffusion=lambda x: np.eye(1), dim=1)
    with pytest.raises(CapabilityError, match="drift"):
        young_euler_solve(scalar_drift, 0.0, p, uniform_partition(1.0, 8))
    flat_sigma = CoefficientPair(drift=lambda x: np.zeros_like(x),
                                 diffusion=lambda x: np.ones_like(x), dim=2)
    with pytest.raises(CapabilityError, match="diffusion"):
        young_euler_solve(flat_sigma, [0.0, 0.0], _driver(n=8, dim=2),
                          uniform_partition(1.0, 8))


def test_euler_warns_for_rough_driver():
    p = sample_fbm(FbmConfig(hurst=0.45, grid_n=8, seed=0))
    with pytest.warns(RegimeWarning):
        young_euler_solve(constant_pair(1.0), 0.0, p, uniform_partition(1.0, 8))


def test_non_finite_state_reported_with_step():
    p = _driver(n=8)
    bad_drift = CoefficientPair(drift=lambda x: np.full_like(x, np.inf),
                                diffusion=lambda x: np.eye(1), dim=1)
    # with drift=None the loop adds no drift term; the check still runs
    bad_sigma = CoefficientPair(drift=None,
                                diffusion=lambda x: np.full((1, 1), np.inf), dim=1)
    for bad in (bad_drift, bad_sigma):
        with pytest.raises(NumericalError) as exc:
            young_euler_solve(bad, 0.5, p, uniform_partition(1.0, 8))
        assert exc.value.step == 0


def _with_zeros_drift(pair):
    return replace(pair, drift=lambda x: np.zeros_like(x))


@pytest.mark.parametrize("pair", [geometric_pair(), holder_pair(0.25)],
                         ids=["geometric", "holder"])
def test_none_drift_steps_like_explicit_zero_drift_bitwise(pair):
    assert pair.drift is None
    p = _driver(n=2 ** 9, seed=6)
    part = dyadic_partition(1.0, 9)
    sol = young_euler_solve(pair, 0.1, p, part)
    zero = young_euler_solve(_with_zeros_drift(pair), 0.1, p, part)
    assert np.array_equal(sol.values, zero.values)


def test_none_drift_probe_matches_explicit_zero_drift_bitwise():
    kw = dict(mesh_levels=(4, 5, 6), scales=(0.25, 0.125), replicas=3, seed=4)
    pair = holder_pair(0.25)
    rep = uniqueness_probe(0.75, 0.25, coeffs=pair, **kw)
    zero = uniqueness_probe(0.75, 0.25, coeffs=_with_zeros_drift(pair), **kw)
    assert np.array_equal(rep.pair_table, zero.pair_table)


def test_constant_d2_solve_matches_plain_matrix_loop_bitwise():
    mat = np.array([[1.0, 0.3], [-0.2, 0.8]])
    p = _driver(n=2 ** 7, seed=9, dim=2)
    part = dyadic_partition(1.0, 6)
    sol = young_euler_solve(constant_pair(mat, dim=2), [0.1, -0.4], p, part)
    bvals = p.values[p.indices_of(part.breakpoints)]
    x = np.array([0.1, -0.4])
    want = [x]
    for db in np.diff(bvals, axis=0):
        x = x + mat @ db
        want.append(x)
    assert np.array_equal(sol.values, np.array(want))


def test_geometric_equation_converges_to_closed_form():
    p = _driver(H=0.75, n=2 ** 10, seed=7)
    pair = geometric_pair()
    closed = 0.1 * np.exp(p.values - p.values[0])
    errs = []
    for lev in (6, 7, 8, 9, 10):
        part = dyadic_partition(1.0, lev)
        idx = p.indices_of(part.breakpoints)
        sol = young_euler_solve(pair, 0.1, p, part)
        errs.append(float(np.max(np.abs(sol.values - closed[idx]))))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    rate = np.polyfit(np.arange(len(errs)) * math.log(2.0),
                      -np.log(errs), 1)[0]
    assert rate > 0.3


def test_batched_solver_matches_public_solver_bitwise():
    pair = geometric_pair()
    drivers = [_driver(n=2 ** 6, seed=s) for s in (1, 2, 3)]
    part = dyadic_partition(1.0, 6)
    dt = np.diff(part.breakpoints)
    db = np.stack([np.diff(d.values)[:, None] for d in drivers], axis=1)
    x0 = np.full((3, 1), 0.1)
    traj = _batched_euler(pair, x0, dt, db)
    for r, d in enumerate(drivers):
        sol = young_euler_solve(pair, 0.1, d, part)
        assert np.array_equal(traj[:, r, 0], sol.values)


def _reference_euler(x0, db, dt):
    """Plain per-step loop of the public solver on dX = X dB (scalar floats)."""
    x = x0
    out = [x]
    for k in range(dt.size):
        x = x + 0.0 * float(dt[k]) + x * float(db[k])
        out.append(x)
    return np.array(out)


def test_geometric_solve_matches_plain_loop_bitwise():
    d = _driver(n=2 ** 9, seed=4)
    part = dyadic_partition(1.0, 7)
    sol = young_euler_solve(geometric_pair(), 0.1, d, part)
    bvals = d.values[d.indices_of(part.breakpoints)]
    want = _reference_euler(0.1, np.diff(bvals), np.diff(part.breakpoints))
    assert np.array_equal(sol.values, want)


# ---------------------------------------------------------------------------
# mollification


def test_mollify_affine_is_exact():
    smooth = mollify_coefficient(lambda x: 3.0 * x[..., None] + 1.0, 0.3)
    for v in (-1.0, 0.0, 2.5):
        assert smooth(np.array([v]))[0, 0] == pytest.approx(3.0 * v + 1.0,
                                                            abs=1e-12)
    # the one output kind is the (..., d, d) diffusion; a scalar is refused
    with pytest.raises(CapabilityError, match=r"\(1, 32, 1, 1\)"):
        mollify_coefficient(lambda x: 3.0 * x[..., 0] + 1.0, 0.3)(np.array([[0.0]]))


def test_mollify_quadratic_adds_variance():
    smooth = mollify_coefficient(lambda x: x[..., None] ** 2, 0.5)
    assert smooth(np.array([0.0]))[0, 0] == pytest.approx(0.25, rel=1e-12)
    assert smooth(np.array([2.0]))[0, 0] == pytest.approx(4.25, rel=1e-12)


def test_mollify_batch_independence():
    sigma = builtin_holder_sigma(0.4)
    smooth = mollify_coefficient(sigma, 0.1)
    xs = np.linspace(-1.0, 1.0, 7)[:, None]
    batched = smooth(xs)
    for i, x in enumerate(xs):
        assert np.array_equal(batched[i], smooth(x))


def test_mollify_validation():
    with pytest.raises(DomainError):
        mollify_coefficient(lambda x: x, 0.0)
    with pytest.raises(CapabilityError):
        mollify_coefficient(lambda x: x, 0.5, dim=3)


def test_mollification_distance_scales_like_one_plus_delta():
    """sup |smoothed - raw| near the kink decays at rate ~ 1 + delta."""
    delta = 0.4
    sigma = builtin_holder_sigma(delta)
    xs = np.linspace(-0.5, 0.5, 801)[:, None]
    base = sigma(xs)[..., 0, 0]
    scales = [2.0 ** -k for k in range(4, 10)]
    dists = [float(np.max(np.abs(
        mollify_coefficient(sigma, s)(xs)[..., 0, 0] - base)))
        for s in scales]
    slope = np.polyfit(np.log(scales), np.log(dists), 1)[0]
    assert slope == pytest.approx(1.0 + delta, abs=0.2)


# ---------------------------------------------------------------------------
# built-in coefficients


@pytest.mark.parametrize("dim", [1, 2])
def test_radial_bump_vanishes_from_the_radius_on(dim):
    radius = 2.0
    outside = np.zeros((5, dim))
    outside[:, -1] = [2.0, -2.0, 2.5, 10.0, 1e100]
    inside = np.zeros((3, dim))
    inside[:, 0] = [0.0, 1.0, -1.9]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _radial_bump(outside, radius)
        ins = _radial_bump(inside, radius)
    assert out.tolist() == [0.0] * 5
    assert not np.any(np.signbit(out))
    assert ins[0] == 1.0 and np.all(ins > 0.0) and np.all(ins <= 1.0)


def test_builtin_sigma_identity_at_origin():
    for delta, dim in ((0.3, 1), (0.7, 2)):
        sigma = builtin_holder_sigma(delta, dim=dim)
        np.testing.assert_allclose(sigma(np.zeros(dim)), np.eye(dim),
                                   atol=1e-15)
    with pytest.raises(DomainError):
        builtin_holder_sigma(0.0)


def _reference_holder_sigma(delta, dim, kappa=0.5, radius=2.0):
    """The out-of-place formula: bump times sign(x1) |x1|^(1+delta), times I."""
    eye = np.eye(dim)

    def sigma(x):
        x = np.asarray(x, dtype=float)
        x1 = x[..., 0]
        r2 = np.add.reduce(x * x, axis=-1) / (radius * radius)
        bump = np.exp(1.0 - 1.0 / (1.0 - np.minimum(r2, np.nextafter(1.0, 0.0))))
        factor = 1.0 + kappa * bump * np.sign(x1) * np.abs(x1) ** (1.0 + delta)
        return factor[..., None, None] * eye

    return sigma


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kappa", [0.5, -0.3])
def test_builtin_sigma_is_bit_equal_to_reference_formula(dim, kappa):
    sigma = builtin_holder_sigma(0.25, dim=dim, kappa=kappa)
    reference = _reference_holder_sigma(0.25, dim, kappa=kappa)
    first = np.array([0.0, -0.0, 2.0, -2.0, 2.5, -1e3, 1e-160, -1e-160,
                      1.0, -0.5])
    special = np.zeros((first.size, dim))
    special[:, 0] = first
    if dim == 2:
        special[::3, 1] = [1.9, -0.0, 2.0, 1e-160]
    rng = np.random.default_rng(17)
    cases = [special, rng.uniform(-2.5, 2.5, (4, 3, 5, dim)),
             np.zeros(dim), np.full(dim, -0.0), np.full(dim, 0.7)]
    for x in cases:
        got, want = sigma(x), reference(x)
        assert got.shape == want.shape == x.shape[:-1] + (dim, dim)
        assert got.tobytes() == want.tobytes()


def test_builtin_sigma_gradient_holder_exponent():
    """Difference quotients of the gradient: bounded at delta, unbounded
    just above."""
    delta = 0.4
    sigma = builtin_holder_sigma(delta)

    def g(v):
        return sigma(np.array([[v]]))[0, 0, 0]

    def quotient(x, expo):
        h = x / 64
        d_at_x = (g(x + h) - g(x - h)) / (2.0 * h)
        d_at_0 = (g(h) - g(-h)) / (2.0 * h)
        return abs(d_at_x - d_at_0) / x ** expo

    xs = [2.0 ** -k for k in range(2, 27, 4)]
    at_delta = [quotient(x, delta) for x in xs]
    above = [quotient(x, delta + 0.05) for x in xs]
    assert max(at_delta) / min(at_delta) < 1.5
    assert above[-1] / above[0] > 2.0


def test_verify_norm_bounds():
    ok = verify_norm_bounds(constant_pair(2.0))
    assert ok == {"drift": True, "diffusion": True}
    # None bounds are vacuously fine
    assert verify_norm_bounds(geometric_pair()) == {"drift": True,
                                                    "diffusion": True}
    lying = CoefficientPair(drift=lambda x: np.sin(x),
                            diffusion=lambda x: np.eye(1), dim=1,
                            drift_bound=0.5)
    assert verify_norm_bounds(lying)["drift"] is False
    # d = 2: every sample point in one call per shift, both coordinates shifted
    assert verify_norm_bounds(holder_pair(0.3, dim=2, drift_strength=0.25)) == {
        "drift": True, "diffusion": True}
    # sup|f| = 0.2, but the x_2-derivative of f_1 reaches 0.8
    steep = CoefficientPair(drift=lambda x: 0.2 * np.sin(4.0 * x[..., ::-1]) * [1.0, 0.0],
                            diffusion=holder_pair(0.3, dim=2).diffusion, dim=2,
                            drift_bound=0.5)
    assert verify_norm_bounds(steep)["drift"] is False


def test_holder_pair_metadata():
    for strength in (0.25, -1.0):
        pair = holder_pair(0.3, drift_strength=strength)
        assert pair.grad_holder_delta == 0.3
        assert "holder(delta=0.3" in pair.name
        # sup|f| + sup|f'| of -s tanh(x) is 2|s|
        assert pair.drift_bound == 2.0 * abs(strength)
        checked = verify_norm_bounds(pair)
        assert checked["drift"] and checked["diffusion"]


def test_bounded_drift_shape():
    d = bounded_drift(0.5)
    out = d(np.array([10.0, -10.0]))
    np.testing.assert_allclose(out, [-0.5, 0.5], atol=1e-6)


def test_constant_pair_validation():
    with pytest.raises(DomainError):
        constant_pair(np.eye(3), dim=2)


# ---------------------------------------------------------------------------
# uniqueness probe


def test_probe_validation():
    with pytest.raises(ConfigurationError):
        uniqueness_probe(0.75, 0.3, mesh_levels=(8,), scales=(0.25, 0.125))
    with pytest.raises(ConfigurationError):
        uniqueness_probe(0.75, 0.3, mesh_levels=(8, 7), scales=(0.25, 0.125))
    with pytest.raises(ConfigurationError):
        uniqueness_probe(0.75, 0.3, mesh_levels=(7, 8), scales=(0.125, 0.25))
    with pytest.raises(ConfigurationError):
        uniqueness_probe(0.75, 0.3, mesh_levels=(7, 8), scales=(0.25, -0.1))
    with pytest.raises(ConfigurationError):
        uniqueness_probe(0.75, 0.3, mesh_levels=(7, 8), scales=(0.25, 0.125),
                         replicas=0)
    slow = CoefficientPair(drift=lambda x: np.zeros_like(x),
                           diffusion=lambda x: np.eye(1), dim=1)
    with pytest.raises(CapabilityError):
        uniqueness_probe(0.75, 0.3, coeffs=slow, mesh_levels=(7, 8),
                         scales=(0.25, 0.125))


def test_probe_rejects_levels_below_one():
    for bad in ((0, 1), (-2, -1, 3)):
        with pytest.raises(ConfigurationError, match="at least 1"):
            uniqueness_probe(0.75, 0.3, mesh_levels=bad, scales=(0.25, 0.125))


def test_probe_rejects_hurst_below_one_half_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the hurst check")
    monkeypatch.setattr(fsde, "sample_fbm", no_sampling)
    with pytest.raises(DomainError, match="1/2, 1"):
        uniqueness_probe(0.4, 0.3, mesh_levels=(5, 6), scales=(0.25, 0.125),
                         replicas=2)


def test_probe_constant_coefficients_collapse():
    """Mollification is exact and refinement is exact: all cells coincide."""
    rep = uniqueness_probe(0.75, 0.3, coeffs=constant_pair(1.0),
                           mesh_levels=(5, 6, 7), scales=(0.25, 0.125, 0.0625),
                           replicas=3, seed=5)
    assert float(np.max(rep.pair_table[:, 5])) <= 1e-12
    assert rep.max_final_distance <= 1e-12


def test_probe_shapes_and_determinism():
    kw = dict(mesh_levels=(5, 6, 7, 8),
              scales=(0.25, 0.125, 0.0625, 0.03125), replicas=3, seed=11)
    rep = uniqueness_probe(0.75, 0.4, **kw)
    # 16 cells -> 120 unordered pairs x 3 replicas
    assert rep.pair_table.shape == (360, 6)
    assert rep.diag_distances.shape == (3,)
    assert rep.diag_levels == (5, 6, 7, 8)
    assert rep.thresholds == delta_thresholds(0.75)
    assert rep.max_final_distance == rep.diag_distances[-1]
    assert rep.plateau_free is not None

    again = uniqueness_probe(0.75, 0.4, **kw)
    assert np.array_equal(rep.pair_table, again.pair_table)
    assert np.array_equal(rep.diag_distances, again.diag_distances)


def _probe_reference(coeffs, hurst, levels, scales, replicas, seed, x0=0.1):
    """The probe's cells one at a time: one unstacked _batched_euler run per
    (level, scale) with that scale's own mollified pair."""
    d, finest = coeffs.dim, levels[-1]
    drivers = [sample_fbm(FbmConfig(hurst=hurst, grid_n=2 ** finest,
                                    seed=split_seed(seed, r), dim=d))
               for r in range(replicas)]
    stack = np.stack([p.values.reshape(p.grid_n + 1, d) for p in drivers], axis=1)
    times = drivers[0].times
    trajs = {}
    for lev in levels:
        stride = 2 ** (finest - lev)
        for sc in scales:
            pair = replace(coeffs, diffusion=mollify_coefficient(coeffs.diffusion, sc, dim=d))
            trajs[lev, sc] = _batched_euler(pair, np.full((replicas, d), x0),
                                            np.diff(times[::stride]),
                                            np.diff(stack[::stride], axis=0))

    def sup(a, b):
        fine = trajs[b][:: 2 ** (b[0] - a[0])]
        diff = trajs[a] - fine
        return np.max(np.sqrt(np.sum(diff * diff, axis=-1)), axis=0)

    cells = [(lev, sc) for lev in levels for sc in scales]
    rows = []
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            dist = sup(a, b)
            rows.extend((float(r), float(a[0]), a[1], float(b[0]), b[1], float(dist[r]))
                        for r in range(replicas))
    diag = list(zip(levels, scales))
    diag_d = np.array([float(np.max(sup(c, diag[-1]))) for c in diag[:-1]])
    return np.array(rows, dtype=float), diag_d


@pytest.mark.parametrize("coeffs", [
    holder_pair(0.3, drift_strength=0.5),
    constant_pair([[1.0, 0.3], [-0.2, 0.8]], dim=2),
], ids=["holder-d1", "constant-d2"])
def test_probe_stacked_scales_match_unstacked_cells_bitwise(coeffs):
    levels, scales = (5, 6, 7), (0.25, 0.125, 0.0625)
    rep = uniqueness_probe(0.75, 0.3, coeffs=coeffs, mesh_levels=levels,
                           scales=scales, replicas=3, seed=8)
    table, diag_d = _probe_reference(coeffs, 0.75, levels, scales, 3, 8)
    assert np.array_equal(rep.pair_table, table)
    assert np.array_equal(rep.diag_distances, diag_d)


def test_probe_calls_sigma_once_per_scale_and_step():
    calls = []
    base = holder_pair(0.3)

    def counting(x):
        calls.append(np.shape(x))
        return base.diffusion(x)

    levels, scales, replicas = (4, 5, 6), (0.25, 0.125), 3
    uniqueness_probe(0.75, 0.3, coeffs=replace(base, diffusion=counting),
                     mesh_levels=levels, scales=scales, replicas=replicas, seed=2)
    assert len(calls) == len(scales) * sum(2 ** lev for lev in levels)
    # each call sees one scale's (replicas, d) state, spread over the nodes
    assert set(calls) == {(replicas, 32, 1)}


def test_probe_and_pair_accept_numpy_integers():
    kw = dict(mesh_levels=(4, 5), scales=(0.25, 0.125), seed=3)
    a = uniqueness_probe(0.75, 0.3, replicas=np.int64(2), **kw)
    b = uniqueness_probe(0.75, 0.3, replicas=2, **kw)
    assert np.array_equal(a.pair_table, b.pair_table)
    assert type(a.replicas) is int
    for bad in (True, 2.0, np.int64(0)):
        with pytest.raises(ConfigurationError):
            uniqueness_probe(0.75, 0.3, replicas=bad, **kw)
    pair = CoefficientPair(drift=lambda x: x, diffusion=lambda x: x,
                           dim=np.int64(2))
    assert pair.dim == 2 and type(pair.dim) is int
    for bad in (True, 1.0, np.int64(0)):
        with pytest.raises(ConfigurationError):
            CoefficientPair(drift=lambda x: x, diffusion=lambda x: x, dim=bad)


def test_work_counts_match_the_benchmark_formulas(monkeypatch):
    """The benchmark expects scales x steps mollified-sigma calls and one
    Euler step per partition interval; a change that folds either count
    fails here first."""
    calls = []
    mollify = fsde.mollify_coefficient

    def counting_mollify(fn, scale, dim=1):
        smooth = mollify(fn, scale, dim=dim)

        def counted(x):
            calls.append(scale)
            return smooth(x)
        return counted

    monkeypatch.setattr(fsde, "mollify_coefficient", counting_mollify)
    uniqueness_probe(0.75, 0.25, mesh_levels=(3, 4, 5),
                     scales=(0.25, 0.125, 0.0625), replicas=2, seed=1)
    assert len(calls) == 3 * (8 + 16 + 32)
    part = dyadic_partition(1.0, 5)
    sol = young_euler_solve(geometric_pair(), 0.1, _driver(n=2 ** 5), part)
    assert sol.step_count == part.n_intervals == sol.values.size - 1 == 32
