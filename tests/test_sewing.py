import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracsew.sewing
from fracsew import (
    AlignmentError,
    CapabilityError,
    ConfigurationError,
    DomainError,
    FbmConfig,
    FbmPath,
    Partition,
    RegimeWarning,
    SeedSpec,
    SewingExponents,
    coarsen,
    constant_pair,
    cumulative_local_time,
    delta_germ,
    dyadic_partition,
    estimate_convergence_rate,
    get_integrand,
    ito_germ,
    local_time_curve,
    riemann_sum,
    sample_fbm,
    uniform_partition,
    upcrossing_excess_sum,
    young_euler_solve,
)
from fracsew.cli import _resolve_germ
from fracsew.fsde import SolutionPath
from fracsew.local_time import CumulativeCurve, LocalTimeCurve
from fracsew.sewing import Germ


# ---------------------------------------------------------------------------
# partitions


def test_uniform_partition_quarters():
    p = uniform_partition(1.0, 4)
    np.testing.assert_array_equal(p.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert p.mesh == 0.25
    assert p.min_gap == 0.25
    assert p.n_intervals == 4


def test_dyadic_partition_mesh():
    p = dyadic_partition(2.0, 3)
    assert p.n_intervals == 8
    assert p.mesh == pytest.approx(2.0 * 2.0 ** -3)


def test_partition_sizes_accept_numpy_integers():
    assert dyadic_partition(1.0, np.int64(3)) == dyadic_partition(1.0, 3)
    assert uniform_partition(1.0, np.int32(5)) == uniform_partition(1.0, 5)
    for bad in (True, 3.0, -1, 31):
        with pytest.raises(ConfigurationError):
            dyadic_partition(1.0, bad)
    for bad in (False, 5.0, np.int64(0)):
        with pytest.raises(ConfigurationError):
            uniform_partition(1.0, bad)


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition(np.array([0.1, 0.5, 1.0]))  # must start at 0
    with pytest.raises(DomainError):
        Partition(np.array([0.0, 0.5, 0.5, 1.0]))  # strictly increasing
    with pytest.raises(DomainError):
        Partition(np.array([0.0]))


def test_partition_equality_and_hash():
    a = uniform_partition(1.0, 4)
    b = Partition(np.array([-0.0, 0.25, 0.5, 0.75, 1.0]))
    assert a == b
    assert hash(a) == hash(b)
    assert a != uniform_partition(1.0, 8)
    assert a != Partition(np.array([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]))
    assert a != (0.0, 0.25, 0.5, 0.75, 1.0)
    assert len({a, b, uniform_partition(1.0, 8)}) == 2


def test_refines_requires_same_horizon():
    assert not uniform_partition(2.0, 4).refines(uniform_partition(1.0, 2))
    p = uniform_partition(1.0, 2)
    q = Partition(np.array([0.0, 0.3, 0.5, 1.0]))
    assert q.refines(p)
    assert not p.refines(q)


# ---------------------------------------------------------------------------
# coarsening


def _coarsen_reference(points: np.ndarray) -> np.ndarray:
    """Transcription of the greedy merge, scalar and unoptimized."""
    mesh = np.diff(points).max()
    n = len(points) - 1
    kept = [0]
    k = 0
    while True:
        j = k + 1
        while j <= n and points[j] - points[k] < mesh:
            j += 1
        if j > n:
            break
        # would the following point be forced onto the horizon?
        jn = j + 1
        while jn <= n and points[jn] - points[j] < mesh:
            jn += 1
        if jn > n:
            break
        kept.append(j)
        k = j
    return np.append(points[kept], points[n])


def test_coarsen_uniform_is_identity():
    p = uniform_partition(1.0, 8)
    np.testing.assert_array_equal(coarsen(p).breakpoints, p.breakpoints)


def test_coarsen_two_points_identity():
    p = Partition(np.array([0.0, 0.7]))
    np.testing.assert_array_equal(coarsen(p).breakpoints, [0.0, 0.7])


def test_coarsen_tail_merge():
    p = Partition(np.array([0.0, 1.0, 1.5, 1.6]))
    np.testing.assert_array_equal(coarsen(p).breakpoints, [0.0, 1.6])


def test_coarsen_matches_reference_and_postconditions():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        n = int(rng.integers(2, 120))
        # interval lengths spanning several orders of magnitude
        gaps = 10.0 ** rng.uniform(-4.0, 0.0, size=n)
        pts = np.concatenate([[0.0], np.cumsum(gaps)])
        p = Partition(pts)
        out = coarsen(p)
        np.testing.assert_array_equal(out.breakpoints, _coarsen_reference(pts))
        assert p.refines(out)
        assert out.mesh <= 3.0 * p.mesh * (1 + 1e-12)
        assert out.min_gap * (1 + 1e-12) >= out.mesh / 3.0


# ---------------------------------------------------------------------------
# germs, sums, defects


def _bm_path(seed=0, n=256):
    return sample_fbm(FbmConfig(hurst=0.5, grid_n=n, seed=seed))


def _increment_germ():
    return Germ(name="increment", batch=lambda dt, bs, bt: bt - bs)


def test_riemann_sum_telescopes_for_additive_germ():
    path = _bm_path(seed=8)
    germ = _increment_germ()
    total = path.values[-1] - path.values[0]
    for n in (1, 4, 64, 256):
        s = riemann_sum(germ, path, uniform_partition(1.0, n))
        assert s == pytest.approx(total, rel=1e-12, abs=1e-14)
    # an irregular grid-aligned partition telescopes too
    ragged = Partition(path.times[[0, 3, 17, 100, 101, 256]])
    assert riemann_sum(germ, path, ragged) == pytest.approx(total, rel=1e-12)


def test_riemann_sum_needs_one_value_per_interval():
    """A scalar integrand's germ on a vector path returns a value per
    component, and a constant germ one value in all: both are rejected."""
    vector = sample_fbm(FbmConfig(hurst=0.75, grid_n=8, seed=1, dim=2))
    with pytest.raises(CapabilityError, match="shape"):
        riemann_sum(ito_germ(get_integrand("sign")), vector, uniform_partition(1.0, 8))
    with pytest.raises(CapabilityError, match="shape"):
        riemann_sum(Germ("one", lambda dt, bs, bt: 1.0), _bm_path(n=8),
                    uniform_partition(1.0, 4))


def test_riemann_sum_alignment_error():
    path = _bm_path(n=256)
    with pytest.raises(AlignmentError):
        riemann_sum(_increment_germ(), path, uniform_partition(1.0, 3))


def test_delta_germ_zero_for_additive():
    path = _bm_path(seed=2)
    d = delta_germ(_increment_germ(), path, 0.25, 0.5, 0.75)
    assert d == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        delta_germ(_increment_germ(), path, 0.5, 0.5, 0.75)


def test_riemann_sum_passes_grid_indices(lookups):
    """Germs receive (t - s, B_s, B_t) read at the breakpoints' grid indices
    i = idx[:-1] and j = idx[1:], after one lookup per (grid, partition):
    a read-only dt equal to times[j] - times[i], kept between calls."""
    path = _bm_path(seed=4)
    seen = []

    def batch(dt, bs, bt):
        seen.append((dt, bs, bt))
        return bt - bs

    part = Partition(path.times[[0, 3, 17, 100, 101, 256]])
    germ = Germ(name="rec", batch=batch)
    totals = [riemann_sum(germ, path, part) for _ in range(2)]
    assert len(lookups) == 1
    i, j = [0, 3, 17, 100, 101], [3, 17, 100, 101, 256]
    for dt, bs, bt in seen:
        assert not dt.flags.writeable
        assert dt.tobytes() == (path.times[j] - path.times[i]).tobytes()
        assert bs.tobytes() == path.values[i].tobytes()
        assert bt.tobytes() == path.values[j].tobytes()
    assert seen[0][0] is seen[1][0]
    assert totals[0] == totals[1]
    assert totals[0] == pytest.approx(path.values[-1] - path.values[0], rel=1e-12)


_BUILTIN_GERMS = ["ito:identity", "ito:sign", "ito:sin_prime",
                  "ito:abs_pow:0.5", "ito:indicator_pos", "strat:identity",
                  "strat:sign", "strat:abs_pow:0.3", "variation", "upcross",
                  "additive"]


@pytest.mark.parametrize("spec", _BUILTIN_GERMS)
def test_builtin_germs_broadcast_like_an_elementwise_loop(spec):
    """Every germ the CLI builds is a function of broadcastable (dt, bs, bt):
    a scalar dt, bs of shape (k, 1) and bt of shape (1, k) give the (k, k)
    table of the germ on every pair, bit for bit."""
    germ = _resolve_germ({"germ": spec, "hurst": 0.3, "p": 1.7, "a": 0.1,
                          "gamma": 0.5})
    k, dt = 9, 0.125
    rng = np.random.default_rng(7)
    bs = np.concatenate([[0.1, 0.0], rng.standard_normal(k - 2)])[:, None]
    bt = np.concatenate([[0.1, -0.0], rng.standard_normal(k - 2)])[None, :]
    got = np.broadcast_to(germ.evaluate_batch(dt, bs, bt), (k, k))
    want = np.array([[germ.evaluate_batch(np.array([dt]), bs[r], bt[:, c])[0]
                      for c in range(k)] for r in range(k)])
    assert got.tobytes() == want.tobytes()


def test_evaluate_and_delta_germ_resolve_times():
    path = _bm_path(seed=6)
    germ = _increment_germ()
    with pytest.raises(AlignmentError):
        delta_germ(germ, path, 0.25, 0.3, 0.75)
    with pytest.raises(DomainError):
        delta_germ(germ, path, 0.25, 0.75, 0.5)
    # distinct times within the grid tolerance resolve to one grid point
    with pytest.raises(DomainError):
        delta_germ(germ, path, 0.25, 0.25 + 1e-12, 0.5)
    with pytest.raises(AlignmentError):
        riemann_sum(germ, path, Partition([0.0, 0.25, 0.25 + 1e-12, 1.0]))


@pytest.mark.parametrize("consumer", [
    lambda path, part: upcrossing_excess_sum(path, part, 0.0),
    lambda path, part: local_time_curve(path, part, "upcross", [-1.0, 0.0, 1.0]),
    lambda path, part: cumulative_local_time(path, part, 0.0),
    lambda path, part: young_euler_solve(constant_pair(1.0), 0.0, path, part),
], ids=["upcrossing_excess_sum", "local_time_curve", "cumulative_local_time",
        "young_euler_solve"])
def test_breakpoints_on_one_grid_point_are_rejected(consumer):
    """The partition consumers besides riemann_sum reject two breakpoints
    that round to the same grid point, as riemann_sum does, instead of
    using an empty interval."""
    path = sample_fbm(FbmConfig(hurst=0.75, grid_n=8, seed=0))
    with pytest.raises(AlignmentError, match="same grid point"):
        consumer(path, Partition([0.0, 0.25, 0.25 + 1e-12, 0.5, 1.0]))


# ---------------------------------------------------------------------------
# one index lookup per (grid, partition)


@pytest.fixture
def lookups(monkeypatch):
    """Counts the calls of FbmPath.indices_of."""
    calls = []
    original = FbmPath.indices_of

    def counted(self, t):
        calls.append(self)
        return original(self, t)

    monkeypatch.setattr(FbmPath, "indices_of", counted)
    return calls


def _uncached_sum(germ, path, partition):
    idx = path.indices_of(partition.breakpoints)
    i, j = idx[:-1], idx[1:]
    values = germ.evaluate_batch(path.times[j] - path.times[i],
                                 path.values[i], path.values[j])
    return math.fsum(values.tolist())


def test_riemann_sum_on_shared_grid_matches_uncached_reference(lookups):
    """Two paths of one configuration share their grid: every partition is
    looked up once, and the sums equal the uncached reference bit for bit,
    whether the partition is new (cold) or already mapped (warm)."""
    config = FbmConfig(hurst=0.75, grid_n=2 ** 8)
    paths = [sample_fbm(replace(config, seed=s)) for s in (3, 4)]
    germ = ito_germ(get_integrand("sign"), 0.75)
    levels = (2, 5, 8)
    want = [[_uncached_sum(germ, p, dyadic_partition(1.0, l)) for l in levels]
            for p in paths]
    del lookups[:]
    for first in (0, 1):
        parts = [dyadic_partition(1.0, l) for l in levels]
        order = (first, 1 - first)
        for rep in range(2):
            for k in order:
                got = [riemann_sum(germ, paths[k], part) for part in parts]
                assert got == want[k]
    assert len(lookups) == 2 * len(levels)


def test_riemann_sum_above_the_fsum_crossover_matches_fsum():
    """Sums of 2^9 to 2^12 intervals take the vectorized exact summation;
    each equals math.fsum of the germ values bit for bit."""
    config = FbmConfig(hurst=0.75, grid_n=2 ** 12)
    germs = [ito_germ(get_integrand("sign"), 0.75),
             ito_germ(get_integrand("identity"), 0.75),
             Germ("spread", lambda dt, bs, bt: (bt - bs)
                  * 10.0 ** (40.0 * np.sin(1e3 * bs)))]
    for seed in (1, 2):
        path = sample_fbm(replace(config, seed=seed))
        for germ in germs:
            for level in (9, 10, 11, 12):
                part = dyadic_partition(1.0, level)
                want = _uncached_sum(germ, path, part)
                got = riemann_sum(germ, path, part)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_equal_partitions_give_equal_sums(lookups):
    path = _bm_path(seed=5)
    germ = ito_germ(get_integrand("sign"), 0.5)
    a = dyadic_partition(1.0, 6)
    b = Partition(a.breakpoints.copy())
    assert a == b and a is not b
    sums = [riemann_sum(germ, path, part) for part in (a, b, a, b)]
    assert sums == [sums[0]] * 4
    assert len(lookups) == 2


def test_alignment_error_is_raised_on_every_call(lookups):
    path = _bm_path(n=8)
    part = Partition([0.0, 0.25, 0.25 + 1e-12, 0.5, 1.0])
    for _ in range(2):
        with pytest.raises(AlignmentError, match="same grid point"):
            riemann_sum(_increment_germ(), path, part)
    assert len(lookups) == 2


def test_rate_harness_looks_each_level_up_once(lookups):
    levels = range(2, 7)
    estimate_convergence_rate(ito_germ(get_integrand("sign"), 0.75),
                              FbmConfig(hurst=0.75, grid_n=2 ** 6, seed=1),
                              levels, replicas=20)
    assert len(lookups) == len(levels)


def test_sampled_times_are_one_read_only_grid():
    config = FbmConfig(hurst=0.3, grid_n=64)
    a, b = (sample_fbm(replace(config, seed=s)) for s in (0, 1))
    assert a.times is b.times is config.times()
    for arr in (a.times, a.values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[1] = 0.5


def test_hand_built_path_holds_read_only_copies(lookups):
    """A path built from writable arrays holds frozen copies, so changing
    the arrays it was built from changes neither the path nor its sums."""
    times = np.linspace(0.0, 1.0, 9)
    values = np.sin(3.0 * times)
    path = FbmPath(hurst=0.5, times=times, values=values, var0=0.0,
                   method="synthetic", seed=SeedSpec(0))
    assert path.times is not times and path.values is not values
    assert not path.times.flags.writeable and not path.values.flags.writeable
    part = uniform_partition(1.0, 4)
    germ = _increment_germ()
    before = riemann_sum(germ, path, part)
    times *= 2.0
    values[:] = 0.0
    assert riemann_sum(germ, path, part) == before == _uncached_sum(germ, path, part)
    np.testing.assert_array_equal(path.times, np.linspace(0.0, 1.0, 9))
    assert len(lookups) == 2


def _solution_path(a, b):
    return SolutionPath(times=a, values=b, dim=1, step_count=4)


def _curve_from_levels(a, b):
    path = sample_fbm(FbmConfig(hurst=0.3, grid_n=8, seed=0))
    return local_time_curve(path, uniform_partition(1.0, 8), "upcross", a)


@pytest.mark.parametrize("build, fields", [
    (_solution_path, ("times", "values")),
    (lambda a, b: LocalTimeCurve(a, b, "x", 0.3, 4, 1.0, True),
     ("levels", "values")),
    (lambda a, b: CumulativeCurve(a, b, 0.0, "x", 0.3), ("times", "values")),
    (_curve_from_levels, ("levels",)),
], ids=["SolutionPath", "LocalTimeCurve", "CumulativeCurve", "local_time_curve"])
def test_result_types_freeze_copies_not_the_callers_arrays(build, fields):
    """A result built from writable arrays stores read-only copies and
    leaves the caller's arrays writable."""
    given = (np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
    result = build(*given)
    for name, arr in zip(fields, given):
        stored = getattr(result, name)
        assert arr.flags.writeable
        assert not stored.flags.writeable
        assert stored is not arr


def test_delta_germ_square_increment():
    # A(s,t) = (B_t - B_s)^2 has defect (x+y)^2 - x^2 - y^2 = 2xy
    path = _bm_path(seed=3)
    sq = Germ(name="sq", batch=lambda dt, bs, bt: (bt - bs) ** 2)
    s, u, t = 0.25, 0.5, 0.75
    bs, bu, bt = path.values[path.indices_of([s, u, t])]
    want = 2.0 * ((bu - bs) * (bt - bu))
    assert delta_germ(sq, path, s, u, t) == pytest.approx(want, rel=1e-12)


def test_refinement_telescoping_identity():
    """Sum over a coarser partition minus the refined sum telescopes into
    point-insertion defects, exactly in exact arithmetic and to roundoff
    here."""
    path = _bm_path(seed=5)
    sq = Germ(name="sq",
              batch=lambda dt, bs, bt: (bt - bs) ** 2)
    coarse = uniform_partition(1.0, 4)
    fine = Partition(np.array([0.0, 0.125, 0.25, 0.3125, 0.5, 0.75, 1.0]))
    lhs = riemann_sum(sq, path, coarse) - riemann_sum(sq, path, fine)
    # insert the two points one at a time; each insertion contributes one defect
    step1 = Partition(np.array([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]))
    defects = (delta_germ(sq, path, 0.0, 0.125, 0.25)
               + delta_germ(sq, path, 0.25, 0.3125, 0.5))
    assert lhs == pytest.approx(defects, rel=1e-10, abs=1e-13)
    assert fine.refines(step1)


# ---------------------------------------------------------------------------
# exponents


def test_exponents_accept_good_tuple():
    SewingExponents(alpha=0.75, beta1=1.5, beta2=0.75, m=2.0).validate()


def test_exponents_collect_each_violation():
    with pytest.raises(ConfigurationError, match="beta1 must exceed 1"):
        SewingExponents(alpha=0.1, beta1=0.9, beta2=0.75, m=2.0).validate()
    with pytest.raises(ConfigurationError, match="beta2 must exceed 1/2"):
        SewingExponents(alpha=0.1, beta1=1.5, beta2=0.4, m=2.0).validate()
    with pytest.raises(ConfigurationError, match="beta1 - alpha"):
        SewingExponents(alpha=1.2, beta1=1.5, beta2=0.75, m=2.0).validate()
    with pytest.raises(ConfigurationError, match="m must be"):
        SewingExponents(alpha=0.1, beta1=1.5, beta2=0.75, m=0.5).validate()
    # a doubly-bad tuple reports both problems
    with pytest.raises(ConfigurationError, match="beta1 must exceed 1.*beta2 must exceed"):
        SewingExponents(alpha=0.1, beta1=0.9, beta2=0.1, m=2.0).validate()


# ---------------------------------------------------------------------------
# rate estimation


def test_rate_deterministic_power_germ():
    """Riemann sums of (t-s)^1.3 are mesh^0.3 exactly, so consecutive
    differences are an exact power law and the fit recovers 0.3 to
    rounding."""
    germ = Germ(name="pow13",
                batch=lambda dt, bs, bt: dt ** 1.3)
    res = estimate_convergence_rate(
        germ, FbmConfig(hurst=0.5, grid_n=2 ** 16, seed=3),
        levels=range(2, 17), replicas=2)
    assert not res.exact
    assert res.epsilon_hat == pytest.approx(0.3, abs=1e-9)
    assert res.r_squared == pytest.approx(1.0, abs=1e-9)
    # the sums themselves follow the exact power law, which is the real claim
    sums = np.array([d.value for d in res.lm_distances])
    meshes = res.meshes
    level_sums = meshes ** 0.3  # riemann sum at each level, horizon 1
    np.testing.assert_allclose(sums[:-1],
                               level_sums[:-1] - level_sums[-1], rtol=1e-10)


def test_rate_additive_germ_exact():
    germ = Germ(name="inc",
                batch=lambda dt, bs, bt: bt - bs)
    res = estimate_convergence_rate(
        germ, FbmConfig(hurst=0.3, grid_n=2 ** 8, seed=1),
        levels=(4, 5, 6, 7, 8), replicas=4)
    assert res.exact
    assert res.epsilon_hat == math.inf
    assert all(d.value < 1e-12 for d in res.lm_distances)


def test_rate_squared_increment_brownian():
    """Squared-increment sums at H=1/2 are chi-square with L2 distance
    proportional to sqrt(mesh)."""
    sq = Germ(name="sq",
              batch=lambda dt, bs, bt: (bt - bs) ** 2)
    res = estimate_convergence_rate(
        sq, FbmConfig(hurst=0.5, grid_n=2 ** 9, seed=21),
        levels=(4, 5, 6, 7, 8, 9), replicas=64)
    assert res.epsilon_hat == pytest.approx(0.5, abs=0.1)
    assert res.limit_estimate.value == pytest.approx(1.0, abs=0.05)


def test_rate_scaling_invariance():
    base = Germ(name="pow",
                batch=lambda dt, bs, bt: dt ** 1.4)
    scaled = Germ(name="pow7x",
                  batch=lambda dt, bs, bt: 7.0 * dt ** 1.4)
    cfg = FbmConfig(hurst=0.5, grid_n=2 ** 8, seed=6)
    a = estimate_convergence_rate(base, cfg, levels=(3, 4, 5, 6, 7, 8), replicas=3)
    b = estimate_convergence_rate(scaled, cfg, levels=(3, 4, 5, 6, 7, 8), replicas=3)
    assert b.epsilon_hat == pytest.approx(a.epsilon_hat, rel=1e-9)
    for da, db in zip(a.lm_distances, b.lm_distances):
        assert db.value == pytest.approx(7.0 * da.value, rel=1e-12)


def test_rate_threading_is_deterministic():
    germ = Germ(name="sq",
                batch=lambda dt, bs, bt: (bt - bs) ** 2)
    cfg = FbmConfig(hurst=0.7, grid_n=2 ** 7, seed=13)
    one = estimate_convergence_rate(germ, cfg, levels=(3, 4, 5, 6, 7), replicas=8)
    two = estimate_convergence_rate(germ, cfg, levels=(3, 4, 5, 6, 7), replicas=8)
    assert one.epsilon_hat == two.epsilon_hat
    for da, db in zip(one.lm_distances, two.lm_distances):
        assert da.value == db.value


def test_rate_warns_only_when_declared_exponents_fail():
    sign = get_integrand("sign")
    with pytest.warns(RegimeWarning, match="beta1 must exceed 1"):
        estimate_convergence_rate(ito_germ(sign, hurst=0.3),
                                  FbmConfig(hurst=0.3, grid_n=2 ** 6, seed=0),
                                  levels=(3, 4, 5, 6), replicas=4)
    # c05's germ, hurst index and levels: the left-point exponents hold at H = 0.75
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        estimate_convergence_rate(ito_germ(sign, hurst=0.75),
                                  FbmConfig(hurst=0.75, grid_n=2 ** 12, seed=0),
                                  levels=range(6, 13), replicas=4)


def test_rate_rejects_m_below_one_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the m check")
    monkeypatch.setattr(fracsew.sewing, "sample_fbm", no_sampling)
    with pytest.raises(DomainError, match="m must be >= 1"):
        estimate_convergence_rate(ito_germ(get_integrand("sign"), 0.75),
                                  FbmConfig(hurst=0.75, grid_n=2 ** 12, seed=0),
                                  levels=range(6, 13), m=0.5, replicas=200)


def test_rate_validation():
    germ = Germ(name="g", batch=lambda dt, bs, bt: dt)
    cfg = FbmConfig(hurst=0.5, grid_n=2 ** 6, seed=0)
    with pytest.raises(ConfigurationError):
        estimate_convergence_rate(germ, cfg, levels=(3, 4, 5), replicas=4)
    with pytest.raises(ConfigurationError):
        estimate_convergence_rate(germ, cfg, levels=(5, 4, 3, 2), replicas=4)
    with pytest.raises(ConfigurationError):
        estimate_convergence_rate(germ, cfg, levels=(3, 4, 5, 7), replicas=1)
    with pytest.raises(ConfigurationError):
        # grid too small for the finest level
        estimate_convergence_rate(germ, cfg, levels=(4, 5, 6, 7), replicas=4)
    for bad in (True, 4.0, np.int64(1)):
        with pytest.raises(ConfigurationError):
            estimate_convergence_rate(germ, cfg, levels=(3, 4, 5, 6), replicas=bad)
    a = estimate_convergence_rate(germ, cfg, levels=(3, 4, 5, 6), replicas=np.int64(4))
    b = estimate_convergence_rate(germ, cfg, levels=(3, 4, 5, 6), replicas=4)
    assert a.epsilon_hat == b.epsilon_hat and a.exact == b.exact


@given(st.integers(0, 2 ** 32), st.integers(2, 40))
@settings(max_examples=25, deadline=None)
def test_coarsen_property_random(seed, n):
    rng = np.random.default_rng(seed)
    gaps = 10.0 ** rng.uniform(-3.0, 0.0, size=n)
    p = Partition(np.concatenate([[0.0], np.cumsum(gaps)]))
    out = coarsen(p)
    assert p.refines(out)
    assert out.mesh <= 3.0 * p.mesh * (1 + 1e-12)
    assert out.min_gap * (1 + 1e-12) >= out.mesh / 3.0
