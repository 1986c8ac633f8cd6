"""End-to-end checks for the package's quantitative guarantees.

Each test exercises one guarantee at its stated tolerance and prints one
``ACCEPTANCE cNN <name>: PASS|FAIL`` line (run pytest with ``-s`` to see the
lines for passing tests too).  Statistical checks use fixed seeds and
tolerances wide enough to be reliable at those seeds; the margins were
calibrated against the central-limit error of each quantity.
"""
import functools
import math
import os

import numpy as np
import pytest

from fracsew import (
    FbmConfig,
    Partition,
    c_h,
    chain_rule_oracle,
    coarsen,
    conditional_ito_oracle,
    conditional_mc_check,
    crossing_count_estimator,
    default_bandwidth,
    default_level_grid,
    delta_thresholds,
    dyadic_partition,
    estimate_convergence_rate,
    fbm_cov,
    frak_c,
    geometric_pair,
    get_integrand,
    ito_germ,
    kernel_correlation,
    local_time_curve,
    occupation_density_estimator,
    sample_fbm,
    stratonovich_trapezoid_sum,
    uniform_partition,
    uniqueness_probe,
    upcrossing_excess_sum,
    upcrossing_sum,
    validate_m_condition,
    variation_germ,
    variation_reference,
    variation_sum,
    young_euler_solve,
)
from fracsew.cli import main as cli_main


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    note = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE c{num:02d} {name}: {'PASS' if ok else 'FAIL'}{note}")
    assert ok, f"acceptance check c{num:02d} ({name}) failed"


# ---------------------------------------------------------------------------


def test_c01_sampler_covariance():
    """Empirical covariance of both samplers matches the closed form
    entrywise within 5 standard errors (H in {0.1,...,0.9}, 2e4 paths)."""
    grid_n = 2 ** 8
    n_paths = 20_000
    chunk = 200
    worst = 0.0
    for hurst in (0.1, 0.3, 0.5, 0.7, 0.9):
        tt = FbmConfig(hurst=hurst, grid_n=grid_n, seed=0).times()[1:]
        cov = fbm_cov(tt[:, None], tt[None, :], hurst)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2)
                     / n_paths)
        for method in ("cholesky", "circulant"):
            blocks = []
            for i in range(n_paths // chunk):
                cfg = FbmConfig(hurst=hurst, grid_n=grid_n,
                                seed=100_000 + i, dim=chunk)
                blocks.append(sample_fbm(cfg, method=method).values[1:, :].T)
            v = np.vstack(blocks)
            emp = v.T @ v / n_paths
            worst = max(worst, float(np.max(np.abs(emp - cov) / se)))
    _report(1, "sampler covariance", worst <= 5.0)


def test_c02_conditional_correlation_remainder():
    """The kernel-correlation remainder is second order in the increment:
    |remainder| * (s-v)^(2-2H) / (t-s)^2 stays within a factor 3 band."""
    v, s = 0.25, 0.75
    ok = True
    for hurst in (0.3, 0.7):
        ratios = []
        for k in range(3, 11):
            t = s + 0.5 * 2.0 ** -k
            res = kernel_correlation(v, s, t, hurst)
            ratios.append(abs(res.remainder) * (s - v) ** (2.0 - 2.0 * hurst)
                          / (t - s) ** 2)
        ratios = np.array(ratios)
        ok = ok and float(ratios.max() / ratios.min()) < 3.0
    _report(2, "correlation remainder is second order", ok)


def test_c03_variation_limits_and_rate():
    """1/H-variation sums converge to the closed-form limit (3 SE at dyadic
    level 12) and the squared-increment Brownian germ fits rate > 0.2."""
    part = dyadic_partition(1.0, 12)
    ok = True
    for hurst in (0.3, 0.5, 0.7):
        vals = np.empty(1000)
        for i in range(1000):
            path = sample_fbm(FbmConfig(hurst=hurst, grid_n=2 ** 12,
                                        seed=40_000 + i))
            vals[i] = variation_sum(path, part, 1.0 / hurst)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        z = abs(vals.mean() - variation_reference(hurst, 1.0)) / se
        ok = ok and z <= 3.0

    fit = estimate_convergence_rate(
        variation_germ(2.0), FbmConfig(hurst=0.5, grid_n=2 ** 9, seed=11),
        levels=range(4, 10), replicas=64)
    ok = ok and fit.epsilon_hat > 0.2
    _report(3, "variation limit and fluctuation rate", ok)


def test_c04_trapezoid_identity_and_smooth_convergence():
    """f=x trapezoid sums hit (B_T^2-B_0^2)/2 to 1e-12 on arbitrary
    partitions; f=cos sums converge in L2 to sin(B_T)-sin(B_0) with a
    positive fitted rate."""
    path = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 10, seed=1))
    ident = get_integrand("identity")
    want = 0.5 * (path.values[-1] ** 2 - path.values[0] ** 2)
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        k = int(rng.integers(1, 60))
        idx = np.unique(np.concatenate(
            [[0, 2 ** 10], rng.integers(1, 2 ** 10, size=k)]))
        got = stratonovich_trapezoid_sum(ident, path,
                                         Partition(path.times[idx]))
        ok = ok and abs(got - want) <= 1e-12

    cosf = get_integrand("sin_prime")
    levels = list(range(6, 13))
    parts = [dyadic_partition(1.0, l) for l in levels]
    sq_err = np.zeros(len(levels))
    n_paths = 500
    for i in range(n_paths):
        p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 12, seed=150_000 + i))
        target = chain_rule_oracle(cosf, p)
        for j, part in enumerate(parts):
            sq_err[j] += (stratonovich_trapezoid_sum(cosf, p, part)
                          - target) ** 2
    l2 = np.sqrt(sq_err / n_paths)
    rate = np.polyfit(np.arange(len(levels)) * math.log(2.0), -np.log(l2), 1)[0]
    ok = ok and bool(np.all(np.diff(l2) < 0.0)) and rate > 0.3
    _report(4, "trapezoid exactness and smooth-integrand rate", ok)


@functools.cache
def _c05_fit():
    """The sign integrand's rate at H = 0.75: grid 2^12, levels 6-12, 500
    replicas, seed 0."""
    return estimate_convergence_rate(
        ito_germ(get_integrand("sign"), hurst=0.75),
        FbmConfig(hurst=0.75, grid_n=2 ** 12, seed=0),
        levels=range(6, 13), replicas=500)


def test_c05_discontinuous_integrand_cauchy_rate():
    """Left-point sums of the sign integrand on a smooth driver form a
    Cauchy sequence in L2 with a positive fitted rate."""
    fit = _c05_fit()
    values = np.array([e.value for e in fit.lm_distances])
    ok = bool(np.all(np.diff(values[:-1]) < 0.0)) and fit.epsilon_hat > 0.15
    _report(5, "discontinuous integrand converges", ok)


def test_c05_sign_integrand_rate_is_two_h_minus_one():
    """On c05's own configuration and seed 0, the rate fitted on consecutive
    levels lies within 0.1 of 2H - 1 = 0.5.  On an interval where B crosses
    0 the left-point term misses |B_t| - |B_s| by -2|B_t|, an error of one
    sign; about h^(H-1) such intervals of size h^H give an error of order
    h^(2H-1).  The seed and the tolerance were fixed before the check ran
    (it fits 0.476)."""
    eps = _c05_fit().epsilon_hat
    _report(5, "sign integrand rate near 2H - 1", abs(eps - 0.5) <= 0.1,
            f"epsilon_hat={eps:.4f}")


def test_c06_local_time_estimator_family_agrees():
    """Four normalized estimators of the local time at 0 correlate pairwise
    above 0.85 with mean ratios in [0.85, 1.15]; the flat-weight constant
    matches sqrt(c_h/(2 pi)) and the moment guard behaves."""
    ok = (abs(frak_c(0.3, 0.0) - math.sqrt(c_h(0.3) / (2.0 * math.pi)))
          <= 1e-12)
    ok = ok and validate_m_condition(0.7, 2.0) and \
        not validate_m_condition(0.7, 8.0)
    grid_n = 2 ** 16
    part = dyadic_partition(1.0, 16)
    for hurst in (0.3, 0.7):
        est = np.empty((4, 200))
        for i in range(200):
            p = sample_fbm(FbmConfig(hurst=hurst, grid_n=grid_n,
                                     seed=50_000 + i))
            est[0, i] = upcrossing_sum(p, part, 0.0, gamma=1.0) \
                / frak_c(hurst, 1.0)
            est[1, i] = crossing_count_estimator(p, grid_n, 0.0) \
                / math.sqrt(c_h(hurst) / (2.0 * math.pi))
            est[2, i] = upcrossing_excess_sum(p, part, 0.0) \
                / (hurst * frak_c(hurst, 1.0 / hurst - 1.0))
            est[3, i] = occupation_density_estimator(p, 0.0,
                                                     default_bandwidth(p))
        corr = np.corrcoef(est)
        means = est.mean(axis=1)
        ratios = means[:, None] / means[None, :]
        ok = ok and float(corr.min()) > 0.85
        ok = ok and 0.85 <= float(ratios.min()) and float(ratios.max()) <= 1.15
    _report(6, "local-time estimator family coherence", ok)


def test_c07_occupation_identity():
    """Integrating local-time curves over levels recovers the elapsed time:
    within 3% (occupation kernel) and 10% (up-crossings) on >= 90% of
    paths."""
    part = dyadic_partition(1.0, 12)
    hits_occ = hits_up = 0
    n_paths = 100
    for i in range(n_paths):
        p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 12, seed=20_000 + i))
        levels = default_level_grid(p, 400)
        occ = local_time_curve(p, part, "occupation", levels)
        up = local_time_curve(p, part, "upcross", levels)
        hits_occ += abs(occ.trapezoid_integral() - 1.0) <= 0.03
        hits_up += abs(up.trapezoid_integral() - 1.0) <= 0.10
    _report(7, "occupation-time identity",
            hits_occ >= 0.9 * n_paths and hits_up >= 0.9 * n_paths)


def test_c08_weighted_occupation_agreement():
    """Bump-weighted level integrals of the endpoint-excess curve match the
    occupation-kernel curve within 20% in aggregate."""
    part = dyadic_partition(1.0, 13)
    tot_exc = tot_occ = 0.0
    for i in range(200):
        p = sample_fbm(FbmConfig(hurst=0.3, grid_n=2 ** 13, seed=30_000 + i))
        levels = default_level_grid(p, 300)
        bump = np.exp(-levels ** 2 / (2.0 * 0.2 ** 2))
        exc = local_time_curve(p, part, "excess", levels)
        occ = local_time_curve(p, part, "occupation", levels)
        tot_exc += np.trapezoid(exc.values * bump, levels)
        tot_occ += np.trapezoid(occ.values * bump, levels)
    ratio = tot_exc / tot_occ
    _report(8, "weighted excess/occupation agreement", 0.8 <= ratio <= 1.2)


def test_c09_partition_coarsening_contract():
    """coarsen() preserves the horizon, is refined by its input, and keeps
    mesh and minimum gap comparable, across 1e4 random partitions."""
    rng = np.random.default_rng(0)
    slack = 1.0 + 1e-12
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 40))
        gaps = 10.0 ** rng.uniform(-4.0, 0.0, size=n)
        breaks = np.concatenate(([0.0], np.cumsum(gaps)))
        part = Partition(breaks)
        out = coarsen(part)
        ok = ok and out.breakpoints[-1] == part.breakpoints[-1]
        ok = ok and part.refines(out)
        ok = ok and out.mesh <= 3.0 * part.mesh * slack
        ok = ok and out.min_gap * slack >= out.mesh / 3.0
        if not ok:
            break
    _report(9, "partition coarsening contract", ok)


def test_c10_conditional_expectation_oracle():
    """The closed-form conditional second-moment oracle agrees with brute
    Monte Carlo redrawing of the post-v noise cells (4 stderr, 20 configs)."""
    grid_n = 2 ** 9
    rng = np.random.default_rng(7)
    worst = 0.0
    configs = []
    for i in range(20):
        hurst = (0.3, 0.75)[i % 2]
        f = get_integrand(("sign", "identity")[(i // 2) % 2])
        iv = int(rng.integers(grid_n // 8, grid_n // 3))
        isv = iv + int(rng.integers(grid_n // 16, grid_n // 4))
        it = isv + int(rng.integers(1, grid_n // 8))
        configs.append((hurst, f, iv / grid_n, isv / grid_n, it / grid_n, i))
    for hurst, f, v, s, t, i in configs:
        path = sample_fbm(FbmConfig(hurst=hurst, grid_n=grid_n,
                                    seed=90_000 + i), method="kernel")
        oracle = conditional_ito_oracle(f, path, v, s, t)
        mc = conditional_mc_check(f, path, v, s, t, n_samples=100_000,
                                  seed=17 + i)
        worst = max(worst, abs(oracle - mc.value) / mc.stderr)
    _report(10, "conditional expectation oracle", worst <= 4.0,
            f"worst |z| {worst:.2f} <= 4")


def test_c11_young_sde_rate_and_uniqueness_probe():
    """The Euler scheme converges on the closed-form geometric equation
    (fitted rate >= 0.35 at H=0.75) and the mollification/refinement probe
    at delta=0.25 shows decaying, plateau-free distances.  At H=0.75 that
    delta lies above the strong threshold (0.185) and below the weak (0.263)
    and Young (0.333) ones."""
    pair = geometric_pair()
    levels = list(range(8, 13))
    errs = np.zeros(len(levels))
    n_paths = 10
    for i in range(n_paths):
        p = sample_fbm(FbmConfig(hurst=0.75, grid_n=2 ** 12, seed=130_000 + i))
        closed = 0.1 * np.exp(p.values - p.values[0])
        for j, lev in enumerate(levels):
            part = dyadic_partition(1.0, lev)
            idx = p.indices_of(part.breakpoints)
            sol = young_euler_solve(pair, 0.1, p, part)
            errs[j] += float(np.max(np.abs(sol.values - closed[idx])))
    errs /= n_paths
    rate = np.polyfit(np.arange(len(levels)) * math.log(2.0),
                      -np.log(errs), 1)[0]
    ok = rate >= 0.35

    th = delta_thresholds(0.75)
    delta = 0.25
    ok = ok and th.strong < delta < th.young
    report = uniqueness_probe(
        0.75, delta, mesh_levels=tuple(range(8, 15)),
        scales=tuple(2.0 ** -k for k in range(4, 9)),
        replicas=50, seed=42)
    ok = ok and bool(np.all(np.diff(report.diag_distances) < 0.0))
    ok = ok and report.plateau_free is True
    _report(11, "Young SDE rate and uniqueness probe", ok)


def test_c12_preset_experiments_are_reproducible(tmp_path):
    """The built-in experiment presets rerun byte-identically and their
    cumulative curves are nondecreasing."""
    ok = True
    for preset in ("figure1", "figure2"):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{preset}_{tag}"
            code = cli_main(["localtime", "--preset", preset,
                             "--out", str(out)])
            ok = ok and code == 0
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        ok = ok and names == sorted(os.listdir(outs[1]))
        for name in names:
            ok = ok and ((outs[0] / name).read_bytes()
                         == (outs[1] / name).read_bytes())
        from fracsew.csvio import read_table
        cum = read_table(str(outs[0] / "cumulative.csv"))
        ok = ok and bool(np.all(np.diff(cum.rows[:, 1]) >= 0.0))
    _report(12, "preset experiments reproducible", ok)
