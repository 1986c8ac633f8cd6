"""The benchmark's checks pass on real outputs and fail on corrupted ones.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import io
import contextlib
import json
import math
import os
import shutil
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import fracsew  # noqa: E402
import fracsew.cli  # noqa: E402,F401
import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import Tracer, source_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_round(workload, seed=0, k=0):
    """Runs round k; returns [(op, result)]."""
    out = []
    for op in workload.round(seed, k):
        with contextlib.redirect_stdout(io.StringIO()):
            out.append((op, op.run()))
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real round of each file-writing workload."""
    root = str(tmp_path_factory.mktemp("bench"))
    made = {}
    for name in ("localtime_figures", "rate_ito_sign", "sde_probe"):
        workload = WORKLOADS[name](fracsew, root)
        made[name] = (workload, run_round(workload))
    return made


def copy_of(src: str, tmp_path) -> str:
    dst = str(tmp_path / os.path.basename(src))
    shutil.copytree(src, dst)
    return dst


def edit_csv(file_path: str, edit) -> None:
    """Applies ``edit(meta_lines, header, rows)`` to a CSV in place."""
    with open(file_path) as fh:
        lines = fh.read().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    rows = [[float(c) for c in line.split(",")] for line in body[1:]]
    edit(meta, body[0], rows)
    with open(file_path, "w") as fh:
        fh.write("\n".join(meta + [body[0]] + [
            ",".join(format(c, ".17g") for c in row) for row in rows]) + "\n")


def set_meta(key: str, value: str):
    def edit(meta, header, rows):
        idx = next(i for i, line in enumerate(meta) if line.startswith(f"# {key}="))
        meta[idx] = f"# {key}={value}"
    return edit


# -- localtime_figures --------------------------------------------------------


def localtime_dir(outputs, tmp_path, preset="figure2"):
    _, ops = outputs["localtime_figures"]
    src = next(res for op, res in ops if op.label.endswith(preset))
    return copy_of(src, tmp_path)


def test_localtime_outputs_pass(outputs):
    workload, ops = outputs["localtime_figures"]
    for op, result in ops:
        op.check(result)
    workload.finish()


def test_negative_curve_value_fails(outputs, tmp_path):
    d = localtime_dir(outputs, tmp_path)

    def edit(meta, header, rows):
        rows[len(rows) // 2][1] = -1e-3
    edit_csv(os.path.join(d, "curve_count.csv"), edit)
    with pytest.raises(CheckFailed, match="negative"):
        checks.check_localtime(d, 0.6, 14)


def test_decreasing_cumulative_fails(outputs, tmp_path):
    d = localtime_dir(outputs, tmp_path)

    def edit(meta, header, rows):
        rows[-1][1] = rows[-2][1] * 0.5
    edit_csv(os.path.join(d, "cumulative.csv"), edit)
    with pytest.raises(CheckFailed, match="nondecreasing"):
        checks.check_localtime(d, 0.6, 14)


def test_occupation_integral_off_by_5_percent_fails(outputs, tmp_path):
    d = localtime_dir(outputs, tmp_path)

    def edit(meta, header, rows):
        for row in rows:
            row[1] *= 1.05
    edit_csv(os.path.join(d, "curve_occupation.csv"), edit)
    with pytest.raises(CheckFailed, match="occupation curve integrates"):
        checks.check_localtime(d, 0.6, 14)


def test_upcross_bidirectional_gap_over_one_crossing_fails(outputs, tmp_path):
    d = localtime_dir(outputs, tmp_path)
    bound = (1.0 / 2 ** 14) ** 0.4 / (2.0 * checks.frak_c0(0.6))

    def edit(meta, header, rows):
        rows[len(rows) // 2][1] += 2.0 * bound
    edit_csv(os.path.join(d, "curve_bidirectional.csv"), edit)
    with pytest.raises(CheckFailed, match="upcross - bidirectional"):
        checks.check_localtime(d, 0.6, 14)


def test_upcross_share_follows_c07():
    checks.check_upcross_share([0.01] * 9 + [0.2])
    with pytest.raises(CheckFailed, match="fewer than 90%"):
        checks.check_upcross_share([0.01] * 8 + [0.2, 0.2])


def test_changed_rerun_fails(outputs, tmp_path):
    a = localtime_dir(outputs, tmp_path)
    b = str(tmp_path / "rerun")
    shutil.copytree(a, b)
    checks.check_same_bytes(a, b)
    with open(os.path.join(b, "summary.txt"), "a") as fh:
        fh.write("\n")
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_same_bytes(a, b)


# -- rate_ito_sign ------------------------------------------------------------


def rate_dir(outputs, tmp_path):
    (_, src), = outputs["rate_ito_sign"][1]
    return copy_of(src, tmp_path)


def test_rate_outputs_pass(outputs):
    (op, result), = outputs["rate_ito_sign"][1]
    op.check(result)


def test_limit_estimate_moved_5_stderr_fails(outputs, tmp_path):
    d = rate_dir(outputs, tmp_path)
    meta, _, _ = checks.read_csv(os.path.join(d, "rate.csv"))
    est, err = float(meta["limit_estimate"]), float(meta["limit_stderr"])
    away = 1.0 if est >= checks.sign_sum_mean(0.75, 2 ** 12) else -1.0
    moved = format(est + away * 5.0 * err, ".17g")
    edit_csv(os.path.join(d, "rate.csv"), set_meta("limit_estimate", moved))
    with pytest.raises(CheckFailed, match="stderr from E"):
        checks.check_rate(d, 0.75)


def test_distances_not_decreasing_fails(outputs, tmp_path):
    d = rate_dir(outputs, tmp_path)

    def edit(meta, header, rows):
        rows[2][1] = rows[1][1] * 1.01
    edit_csv(os.path.join(d, "rate.csv"), edit)
    with pytest.raises(CheckFailed, match="strictly decrease"):
        checks.check_rate(d, 0.75)


def test_small_epsilon_fails(outputs, tmp_path):
    d = rate_dir(outputs, tmp_path)
    edit_csv(os.path.join(d, "rate.csv"), set_meta("epsilon_hat", "0.14999999999999999"))
    with pytest.raises(CheckFailed, match="epsilon_hat"):
        checks.check_rate(d, 0.75)


def test_sign_sum_mean_matches_monte_carlo():
    # exact Gaussian draws of (B_{k/8})_k from the program's covariance
    n, hurst, paths = 8, 0.75, 200_000
    t = np.arange(1, n + 1) / n
    cov = fracsew.fbm_cov(t[:, None], t[None, :], hurst)
    b = np.random.default_rng(5).standard_normal((paths, n)) @ np.linalg.cholesky(cov).T
    b = np.concatenate([np.zeros((paths, 1)), b], axis=1)
    sums = np.sum(np.sign(b[:, :-1]) * np.diff(b, axis=1), axis=1)
    se = sums.std() / math.sqrt(paths)
    assert abs(sums.mean() - checks.sign_sum_mean(hurst, n)) < 4.0 * se
    assert checks.abs_mean(hurst) - checks.sign_sum_mean(hurst, n) > 20.0 * se


def test_z_scores_over_a_run():
    checks.check_z_scores([1.0, -1.0, 2.0, 1.5], "test")
    with pytest.raises(CheckFailed, match="mean z-score"):
        checks.check_z_scores([1.5] * 8, "test")


def test_abs_mean_matches_sampler_variance():
    # E|B_1| = sqrt(2 Var / pi) with Var(B_1) = fbm_cov(1, 1)
    for h in (0.3, 0.5, 0.75):
        var = fracsew.fbm_cov(1.0, 1.0, h)
        assert math.isclose(checks.abs_mean(h), math.sqrt(2.0 * var / math.pi),
                            rel_tol=1e-12)


# -- sde_probe ----------------------------------------------------------------


def sde_dir(outputs, tmp_path):
    _, ops = outputs["sde_probe"]
    return copy_of(next(res for op, res in ops if op.label == "sde probe"), tmp_path)


def sde_check(d):
    w = WORKLOADS["sde_probe"]
    checks.check_sde(d, w.levels, [2.0 ** -e for e in w.scale_exps], w.replicas)


def test_sde_outputs_pass(outputs):
    for op, result in outputs["sde_probe"][1]:
        op.check(result)


def test_threshold_changed_in_last_resolved_digit_fails(outputs, tmp_path):
    # the check resolves 1e-12, so the change sits in the 11th decimal place;
    # a change in the 17th significant digit shows in the sha256 digests only
    d = sde_dir(outputs, tmp_path)

    def edit(meta, header, rows):
        rows[40][2] += 1e-11
    edit_csv(os.path.join(d, "thresholds.csv"), edit)
    with pytest.raises(CheckFailed, match="closed forms"):
        sde_check(d)


def test_probe_triangle_inequality_break_fails(outputs, tmp_path):
    d = sde_dir(outputs, tmp_path)

    def edit(meta, header, rows):
        # an off-diagonal pair from a coarsest-level cell, replica 3
        row = next(r for r in rows if r[0] == 3 and r[1] == 8 and r[2] == 2.0 ** -5
                   and r[3] == 10 and r[4] == 2.0 ** -7)
        row[5] += 1.0
    edit_csv(os.path.join(d, "probe.csv"), edit)
    with pytest.raises(CheckFailed, match="triangle inequality"):
        sde_check(d)


def test_negative_probe_distance_fails(outputs, tmp_path):
    d = sde_dir(outputs, tmp_path)

    def edit(meta, header, rows):
        rows[7][5] = -rows[7][5] - 1e-9
    edit_csv(os.path.join(d, "probe.csv"), edit)
    with pytest.raises(CheckFailed, match="negative"):
        sde_check(d)


def test_diagonal_plateau_fails(outputs, tmp_path):
    d = sde_dir(outputs, tmp_path)

    def edit(meta, header, rows):
        # the second diagonal cell as far from the finest as the first
        for row in rows:
            if row[1] == 9 and row[2] == 2.0 ** -5 and row[3] == 12 and row[4] == 2.0 ** -8:
                row[5] = 10.0
    edit_csv(os.path.join(d, "probe.csv"), edit)
    with pytest.raises(CheckFailed, match="diagonal distances"):
        sde_check(d)


def test_plateau_flag_fails(outputs, tmp_path):
    d = sde_dir(outputs, tmp_path)
    edit_csv(os.path.join(d, "probe.csv"), set_meta("plateau_free", "false"))
    with pytest.raises(CheckFailed, match="plateau_free"):
        sde_check(d)


def test_flat_euler_errors_fail():
    levels = list(range(8, 13))
    checks.check_euler_rate(levels, 0.1 * 2.0 ** (-0.5 * np.array(levels)))
    with pytest.raises(CheckFailed, match="Euler rate"):
        checks.check_euler_rate(levels, 0.1 * 2.0 ** (-0.3 * np.array(levels)))


# -- conditional_oracle -------------------------------------------------------


def test_oracle_5_stderr_off_fails():
    assert checks.check_oracle(1.0, 1.0 + 4.9e-3, 1e-3) < 0.0
    with pytest.raises(CheckFailed, match="stderr from Monte Carlo"):
        checks.check_oracle(1.0, 1.0 + 5.1e-3, 1e-3)


def test_oracle_set_fails_on_one_triple_or_a_shared_bias():
    checks.check_oracle_set([(1.0, 1.0 + 1e-3, 1e-3)] * 4 + [(1.0, 1.0 - 3e-3, 1e-3)] * 4)
    with pytest.raises(CheckFailed, match="stderr from Monte Carlo"):
        checks.check_oracle_set([(1.0, 1.0 + 4.1e-3, 1e-3)])
    # 1.3 stderr each, within c10's 4, but ten of them: 4.1 of their stderr
    with pytest.raises(CheckFailed, match="mean z-score"):
        checks.check_oracle_set([(1.0, 1.0 + 1.3e-3, 1e-3)] * 10)


# -- closed forms -------------------------------------------------------------


def test_closed_forms_match_the_program():
    for h in (0.1, 0.3, 0.6, 0.75):
        assert math.isclose(checks.c_h(h), fracsew.c_h(h), rel_tol=1e-12)
        assert math.isclose(checks.frak_c0(h), fracsew.frak_c(h, 0.0), rel_tol=1e-12)
    for h in (0.55, 0.75, 0.95):
        assert np.allclose(checks.thresholds(h), tuple(fracsew.delta_thresholds(h)),
                           rtol=0.0, atol=1e-15)


# -- traced counts ------------------------------------------------------------


@pytest.mark.parametrize("name", ["rate_ito_sign", "sde_probe", "conditional_oracle"])
def test_traced_counts_match_the_configuration(name, tmp_path):
    workload = WORKLOADS[name](fracsew, str(tmp_path))
    originals = (fracsew.sample_fbm, fracsew.sewing.riemann_sum,
                 fracsew.FbmPath.indices_of, fracsew.cli.main)
    tracer = Tracer()
    tracer.install(fracsew)
    try:
        run_round(workload)
    finally:
        tracer.uninstall()
    assert (fracsew.sample_fbm, fracsew.sewing.riemann_sum,
            fracsew.FbmPath.indices_of, fracsew.cli.main) == originals
    for key, per_round in workload.expected_counts().items():
        assert tracer.counts[key] == per_round, key


def test_every_per_layer_metric_has_a_wrapped_function():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    tracer = Tracer()
    tracer.install(fracsew)
    tracer.uninstall()
    wrapped = tracer.wrapped | {"fbm.factor_cache"}
    assert source_of("local_time.curve.excess.s") == "local_time.local_time_curve"
    assert source_of("fsde.mollified_sigma.points") == "fsde.mollify_coefficient"
    assert [n for n in names if not n.startswith(("import.", "trace."))
            and source_of(n) not in wrapped] == []


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    assert tracer.counts["inner.calls"] == 2
    assert tracer.self_s["outer"] + tracer.total["inner"] == pytest.approx(
        tracer.total["outer"], rel=1e-9)
