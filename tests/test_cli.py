import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fracsew
import fracsew.fbm
from fracsew import ConfigurationError, NumericalError, RegimeWarning
from fracsew.cli import (
    _parse_level_list,
    _parse_scales,
    config_hash,
    effective_config,
    main,
    read_config_file,
    read_summary,
)
from fracsew.csvio import read_table


def _write_cfg(tmp_path, name, **kv):
    f = tmp_path / name
    f.write_text("".join(f"{k}={v}\n" for k, v in kv.items()))
    return str(f)


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_file_parsing(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("# comment\n\nhurst = 0.3\nseed=5\n")
    assert read_config_file(str(f)) == {"hurst": "0.3", "seed": "5"}
    with pytest.raises(ConfigurationError):
        read_config_file(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigurationError):
        read_config_file(str(bad))
    dup = tmp_path / "dup.cfg"
    dup.write_text("hurst=0.3\nhurst=0.4\n")
    with pytest.raises(ConfigurationError):
        read_config_file(str(dup))


def test_effective_config_precedence(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", hurst="0.3", seed="7")
    # defaults only + file
    cfg = effective_config("sample", None, cfgfile, None)
    assert cfg["hurst"] == 0.3 and cfg["seed"] == 7
    assert cfg["grid_exp"] == 10  # default
    # preset fills grid_exp; file overrides the preset's hurst and seed
    cfg = effective_config("sample", "figure1", cfgfile, None)
    assert cfg["grid_exp"] == 14 and cfg["hurst"] == 0.3 and cfg["seed"] == 7
    # --seed wins over everything
    cfg = effective_config("sample", "figure1", cfgfile, 9)
    assert cfg["seed"] == 9
    # preset alone
    cfg = effective_config("sample", "figure1", None, None)
    assert cfg["hurst"] == 0.1 and cfg["seed"] == 101


def test_effective_config_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        effective_config("sample", "figure9", None, None)
    unknown = _write_cfg(tmp_path, "u.cfg", hurst="0.3", flavor="mint")
    with pytest.raises(ConfigurationError, match="flavor"):
        effective_config("sample", None, unknown, None)
    with pytest.raises(ConfigurationError, match="hurst"):
        effective_config("sample", None, None, None)  # missing required
    notnum = _write_cfg(tmp_path, "n.cfg", hurst="smooth")
    with pytest.raises(ConfigurationError, match="valid float"):
        effective_config("sample", None, notnum, None)


def test_config_hash_sensitivity():
    a = config_hash("sample", {"hurst": 0.3, "seed": 0})
    b = config_hash("sample", {"hurst": 0.3, "seed": 1})
    assert len(a) == 64 and a != b
    assert a == config_hash("sample", {"seed": 0, "hurst": 0.3})


def test_level_list_parsing():
    assert _parse_level_list("4:9") == [4, 5, 6, 7, 8, 9]
    assert _parse_level_list("3,5,9") == [3, 5, 9]
    assert _parse_scales("3:5") == [0.125, 0.0625, 0.03125]
    with pytest.raises(ConfigurationError):
        _parse_level_list("fine:coarse")


# ---------------------------------------------------------------------------
# subcommands


def test_sample_outputs_are_byte_identical(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", hurst="0.3", grid_exp="8",
                         seed="5")
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["sample", "--config", cfgfile, "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("path.csv", "path.svg"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b
    table = read_table(str(outs[0] / "path.csv"))
    assert table.rows.shape == (257, 2)
    assert table.meta["seed"] == 5
    assert "config_sha256" in table.meta


def test_sample_rejects_bad_grid(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", hurst="0.3", grid_exp="30")
    assert main(["sample", "--config", cfgfile,
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key,value", [("var0", "nan"), ("horizon", "inf")])
def test_sample_rejects_non_finite_values(tmp_path, key, value):
    cfgfile = _write_cfg(tmp_path, "c.cfg", hurst="0.3", grid_exp="6",
                         **{key: value})
    assert main(["sample", "--config", cfgfile,
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command,key,extra", [
    ("rate", "a", {"germ": "upcross", "hurst": "0.3", "levels": "3:5",
                   "replicas": "2"}),
    ("localtime", "a", {"hurst": "0.3", "grid_exp": "6", "n_levels": "8"}),
    ("sde", "x0", {"levels": "3:4", "scales": "2:3", "replicas": "1"}),
    ("sde", "kappa", {"levels": "3:4", "scales": "2:3", "replicas": "1"}),
    ("sde", "drift_strength", {"case": "c", "levels": "3:4", "scales": "2:3",
                               "replicas": "1"}),
], ids=["rate-a", "localtime-a", "sde-x0", "sde-kappa", "sde-drift_strength"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_config_values_exit_two(tmp_path, command, key, extra,
                                                  value):
    cfgfile = _write_cfg(tmp_path, "c.cfg", **extra, **{key: value})
    out = tmp_path / "o"
    assert main([command, "--config", cfgfile, "--out", str(out)]) == 2
    assert not out.exists()


def test_sde_rejects_levels_beyond_the_grid_bound(tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the levels check")
    monkeypatch.setattr(fracsew.fsde, "sample_fbm", no_sampling)
    cfgfile = _write_cfg(tmp_path, "c.cfg", levels="8:25", scales="2:3",
                         replicas="1")
    out = tmp_path / "o"
    assert main(["sde", "--config", cfgfile, "--out", str(out)]) == 2
    assert not (out / "thresholds.csv").exists()
    cfgfile = _write_cfg(tmp_path, "e.cfg", levels="9:8")
    assert main(["sde", "--config", cfgfile, "--out", str(out)]) == 2


def test_sde_rejects_negative_levels(tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the levels check")
    monkeypatch.setattr(fracsew.fsde, "sample_fbm", no_sampling)
    cfgfile = _write_cfg(tmp_path, "c.cfg", mode="probe", levels="-2:9",
                         scales="2:3", replicas="1")
    out = tmp_path / "o"
    assert main(["sde", "--config", cfgfile, "--out", str(out)]) == 2
    assert not (out / "probe.csv").exists()


def test_rate_rejects_level_zero(tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the levels check")
    monkeypatch.setattr(fracsew.sewing, "sample_fbm", no_sampling)
    cfgfile = _write_cfg(tmp_path, "c.cfg", germ="upcross", hurst="0.3",
                         levels="0:5", replicas="2")
    out = tmp_path / "o"
    assert main(["rate", "--config", cfgfile, "--out", str(out)]) == 2
    assert not (out / "rate.csv").exists()


def test_sample_rejects_subnormal_step(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", hurst="0.3", grid_exp="12",
                         horizon="1e-320")
    assert main(["sample", "--config", cfgfile,
                 "--out", str(tmp_path / "o")]) == 2


def test_sample_rejects_underflowing_increment_variance(tmp_path):
    for method in ("circulant", "cholesky"):
        cfgfile = _write_cfg(tmp_path, f"{method}.cfg", hurst="0.75",
                             grid_exp="6", horizon="1e-300", method=method)
        assert main(["sample", "--config", cfgfile,
                     "--out", str(tmp_path / method)]) == 2


def test_sample_cholesky_failure_exits_three(tmp_path, monkeypatch):
    # a covariance with a negative diagonal, which no Cholesky factor takes
    monkeypatch.setattr(fracsew.fbm, "fgn_cov",
                        lambda lag, hurst, step: np.where(lag == 0, -1.0, 0.0))
    # a Hurst index no other test factors, so the factor cache cannot hold it
    cfgfile = _write_cfg(tmp_path, "c.cfg", hurst="0.6180339887",
                         grid_exp="6", method="cholesky")
    assert main(["sample", "--config", cfgfile,
                 "--out", str(tmp_path / "o")]) == 3


def _python_output(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracsew.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    assert _python_output(
        "import sys, fracsew.cli; print('scipy' in sys.modules)") == "False"


def test_oracle_path_leaves_scipy_unloaded():
    # the sign integrand takes gaussian_smooth_F's discontinuous branch
    assert _python_output(
        "import sys, fracsew as fs\n"
        "fs.conditional_increment_moments(0.25, 0.5, 0.625, 0.3)\n"
        "path = fs.sample_fbm(fs.FbmConfig(hurst=0.75, grid_n=64, seed=3),"
        " method='kernel')\n"
        "fs.conditional_ito_oracle(fs.get_integrand('sign'), path, 0.25, 0.5, 0.625)\n"
        "print('scipy' in sys.modules)") == "False"


def test_rate_warns_out_of_regime(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", germ="ito:sign", hurst="0.3",
                         levels="3:6", replicas="4")
    with pytest.warns(RegimeWarning, match="beta1 must exceed 1"):
        assert main(["rate", "--config", cfgfile,
                     "--out", str(tmp_path / "o")]) == 0


def test_localtime_run(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", hurst="0.3", grid_exp="8",
                         n_levels="50", seed="3")
    out = tmp_path / "lt"
    assert main(["localtime", "--config", cfgfile, "--out", str(out)]) == 0
    for tag in ("upcross", "count", "excess", "occupation", "bidirectional"):
        levels, values, meta = _read_curve(out / f"curve_{tag}.csv")
        assert levels.size == 50
        assert np.all(values >= 0.0) and np.all(np.isfinite(values))
    cum = read_table(str(out / "cumulative.csv"))
    assert np.all(np.diff(cum.rows[:, 1]) >= 0.0)
    summary = read_summary(str(out / "summary.txt"))
    for key in ("occupation_integral", "occupation_rel_error",
                "cumulative_nondecreasing", "m2_condition"):
        assert key in summary
    assert summary["cumulative_nondecreasing"] is True
    assert (out / "localtime.svg").exists()
    assert (out / "cumulative.svg").exists()


def _read_curve(path):
    table = read_table(str(path))
    return table.rows[:, 0], table.rows[:, 1], table.meta


def test_localtime_partition_gate(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", hurst="0.3", grid_exp="6",
                         partition_exp="8")
    assert main(["localtime", "--config", cfgfile,
                 "--out", str(tmp_path / "o")]) == 2


def test_rate_additive_is_exact(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", germ="additive", hurst="0.5",
                         levels="4:7", replicas="2")
    out = tmp_path / "rate"
    assert main(["rate", "--config", cfgfile, "--out", str(out)]) == 0
    table = read_table(str(out / "rate.csv"))
    assert table.meta["exact"] is True
    assert table.meta["germ"] == "additive"


def test_rate_variation_brownian(tmp_path):
    """The 1/H-variation germ of Brownian motion: rate near one half."""
    cfgfile = _write_cfg(tmp_path, "c.cfg", germ="variation", hurst="0.5",
                         levels="4:9", replicas="64", seed="11")
    out = tmp_path / "rate"
    assert main(["rate", "--config", cfgfile, "--out", str(out)]) == 0
    table = read_table(str(out / "rate.csv"))
    eps = table.meta["epsilon_hat"]
    assert 0.35 <= eps <= 0.75
    assert table.meta["exact"] is False
    assert (out / "rate.svg").exists()


@pytest.mark.parametrize("settings", [
    # (1e-2)^400 underflows: the L_400 norms read 0 on nonzero distances
    {"germ": "ito:sign", "hurst": "0.75", "m": "400"},
    # distances ~1e5 on a horizon of 1e6: |x|^200 overflows
    {"germ": "ito:identity", "hurst": "0.75", "horizon": "1e6", "m": "200"},
], ids=["underflow", "overflow"])
def test_rate_exits_3_when_the_lm_norm_leaves_double_range(tmp_path, settings):
    cfgfile = _write_cfg(tmp_path, "c.cfg", levels="6:9", replicas="8", **settings)
    out = tmp_path / "o"
    assert main(["rate", "--config", cfgfile, "--out", str(out)]) == 3
    assert not (out / "rate.csv").exists()


def test_rate_writes_a_finite_stderr_at_a_huge_horizon(tmp_path):
    """At horizon 1e100 the squared distances are finite but their squares
    overflow; every rate.csv row still carries a finite stderr."""
    cfgfile = _write_cfg(tmp_path, "c.cfg", germ="ito:identity", hurst="0.75",
                         horizon="1e100", levels="4:8", replicas="8")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["rate", "--config", cfgfile, "--out", str(out)]) == 0
    table = read_table(str(out / "rate.csv"))
    assert np.isfinite(table.rows).all()
    assert (table.rows[:-1, 2] > 0.0).all()
    assert main(["report", "--out", str(out)]) == 0


def test_rate_unknown_germ(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", germ="magic", hurst="0.5")
    assert main(["rate", "--config", cfgfile,
                 "--out", str(tmp_path / "o")]) == 2


def test_sde_thresholds_table(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", mode="thresholds")
    out = tmp_path / "sde"
    assert main(["sde", "--config", cfgfile, "--out", str(out)]) == 0
    table = read_table(str(out / "thresholds.csv"))
    assert table.rows.shape == (99, 4)
    h, strong, weak, young = table.rows.T
    assert np.all(strong < weak) and np.all(weak < young)
    assert not (out / "probe.csv").exists()


def test_sde_constant_probe_collapses(tmp_path):
    cfgfile = _write_cfg(tmp_path, "c.cfg", mode="probe", case="constant",
                         levels="5:7", scales="3:5", replicas="2")
    out = tmp_path / "sde"
    assert main(["sde", "--config", cfgfile, "--out", str(out)]) == 0
    table = read_table(str(out / "probe.csv"))
    assert table.meta["max_final_distance"] <= 1e-12
    assert np.max(table.rows[:, 5]) <= 1e-12


def test_sde_case_b_is_case_a_with_kappa_below_one(tmp_path):
    """Cases a and b build one pair: their probe.csv bytes agree except for
    the config_sha256 meta line, which hashes the config and so its case.
    Case b with kappa = 1 exits 2."""
    probes = {}
    for case in ("a", "b"):
        cfgfile = _write_cfg(tmp_path, f"{case}.cfg", mode="probe", case=case,
                             levels="5:6", scales="3:4", replicas="2")
        out = tmp_path / case
        assert main(["sde", "--config", cfgfile, "--out", str(out)]) == 0
        lines = (out / "probe.csv").read_bytes().splitlines(keepends=True)
        probes[case] = [l for l in lines if not l.startswith(b"# config_sha256=")]
        assert len(lines) == len(probes[case]) + 1
    assert probes["a"] == probes["b"]
    kappa_one = _write_cfg(tmp_path, "k1.cfg", mode="probe", case="b", kappa="1.0",
                           levels="5:6", scales="3:4", replicas="2")
    assert main(["sde", "--config", kappa_one,
                 "--out", str(tmp_path / "k1")]) == 2


def test_sde_bad_mode_and_case(tmp_path):
    bad_mode = _write_cfg(tmp_path, "m.cfg", mode="quantum")
    assert main(["sde", "--config", bad_mode,
                 "--out", str(tmp_path / "o1")]) == 2
    bad_case = _write_cfg(tmp_path, "k.cfg", mode="probe", case="z",
                          levels="5:6", scales="3:4", replicas="2")
    assert main(["sde", "--config", bad_case,
                 "--out", str(tmp_path / "o2")]) == 2


# ---------------------------------------------------------------------------
# report aggregation


def test_report_flow(tmp_path):
    out = tmp_path / "runs"
    # nothing recognized yet
    os.makedirs(out / "empty")
    assert main(["report", "--out", str(out / "empty")]) == 2
    assert main(["report", "--out", str(tmp_path / "missing")]) == 2

    sample_cfg = _write_cfg(tmp_path, "s.cfg", hurst="0.3", grid_exp="7",
                            seed="2")
    lt_cfg = _write_cfg(tmp_path, "l.cfg", hurst="0.3", grid_exp="8",
                        n_levels="40", seed="2")
    assert main(["sample", "--config", sample_cfg,
                 "--out", str(out / "sample")]) == 0
    assert main(["localtime", "--config", lt_cfg,
                 "--out", str(out / "lt")]) == 0
    assert main(["report", "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) >= 7  # path + 5 curves + cumulative + summary
    assert all(ln.count(",") == 4 for ln in data)  # five cells, none quoted
    statuses = {ln.rsplit(",", 1)[1] for ln in data}
    assert statuses == {"PASS"}

    # rerunning over a directory that now contains report.csv is idempotent
    assert main(["report", "--out", str(out)]) == 0

    # corrupt one curve: a negative value must flip the exit code to 1
    victim = out / "lt" / "curve_count.csv"
    lines = victim.read_text().splitlines()
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    first = lines[header_at + 1].split(",")
    lines[header_at + 1] = f"{first[0]},-1.0"
    victim.write_text("\n".join(lines) + "\n")
    assert main(["report", "--out", str(out)]) == 1


def test_report_fails_a_rate_table_with_bad_distances(tmp_path):
    """A non-finite stderr or a negative L_m distance in rate.csv is a
    failed check: report exits 1."""
    cfgfile = _write_cfg(tmp_path, "c.cfg", germ="ito:sign", hurst="0.75",
                         levels="4:8", replicas="8")
    out = tmp_path / "o"
    assert main(["rate", "--config", cfgfile, "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    victim = out / "rate.csv"
    lines = victim.read_text().splitlines()
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == "mesh,lm_distance,stderr"
    mesh, dist, _ = lines[header_at + 1].split(",")
    lines[header_at + 1] = f"{mesh},{dist},inf"
    mesh, _, err = lines[header_at + 2].split(",")
    lines[header_at + 2] = f"{mesh},-0.5,{err}"
    victim.write_text("\n".join(lines) + "\n")
    assert main(["report", "--out", str(out)]) == 1
    rows = [ln.split(",") for ln in (out / "report.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert all(len(r) == 5 for r in rows)
    assert [(r[1], r[4]) for r in rows] == [("rate_positive", "PASS"),
                                            ("rate_distances", "FAIL")]


def test_report_non_numeric_cell_exits_two(tmp_path):
    out = tmp_path / "runs"
    os.makedirs(out)
    (out / "curve_x.csv").write_text("x,value\n0.0,1.0\n0.5,abc\n")
    assert main(["report", "--out", str(out)]) == 2


def test_report_header_only_cumulative_exits_two(tmp_path):
    out = tmp_path / "runs"
    os.makedirs(out)
    (out / "cumulative.csv").write_text("# hurst=0.3\nt,local_time\n")
    assert main(["report", "--out", str(out)]) == 2


@pytest.mark.parametrize("fname,text", [
    ("curve_x.csv", "x\n0.5\n"),
    ("cumulative.csv", "t\n0.5\n"),
    ("summary.txt", "occupation_rel_error=abc\n"),
    ("rate.csv", "# epsilon_hat=abc\nlevel,mesh\n4,0.0625\n"),
    ("probe.csv", "# max_final_distance=abc\nlevel,distance\n4,0.1\n"),
], ids=["one_column_curve", "one_column_cumulative", "text_occupation_error",
        "text_epsilon_hat", "text_final_distance"])
def test_report_malformed_field_exits_two(tmp_path, fname, text):
    out = tmp_path / "runs"
    os.makedirs(out)
    (out / fname).write_text(text)
    assert main(["report", "--out", str(out)]) == 2


def test_numerical_failures_exit_three(tmp_path, monkeypatch):
    import fracsew.cli as cli_mod

    def explode(config, method="circulant", truncation=None):
        raise NumericalError("synthetic blow-up")

    monkeypatch.setattr(cli_mod, "sample_fbm", explode)
    cfgfile = _write_cfg(tmp_path, "c.cfg", hurst="0.3", grid_exp="6")
    assert main(["sample", "--config", cfgfile,
                 "--out", str(tmp_path / "o")]) == 3
