import numpy as np
import pytest

from fracsew import (
    ConfigurationError,
    FbmConfig,
    constant_pair,
    cumulative_local_time,
    default_level_grid,
    dyadic_partition,
    estimate_convergence_rate,
    local_time_curve,
    sample_fbm,
    uniqueness_probe,
)
from fracsew.csvio import (
    format_value,
    parse_scalar,
    read_curve_csv,
    read_path_csv,
    read_table,
    write_cumulative_csv,
    write_curve_csv,
    write_path_csv,
    write_probe_csv,
    write_rate_csv,
    write_table,
)
from fracsew.sewing import Germ


def test_format_value_types():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value(np.int64(7)) == "7"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value("circulant") == "circulant"


def test_parse_scalar_types():
    assert parse_scalar("true") is True
    assert parse_scalar("false") is False
    assert parse_scalar("42") == 42
    assert parse_scalar("0.5") == 0.5
    assert parse_scalar("circulant") == "circulant"


def test_table_round_trip_is_lossless(tmp_path):
    f = str(tmp_path / "t.csv")
    awkward = [0.1, 1.0 / 3.0, 1e-17, -1.2345678901234567e-5,
               2.2250738585072014e-308]
    rows = [(i, v) for i, v in enumerate(awkward)]
    meta = {"name": "probe", "n": 5, "flag": True, "x": 0.1}
    write_table(f, ["idx", "value"], rows, meta)
    table = read_table(f)
    assert table.columns == ("idx", "value")
    assert table.meta == meta
    np.testing.assert_array_equal(table.rows[:, 1], np.array(awkward))


def test_table_rewrite_is_byte_identical(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    rows = [(0.1, 0.2), (0.3, 0.4)]
    write_table(a, ["x", "y"], rows, {"k": 1})
    write_table(b, ["x", "y"], rows, {"k": 1})
    assert open(a, "rb").read() == open(b, "rb").read()


def test_table_without_header_rejected(tmp_path):
    f = tmp_path / "broken.csv"
    f.write_text("# only=comments\n# no=header\n")
    with pytest.raises(ConfigurationError):
        read_table(str(f))


def test_empty_table_shape(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("# n=0\nx,y\n")
    table = read_table(str(f))
    assert table.rows.shape == (0, 2)


def test_path_round_trip(tmp_path):
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=32, seed=4))
    f = str(tmp_path / "path.csv")
    write_path_csv(f, p, {"note": "unit"})
    times, values, meta = read_path_csv(f)
    np.testing.assert_array_equal(times, p.times)
    np.testing.assert_array_equal(values, p.values)
    assert meta["hurst"] == 0.3
    assert meta["method"] == "circulant"
    assert meta["note"] == "unit"


def test_vector_path_round_trip(tmp_path):
    p = sample_fbm(FbmConfig(hurst=0.5, grid_n=8, seed=4, dim=2))
    f = str(tmp_path / "path2.csv")
    write_path_csv(f, p)
    times, values, _ = read_path_csv(f)
    assert values.shape == (9, 2)
    np.testing.assert_array_equal(values, p.values)
    assert read_table(f).columns == ("t", "value0", "value1")


def test_curve_round_trip(tmp_path):
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=256, seed=4))
    curve = local_time_curve(p, dyadic_partition(1.0, 8), "upcross",
                             default_level_grid(p, 31))
    f = str(tmp_path / "curve.csv")
    write_curve_csv(f, curve)
    levels, values, meta = read_curve_csv(f)
    np.testing.assert_array_equal(levels, curve.levels)
    np.testing.assert_array_equal(values, curve.values)
    assert meta["estimator"] == "upcross(gamma=0)"
    assert meta["normalized"] is True


def test_cumulative_csv(tmp_path):
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=256, seed=4))
    cum = cumulative_local_time(p, dyadic_partition(1.0, 8), 0.0)
    f = str(tmp_path / "cum.csv")
    write_cumulative_csv(f, cum)
    table = read_table(f)
    assert table.meta["level"] == 0.0
    np.testing.assert_array_equal(table.rows[:, 1], cum.values)


def _tiny_fit():
    def batch(path, lefts, rights):
        return np.asarray(rights) - np.asarray(lefts)

    germ = Germ(name="additive", batch=batch)
    return estimate_convergence_rate(
        germ, FbmConfig(hurst=0.5, grid_n=2 ** 7, seed=1), (4, 5, 6, 7),
        replicas=2)


def test_rate_csv(tmp_path):
    fit = _tiny_fit()
    f = str(tmp_path / "rate.csv")
    write_rate_csv(f, fit)
    table = read_table(f)
    assert table.meta["germ"] == "additive"
    assert table.meta["exact"] is True
    assert table.rows.shape == (len(fit.meshes), 3)
    np.testing.assert_array_equal(table.rows[:, 0], fit.meshes)


def test_probe_csv(tmp_path):
    rep = uniqueness_probe(0.75, 0.3, coeffs=constant_pair(1.0),
                           mesh_levels=(5, 6), scales=(0.25, 0.125),
                           replicas=2, seed=3)
    f = str(tmp_path / "probe.csv")
    write_probe_csv(f, rep)
    table = read_table(f)
    assert table.columns == ("replica", "level_a", "scale_a", "level_b",
                             "scale_b", "sup_distance")
    assert table.rows.shape == (rep.pair_table.shape[0], 6)
    assert table.meta["coefficient"] == "constant"
    assert table.meta["threshold_young"] == pytest.approx(1.0 / 3.0)
