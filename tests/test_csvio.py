import numpy as np
import pytest

from fracsew import (
    ConfigurationError,
    CumulativeCurve,
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
from fracsew.cli import main
from fracsew.csvio import (
    format_value,
    parse_scalar,
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
    assert format_value(np.bool_(True)) == "true"
    assert format_value(np.bool_(False)) == "false"
    assert format_value(np.float32(0.5)) == "0.5"
    assert format_value(-0.0) == "-0"


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


@pytest.mark.parametrize("row", ["0.5,abc", "0.5", "0.5,1.0,2.0"])
def test_malformed_row_rejected(tmp_path, row):
    f = tmp_path / "broken.csv"
    f.write_text(f"x,y\n0.0,1.0\n{row}\n")
    with pytest.raises(ConfigurationError, match="broken.csv"):
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
    table = read_table(f)
    meta = table.meta
    np.testing.assert_array_equal(table.rows[:, 0], p.times)
    np.testing.assert_array_equal(table.rows[:, 1], p.values)
    assert meta["hurst"] == 0.3
    assert meta["method"] == "circulant"
    assert meta["note"] == "unit"


def test_vector_path_round_trip(tmp_path):
    p = sample_fbm(FbmConfig(hurst=0.5, grid_n=8, seed=4, dim=2))
    f = str(tmp_path / "path2.csv")
    write_path_csv(f, p)
    table = read_table(f)
    assert table.rows.shape == (9, 3)
    np.testing.assert_array_equal(table.rows[:, 1:], p.values)
    assert table.columns == ("t", "value0", "value1")


def test_curve_round_trip(tmp_path):
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=256, seed=4))
    curve = local_time_curve(p, dyadic_partition(1.0, 8), "upcross",
                             default_level_grid(p, 31))
    f = str(tmp_path / "curve.csv")
    write_curve_csv(f, curve)
    table = read_table(f)
    meta = table.meta
    np.testing.assert_array_equal(table.rows[:, 0], curve.levels)
    np.testing.assert_array_equal(table.rows[:, 1], curve.values)
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
    germ = Germ(name="additive", batch=lambda dt, bs, bt: dt)
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


def test_numpy_bool_round_trips(tmp_path):
    f = str(tmp_path / "flag.csv")
    write_table(f, ["x"], [(0.5,)], {"flag": np.bool_(True)})
    assert read_table(f).meta["flag"] is True
    write_table(f, ["x", "ok"], [(0.5, np.bool_(False))])
    assert open(f).read() == "x,ok\n0.5,false\n"


def _per_cell(v) -> str:
    """The cell rule as a chain of isinstance tests on each cell."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _reference_lines(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_per_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _data_lines(file_path: str) -> str:
    """A written table without its leading ``# key=value`` lines."""
    text = open(file_path, newline="").read()
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# "))


def test_write_table_matches_per_cell_reference(tmp_path):
    f = str(tmp_path / "mixed.csv")
    rows = [
        (0.1, np.float64(1.0 / 3.0), np.int64(-7), True, "tag"),
        [-0.0, np.float64(-0.0), np.nan, np.inf, -np.inf],
        (5e-324, 1e-17, np.float32(0.1), False, np.int32(3)),
        np.array([2.0 ** 60, -1.2345678901234567e-5, 1e300, 0.0, 7.0]),
        (np.float64(np.nan), 12345678901234567890, 1.0, "x y", 2.5e-310),
    ]
    meta = {"a": 0.1, "b": np.float64(5e-324), "c": np.int64(3),
            "d": False, "e": "text", "f": -0.0}
    write_table(f, ["c0", "c1", "c2", "c3", "c4"], rows, meta)
    expected = "".join(f"# {k}={_per_cell(v)}\n" for k, v in meta.items())
    expected += _reference_lines(["c0", "c1", "c2", "c3", "c4"], rows)
    assert open(f, "rb").read() == expected.encode()


def test_typed_writers_match_per_cell_reference(tmp_path):
    p = sample_fbm(FbmConfig(hurst=0.3, grid_n=256, seed=4))
    f = str(tmp_path / "path.csv")
    write_path_csv(f, p)
    assert _data_lines(f) == _reference_lines(["t", "value"],
                                              zip(p.times, p.values))

    # a dim-2 path.csv, meta lines included, byte for byte
    p2 = sample_fbm(FbmConfig(hurst=0.6, grid_n=64, seed=5, dim=2))
    write_path_csv(f, p2, {"note": "unit"})
    meta = {"hurst": p2.hurst, "horizon": p2.horizon, "grid_n": p2.grid_n,
            "var0": p2.var0, "method": p2.method, "note": "unit"}
    expected = "".join(f"# {k}={_per_cell(v)}\n" for k, v in meta.items())
    expected += _reference_lines(
        ["t", "value0", "value1"],
        ((t, *vals) for t, vals in zip(p2.times, p2.values)))
    assert open(f, "rb").read() == expected.encode()

    curve = local_time_curve(p, dyadic_partition(1.0, 8), "excess",
                             default_level_grid(p, 31))
    write_curve_csv(f, curve)
    assert _data_lines(f) == _reference_lines(
        ["level", "value"], zip(curve.levels, curve.values))

    cum = cumulative_local_time(p, dyadic_partition(1.0, 8), 0.0)
    write_cumulative_csv(f, cum)
    assert _data_lines(f) == _reference_lines(
        ["t", "value"], zip(cum.times, cum.values))

    rep = uniqueness_probe(0.75, 0.3, mesh_levels=(5, 6),
                           scales=(0.25, 0.125), replicas=3, seed=3)
    write_probe_csv(f, rep)
    assert _data_lines(f) == _reference_lines(
        ["replica", "level_a", "scale_a", "level_b", "scale_b",
         "sup_distance"],
        ((int(r[0]), int(r[1]), r[2], int(r[3]), r[4], r[5])
         for r in rep.pair_table))

    fit = _tiny_fit()
    write_rate_csv(f, fit)
    assert _data_lines(f) == _reference_lines(
        ["mesh", "lm_distance", "stderr"],
        ((mesh, lm.value, lm.stderr)
         for mesh, lm in zip(fit.meshes, fit.lm_distances)))


_AWKWARD = [-0.0, 5e-324, np.inf, -np.inf, np.nan, 1e300, 0.1, 3.0, 1e16,
            2.0 ** 53]


@pytest.mark.parametrize("shape", [(10, 1), (5, 2), (1, 10)])
def test_float_block_cells_match_format_value(tmp_path, shape):
    f = str(tmp_path / "block.csv")
    columns = [f"c{k}" for k in range(shape[1])]
    write_table(f, columns, np.array(_AWKWARD).reshape(shape))
    lines = open(f, newline="").read().split("\n")
    assert lines[0] == ",".join(columns) and lines[-1] == ""
    cells = ",".join(lines[1:-1]).split(",")
    assert cells == [format_value(v) for v in _AWKWARD] == [
        "-0", "4.9406564584124654e-324", "inf", "-inf", "nan",
        "1.0000000000000001e+300", "0.10000000000000001", "3",
        "10000000000000000", "9007199254740992"]


def test_bool_and_integer_arrays_keep_the_cell_rule(tmp_path):
    f = str(tmp_path / "typed.csv")
    write_table(f, ["a", "b"], np.array([[True, False], [False, True]]))
    assert open(f).read() == "a,b\ntrue,false\nfalse,true\n"
    write_table(f, ["a", "b"], np.array([[3, -7], [0, 2 ** 62]]))
    assert open(f).read() == f"a,b\n3,-7\n0,{2 ** 62}\n"


@pytest.mark.parametrize("block", [np.zeros(3), np.zeros((3, 3)),
                                   np.zeros((2, 2, 2))],
                         ids=["one_dim", "too_many_columns", "three_dim"])
def test_float_block_must_fit_the_header(tmp_path, block):
    with pytest.raises(ConfigurationError, match="block.csv"):
        write_table(str(tmp_path / "block.csv"), ["a", "b"], block)


@pytest.mark.parametrize("rows, bad", [([(1.0,), ("x", 2, 3)], "row 0 (1.0,)"),
                                       ([("x", 1.0), ("x", 2, 3)], "row 1 ('x', 2, 3)")],
                         ids=["short", "long"])
def test_cell_rows_must_fit_the_header(tmp_path, rows, bad):
    f = tmp_path / "ragged.csv"
    with pytest.raises(ConfigurationError) as exc:
        write_table(str(f), ["a", "b"], rows)
    assert str(exc.value).startswith(f"ragged.csv: {bad} has ")
    assert not f.exists()


def test_zero_row_block_writes_meta_and_header_only(tmp_path):
    f = str(tmp_path / "empty.csv")
    write_table(f, ["t", "value"], np.empty((0, 2)), {"k": 1, "x": 0.5})
    assert open(f, "rb").read() == b"# k=1\n# x=0.5\nt,value\n"

    out = tmp_path / "runs"
    out.mkdir()
    empty = CumulativeCurve(np.empty(0), np.empty(0), 0.0,
                            "upcross(gamma=0)", 0.3)
    write_cumulative_csv(str(out / "cumulative.csv"), empty)
    assert (out / "cumulative.csv").read_bytes() == (
        b"# estimator=upcross(gamma=0)\n# level=0\n# hurst=0.29999999999999999\n"
        b"t,value\n")
    assert main(["report", "--out", str(out)]) == 2

