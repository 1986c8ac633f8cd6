"""CSV output with lossless float round-trips and comment metadata.

All files share one shape: `# key=value` comment lines, then a header row,
then data rows.  Floats are written with 17 significant digits so reading
them back reproduces the exact binary values; writers emit LF newlines and
fixed formatting so reruns are byte-identical.  Every numeric writer hands
:func:`write_table` one 2-D float block, whose rows are rendered by a single
``%`` over a repeated ``%.17g`` row template; only rows that are not a float
array (``report.csv``, with its string cells) go through :func:`format_value`
cell by cell.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fbm import FbmPath
from .fsde import ProbeReport
from .local_time import CumulativeCurve, LocalTimeCurve
from .sewing import RateFitResult

__all__ = [
    "format_value",
    "parse_scalar",
    "write_table",
    "TableData",
    "read_table",
    "write_path_csv",
    "write_rate_csv",
    "write_curve_csv",
    "write_cumulative_csv",
    "write_probe_csv",
]


def format_value(v) -> str:
    """Render one cell or metadata value deterministically.

    This is the one rule for a cell's text: bools (numpy's too) as
    ``true``/``false``, integers in decimal, floats with 17 significant
    digits, anything else through ``str``.
    """
    if type(v) is float:
        return format(v, ".17g")
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _meta_lines(meta: dict) -> list[str]:
    """``# key=value`` comment lines of a metadata dict, in its order."""
    return [f"# {key}={format_value(val)}" for key, val in meta.items()]


def _block_text(block: np.ndarray) -> str:
    """Data rows of a 2-D float block, LF-terminated, in one ``%`` pass.

    ``"%.17g" % v`` is the conversion ``format(v, ".17g")`` makes, so each
    cell reads as :func:`format_value` writes it.
    """
    nrows, ncols = block.shape
    row = ",".join(["%.17g"] * ncols) + "\n"
    return (row * nrows) % tuple(block.ravel().tolist())


def write_table(file_path: str, columns: list[str], rows,
                meta: dict | None = None) -> None:
    """Write comment metadata, a header row, and data rows.

    ``rows`` is a 2-D float ``ndarray`` with one column per header name,
    rendered as one block, or any iterable of rows, each cell through
    :func:`format_value`.  Bool and integer arrays take the per-cell path,
    so their cells keep ``true``/``false`` and decimal text.  A block or row
    that does not fit the header raises :class:`ConfigurationError`, and
    nothing is written.
    """
    name = os.path.basename(file_path)
    lines = _meta_lines(meta or {})
    lines.append(",".join(columns))
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        if rows.ndim != 2 or rows.shape[1] != len(columns):
            raise ConfigurationError(
                f"{name}: a block of shape {rows.shape} does not fit "
                f"{len(columns)} columns")
        body = _block_text(rows)
    else:
        for k, row in enumerate(rows):
            cells = list(map(format_value, row))
            if len(cells) != len(columns):
                raise ConfigurationError(f"{name}: row {k} {tuple(row)!r} has "
                                         f"{len(cells)} cells, the header {len(columns)}")
            lines.append(",".join(cells))
        body = ""
    with open(file_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(body)


def parse_scalar(raw: str):
    """Best-effort typed parse of a metadata value (bool, int, float, str)."""
    low = raw.strip()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(low)
    except ValueError:
        pass
    try:
        return float(low)
    except ValueError:
        return low


@dataclass(frozen=True)
class TableData:
    columns: tuple[str, ...]
    rows: np.ndarray
    meta: dict


def read_table(file_path: str) -> TableData:
    """Inverse of :func:`write_table` for numeric tables."""
    meta: dict = {}
    columns: tuple[str, ...] | None = None
    data: list[list[float]] = []
    with open(file_path, "r") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, raw = body.partition("=")
                    meta[key.strip()] = parse_scalar(raw)
                continue
            if columns is None:
                columns = tuple(part.strip() for part in line.split(","))
                continue
            try:
                row = [float(cell) for cell in line.split(",")]
            except ValueError:
                raise ConfigurationError(
                    f"{os.path.basename(file_path)}: non-numeric cell in row "
                    f"{line!r}") from None
            if len(row) != len(columns):
                raise ConfigurationError(
                    f"{os.path.basename(file_path)}: row {line!r} has "
                    f"{len(row)} cells, the header {len(columns)}")
            data.append(row)
    if columns is None:
        raise ConfigurationError(f"{os.path.basename(file_path)} has no header row")
    rows = np.array(data, dtype=float) if data else np.empty((0, len(columns)))
    return TableData(columns=columns, rows=rows, meta=meta)


def write_path_csv(file_path: str, path: FbmPath,
                   meta: dict | None = None) -> None:
    base = {
        "hurst": path.hurst,
        "horizon": path.horizon,
        "grid_n": path.grid_n,
        "var0": path.var0,
        "method": path.method,
    }
    base.update(meta or {})
    if path.dim == 1:
        columns = ["t", "value"]
    else:
        columns = ["t"] + [f"value{k}" for k in range(path.dim)]
    write_table(file_path, columns, np.column_stack((path.times, path.values)),
                base)


def write_rate_csv(file_path: str, fit: RateFitResult,
                   meta: dict | None = None) -> None:
    base = {
        "germ": fit.germ_name,
        "epsilon_hat": fit.epsilon_hat,
        "r2": fit.r_squared,
        "m": fit.m,
        "replicas": fit.replicas,
        "limit_estimate": fit.limit_estimate.value,
        "limit_stderr": fit.limit_estimate.stderr,
        "exact": fit.exact,
    }
    base.update(meta or {})
    block = np.column_stack((fit.meshes, [(lm.value, lm.stderr)
                                          for lm in fit.lm_distances]))
    write_table(file_path, ["mesh", "lm_distance", "stderr"], block, base)


def write_curve_csv(file_path: str, curve: LocalTimeCurve,
                    meta: dict | None = None) -> None:
    base = {
        "estimator": curve.estimator,
        "hurst": curve.hurst,
        "partition_n": curve.partition_n,
        "horizon": curve.horizon,
        "normalized": curve.normalized,
    }
    base.update(meta or {})
    write_table(file_path, ["level", "value"],
                np.column_stack((curve.levels, curve.values)), base)


def write_cumulative_csv(file_path: str, curve: CumulativeCurve,
                         meta: dict | None = None) -> None:
    base = {
        "estimator": curve.estimator,
        "level": curve.level,
        "hurst": curve.hurst,
    }
    base.update(meta or {})
    write_table(file_path, ["t", "value"],
                np.column_stack((curve.times, curve.values)), base)


def write_probe_csv(file_path: str, report: ProbeReport,
                    meta: dict | None = None) -> None:
    base = {
        "coefficient": report.coefficient_name,
        "hurst": report.hurst,
        "delta": report.delta,
        "x0": report.x0,
        "replicas": report.replicas,
        "threshold_strong": report.thresholds.strong,
        "threshold_weak": report.thresholds.weak,
        "threshold_young": report.thresholds.young,
        "fitted_decay": report.fitted_decay,
        "extrapolated_final": report.extrapolated_final,
        "max_final_distance": report.max_final_distance,
        "plateau_free": ("none" if report.plateau_free is None
                         else report.plateau_free),
    }
    base.update(meta or {})
    # the integral replica and level columns are floats below 1e17, which
    # %.17g writes exactly as their decimal integers
    write_table(file_path,
                ["replica", "level_a", "scale_a", "level_b", "scale_b",
                 "sup_distance"],
                report.pair_table, base)
