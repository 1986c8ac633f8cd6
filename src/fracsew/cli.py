"""Experiment runner: sample paths, local-time curves, rate fits, SDE probes.

Every subcommand is a pure function of its effective configuration (preset,
then config file, then command-line overrides): outputs are byte-identical
across reruns, and every file written embeds the configuration hash and seed
in header comments.

Exit codes: 0 success, 1 report found failing checks, 2 configuration
problems, 3 numerical failures.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

import numpy as np

from .csvio import (_meta_lines, format_value, parse_scalar, read_table,
                    write_cumulative_csv, write_curve_csv, write_path_csv,
                    write_probe_csv, write_rate_csv, write_table)
from .errors import (AccuracyError, AlignmentError, CapabilityError,
                     ConfigurationError, DomainError, EmbeddingError,
                     FracsewError, NumericalError)
from .fbm import FbmConfig, sample_fbm
from .fsde import constant_pair, delta_thresholds, holder_pair, uniqueness_probe
from .integrals import get_integrand, ito_germ, stratonovich_germ, variation_germ
from .local_time import (cumulative_local_time, default_level_grid,
                         local_time_curve, upcross_germ, validate_m_condition)
from .sewing import Germ, dyadic_partition, estimate_convergence_rate
from .svgplot import Series, polyline_svg, write_svg

__all__ = ["main"]

_CURVE_TAGS = ("upcross", "count", "excess", "occupation", "bidirectional")

SCHEMAS: dict[str, dict[str, type]] = {
    "sample": {"hurst": float, "horizon": float, "grid_exp": int, "seed": int,
               "method": str, "var0": float, "dim": int},
    "localtime": {"hurst": float, "horizon": float, "grid_exp": int,
                  "seed": int, "method": str, "var0": float,
                  "estimator": str, "gamma": float, "a": float,
                  "n_levels": int, "partition_exp": int, "bandwidth": float},
    "rate": {"germ": str, "hurst": float, "horizon": float, "seed": int,
             "method": str, "var0": float, "levels": str, "m": float,
             "replicas": int, "p": float, "a": float, "gamma": float},
    "sde": {"mode": str, "case": str, "hurst": float, "delta": float,
            "x0": float, "levels": str, "scales": str, "replicas": int,
            "horizon": float, "seed": int, "kappa": float,
            "drift_strength": float},
}

DEFAULTS: dict[str, dict[str, str]] = {
    "sample": {"horizon": "1.0", "grid_exp": "10", "seed": "0",
               "method": "circulant", "var0": "0.0", "dim": "1"},
    "localtime": {"horizon": "1.0", "grid_exp": "12", "seed": "0",
                  "method": "circulant", "var0": "0.0", "estimator": "all",
                  "gamma": "0.0", "a": "0.0", "n_levels": "400"},
    "rate": {"horizon": "1.0", "seed": "0", "method": "circulant",
             "var0": "0.0", "levels": "4:9", "m": "2.0", "replicas": "64",
             "a": "0.0", "gamma": "0.0"},
    "sde": {"mode": "both", "case": "a", "hurst": "0.75", "delta": "0.25",
            "x0": "0.1", "levels": "8:11", "scales": "3:6", "replicas": "12",
            "horizon": "1.0", "seed": "0", "kappa": "0.5",
            "drift_strength": "0.5"},
}

REQUIRED: dict[str, tuple[str, ...]] = {
    "sample": ("hurst",),
    "localtime": ("hurst",),
    "rate": ("germ", "hurst"),
    "sde": (),
}

PRESETS: dict[str, dict[str, str]] = {
    "figure1": {"hurst": "0.1", "grid_exp": "14", "horizon": "1.0",
                "seed": "101", "a": "0.0", "estimator": "all"},
    "figure2": {"hurst": "0.6", "grid_exp": "14", "horizon": "1.0",
                "seed": "202", "a": "0.0", "estimator": "all"},
}


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and '#' comments allowed."""
    if not os.path.isfile(path):
        raise ConfigurationError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            if "=" not in body:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected key=value, got {body!r}")
            key, _, val = body.partition("=")
            key, val = key.strip(), val.strip()
            if key in out:
                raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = val
    return out


def effective_config(command: str, preset: str | None, config_path: str | None,
                     seed_override: int | None) -> dict:
    schema = SCHEMAS[command]
    raw = dict(DEFAULTS[command])
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(f"unknown preset {preset!r}")
        raw.update({k: v for k, v in PRESETS[preset].items() if k in schema})
    if config_path is not None:
        file_cfg = read_config_file(config_path)
        unknown = sorted(set(file_cfg) - set(schema))
        if unknown:
            raise ConfigurationError(
                f"unknown config keys for {command}: {', '.join(unknown)}")
        raw.update(file_cfg)
    if seed_override is not None:
        raw["seed"] = str(seed_override)
    missing = sorted(k for k in REQUIRED[command] if k not in raw)
    if missing:
        raise ConfigurationError(
            f"missing required config keys for {command}: {', '.join(missing)}")
    cast: dict = {}
    for key, val in raw.items():
        try:
            cast[key] = schema[key](val)
        except ValueError as exc:
            raise ConfigurationError(
                f"config key {key}={val!r} is not a valid {schema[key].__name__}") from exc
        if schema[key] is float and not math.isfinite(cast[key]):
            raise ConfigurationError(f"config key {key}={val!r} is not finite")
    return cast


def config_hash(command: str, cfg: dict) -> str:
    canon = [f"command={command}"]
    canon.extend(f"{k}={format_value(v)}" for k, v in sorted(cfg.items()))
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def _parse_level_list(spec: str) -> list[int]:
    try:
        if ":" in spec:
            lo, hi = spec.split(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(part) for part in spec.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse level list {spec!r}") from exc


def _grid_levels(spec: str) -> list[int]:
    """A nonempty level list whose every level is a valid grid exponent."""
    levels = _parse_level_list(spec)
    if not levels:
        raise ConfigurationError("levels list is empty")
    for level in levels:
        _check_grid_exp(level, "levels")
    return levels


def _parse_scales(spec: str) -> list[float]:
    return [2.0 ** -k for k in _parse_level_list(spec)]


def _meta(command: str, cfg: dict) -> dict:
    return {"command": command,
            "config_sha256": config_hash(command, cfg),
            "seed": cfg.get("seed", 0)}


def _svg_comments(meta: dict) -> tuple[str, ...]:
    return (f"config_sha256={meta['config_sha256']}", f"seed={meta['seed']}")


def _check_grid_exp(value: int, key: str = "grid_exp") -> int:
    if not 1 <= value <= 24:
        raise ConfigurationError(f"{key} must lie in [1, 24], got {value}")
    return value


def _sample_from_cfg(cfg: dict) -> tuple[FbmConfig, "np.ndarray"]:
    exp = _check_grid_exp(cfg["grid_exp"])
    config = FbmConfig(hurst=cfg["hurst"], horizon=cfg["horizon"],
                       grid_n=2 ** exp, var0=cfg["var0"], seed=cfg["seed"],
                       dim=cfg.get("dim", 1))
    return config, sample_fbm(config, method=cfg["method"])


def cmd_sample(cfg: dict, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    meta = _meta("sample", cfg)
    _, path = _sample_from_cfg(cfg)
    csv_file = os.path.join(out_dir, "path.csv")
    write_path_csv(csv_file, path, meta)
    if path.dim == 1:
        series = [Series(path.times, path.values, "path")]
    else:
        series = [Series(path.times, path.values[:, k], f"component {k}")
                  for k in range(path.dim)]
    svg = polyline_svg(series, title=f"sampled path, hurst={cfg['hurst']:g}",
                       x_label="t", y_label="B(t)",
                       comments=_svg_comments(meta))
    write_svg(os.path.join(out_dir, "path.svg"), svg)
    print(f"wrote {csv_file} ({path.times.size} rows) and path.svg")
    return 0


def _write_summary(file_path: str, meta: dict, entries: dict) -> None:
    lines = _meta_lines(meta)
    lines.extend(f"{k}={format_value(v)}" for k, v in entries.items())
    with open(file_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_summary(file_path: str) -> dict:
    """Parse a summary.txt back into a dict (comments included)."""
    out: dict = {}
    with open(file_path, "r") as fh:
        for line in fh:
            body = line.strip()
            if body.startswith("#"):
                body = body[1:].strip()
            if not body or "=" not in body:
                continue
            key, _, raw = body.partition("=")
            out[key.strip()] = parse_scalar(raw)
    return out


def cmd_localtime(cfg: dict, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    meta = _meta("localtime", cfg)
    if cfg["estimator"] != "all" and cfg["estimator"] not in _CURVE_TAGS:
        raise ConfigurationError(
            f"estimator must be one of {('all',) + _CURVE_TAGS}, got {cfg['estimator']!r}")
    _, path = _sample_from_cfg(cfg)
    part_exp = cfg.get("partition_exp", cfg["grid_exp"])
    _check_grid_exp(part_exp, "partition_exp")
    if part_exp > cfg["grid_exp"]:
        raise ConfigurationError("partition_exp cannot exceed grid_exp")
    partition = dyadic_partition(cfg["horizon"], part_exp)
    levels = default_level_grid(path, cfg["n_levels"])
    tags = _CURVE_TAGS if cfg["estimator"] == "all" else (cfg["estimator"],)
    series = []
    curves = {}
    for tag in tags:
        curve = local_time_curve(path, partition, tag, levels,
                                 gamma=cfg["gamma"],
                                 bandwidth=cfg.get("bandwidth"))
        curves[tag] = curve
        write_curve_csv(os.path.join(out_dir, f"curve_{tag}.csv"), curve, meta)
        series.append(Series(curve.levels, curve.values, tag))
    occupation = curves.get("occupation") or local_time_curve(
        path, partition, "occupation", levels, bandwidth=cfg.get("bandwidth"))
    integral = occupation.trapezoid_integral()
    rel_err = abs(integral - cfg["horizon"]) / cfg["horizon"]

    cumulative = cumulative_local_time(path, partition, cfg["a"])
    write_cumulative_csv(os.path.join(out_dir, "cumulative.csv"), cumulative, meta)
    nondecreasing = bool(np.all(np.diff(cumulative.values) >= 0.0))

    svg = polyline_svg(series,
                       title=f"local time, hurst={cfg['hurst']:g}",
                       x_label="level a", y_label="L_T(a)",
                       comments=_svg_comments(meta))
    write_svg(os.path.join(out_dir, "localtime.svg"), svg)
    cum_svg = polyline_svg(
        [Series(cumulative.times, cumulative.values, f"a={cfg['a']:g}")],
        title=f"cumulative local time at a={cfg['a']:g}",
        x_label="t", y_label="L_t(a)", comments=_svg_comments(meta))
    write_svg(os.path.join(out_dir, "cumulative.svg"), cum_svg)

    _write_summary(os.path.join(out_dir, "summary.txt"), meta, {
        "occupation_integral": integral,
        "horizon": cfg["horizon"],
        "occupation_rel_error": rel_err,
        "cumulative_nondecreasing": nondecreasing,
        "m2_condition": validate_m_condition(cfg["hurst"], 2.0),
    })
    print(f"wrote {len(tags)} curve files, cumulative.csv, summary.txt "
          f"(occupation integral {integral:.4g} vs horizon {cfg['horizon']:g})")
    return 0


def _resolve_germ(cfg: dict) -> Germ:
    spec = cfg["germ"]
    hurst = cfg["hurst"]
    if spec == "variation":
        p = cfg.get("p", 1.0 / hurst)
        return variation_germ(p)
    if spec == "additive":
        return Germ(name="additive", batch=lambda dt, bs, bt: dt)
    if spec == "upcross":
        return upcross_germ(cfg["a"], hurst, cfg["gamma"])
    if spec.startswith("ito:"):
        return ito_germ(get_integrand(spec.split(":", 1)[1]), hurst)
    if spec.startswith("strat:"):
        return stratonovich_germ(get_integrand(spec.split(":", 1)[1]), hurst)
    raise ConfigurationError(
        f"unknown germ {spec!r}; expected variation, additive, upcross, "
        "ito:<integrand>, or strat:<integrand>")


def cmd_rate(cfg: dict, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    meta = _meta("rate", cfg)
    levels = _grid_levels(cfg["levels"])
    germ = _resolve_germ(cfg)
    config = FbmConfig(hurst=cfg["hurst"], horizon=cfg["horizon"],
                       grid_n=2 ** max(levels), var0=cfg["var0"],
                       seed=cfg["seed"])
    fit = estimate_convergence_rate(germ, config, levels, m=cfg["m"],
                                    replicas=cfg["replicas"],
                                    method=cfg["method"])
    write_rate_csv(os.path.join(out_dir, "rate.csv"), fit, meta)

    values = np.array([e.value for e in fit.lm_distances])
    pos = values > 0.0
    if np.any(pos[:-1]):
        series = [Series(np.log10(fit.meshes[:-1][pos[:-1]]),
                         np.log10(values[:-1][pos[:-1]]), germ.name)]
        x_label, y_label = "log10 mesh", "log10 L_m distance"
    else:
        series = [Series(fit.meshes, values, germ.name)]
        x_label, y_label = "mesh", "L_m distance"
    title = ("exact germ (rate unbounded)" if fit.exact else
             f"epsilon_hat={fit.epsilon_hat:.3g}, r2={fit.r_squared:.3g}")
    svg = polyline_svg(series, title=title, x_label=x_label, y_label=y_label,
                       comments=_svg_comments(meta))
    write_svg(os.path.join(out_dir, "rate.svg"), svg)
    print(f"wrote rate.csv: germ={germ.name} epsilon_hat={fit.epsilon_hat:.4g} "
          f"r2={fit.r_squared:.4g} exact={fit.exact}")
    return 0


def cmd_sde(cfg: dict, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    meta = _meta("sde", cfg)
    mode = cfg["mode"]
    if mode not in ("both", "probe", "thresholds"):
        raise ConfigurationError(f"mode must be both/probe/thresholds, got {mode!r}")
    if mode in ("both", "probe"):
        levels = _grid_levels(cfg["levels"])

    if mode in ("both", "thresholds"):
        grid = np.linspace(0.505, 0.995, 99)
        block = np.column_stack(
            (grid, [delta_thresholds(h) for h in grid.tolist()]))
        write_table(os.path.join(out_dir, "thresholds.csv"),
                    ["hurst", "strong", "weak", "young"], block, meta)
        print("wrote thresholds.csv (99 rows)")

    if mode in ("both", "probe"):
        case = cfg["case"]
        if case in ("a", "b"):
            # case b is case a's pair, asserted positive: with kappa < 1 it
            # is symmetric positive definite everywhere
            if case == "b" and not cfg["kappa"] < 1.0:
                raise ConfigurationError("case b needs kappa < 1 for positivity")
            coeffs = holder_pair(cfg["delta"], kappa=cfg["kappa"])
        elif case == "c":
            coeffs = holder_pair(cfg["delta"], kappa=cfg["kappa"],
                                 drift_strength=cfg["drift_strength"])
        elif case == "constant":
            coeffs = constant_pair([[0.8]])
        else:
            raise ConfigurationError(f"case must be a/b/c/constant, got {case!r}")
        report = uniqueness_probe(
            cfg["hurst"], cfg["delta"], x0=cfg["x0"],
            mesh_levels=tuple(levels),
            scales=tuple(_parse_scales(cfg["scales"])),
            replicas=cfg["replicas"], seed=cfg["seed"],
            horizon=cfg["horizon"], coeffs=coeffs)
        write_probe_csv(os.path.join(out_dir, "probe.csv"), report, meta)
        print(f"wrote probe.csv: final={report.max_final_distance:.4g} "
              f"decay={report.fitted_decay:.4g} plateau_free={report.plateau_free}")
    return 0


def _number(value, what: str) -> float:
    """A number read back from a result file; anything else makes the file
    malformed."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{what} is not a number: {value!r}") from None


def _read_series(full: str, rel: str):
    """A curve or cumulative table: its checks read the second column."""
    table = read_table(full)
    if table.rows.shape[1] < 2:
        raise ConfigurationError(f"{rel} has fewer than two columns")
    return table


def _report_rows(out_dir: str) -> list[tuple]:
    rows: list[tuple] = []
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for fname in sorted(files):
            full = os.path.join(root, fname)
            rel = os.path.relpath(full, out_dir)
            if fname == "report.csv":
                continue
            if fname.endswith(".csv") and fname.startswith("path"):
                table = read_table(full)
                ok = table.rows.size > 0 and bool(np.all(np.isfinite(table.rows)))
                rows.append((rel, "path_finite", float(table.rows.shape[0]),
                             "finite rows", "PASS" if ok else "FAIL"))
            elif fname.startswith("curve_") and fname.endswith(".csv"):
                table = _read_series(full, rel)
                ok = bool(np.all(np.isfinite(table.rows))
                          and np.all(table.rows[:, 1] >= 0.0))
                rows.append((rel, "curve_nonnegative", float(table.rows.shape[0]),
                             "finite and >= 0", "PASS" if ok else "FAIL"))
            elif fname == "cumulative.csv":
                table = _read_series(full, rel)
                if table.rows.shape[0] == 0:
                    raise ConfigurationError(f"{rel} has no data rows")
                ok = bool(np.all(np.diff(table.rows[:, 1]) >= 0.0))
                rows.append((rel, "cumulative_nondecreasing",
                             float(table.rows[-1, 1]), "monotone",
                             "PASS" if ok else "FAIL"))
            elif fname == "summary.txt":
                summary = read_summary(full)
                if "occupation_rel_error" in summary:
                    err = _number(summary["occupation_rel_error"],
                                  f"{rel} occupation_rel_error")
                    rows.append((rel, "occupation_identity", err, "<= 0.03",
                                 "PASS" if err <= 0.03 else "FAIL"))
            elif fname == "rate.csv":
                table = read_table(full)
                exact = table.meta.get("exact") is True
                eps = _number(table.meta.get("epsilon_hat", float("nan")),
                              f"{rel} epsilon_hat")
                ok = exact or (np.isfinite(eps) and eps > 0.0)
                rows.append((rel, "rate_positive", eps, "> 0 or exact",
                             "PASS" if ok else "FAIL"))
                # meshes, L_m distances and their stderrs
                ok = bool(np.all(np.isfinite(table.rows)) and np.all(table.rows >= 0.0))
                rows.append((rel, "rate_distances", float(table.rows.shape[0]),
                             "finite and >= 0", "PASS" if ok else "FAIL"))
            elif fname == "probe.csv":
                table = read_table(full)
                plateau = table.meta.get("plateau_free")
                final = _number(table.meta.get("max_final_distance", float("nan")),
                                f"{rel} max_final_distance")
                ok = plateau is not False and np.isfinite(final)
                rows.append((rel, "probe_no_plateau", final,
                             "decaying distances", "PASS" if ok else "FAIL"))
    return rows


def cmd_report(out_dir: str) -> int:
    if not os.path.isdir(out_dir):
        raise ConfigurationError(f"not a directory: {out_dir}")
    rows = _report_rows(out_dir)
    if not rows:
        raise ConfigurationError(f"no recognized result files under {out_dir}")
    meta = {"command": "report",
            "config_sha256": hashlib.sha256(b"command=report").hexdigest(),
            "seed": 0,
            "files_checked": len(rows)}
    write_table(os.path.join(out_dir, "report.csv"),
                ["source", "check", "value", "target", "status"], rows, meta)
    failures = sum(1 for r in rows if r[4] == "FAIL")
    print(f"report.csv: {len(rows)} checks, {failures} failures")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsew",
        description="Rough-path toolkit experiments: sampling, local time, "
                    "convergence rates, Young SDE probes.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "sample": "sample one driver path to CSV + SVG",
        "localtime": "local-time curves and cumulative local time",
        "rate": "empirical L_m convergence rate of a germ's Riemann sums",
        "sde": "Young SDE thresholds and the uniqueness probe",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--preset", choices=sorted(PRESETS),
                        help="named built-in configuration")
    rp = sub.add_parser("report", help="aggregate checks over an output directory")
    rp.add_argument("--out", required=True, help="directory holding command outputs")
    return parser


_DISPATCH = {
    "sample": cmd_sample,
    "localtime": cmd_localtime,
    "rate": cmd_rate,
    "sde": cmd_sde,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.out)
        cfg = effective_config(args.command, args.preset, args.config, args.seed)
        return _DISPATCH[args.command](cfg, args.out)
    except (ConfigurationError, DomainError, AlignmentError,
            CapabilityError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, AccuracyError, EmbeddingError, FracsewError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
