"""Output checks of the benchmark's operations.

Every check recomputes what the output must satisfy from closed forms or
from properties the method has; none compares against a stored copy of an
earlier output.  Each check raises :class:`CheckFailed` with a reason.  The
module reads the program's files with its own parser and needs only the
standard library and numpy, so a fault in the program's reader cannot hide
a fault in its writer.
"""
from __future__ import annotations

import hashlib
import math
import os

import numpy as np

CURVE_TAGS = ("upcross", "count", "excess", "occupation", "bidirectional")


class CheckFailed(Exception):
    """An operation's output broke one of its checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# closed forms, computed here and not taken from the program


def c_h(hurst: float) -> float:
    """(3/2 - H)/(2H) * B(2 - 2H, H + 1/2): Var(B_t - B_s) = c_h |t - s|^(2H)."""
    log_beta = (math.lgamma(2.0 - 2.0 * hurst) + math.lgamma(hurst + 0.5)
                - math.lgamma(2.5 - hurst))
    return (1.5 - hurst) / (2.0 * hurst) * math.exp(log_beta)


def frak_c0(hurst: float) -> float:
    """sqrt(c_h / (2 pi)), the up-crossing constant at gamma = 0."""
    return math.sqrt(c_h(hurst) / (2.0 * math.pi))


def thresholds(hurst: float) -> tuple[float, float, float]:
    """(strong, weak, young) gradient-Holder thresholds at one Hurst index."""
    num = (1.0 - hurst) * (2.0 - hurst)
    return (num / (hurst * (3.0 - hurst)), num / (1.0 + hurst - hurst * hurst),
            (1.0 - hurst) / hurst)


def abs_mean(hurst: float, horizon: float = 1.0) -> float:
    """E|B_T| = sqrt(2 c_h / pi) T^H for a path started at 0."""
    return math.sqrt(2.0 * c_h(hurst) / math.pi) * horizon ** hurst


def sign_sum_mean(hurst: float, n: int, horizon: float = 1.0) -> float:
    """E of the left-point sum of sign(B_s)(B_t - B_s) over n equal steps.

    The sum is |B_T| - sum_k D_k with D_k = |B_t| - sign(B_s) B_t, which is
    2|B_t| on a sign change and 0 otherwise; for a centred Gaussian pair
    with correlation rho, E[D_k] = 2 sigma_t (1 - rho) / sqrt(2 pi).  The
    first step starts at B_0 = 0, where sign is 0 and D_1 = |B_t1|.  For
    H > 1/2 this tends to E|B_T| as n grows, but at n = 2^12 and H = 0.75
    the gap is still about 0.7 Monte Carlo stderr of 500 replicas.
    """
    c = c_h(hurst)
    t = np.arange(1, n + 1) * (horizon / n)
    s = t[:-1]
    t = t[1:]
    sig_s, sig_t = np.sqrt(c) * s ** hurst, np.sqrt(c) * t ** hurst
    cov = 0.5 * c * (t ** (2 * hurst) + s ** (2 * hurst) - (t - s) ** (2 * hurst))
    rho = cov / (sig_s * sig_t)
    first = math.sqrt(c) * (horizon / n) ** hurst * math.sqrt(2.0 / math.pi)
    return abs_mean(hurst, horizon) - first - float(
        np.sum(2.0 * sig_t * (1.0 - rho))) / math.sqrt(2.0 * math.pi)


def check_z_scores(z: list[float], what: str) -> None:
    """The mean of independent z-scores sits within 4 of its own stderr.

    Each operation is held to 5 stderr only: the benchmark makes hundreds
    of operations, and at 4 stderr one in 16,000 would fail by chance.
    Over a whole run a systematic bias of a fraction of a stderr shows here.
    """
    require(len(z) > 0, f"no {what} z-scores")
    total = float(np.sum(z)) / math.sqrt(len(z))
    require(abs(total) <= 4.0,
            f"{what}: mean z-score {float(np.mean(z)):.3g} over {len(z)} "
            f"operations is {total:.3g} of its stderr")


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(file_path: str) -> tuple[dict, list[str], np.ndarray]:
    """(metadata, columns, rows) of a `# key=value` commented CSV."""
    require(os.path.isfile(file_path), f"missing output {file_path}")
    meta: dict = {}
    columns: list[str] | None = None
    rows: list[list[float]] = []
    with open(file_path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key.strip()] = val.strip()
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append([float(cell) for cell in line.split(",")])
    require(columns is not None, f"{file_path} has no header")
    table = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return meta, columns, table


def file_digests(directory: str) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    out = {}
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# localtime_figures


def curve_integral(levels: np.ndarray, values: np.ndarray) -> float:
    """Trapezoid integral of a curve over its levels."""
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(levels)))


def check_localtime(out_dir: str, hurst: float, grid_exp: int,
                    horizon: float = 1.0) -> float:
    """Returns the up-crossing curve's relative integral error.

    The occupation-time formula (integrating the local time over all levels
    gives the elapsed time) holds for the kernel occupation curve within 3%
    on every path.  The up-crossing curve meets it within 10% on most paths
    only (c07), so its error is returned for :func:`check_upcross_share`.
    """
    curves = {}
    for tag in CURVE_TAGS:
        _, _, rows = read_csv(os.path.join(out_dir, f"curve_{tag}.csv"))
        require(rows.shape[0] >= 2, f"curve_{tag} has fewer than two levels")
        levels, values = rows[:, 0], rows[:, 1]
        require(bool(np.all(np.isfinite(rows))), f"curve_{tag} is not finite")
        require(bool(np.all(values >= 0.0)), f"curve_{tag} has a negative value")
        require(bool(np.all(np.diff(levels) > 0.0)),
                f"curve_{tag} levels are not increasing")
        curves[tag] = (levels, values)
    _, _, cum = read_csv(os.path.join(out_dir, "cumulative.csv"))
    require(bool(np.all(np.isfinite(cum))), "cumulative.csv is not finite")
    require(bool(np.all(cum[:, 1] >= 0.0)), "cumulative.csv has a negative value")
    require(bool(np.all(np.diff(cum[:, 1]) >= 0.0)),
            "cumulative.csv is not nondecreasing")

    occupation = curve_integral(*curves["occupation"])
    require(abs(occupation - horizon) <= 0.03 * horizon,
            f"occupation curve integrates to {occupation!r}, horizon {horizon!r}")

    # up- and down-crossings of a level alternate, so their counts differ by
    # at most one; each crossing weighs (T/n)^(1-H)
    up_levels, up = curves["upcross"]
    bi_levels, bi = curves["bidirectional"]
    require(bool(np.array_equal(up_levels, bi_levels)),
            "upcross and bidirectional curves use different levels")
    bound = (horizon / 2 ** grid_exp) ** (1.0 - hurst) / (2.0 * frak_c0(hurst))
    gap = float(np.max(np.abs(up - bi)))
    require(gap <= bound * (1.0 + 1e-9),
            f"|upcross - bidirectional| = {gap!r} exceeds {bound!r}")
    return abs(curve_integral(up_levels, up) - horizon) / horizon


def check_upcross_share(errors: list[float], tol: float = 0.10,
                        share: float = 0.9) -> None:
    """c07: the up-crossing curve integrates to the horizon within ``tol`` on
    at least ``share`` of the paths."""
    inside = sum(e <= tol for e in errors)
    require(inside >= share * len(errors),
            f"up-crossing integral within {tol:.0%} on {inside} of {len(errors)} "
            f"paths, fewer than {share:.0%}")


def check_same_bytes(dir_a: str, dir_b: str) -> None:
    a, b = file_digests(dir_a), file_digests(dir_b)
    require(bool(a) and a == b, f"rerun of {dir_a} differs from {dir_b}")


# ---------------------------------------------------------------------------
# rate_ito_sign


def check_rate(out_dir: str, hurst: float, horizon: float = 1.0) -> float:
    """Returns the z-score of the limit estimate against its expectation."""
    meta, _, rows = read_csv(os.path.join(out_dir, "rate.csv"))
    require(bool(np.all(np.isfinite(rows))), "rate.csv is not finite")
    dist = rows[:, 1]
    require(bool(np.all(np.diff(dist[:-1]) < 0.0)),
            f"L2 distances do not strictly decrease: {dist.tolist()}")
    eps = float(meta["epsilon_hat"])
    require(eps > 0.15, f"epsilon_hat {eps!r} <= 0.15")
    # for H > 1/2 the Young integral of sign(B) dB is |B_T| - |B_0|; the
    # estimate is the mean sum on the finest grid, whose expectation is that
    # of the left-point sum there
    est, err = float(meta["limit_estimate"]), float(meta["limit_stderr"])
    require(err > 0.0, f"limit_stderr {err!r} is not positive")
    finest = float(rows[-1, 0])
    z = (est - sign_sum_mean(hurst, round(horizon / finest), horizon)) / err
    require(abs(z) <= 5.0, f"limit_estimate is {z:.3g} stderr from E|B_T| "
            "less the left-point bias")
    return z


# ---------------------------------------------------------------------------
# sde_probe


def check_thresholds(out_dir: str) -> None:
    _, columns, rows = read_csv(os.path.join(out_dir, "thresholds.csv"))
    require(columns == ["hurst", "strong", "weak", "young"],
            f"thresholds.csv columns {columns}")
    require(rows.shape[0] == 99, f"thresholds.csv has {rows.shape[0]} rows")
    for h, strong, weak, young in rows:
        require(0.5 < h < 1.0, f"hurst {h!r} outside (1/2, 1)")
        want = thresholds(h)
        got = (strong, weak, young)
        require(all(abs(g - w) <= 1e-12 for g, w in zip(got, want)),
                f"thresholds at H={h!r} are {got}, closed forms give {want}")
        require(strong < weak < young, f"thresholds at H={h!r} are not ordered")


def probe_matrix(rows: np.ndarray, cells: list[tuple[int, float]],
                 replicas: int) -> np.ndarray:
    """Distances as a symmetric (replica, cell, cell) array, zero diagonal."""
    index = {cell: i for i, cell in enumerate(cells)}
    dist = np.zeros((replicas, len(cells), len(cells)))
    for r, la, sa, lb, sb, d in rows:
        a, b = index.get((int(la), sa)), index.get((int(lb), sb))
        require(a is not None and b is not None and 0 <= r < replicas,
                f"probe.csv row names an unknown cell or replica: {r, la, sa, lb, sb}")
        dist[int(r), a, b] = dist[int(r), b, a] = d
    return dist


def check_probe(out_dir: str, levels: list[int], scales: list[float],
                replicas: int) -> None:
    meta, _, rows = read_csv(os.path.join(out_dir, "probe.csv"))
    cells = [(lev, sc) for lev in levels for sc in scales]
    pairs = len(cells) * (len(cells) - 1) // 2
    require(rows.shape[0] == pairs * replicas,
            f"probe.csv has {rows.shape[0]} rows, expected {pairs * replicas}")
    require(bool(np.all(np.isfinite(rows[:, 5]))), "probe distances are not finite")
    require(bool(np.all(rows[:, 5] >= 0.0)), "a probe distance is negative")
    require(meta.get("plateau_free") == "true",
            f"plateau_free={meta.get('plateau_free')}")

    dist = probe_matrix(rows, cells, replicas)
    n_diag = min(len(levels), len(scales))
    diag = [cells.index((levels[round(k * (len(levels) - 1) / (n_diag - 1))],
                         scales[round(k * (len(scales) - 1) / (n_diag - 1))]))
            for k in range(n_diag)]
    diag_d = dist[:, diag[:-1], diag[-1]].max(axis=0)
    require(bool(np.all(np.diff(diag_d) < 0.0)),
            f"diagonal distances do not strictly decrease: {diag_d.tolist()}")

    # sup distances from a cell on the coarsest grid are all taken on that
    # grid, where they form a metric: d(a,c) <= d(a,b) + d(b,c)
    coarse = [i for i, cell in enumerate(cells) if cell[0] == levels[0]]
    d_ac = dist[:, coarse, None, :]
    d_ab_bc = dist[:, coarse, :, None] + dist[:, None, :, :]
    excess = d_ac - d_ab_bc
    worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
    require(float(excess[worst]) <= 1e-15,
            f"triangle inequality fails for replica {worst[0]}: "
            f"d(a,c) - d(a,b) - d(b,c) = {float(excess[worst])!r} with "
            f"a={cells[coarse[worst[1]]]}, b={cells[worst[2]]}, c={cells[worst[3]]}")


def check_sde(out_dir: str, levels: list[int], scales: list[float],
              replicas: int) -> None:
    check_thresholds(out_dir)
    check_probe(out_dir, levels, scales, replicas)


def fitted_rate(levels: list[int], errors: np.ndarray) -> float:
    """Slope of -log(error) against log(2^level)."""
    x = np.asarray(levels, dtype=float) * math.log(2.0)
    return float(np.polyfit(x, -np.log(errors), 1)[0])


def check_euler_rate(levels: list[int], errors: np.ndarray) -> float:
    require(bool(np.all(np.isfinite(errors)) and np.all(errors > 0.0)),
            f"Euler errors are not finite and positive: {errors}")
    rate = fitted_rate(levels, errors)
    require(rate >= 0.35, f"Euler rate {rate!r} < 0.35")
    return rate


# ---------------------------------------------------------------------------
# conditional_oracle


def check_oracle(oracle: float, mc_value: float, mc_stderr: float,
                 bound: float = 5.0) -> float:
    """Returns (oracle - MC) / stderr, which must lie within ``bound``."""
    require(math.isfinite(oracle) and math.isfinite(mc_value),
            f"non-finite oracle {oracle!r} or MC value {mc_value!r}")
    require(mc_stderr > 0.0, f"MC stderr {mc_stderr!r} is not positive")
    z = (oracle - mc_value) / mc_stderr
    require(abs(z) <= bound, f"oracle is {z:.3g} stderr from Monte Carlo")
    return z


def check_oracle_set(results: list[tuple[float, float, float]],
                     bound: float = 4.0) -> None:
    """c10 over a fixed set of (oracle, MC value, MC stderr): each within
    ``bound`` stderr, and the set's mean z-score within 4 of its stderr."""
    z = [check_oracle(*r, bound=bound) for r in results]
    check_z_scores(z, "oracle - Monte Carlo over a fixed set")
