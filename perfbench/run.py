"""Benchmark of fracsew's acceptance scenarios, end to end and per layer.

Usage, from the root of a checkout (numpy and scipy installed; fracsew is
imported from ``src/``)::

    python3 perfbench/run.py                      # all workloads, a table
    python3 perfbench/run.py --workload rate_ito_sign --seed 3 --seconds 20 --trace 0

With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  Each workload runs in a fresh
interpreter with one BLAS thread; see README.md for what is measured.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

STARTED = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import source_of  # noqa: E402

RUN_LIMIT_S = 170.0   # one workload's run must end within 180 s


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # fixed thresholds keep glibc from moving them as blocks are freed: an
    # array of 16 MiB or more is then always mapped and unmapped on its own,
    # so peak_rss_mb follows the live arrays, not the order of their sizes
    env["MALLOC_MMAP_THRESHOLD_"] = str(16 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
    env.pop("FRACSEW_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def import_times() -> dict[str, float]:
    """import.fracsew_s and import.scipy_s from ``-X importtime``.

    Each is the cumulative time of the outermost imports of that package,
    so scipy's figure includes what scipy itself pulled in.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fracsew.cli"],
        cwd=os.path.join(ROOT, "src"), env=worker_env(), capture_output=True,
        text=True, timeout=60)
    # lines come children first; two spaces of indent per nesting level
    stack: list[tuple[int, str, int, list]] = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue          # the header line
        field = parts[2][1:]
        depth = (len(field) - len(field.lstrip(" "))) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, field.strip(), cumulative_us, children))

    def outermost(nodes, package: str) -> int:
        return sum(cum if name.split(".")[0] == package
                   else outermost(kids, package)
                   for _, name, cum, kids in nodes)
    return {f"import.{p}_s": outermost(stack, p) / 1e6 for p in ("fracsew", "scipy")}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spec: dict, deadline: float) -> dict | None:
    """The result object of one workload, or None if the worker failed.

    The worker is killed at ``deadline`` (a ``time.monotonic()`` value).
    """
    layers = import_times() if trace else {}
    started = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {name} did not finish in time", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {name} worker exited {proc.returncode}", file=sys.stderr)
        return None
    out = json.loads(lines[-1])
    if trace:
        layers.update(out["layers"])
        wanted = spec["per_layer"]
        found = layers
        # a metric without a wrapped function behind it would read 0 as if
        # the layer had become free
        for m in wanted:
            if (not m["name"].startswith(("import.", "trace."))
                    and source_of(m["name"]) not in out["wrapped"]):
                out["correct"] = False
                print(f"perfbench: {m['name']} has no traced function "
                      f"{source_of(m['name'])}", file=sys.stderr)
    else:
        found = dict(out["metrics"], setup_s=out["setup_done"] - started)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(found.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, as a table)")
    parser.add_argument("--seed", type=int, default=0, help="seed base (default 0)")
    parser.add_argument("--seconds", type=float, help="timed length of one run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "fracsew", "cli.py")):
        return fail(f"no fracsew sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(spec_file):
        return fail(f"missing {spec_file}")
    with open(spec_file) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.seed < 0:
        return fail("--seed must be nonnegative")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.workload is not None:
        if args.workload not in names:
            return fail(f"unknown workload {args.workload!r}; one of {names}")
        result = run_workload(args.workload, args.seed, seconds, args.trace, spec,
                              STARTED + RUN_LIMIT_S)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    results = {}
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace, spec,
                              time.monotonic() + RUN_LIMIT_S)
        if result is None:
            return 1
        results[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
