"""Runs one workload in a fresh interpreter and prints its figures as JSON.

Started by ``run.py``; not meant to be run by hand.  The first operation of
round 0 is the cold one that ends set-up; the rest of round 0 (and the
workload's one-off operations) warms the caches.  Timed rounds follow until
the next one would end after ``--seconds``.  With ``--trace 1`` the timed
rounds alternate between untraced and traced, so the tracing overhead is
measured in the same process.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402


class Runner:
    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = 0

    def report(self, message: str) -> None:
        if self.reported < 5:
            print(message, file=sys.stderr)
        self.reported += 1

    def run_op(self, op) -> tuple[float, float]:
        """Runs and checks one operation; returns its (wall, cpu) seconds.

        ``self.run_ended`` is set, on the monotonic clock, when the
        operation itself ends, before its check.
        """
        self.attempted += 1
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:
            self.run_ended = time.monotonic()
            self.failed += 1
            self.report(f"{op.label}: {exc}" if isinstance(exc, OpFailed)
                        else f"{op.label} raised:\n{traceback.format_exc()}")
            return time.perf_counter() - t0, time.process_time() - cpu0
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        self.run_ended = time.monotonic()
        try:
            op.check(result)
        except checks.CheckFailed as exc:
            if op.known_fault:
                self.failed += 1
                self.report(f"{op.label}: known fault: {exc}")
            else:
                self.correct = False
                self.report(f"{op.label}: check failed: {exc}")
        return wall, cpu

    def run_round(self, k: int) -> tuple[float, float, list[float]]:
        """(wall, cpu) of round k, checks excluded, and the wall time of each
        of its main operations."""
        wall = cpu = 0.0
        main_walls = []
        for op in self.workload.round(self.seed, k):
            w, c = self.run_op(op)
            wall += w
            cpu += c
            if op.main:
                main_walls.append(w)
        return wall, cpu, main_walls


def factor_cache_totals(fbm_module) -> tuple[int, int] | None:
    """(hits, misses) summed over the sampler module's lru caches, or None
    if it has none."""
    infos = [ci() for ci in (getattr(value, "cache_info", None)
                             for value in vars(fbm_module).values()) if callable(ci)]
    if not infos:
        return None
    return sum(ci.hits for ci in infos), sum(ci.misses for ci in infos)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import fracsew
    import fracsew.cli  # noqa: F401  (the entry point every CLI operation uses)

    out = sys.stdout
    sys.stdout = open(os.devnull, "w")   # the CLI's progress lines
    out_root = os.path.join(args.root, ".perfbench_out")
    workload = WORKLOADS[args.workload](fracsew, out_root)
    runner = Runner(workload, args.seed)

    # round 0: its first operation is the cold one that ends set-up
    ops = workload.round(args.seed, 0)
    runner.run_op(ops[0])
    setup_done = runner.run_ended
    for op in ops[1:] + workload.warmup_extra(args.seed):
        runner.run_op(op)

    tracer = Tracer() if args.trace else None
    plain, traced = [], []       # (wall, cpu, main op walls) per timed round
    spent = []                   # wall time per step, checks included
    start = time.perf_counter()
    k = 1
    while True:
        t0 = time.perf_counter()
        plain.append(runner.run_round(k))
        k += 1
        if tracer is not None:
            before = factor_cache_totals(fracsew.fbm)
            tracer.install(fracsew)
            try:
                traced.append(runner.run_round(k))
            finally:
                tracer.uninstall()
            after = factor_cache_totals(fracsew.fbm)
            if before is not None:
                tracer.counts["fbm.factor_cache.hits"] += after[0] - before[0]
                tracer.counts["fbm.factor_cache.misses"] += after[1] - before[1]
            k += 1
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(spent) > args.seconds:
            break
    sys.stdout.close()
    sys.stdout = out
    try:
        workload.finish()
    except checks.CheckFailed as exc:
        runner.correct = False
        runner.report(f"{args.workload}: check over the run failed: {exc}")

    result = {"attempted": runner.attempted, "failed": runner.failed,
              "correct": runner.correct, "setup_done": setup_done}
    if tracer is None:
        rounds = len(plain)
        result["metrics"] = {
            "wall_s": sum(r[0] for r in plain) / rounds,
            "op_p50_s": statistics.median(w for r in plain for w in r[2]),
            "cpu_s": sum(r[1] for r in plain) / rounds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        rounds = len(traced)
        wrapped = set(tracer.wrapped)
        if factor_cache_totals(fracsew.fbm) is not None:
            wrapped.add("fbm.factor_cache")
        result["wrapped"] = sorted(wrapped)
        tracer.save(os.path.join(out_root, f"spans_{args.workload}.npz"))
        layer = {}
        for name, total in tracer.total.items():
            layer[f"{name}.s"] = total / rounds
        for name, self_s in tracer.self_s.items():
            layer[f"{name}.self_s"] = self_s / rounds
        for name, count in tracer.counts.items():
            layer[name] = count / rounds
        untraced_wall = sum(r[0] for r in plain) / len(plain)
        traced_wall = sum(r[0] for r in traced) / rounds
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = untraced_wall
        layer["trace.overhead"] = traced_wall / untraced_wall
        for name, per_round in workload.expected_counts().items():
            got = tracer.counts.get(name, 0)
            if got != per_round * rounds:
                runner.correct = result["correct"] = False
                print(f"traced count {name} = {got}, the configuration gives "
                      f"{per_round} x {rounds} rounds = {per_round * rounds}",
                      file=sys.stderr)
        result["layers"] = layer
    print(json.dumps(result), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
