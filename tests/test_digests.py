"""Golden digests: every benchmark operation's outputs, byte for byte.

``golden_digests.json`` holds the sha256 digests that
``python3 perfbench/digests.py --seed 0`` prints, and the numpy version
that made them.  The test rebuilds them through the benchmark's own
workloads and ``digest_of``, so a change that moves any output byte of a
workload fails here and names every key that moved.  Any mismatch fails,
also under another numpy version, where the message says so; after a
deliberate change of outputs, rerun the script and copy its
``.perfbench_out/digests.json`` into the ``digests`` entry.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import fracsew  # noqa: E402
from digests import digest_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_outputs_match_the_golden_digests(tmp_path):
    with open(os.path.join(HERE, "golden_digests.json")) as fh:
        golden = json.load(fh)
    got = {}
    for name, make in WORKLOADS.items():
        workload = make(fracsew, str(tmp_path))
        for j, op in enumerate(workload.round(golden["seed"], 0)):
            with contextlib.redirect_stdout(io.StringIO()):
                result = op.run()
            for file_name, digest in digest_of(result).items():
                got[f"{name}/op{j} {op.label}/{file_name}"] = digest
    want = golden["digests"]
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    note = ("" if np.__version__ == golden["numpy"] else
            f" (golden digests made with numpy {golden['numpy']}, "
            f"this is numpy {np.__version__})")
    assert not moved, f"{len(moved)} of {len(want)} digests moved{note}: {moved}"
