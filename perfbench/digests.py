"""sha256 digests of every benchmark operation's outputs.

    python3 perfbench/digests.py [--seed 0]

Runs round 0 of every workload under the seed base (untimed, unchecked)
and prints,
then writes to ``.perfbench_out/digests.json``, one digest per output file
of every CLI operation, and one per library operation over its returned
numbers written with 17 significant digits.  Two commits that give the same
digests wrote the same bytes.  The digests are a reference, not a gate.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fracsew  # noqa: E402
import fracsew.cli  # noqa: E402,F401
import numpy as np  # noqa: E402

from checks import file_digests  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest_of(result) -> dict[str, str]:
    if isinstance(result, str) and os.path.isdir(result):
        return file_digests(result)
    numbers = np.ravel(np.asarray(result, dtype=float))
    text = ",".join(format(float(x), ".17g") for x in numbers)
    return {"result": hashlib.sha256(text.encode()).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="seed base (default 0)")
    args = parser.parse_args()
    out_root = os.path.join(ROOT, ".perfbench_out")
    digests = {}
    for name, make in WORKLOADS.items():
        workload = make(fracsew, os.path.join(out_root, "digests"))
        for j, op in enumerate(workload.round(args.seed, 0)):
            with contextlib.redirect_stdout(io.StringIO()):
                result = op.run()
            for file_name, digest in digest_of(result).items():
                key = f"{name}/op{j} {op.label}/{file_name}"
                digests[key] = digest
                print(f"{digest}  {key}")
    with open(os.path.join(out_root, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
