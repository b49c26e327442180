"""Check that two traced runs with one seed report identical counts.

Usage, from the root of a checkout::

    python3 bench/determinism.py

Runs ``bench/run.py --trace 1 --seed 1`` twice per workload, under different
hash seeds, and compares every per-layer metric that counts work (unit
``count`` or ``ratio``: calls, computed multiply-adds, operand fill,
distinct inputs, errors, known defects).  Timings are not compared.  Any
difference is a benchmark defect; the script prints it and exits 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import ROOT, WORKLOADS

COUNT_UNITS = ("count", "ratio")
SEED = 1


def traced_counts(workload: str, seed: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its gates:\n{out}")
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}


def main() -> int:
    defects = 0
    for workload in sorted(WORKLOADS):
        first = traced_counts(workload, SEED, 1)
        second = traced_counts(workload, SEED, 2)
        diffs = [k for k in sorted(first.keys() | second.keys()) if first.get(k) != second.get(k)]
        for k in diffs:
            print(f"{workload}: {k} differs: {first.get(k)} vs {second.get(k)}")
        defects += len(diffs)
        print(f"{workload}: {len(first)} counted metrics, {len(diffs)} differ")
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(main())
