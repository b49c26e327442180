"""One-off scaling sweep of single layers at n = 16, 32 and 64.

Not part of the gated workloads.  It rebuilds the synthetic ensembles of the
ROADMAP baseline table and times the same rows, so the two can be compared:
n nodes, 3 generators on one shared support made of a critical 2-cycle
0 <-> 1 at weight 0, the ring i -> i+1 (mod n) and every other ordered pair
of distinct nodes with probability 0.3; every non-critical weight is an
integer drawn uniformly from [-20, -1], all from ``random.Random(0)``.
The words are drawn from the same generator afterwards.

Usage, from the root of a checkout::

    python3 bench/sweep.py

Prints one markdown table of median wall times in ms (3 repeats, 1 at
n = 64), with the Python version, the CPU count and the interpreter start
time beside it.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

from run import cli_probe_ms, load_program

SIZES = (16, 32, 64)
REPEATS = 3


def roadmap_generators(n: int, rng: random.Random, count: int = 3) -> list[list[list]]:
    critical = {(0, 1), (1, 0)}
    support = set(critical) | {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and (i, j) not in support and rng.random() < 0.3:
                support.add((i, j))
    gens = []
    for _ in range(count):
        rows: list[list] = [[None] * n for _ in range(n)]
        for u, v in sorted(support):
            rows[u][v] = 0.0 if (u, v) in critical else float(rng.randint(-20, -1))
        gens.append(rows)
    return gens


def timed(fn, repeats):
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(1000 * (time.perf_counter() - t0))
    return statistics.median(walls)


def main() -> int:
    load_program()
    import mpcsr

    rows = {}
    for n in SIZES:
        rng = random.Random(0)
        gens = [mpcsr.MaxPlusMatrix.from_rows(r) for r in roadmap_generators(n, rng)]
        ens = mpcsr.build_ensemble(gens)
        word = mpcsr.Word(tuple(rng.randint(1, 3) for _ in range(100)))
        reps = 1 if n >= 64 else REPEATS
        cells = {
            "`kleene_star`": lambda: mpcsr.kleene_star(ens.a_sup),
            "`build_ensemble`": lambda: mpcsr.build_ensemble(gens),
            "`gamma_product`, k=100": lambda: mpcsr.gamma_product(ens, word),
            "`first_passage_data`, k=100": lambda: mpcsr.trellis.first_passage_data(ens, word),
            "`is_csr`, k=100": lambda: mpcsr.is_csr(ens, word),
            "`path_weights`": lambda: mpcsr.path_weights(ens),
            "`weak_csr_bound`, k_max=200": lambda: mpcsr.weak_csr_bound(ens, 200),
        }
        for name, fn in cells.items():
            rows.setdefault(name, []).append(timed(fn, reps))
        print(f"n={n}: profile {ens.assumption_report.profile}", file=sys.stderr, flush=True)

    print(f"| layer | " + " | ".join(f"n={n}" for n in SIZES) + " |")
    print("| --- | " + " | ".join("---" for _ in SIZES) + " |")
    for name, cells in rows.items():
        print(f"| {name} | " + " | ".join(f"{ms:.0f} ms" for ms in cells) + " |")
    print()
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"cli.interp_start_ms {cli_probe_ms(['-c', 'pass']):.1f}, "
          f"repeats {REPEATS} (1 at n >= 64)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
