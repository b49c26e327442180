"""mpcsr benchmark: four workloads against the library and the CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload analyze-p0 --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed, seed-determined schedule of the workload once untraced and
once under ``layers.LayerTracer`` and reports the per-layer metrics.  One
closed-loop client, no threads: each op starts after the previous one ended.
Inputs come from ``--seed`` alone and the program only ever receives the
generated matrices, words and command lines.  Every op's output goes through
a correctness gate outside the timed span.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``bench/README.md`` for the metric and workload
definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gen import p0_generators, random_word
from layers import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

mpcsr = None  # bound by load_program(); layer functions are looked up on it at call time


def load_program() -> None:
    """Import mpcsr from this checkout's ``src``; exit 2 when it is missing."""
    global mpcsr
    if not (SRC / "mpcsr" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no mpcsr sources under {SRC}; run from a checkout of the repository\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mpcsr as program
    import mpcsr.cli  # noqa: F401

    if Path(program.__file__).resolve().parent != (SRC / "mpcsr").resolve():
        sys.stderr.write(f"bench: imported mpcsr from {program.__file__}, not from {SRC}\n")
        sys.exit(2)
    mpcsr = program


class Op:
    """One workload operation: ``run`` is timed, ``gate`` checks its result untimed.

    ``gate(result)`` returns None when the output is right, a reason string
    when it is wrong, or ``("known", name)`` when it reproduces a documented
    defect exactly.
    """

    __slots__ = ("label", "run", "gate")

    def __init__(self, label, run, gate):
        self.label = label
        self.run = run
        self.gate = gate


def _matrices(rows_list):
    return [mpcsr.MaxPlusMatrix.from_rows(rows) for rows in rows_list]


# -- workloads ---------------------------------------------------------------


class AnalyzeP0:
    """Fresh P0 ensemble per op: build + ambient bound + weak bound scan."""

    name = "analyze-p0"
    # Sizes 12..24 in steps of 2: an odd number of sizes whose costs overlap,
    # so the median op falls inside one size's cluster instead of in the gap
    # between two (which made latency_p50_ms jump by that gap between seeds).
    SIZES = (12, 14, 16, 18, 20, 22, 24)
    GAMMAS = (1, 2, 3)
    DENSITIES = (0.15, 0.5)
    K_MAX = 200

    def setup(self, rng):
        """One block of inputs: every (n, gamma, density) once, in seeded order."""
        combos = [(n, g, d) for n in self.SIZES for g in self.GAMMAS for d in self.DENSITIES]
        rng.shuffle(combos)
        return [(combo, _matrices(p0_generators(rng, *combo))) for combo in combos]

    def pass_ops(self, rng, block):
        gate = self._gate(random.Random(rng.random()))
        return [
            Op(f"n={n} gamma={gamma} density={density}", self._op(gens), gate)
            for (n, gamma, density), gens in block
        ]

    @staticmethod
    def _op(gens):
        def run():
            ens = mpcsr.build_ensemble(gens)
            return ens, mpcsr.ambient_csr_bound(ens), mpcsr.weak_csr_bound(ens, AnalyzeP0.K_MAX)

        return run

    @staticmethod
    def _gate(gate_rng):
        def gate(result):
            ens, ambient, weak = result
            report = ens.assumption_report
            if report.profile != "P0" or not report.all_core():
                return f"generated ensemble is not a core P0 ensemble: {report.profile} {report.diagnostics}"
            count = ens.generator_count()
            word = mpcsr.Word(random_word(gate_rng, count, ambient.ambient_k))
            if not mpcsr.is_csr(ens, word).equal:
                return f"word of length ambient_k={ambient.ambient_k} is not CSR"
            if weak.k is None:
                return f"weak bound not certified within k_max={AnalyzeP0.K_MAX}"
            check = mpcsr.is_csr(ens, mpcsr.Word(random_word(gate_rng, count, weak.k)))
            if not check.product.le(check.csr):
                return f"word of length weak k={weak.k} is not dominated by its CSR form"
            return None

        return gate


class CsrStream:
    """One fixed n=32 P0 ensemble; each op checks one random long word."""

    name = "csr-stream"
    PASS_WORDS = 8
    N, GAMMA, DENSITY = 32, 3, 0.15
    # The ensemble comes from this fixed seed and only the words from --seed:
    # an op's cost is proportional to ambient_k, which varies by about 50%
    # between ensembles, and one ensemble per run would make that variation
    # the run-to-run spread.  analyze-p0 covers fresh ensembles per seed.
    ENSEMBLE_SEED = 0

    def setup(self, rng):
        gens = _matrices(p0_generators(random.Random(self.ENSEMBLE_SEED), self.N, self.GAMMA, self.DENSITY))
        ens = mpcsr.build_ensemble(gens)
        report = ens.assumption_report
        if report.profile != "P0" or not report.all_core():
            raise RuntimeError(f"csr-stream ensemble is not a core P0 ensemble: {report.profile}")
        return ens, mpcsr.ambient_csr_bound(ens).ambient_k

    def pass_ops(self, rng, state):
        ens, ambient_k = state
        words = [
            mpcsr.Word(random_word(rng, ens.generator_count(), ambient_k + rng.randrange(2 * self.GAMMA)))
            for _ in range(self.PASS_WORDS)
        ]
        return [Op(f"k={len(word)}", self._op(ens, word), self._gate) for word in words]

    @staticmethod
    def _op(ens, word):
        def run():
            check = mpcsr.is_csr(ens, word)
            return check, mpcsr.rank_compress(check.terms), mpcsr.first_passage_weights(ens, word)

        return run

    @staticmethod
    def _gate(result):
        check, factors, passage = result
        if not check.equal:
            return f"word of length {check.terms.k} >= ambient_k is not CSR at {check.witness}"
        if factors.rank_bound != CsrStream.GAMMA:
            return f"rank bound {factors.rank_bound} != {CsrStream.GAMMA}"
        if passage.product.data != check.product.data:
            return "first-passage product differs from the CSR-check product"
        return None


#: Checks whose failure is a documented defect of the family data, with the
#: one witness that breaks.  At t = 1 (k = 4) the P1_six even-length word's
#: product is eps at (3, 4), where the family pins -401.
KNOWN_FAMILY_DEFECTS = {("P1_six", "even_length", 1): ((3, 4, None),)}


class FamilyScan:
    """verify_family(family, [t]) for all four families, t up to ~200 letters."""

    name = "family-scan"
    MAX_LETTERS = 200

    def setup(self, rng):
        pairs = []
        for family_id in mpcsr.FAMILY_IDS:
            family = mpcsr.build_family(family_id)
            classes = family.word_classes
            t = min(c.t_min for c in classes)
            while max(c.length(t) for c in classes) <= self.MAX_LETTERS:
                pairs.append((family, t))
                t += 1
        return pairs

    def pass_ops(self, rng, pairs):
        pairs = list(pairs)
        rng.shuffle(pairs)
        return [Op(f"{family.family_id} t={t}", self._op(family, t), self._gate) for family, t in pairs]

    @staticmethod
    def _op(family, t):
        return lambda: mpcsr.verify_family(family, [t])

    @staticmethod
    def _gate(report):
        known = None
        for check in report.checks:
            if check.ok:
                continue
            name = f"{report.family_id}/{check.label}/t={check.t}"
            bad = tuple(
                (row, col, got_p)
                for row, col, got_p, got_c, want_p, want_c in check.witness_details
                if got_p != want_p or got_c != want_c
            )
            expected = KNOWN_FAMILY_DEFECTS.get((report.family_id, check.label, check.t))
            if bad != expected or not check.failed_csr or check.display_ok is False:
                return f"{name}: check failed, bad witnesses {bad}"
            known = ("known", f"{name}: witness (row, col, product) {bad}")
        return known


class CliDemo:
    """One CLI subcommand per op, as a subprocess on the bundled demo."""

    name = "cli-demo"
    TIMEOUT_S = 60

    def __init__(self):
        tmp = ROOT / ".bench_tmp"
        tmp.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-demo-", dir=tmp))
        self.reference = {}
        self.env = dict(os.environ, PYTHONPATH="src")

    def setup(self, rng):
        """Write the demo input file (each repetition overwrites it) and list the commands."""
        from mpcsr import demo

        demo_json = self.work / "demo.json"
        demo_json.write_text(
            mpcsr.cli.render_json({"generators": [g.to_json() for g in demo.generators()]}) + "\n",
            encoding="utf-8",
        )
        word = ",".join(str(l) for l in demo.WORD.letters)
        factors = str(self.work / "factors.json")
        demo_path = str(demo_json)
        # (argv, documented exit code, side file whose bytes must be stable)
        return [
            (["analyze", demo_path], 0, None),
            (["bounds", demo_path], 0, None),
            (["product", demo_path, "--word", "5,5,1,5"], 0, None),
            (["csr-check", demo_path, "--word", word, "--emit-factors", factors], 0, factors),
            (["counterexample", "--family", "P2_six", "--t", "10"], 0, None),
            (["paper-repro"], 1, None),
        ]

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_tmp").rmdir()

    def pass_ops(self, rng, commands, in_process=False):
        commands = list(commands)
        rng.shuffle(commands)
        run = self._in_process if in_process else self._subprocess
        return [Op(argv[0], run(argv), self._gate(argv, code, side_file)) for argv, code, side_file in commands]

    def _subprocess(self, argv):
        args = [sys.executable, "-m", "mpcsr.cli", *argv]

        def run():
            proc = subprocess.run(
                args, cwd=ROOT, env=self.env, capture_output=True, check=False, timeout=self.TIMEOUT_S
            )
            return proc.returncode, proc.stdout

        return run

    @staticmethod
    def _in_process(argv):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = mpcsr.cli.main(argv)
            return code, out.getvalue().encode("utf-8")

        return run

    def _gate(self, argv, code, side_file):
        def gate(result):
            got_code, stdout = result
            if got_code != code:
                return f"{argv[0]} exited {got_code}, documented {code}"
            side = Path(side_file).read_bytes() if side_file else b""
            ref = self.reference.setdefault(argv[0], (stdout, side))
            if ref != (stdout, side):
                return f"{argv[0]} output bytes changed within the run"
            if argv[0] == "paper-repro":
                items = json.loads(stdout)["items"]
                bad = [(it["name"], it["status"]) for it in items if not it["ok"]]
                if bad != [("threshold_scalar", "known_discrepancy")]:
                    return f"paper-repro non-ok items {bad}, expected only threshold_scalar"
            return None

        return gate


WORKLOADS = {w.name: w for w in (AnalyzeP0, CsrStream, FamilyScan, CliDemo)}


# -- measurement -------------------------------------------------------------


def tail(samples):
    """Value with exactly ten samples above it, its percentile and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Outcome:
    """Gate verdicts of a run: failures by name, known defects by name."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.known: dict[str, int] = {}

    def record(self, op, result, error):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{op.label}: raised {error!r}")
            return
        verdict = op.gate(result)
        if isinstance(verdict, tuple):
            self.known[verdict[1]] = self.known.get(verdict[1], 0) + 1
        elif verdict is not None:
            self.failures.append(f"{op.label}: {verdict}")


#: Setup samples before the first pass; one more follows every pass but the last.
SETUP_REPS = 3
#: One setup sample repeats the setup until this much time has passed and
#: records the mean: a sub-millisecond setup timed once reads mostly cache
#: and file-system noise.
SETUP_SAMPLE_S = 0.05


def timed_setup(workload, rng, durations):
    # Every repetition gets the same inputs, so the seed alone decides them.
    seed = rng.random()
    count = 0
    t0 = time.perf_counter()
    while True:
        state = workload.setup(random.Random(seed))
        count += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_SAMPLE_S:
            break
    durations.append(elapsed / count)
    return state


def measure(workload, seed, seconds):
    rng = random.Random(seed)
    setup_durations = []
    for _ in range(SETUP_REPS):
        state = timed_setup(workload, rng, setup_durations)
    in_subprocess = isinstance(workload, CliDemo)
    cpu = children_cpu if in_subprocess else time.process_time
    outcome = Outcome()
    walls, cpus, pass_rates = [], [], []
    busy = 0.0
    # Whole passes only, so every run sees each pass's input mix completely.
    while True:
        ops = workload.pass_ops(rng, state)
        pass_busy = 0.0
        for op in ops:
            error = None
            c0 = cpu()
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a raising op is a failed op, not a benchmark crash
                error, result = exc, None
            wall = time.perf_counter() - t0
            cpus.append(cpu() - c0)
            walls.append(wall)
            pass_busy += wall
            outcome.record(op, result, error)
        pass_rates.append(len(ops) / pass_busy)
        busy += pass_busy
        if busy >= seconds:
            break
        # Setting up again between passes gives analyze-p0 fresh inputs and
        # spreads the setup_s samples over the run: a sub-millisecond setup
        # timed only at the start reads whatever burst of load the machine
        # had in those few milliseconds.
        state = timed_setup(workload, rng, setup_durations)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if in_subprocess else resource.RUSAGE_SELF)
    tail_s, tail_pct, count = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup_durations), "s"),
        "throughput_ops_s": (statistics.median(pass_rates), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(walls), "ms"),
        "cpu_ms_per_op": (1000 * statistics.median(cpus), "ms"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
        "ok_frac": ((outcome.attempted - len(outcome.failures)) / outcome.attempted, "ratio"),
    }
    notes = [
        # Printed, not gated: on a shared VM its run-to-run spread exceeds
        # any bound allowed for an end-to-end metric (see bench/README.md).
        f"latency_tail_ms {1000 * tail_s:.6f} ms: p{tail_pct:.2f} of {count} samples (ten above it)",
        f"setup_s: median of {len(setup_durations)} samples",
        f"throughput: median of {len(pass_rates)} passes, {len(walls) / busy:.6f} ops/s over all {len(walls)} ops",
    ]
    return outcome, metrics, notes


def cli_probe_ms(args, reps=5):
    """Median wall time of a fresh interpreter running ``args``."""
    walls = []
    env = dict(os.environ, PYTHONPATH="src")
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True)
        walls.append(1000 * (time.perf_counter() - t0))
    return statistics.median(walls)


def measure_traced(workload, seed):
    rng = random.Random(seed)
    extra = {"in_process": True} if isinstance(workload, CliDemo) else {}
    ops = workload.pass_ops(rng, workload.setup(rng), **extra)

    t0 = time.perf_counter()
    for op in ops:
        op.run()
    untraced = time.perf_counter() - t0

    tracer = LayerTracer()
    results = []
    t0 = time.perf_counter()
    with tracer:
        for i, op in enumerate(ops):
            tracer.op = i
            try:
                results.append((op.run(), None))
            except Exception as exc:
                results.append((None, exc))
    traced = time.perf_counter() - t0

    outcome = Outcome()
    for op, (result, error) in zip(ops, results):
        outcome.record(op, result, error)
    metrics = tracer.metrics()
    metrics["counterexamples.verify_family.known_defects"] = (sum(outcome.known.values()), "count")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["cli.interp_start_ms"] = (cli_probe_ms(["-c", "pass"]), "ms")
    metrics["cli.import_ms"] = (cli_probe_ms(["-c", "import mpcsr.cli"]), "ms")

    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_spans(spans)
    notes = [f"traced {len(ops)} ops: {traced:.3f} s traced vs {untraced:.3f} s untraced", f"spans: {spans}"]
    return outcome, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            outcome, metrics, notes = measure_traced(workload, args.seed)
        else:
            outcome, metrics, notes = measure(workload, args.seed, args.seconds)
    finally:
        if isinstance(workload, CliDemo):
            workload.cleanup()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6f} {unit}")
    for note in notes:
        print(f"  note: {note}")
    for name, count in sorted(outcome.known.items()):
        print(f"  known defect (family data, reported not failed): {name} x{count}")
    for failure in outcome.failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
