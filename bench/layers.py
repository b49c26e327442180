"""Outside-in layer tracing of the mpcsr library.

``LayerTracer.install`` rebinds each public layer function listed in
``LAYERS`` to a timing wrapper, in every ``mpcsr.*`` module namespace that
holds it (the defining module and every module that imported it by name),
and ``uninstall`` puts the originals back.  Nothing under ``src/`` is
edited.  Each wrapped call records one span (name, start, end, parent, op);
a layer's self time is its span's duration minus the time its child spans
cover and minus the tracer's own bookkeeping at the start of the span.  Counts that the program's work determines (calls, computed
multiply-adds, operand fill, distinct inputs) are recorded at the same
boundaries and repeat exactly for one seed.
"""

from __future__ import annotations

import sys
import time

#: (module, function) pairs wrapped while tracing.
LAYERS = (
    ("semiring", "mp_multiply"),
    ("semiring", "mp_power"),
    ("semiring", "entrywise_sup"),
    ("semiring", "kleene_star"),
    ("digraph", "strongly_connected_components"),
    ("digraph", "max_cycle_mean"),
    ("digraph", "critical_graph"),
    ("ensemble", "build_ensemble"),
    ("ensemble", "path_weights"),
    ("bounds", "weak_csr_bound"),
    ("bounds", "ambient_csr_bound"),
    ("trellis", "gamma_product"),
    ("trellis", "first_passage_data"),
    ("csr", "csr_terms"),
    ("csr", "periodicity_threshold"),
    ("csr", "csr_product"),
    ("csr", "rank_compress"),
    ("csr", "is_csr"),
    ("counterexamples", "verify_family"),
    ("cli", "main"),
)


#: Layers whose distinct inputs are counted, with the key of one call's input
#: (its generator entries, from the positional arguments).
DISTINCT_KEYS = {
    "ensemble.build_ensemble": lambda args: tuple(g.data for g in args[0]),
    "ensemble.path_weights": lambda args: tuple(g.data for g in args[0].normalized),
}


class LayerStats:
    __slots__ = ("calls", "self_s", "errors", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.keys = set()


class LayerTracer:
    """Spans and per-layer counters for one traced run."""

    def __init__(self):
        self.stats = {f"{mod}.{fn}": LayerStats() for mod, fn in LAYERS}
        self.madds = 0
        self.finite_entries = 0
        self.operand_entries = 0
        self.op = -1
        # One span per wrapped call: name, start, end, parent span id (-1 at
        # the top), op index.  Span i's id is its position in these lists.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[list] = []  # [span id, start, time covered by children and bookkeeping]
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        key_of = DISTINCT_KEYS.get(name)
        is_multiply = name == "semiring.mp_multiply"
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            span = len(self.names)
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(0.0)
            self.parents.append(stack[-1][0] if stack else -1)
            self.ops.append(self.op)
            frame = [span, start, 0.0]
            stack.append(frame)
            stats.calls += 1
            if key_of is not None:
                stats.keys.add(key_of(args))
            if is_multiply:
                self._count_multiply(args[0], args[1])
            # The tracer's own work so far is inside the span, so the caller
            # does not pay for it, and is taken out of this layer's self time.
            frame[2] += clock() - start
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self.ends[span] = end

        return traced

    def _count_multiply(self, a, b):
        self.madds += a.rows * a.cols * b.cols
        finite = 0
        for row in a.data:
            finite += len(row) - row.count(None)
        for row in b.data:
            finite += len(row) - row.count(None)
        self.finite_entries += finite
        self.operand_entries += a.rows * a.cols + b.rows * b.cols

    def install(self) -> None:
        import mpcsr.cli  # noqa: F401  (the cli module is a traced layer too)

        wrappers = {}
        for mod, fn in LAYERS:
            original = getattr(sys.modules[f"mpcsr.{mod}"], fn)
            wrappers[id(original)] = self._wrap(f"{mod}.{fn}", original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mpcsr" and not mod_name.startswith("mpcsr."):
                continue
            for attr, value in list(vars(module).items()):
                # The wrappers keep the originals alive, so an id match is the original.
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = (st.self_s, "s")
            out[f"{name}.errors"] = (st.errors, "count")
            if name in DISTINCT_KEYS:
                frac = len(st.keys) / st.calls if st.calls else 0.0
                out[f"{name}.distinct_frac"] = (frac, "ratio")
        out["semiring.mp_multiply.madds"] = (self.madds, "count")
        fill = self.finite_entries / self.operand_entries if self.operand_entries else 0.0
        out["semiring.mp_multiply.finite_frac"] = (fill, "ratio")
        return out

    def write_spans(self, path) -> None:
        """One CSV line per span: id, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.parents[i]},{self.ops[i]},{name},"
                    f"{self.starts[i]:.9f},{self.ends[i]:.9f}\n"
                )
