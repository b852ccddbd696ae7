"""In-memory span tracer that wraps netrand's public functions at every binding site.

``montecarlo`` and ``cli`` import ``run_design``, ``run_design_many``,
``run_experiment`` and ``simulate_outcomes`` by name, so patching only the
defining module would miss their calls.  ``install`` therefore replaces every
module attribute that *is* the original function, and patches
``Graph.__post_init__`` on the class so validation is seen wherever a graph is
built.  Spans are kept in flat arrays with a parent link and written out once,
at the end of the run.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (module, attribute, span name).  The name's first component is the layer.
SPANS = (
    ("graph", "gen_er", "graph.gen_er"),
    ("graph", "from_edge_list", "graph.from_edge_list"),
    ("graph", "induced_subgraph_sample", "graph.induced_subgraph_sample"),
    ("graph", "density", "graph.density"),
    ("design", "run_design", "design.run_design"),
    ("design", "run_design_many", "design.run_design_many"),
    ("design", "increment_from_view", "design.increment_from_view"),
    ("design", "candidate_imbalances", "design.candidate_imbalances"),
    ("design", "step", "design.step"),
    ("outcome", "simulate_outcomes", "outcome.simulate_outcomes"),
    ("montecarlo", "run_experiment", "montecarlo.run_experiment"),
    ("montecarlo", "summarize", "montecarlo.summarize"),
    ("montecarlo", "reduction_report", "montecarlo.reduction_report"),
    ("cli", "main", "cli.main"),
)
VALIDATE = "graph.validate"
SPAN_NAMES = tuple(name for _, _, name in SPANS) + (VALIDATE,)
_MODULES = ("netrand", "graph", "design", "outcome", "montecarlo", "cli", "oracle")


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


class Tracer:
    """Spans and counters of the calls made between ``install`` and ``uninstall``.

    Single-threaded: spans nest strictly, so a span's children never overlap
    and the time they cover is the sum of their durations.
    """

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, span: str, fn, count=None):
        sid = self._ids[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.t0)
            self.name.append(sid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.t1.append(0.0)
            self._stack.append(idx)
            self.t0.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.t1[idx] = time.perf_counter()
                self._stack.pop()
                if count is not None:
                    count(args, kwargs)

        return traced

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def install(self, nr) -> None:
        """Wrap every binding of each traced function; ``uninstall`` restores them.

        ``nr`` has netrand's modules as attributes (``nr.graph``, ``nr.cli``, ...).
        """
        counters = self._counters()
        for mod_name, attr, span in SPANS:
            orig = getattr(getattr(nr, mod_name), attr)
            wrapped = self._wrap(span, orig, counters.get(span))
            for site in _MODULES:
                mod = getattr(nr, site)
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapped)
        graph_cls = nr.graph.Graph
        orig_post = graph_cls.__post_init__
        self._undo.append((graph_cls, "__post_init__", orig_post))
        graph_cls.__post_init__ = self._wrap(VALIDATE, orig_post, counters[VALIDATE])

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _counters(self) -> dict:
        add = self._add

        def gen_er(args, kw):
            add("graph.gen_er.calls", 1)

        def validate(args, kw):
            add("graph.validate.calls", 1)
            add("graph.dense_bytes", args[0].matrix.nbytes)

        def from_edge_list(args, kw):
            add("graph.from_edge_list.lines", _count_lines(args[0] if args else kw["source"]))

        def run_design(args, kw):
            g = args[0]
            pairs = g.n // 2
            add("design.pairs", pairs)
            # each step after the first reads two rows over the prefix 2m
            add("design.bytes_read", 2 * g.matrix.itemsize * pairs * (pairs - 1))

        def run_design_many(args, kw):
            g = args[0]
            reps = args[2] if len(args) > 2 else kw["reps"]
            pairs = g.n // 2
            add("design.pair_reps", pairs * reps)
            add("design.bytes_read", 2 * g.matrix.itemsize * pairs * (pairs - 1))

        def simulate_outcomes(args, kw):
            add("outcome.calls", 1)
            add("outcome.bytes_read", args[0].matrix.nbytes)

        return {
            "graph.gen_er": gen_er,
            VALIDATE: validate,
            "graph.from_edge_list": from_edge_list,
            "design.run_design": run_design,
            "design.run_design_many": run_design_many,
            "outcome.simulate_outcomes": simulate_outcomes,
        }

    # -- reading -----------------------------------------------------------
    def mark(self) -> int:
        """Index of the next span; pass two marks to ``totals``."""
        return len(self.t0)

    def totals(self, start: int, stop: int) -> tuple[dict, dict]:
        """Per-name summed duration and self time of spans[start:stop].

        Self time is a span's duration minus the time its direct children
        cover.  Every parent of a span in the slice lies in the slice too,
        because the slice starts and ends outside any open span.
        """
        n = stop - start
        if n == 0:
            return {}, {}
        name = np.frombuffer(self.name, dtype=np.intc)[start:stop]
        parent = np.frombuffer(self.parent, dtype=np.intc)[start:stop]
        dur = np.frombuffer(self.t1, dtype=np.float64)[start:stop] - np.frombuffer(
            self.t0, dtype=np.float64
        )[start:stop]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent] - start, weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        k = len(self.names)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return (
            {self.names[i]: float(total[i]) for i in range(k)},
            {self.names[i]: float(own[i]) for i in range(k)},
        )

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            t0=np.frombuffer(self.t0, dtype=np.float64),
            t1=np.frombuffer(self.t1, dtype=np.float64),
        )
