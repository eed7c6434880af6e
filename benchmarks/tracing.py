"""Spans and work counters around the calls the benchmark makes into privtri.

The tracer wraps public functions and methods of the program's modules for
the duration of a ``with tracer.installed():`` block and restores them on
exit. A function is replaced in every privtri module namespace that holds
it, so calls made by the harness into the lower layers are spanned too; a
method is replaced on its class. Nothing inside the program is edited.

Each span records (name, start, end, parent). The layer of a span is the
part of its name before the first dot. A span's self time is its duration
minus the durations of its children; the spans of one thread never
overlap, so that difference is exact.

Work the benchmark does after a call returns (counting truncated rows,
checking outputs against the oracles) runs under a ``bench.hook`` span,
which is a child of the enclosing call: it is left out of every layer's
self time and out of the traced round's wall time.
"""

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("graph", "projection", "secure_count", "ring", "perturbation", "harness")
HOOK = "bench.hook"

# (span name, module, attribute) of every public function the workloads reach
FUNCTIONS = (
    ("graph.load_edge_list", "privtri.graph", "load_edge_list"),
    ("graph.exact_triangle_count", "privtri.graph", "exact_triangle_count"),
    ("projection.max_private", "privtri.projection", "max_private"),
    ("projection.project", "privtri.projection", "project"),
    ("projection.project_random", "privtri.projection", "project_random"),
    ("secure_count.share_adjacency", "privtri.secure_count", "share_adjacency"),
    ("secure_count.count", "privtri.secure_count", "count"),
    ("secure_count.effective_graph", "privtri.secure_count", "effective_graph"),
    ("ring.mul3_batch", "privtri.ring", "mul3_batch"),
    ("ring.reconstruct", "privtri.ring", "reconstruct"),
    ("perturbation.perturb", "privtri.perturbation", "perturb"),
    ("harness.run_cargo", "privtri.harness", "run_cargo"),
    ("harness.run_project_compare", "privtri.harness", "run_project_compare"),
)

# (span name, module, class, method)
METHODS = (
    ("ring.dealer", "privtri.ring", "DealerRng", "elements"),
    ("ring.open", "privtri.ring", "OpeningChannel", "open_array"),
    ("ring.open", "privtri.ring", "OpeningChannel", "open"),
)


def _count_triples(tracer, args, result):
    n = args["n"]
    tracer.counters["secure_count.triples"] += math.comb(n, 3) if n >= 3 else 0


def _count_truncated(tracer, args, result):
    kept = result.adj.sum(axis=1, dtype="int64")
    tracer.counters["projection.rows_truncated"] += int((kept < args["g"].degrees).sum())


def _count_dealer(tracer, args, result):
    tracer.counters["ring.dealer_elements"] += int(result.size)


def _keep_channel(tracer, args, result):
    # openings are read from each channel's own counter when the trace ends
    tracer.channels[id(args["self"])] = args["self"]


COUNTER_HOOKS = {
    "secure_count.count": [_count_triples],
    "projection.project": [_count_truncated],
    "projection.project_random": [_count_truncated],
    "ring.dealer": [_count_dealer],
    "ring.open": [_keep_channel],
}


class Tracer:
    """In-memory spans and counters; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = defaultdict(int)
        self.channels: dict[int, object] = {}
        self._stack: list[int] = []
        self._hooks = {name: list(h) for name, h in COUNTER_HOOKS.items()}

    def add_hook(self, name: str, hook) -> None:
        """Call hook(tracer, bound_arguments, result) after each call of name."""
        self._hooks.setdefault(name, []).append(hook)

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, func):
        hooks = self._hooks.get(name)
        sig = inspect.signature(func) if hooks else None

        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if hooks:
                with self.span(HOOK):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for hook in hooks:
                        hook(self, bound.arguments, result)
            return result

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def installed(self):
        """Wrap the traced functions and methods; restore them on exit."""
        undo = []
        try:
            for name, modname, attr in FUNCTIONS:
                original = getattr(importlib.import_module(modname), attr, None)
                if original is None:
                    continue
                traced = self._wrap(name, original)
                for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "privtri"]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
                            undo.append((mod, key, original))
            for name, modname, clsname, attr in METHODS:
                cls = getattr(importlib.import_module(modname), clsname, None)
                original = cls.__dict__.get(attr) if cls is not None else None
                if original is None:
                    continue
                setattr(cls, attr, self._wrap(name, original))
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def hook_seconds(self, since: int = 0) -> float:
        """Total time of the hook spans recorded from span index since on."""
        return sum(end - start for name, start, end, _ in self.spans[since:] if name == HOOK)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[idx]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, from spans and counters."""
        s = self.summary()

        def total(name):
            return s.get(name, {}).get("total_s", 0.0)

        def calls(name):
            return s.get(name, {}).get("calls", 0)

        openings = sum(ch.openings for ch in self.channels.values())
        triples = self.counters["secure_count.triples"]
        count_s = total("secure_count.count")
        m = {
            "secure_count.count_s": count_s,
            "secure_count.triples": triples,
            "secure_count.ns_per_triple": count_s * 1e9 / triples if triples else 0.0,
            "secure_count.share_adjacency_s": total("secure_count.share_adjacency"),
            "secure_count.effective_graph_s": total("secure_count.effective_graph"),
            "ring.mul3_batch_s": total("ring.mul3_batch"),
            "ring.dealer_s": total("ring.dealer"),
            "ring.openings": openings,
            "ring.open_batches": calls("ring.open"),
            "ring.dealer_elements": self.counters["ring.dealer_elements"],
            "ring.bytes_per_server": 8 * openings,
            "projection.max_private_s": total("projection.max_private"),
            "projection.project_s": total("projection.project"),
            "projection.project_random_s": total("projection.project_random"),
            "projection.rows_truncated": self.counters["projection.rows_truncated"],
            "graph.load_edge_list_s": total("graph.load_edge_list"),
            "graph.exact_triangle_count_s": total("graph.exact_triangle_count"),
            "graph.exact_triangle_count_calls": calls("graph.exact_triangle_count"),
            "perturbation.perturb_s": total("perturbation.perturb"),
            "perturbation.perturb_calls": calls("perturbation.perturb"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                (v["self_s"] for k, v in s.items() if k.split(".")[0] == layer), 0.0
            )
        return m
