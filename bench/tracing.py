"""In-memory spans around orbibraid's public functions, for the traced run.

The tracer wraps each layer's public entry points, found by their public
names, from outside: a module-level function is rebound in every
``orbibraid`` module that imported it, a method or static method is
replaced on its class.  Each call records a span (name, parent span,
request id, start, end) and the work counters named for that boundary.
``LaurentScalar.make`` runs hundreds of thousands of times per run, so it
keeps only aggregate counters and charges its time to the enclosing span.

A recursive call (one made directly from inside a span of the same name)
is part of the outer span.  Self time of a span is its duration minus the
durations of its child spans and of the aggregated calls made inside it.
Everything stays in memory until ``metrics`` and ``dump`` at the end of
the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "braid", "coherence", "dsl", "reflect", "operad")

# span fields
NAME, PARENT, REQUEST, START, END, LEAF = range(6)


def _entry_degree(out, counters) -> None:
    """Largest numerator-plus-denominator degree span over a matrix's entries."""
    top = counters["reflect.entry_degree_max"]
    for row in out.entries:
        for x in row:
            d = len(x.num) + len(x.den) - 2
            if d > top:
                top = d
    counters["reflect.entry_degree_max"] = top


def _monomial_den(args, kwargs, counters) -> None:
    den = args[3] if len(args) > 3 else kwargs.get("den", (1,))
    if sum(1 for c in den if c) == 1:
        counters["reflect.LaurentScalar.make.monomial_den"] += 1


def _add(key, measure):
    def count(args, kwargs, out, counters):
        counters[key] += measure(args, out)

    return count


def _matrix_out(args, kwargs, out, counters):
    if hasattr(out, "entries"):
        _entry_degree(out, counters)


def _garside_count(args, kwargs, out, counters):
    counters["braid.garside_nf.letters_in"] += len(args[0].letters)
    counters["braid.garside_nf.factors_out"] += len(out.factors)


# (public module, attribute, span name, counter or None, aggregate only) for every traced boundary.
TARGETS = [
    ("orbibraid.braid", "garside_nf", "braid.garside_nf", _garside_count, False),
    ("orbibraid.braid", "braid_eq", "braid.braid_eq", None, False),
    ("orbibraid.braid", "cyl_braid_eq", "braid.cyl_braid_eq", None, False),
    ("orbibraid.braid", "embed_cyl", "braid.embed_cyl", _add("braid.embed_cyl.letters_out", lambda a, o: len(o.letters)), False),
    ("orbibraid.coherence", "check", "coherence.check", None, False),
    ("orbibraid.coherence", "extract_braid", "coherence.extract_braid", _add("coherence.extract_braid.letters_out", lambda a, o: len(o.letters)), False),
    ("orbibraid.dsl", "parse_diagram", "dsl.parse_diagram", _add("dsl.parse_diagram.chars_in", lambda a, o: len(a[0])), False),
    ("orbibraid.dsl", "normalize_presentation", "dsl.normalize_presentation", None, False),
    ("orbibraid.reflect", "RepData.load", "reflect.RepData.load", None, False),
    ("orbibraid.reflect", "yang_baxter_check", "reflect.yang_baxter_check", None, False),
    ("orbibraid.reflect", "reflection_check", "reflect.reflection_check", None, False),
    ("orbibraid.reflect", "build_cyl_rep", "reflect.build_cyl_rep", _add("reflect.build_cyl_rep.dim_sum", lambda a, o: o.dim), False),
    ("orbibraid.reflect", "eval_braid", "reflect.eval_braid", _add("reflect.eval_braid.letters_in", lambda a, o: len(a[1].letters)), False),
    ("orbibraid.reflect", "eval_mor", "reflect.eval_mor", None, False),
    ("orbibraid.reflect", "QMatrix.__mul__", "reflect.QMatrix.mul", _matrix_out, False),
    ("orbibraid.reflect", "QMatrix.kron", "reflect.QMatrix.kron", _matrix_out, False),
    ("orbibraid.reflect", "QMatrix.inverse", "reflect.QMatrix.inverse", _matrix_out, False),
    ("orbibraid.reflect", "QMatrix.det", "reflect.QMatrix.det", None, False),
    ("orbibraid.reflect", "LaurentScalar.make", "reflect.LaurentScalar.make", lambda a, k, o, c: _monomial_den(a, k, c), True),
    ("orbibraid.operad", "classify", "operad.classify", _add("operad.classify.classes_out", lambda a, o: len(o)), False),
    ("orbibraid.operad", "compose", "operad.compose", None, False),
    ("orbibraid.cli", "main", "cli.main", None, False),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.aggregate: dict[str, list] = {}  # name -> [calls, seconds]
        self._undo: list[tuple] = []

    def _span(self, name, fn, count):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] is name:  # a recursive call stays inside its span
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.request, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, out, counters)
            return out

        return traced

    def _aggregated(self, name, fn, count):
        spans, stack, counters = self.spans, self.stack, self.counters
        stat = self.aggregate.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            stat[0] += 1
            stat[1] += dt
            if stack:
                spans[stack[-1]][LEAF] += dt
            count(args, kwargs, out, counters)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target; a boundary the code no longer has is an error, not a 0."""
        for module, path, name, count, aggregate in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                raise LookupError(f"traced boundary {module}.{path} does not exist")
            raw = vars(owner)[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = (self._aggregated if aggregate else self._span)(name, fn, count)
            if isinstance(owner, type):
                self._rebind(owner, attr, staticmethod(wrapped) if static else wrapped, raw)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("orbibraid"):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, key, wrapped, fn)

    def _rebind(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded, given the traced wall time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        nf_in_check: dict[int, int] = defaultdict(int)
        for i, rec in enumerate(spans):
            name, dur = rec[NAME], rec[END] - rec[START]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i] - rec[LEAF]
            if name == "braid.garside_nf":
                up = rec[PARENT]
                while up >= 0 and spans[up][NAME] != "coherence.check":
                    up = spans[up][PARENT]
                if up >= 0:
                    nf_in_check[up] += 1
        layer_s = defaultdict(float)
        for name, s in own.items():
            layer_s[name.split(".")[0]] += s
        make_calls, make_s = self.aggregate.get("reflect.LaurentScalar.make", [0, 0.0])
        layer_s["reflect"] += make_s

        c = self.counters
        out: dict[str, float] = {}
        for _, _, name, _, aggregate in TARGETS:  # a boundary the run never called reads 0
            if aggregate:
                continue
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = total[name] * 1e3
        out["coherence.check.self_ms"] = own["coherence.check"] * 1e3
        out["cli.main.self_ms"] = own["cli.main"] * 1e3
        out["coherence.check.nf_calls_per_check"] = (
            sum(nf_in_check.values()) / len(nf_in_check) if nf_in_check else 0
        )
        out["reflect.build_cyl_rep.dim"] = c["reflect.build_cyl_rep.dim_sum"] / calls["reflect.build_cyl_rep"] if calls["reflect.build_cyl_rep"] else 0
        out["reflect.LaurentScalar.make.calls"] = make_calls
        out["reflect.LaurentScalar.make.ms"] = make_s * 1e3
        out["reflect.LaurentScalar.make.poly_frac"] = c["reflect.LaurentScalar.make.monomial_den"] / make_calls if make_calls else 0
        for key in (
            "braid.garside_nf.letters_in",
            "braid.garside_nf.factors_out",
            "braid.embed_cyl.letters_out",
            "coherence.extract_braid.letters_out",
            "dsl.parse_diagram.chars_in",
            "reflect.eval_braid.letters_in",
            "reflect.entry_degree_max",
            "operad.classify.classes_out",
        ):
            out[key] = c[key]
        for layer in LAYERS:
            out[f"{layer}.self_frac"] = layer_s[layer] / wall_s if wall_s else 0
        return out

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans (times in microseconds from the first span) and aggregates."""
        t0 = self.spans[0][START] if self.spans else 0.0
        doc = dict(meta)
        doc["fields"] = ["name", "parent", "request", "start_us", "end_us", "aggregated_us"]
        doc["spans"] = [
            [r[NAME], r[PARENT], r[REQUEST], round((r[START] - t0) * 1e6), round((r[END] - t0) * 1e6), round(r[LEAF] * 1e6)]
            for r in self.spans
        ]
        doc["aggregated"] = {k: {"calls": v[0], "ms": v[1] * 1e3} for k, v in self.aggregate.items()}
        path.write_text(json.dumps(doc))
