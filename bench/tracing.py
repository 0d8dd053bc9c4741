"""Span tracing of frontcalc's layers, installed from outside the package.

The tracer wraps the public functions listed in ``TRACED`` and
``FrontDiagram.__init__``, and rebinds every ``frontcalc.*`` module
attribute that refers to a wrapped object, so that calls from one layer
into another (``cobordism`` into ``moves`` and ``rulings``, ``cli`` into
everything) become child spans.  Spans are kept in memory and written out
when the run ends; self time is computed from them afterwards.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

# (span name, module, attribute).  The span name is the metric prefix;
# to_text and from_text share one span name.
TRACED = (
    ("diagrams.text", "diagrams", "to_text"),
    ("diagrams.text", "diagrams", "from_text"),
    ("moves.apply_rewrite", "moves", "apply_rewrite"),
    ("moves.random_shuffle", "moves", "random_shuffle"),
    ("rulings.count_rulings", "rulings", "count_rulings"),
    ("rulings.enumerate_rulings", "rulings", "enumerate_rulings"),
    ("rulings.ruling_pairings", "rulings", "ruling_pairings"),
    ("cobordism.search_decomposable_filling", "cobordism",
     "search_decomposable_filling"),
    ("cobordism.reduce_diagram", "cobordism", "reduce_diagram"),
    ("cobordism.pinch", "cobordism", "pinch"),
    ("cobordism.death", "cobordism", "death"),
    ("cobordism.check_trace_report", "cobordism", "check_trace_report"),
    ("cobordism.ruling_fillability", "cobordism", "ruling_fillability"),
    ("satellites.satellite", "satellites", "satellite"),
    ("render.render_svg", "render", "render_svg"),
    ("render.render_trace_svg", "render", "render_trace_svg"),
    ("cli.main", "cli", "main"),
    ("catalog.get", "catalog", "get"),
)
CTOR = "diagrams.FrontDiagram"
OP = "op"

# Per-span payloads recorded on success, read back by layer_metrics.
_NOTES = {
    CTOR: lambda args, result: len(args[0].events),
    "rulings.enumerate_rulings": lambda args, result: len(result),
    "cobordism.search_decomposable_filling":
        lambda args, result: result is not None,
}

# name -> (unit, better); the order is the report order.
LAYER_METRICS = {
    "diagrams.FrontDiagram.calls": ("count", "lower"),
    "diagrams.FrontDiagram.self_ms": ("ms", "lower"),
    "diagrams.FrontDiagram.events_mean": ("events", "lower"),
    "diagrams.text.self_ms": ("ms", "lower"),
    "moves.apply_rewrite.calls": ("count", "lower"),
    "moves.apply_rewrite.self_ms": ("ms", "lower"),
    "moves.apply_rewrite.miss_share": ("ratio", "lower"),
    "moves.apply_rewrite.ctor_per_call": ("ctor/call", "lower"),
    "moves.random_shuffle.self_ms": ("ms", "lower"),
    "rulings.count_rulings.calls": ("count", "lower"),
    "rulings.count_rulings.self_ms": ("ms", "lower"),
    "rulings.enumerate_rulings.calls": ("count", "lower"),
    "rulings.enumerate_rulings.self_ms": ("ms", "lower"),
    "rulings.enumerate_rulings.rulings_per_s": ("1/s", "higher"),
    "rulings.ruling_pairings.calls": ("count", "lower"),
    "rulings.ruling_pairings.self_ms": ("ms", "lower"),
    "cobordism.search_decomposable_filling.calls": ("count", "lower"),
    "cobordism.search_decomposable_filling.self_ms": ("ms", "lower"),
    "cobordism.reduce_diagram.calls": ("count", "lower"),
    "cobordism.reduce_diagram.self_ms": ("ms", "lower"),
    "cobordism.pinch.calls": ("count", "lower"),
    "cobordism.pinch_per_search": ("pinch/search", "lower"),
    "cobordism.death.calls": ("count", "lower"),
    "cobordism.check_trace_report.self_ms": ("ms", "lower"),
    "cobordism.ruling_fillability.self_ms": ("ms", "lower"),
    "cobordism.search.found_share": ("ratio", "higher"),
    "satellites.satellite.calls": ("count", "lower"),
    "satellites.satellite.self_ms": ("ms", "lower"),
    "render.render_svg.self_ms": ("ms", "lower"),
    "render.render_trace_svg.self_ms": ("ms", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "catalog.get.calls": ("count", "lower"),
    "catalog.get.self_ms": ("ms", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


class TracingError(RuntimeError):
    pass


class Tracer:
    """In-memory span recorder.

    A span is ``(name, start_ns, end_ns, parent, op, note, error)``;
    ``parent`` is the index of the enclosing span or -1, ``op`` the id of
    the benchmark operation it belongs to.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._open = []

    def wrap(self, name, fn):
        spans, open_spans = self.spans, self._open
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)       # reserve the index children refer to
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, perf_counter_ns(), parent, self.op,
                              None, type(exc).__name__)
                raise
            finally:
                open_spans.pop()
            spans[idx] = (name, start, perf_counter_ns(), parent, self.op,
                          note(args, result) if note else None, None)
            return result

        return traced

    def install(self, fc):
        """Wrap every traced function of the frontcalc modules in ``fc``.

        Raises TracingError when a traced name is missing, so a renamed
        layer function cannot silently drop out of the per-layer metrics.
        """
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("frontcalc.")]
        wrapped = {}
        for name, module, attr in TRACED:
            original = getattr(getattr(fc, module), attr, None)
            if original is None:
                raise TracingError(f"frontcalc.{module}.{attr} is missing")
            wrapped[id(original)] = (original, self.wrap(name, original))
        for m in modules:
            for key, value in list(vars(m).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(m, key, hit[1])
        cls = fc.diagrams.FrontDiagram
        cls.__init__ = self.wrap(CTOR, cls.__init__)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\tnote\terror\n")
            for i, s in enumerate(self.spans):
                fh.write("\t".join(str(v) for v in (i,) + s) + "\n")


def layer_metrics(spans, trace_overhead):
    """Per-layer metrics (see LAYER_METRICS) from a list of spans."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    notes = defaultdict(list)
    errors = defaultdict(int)
    ctor_in_rewrite = 0
    for i, (name, start, end, parent, _op, note, error) in enumerate(spans):
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        if note is not None:
            notes[name].append(note)
        if error is not None:
            errors[name, error] += 1
        if (name == CTOR and parent >= 0
                and spans[parent][0] == "moves.apply_rewrite"):
            ctor_in_rewrite += 1

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[layer]
        elif stat == "self_ms":
            out[metric] = self_ns[layer] / 1e6
    rw = "moves.apply_rewrite"
    search = "cobordism.search_decomposable_filling"
    enum = "rulings.enumerate_rulings"
    out[CTOR + ".events_mean"] = ratio(sum(notes[CTOR]), len(notes[CTOR]))
    out[rw + ".miss_share"] = ratio(errors[rw, "InapplicableRewrite"],
                                    calls[rw])
    out[rw + ".ctor_per_call"] = ratio(ctor_in_rewrite, calls[rw])
    out[enum + ".rulings_per_s"] = ratio(sum(notes[enum]),
                                         total_ns[enum] / 1e9)
    out["cobordism.pinch_per_search"] = ratio(calls["cobordism.pinch"],
                                              calls[search])
    out["cobordism.search.found_share"] = ratio(sum(notes[search]),
                                                calls[search])
    out["trace_overhead"] = trace_overhead
    return {name: out[name] for name in LAYER_METRICS}
