"""In-memory spans around EasyView's layers, installed from outside.

The traced run wraps the public functions of each layer (decode,
converters, CCT metrics, digests, engine, analysis, view trees, IDE
annotations, layout, dispatch, store, watch) without editing the
program, and times the interpreter's cyclic garbage collections through
``gc.callbacks``.  :func:`install` replaces each target in every loaded
``repro`` module that holds it, so aliases such as the engine's
``transform_fn`` are wrapped too.  Spans stay in a list until the run ends; nothing is
written while the workload runs.

A span is ``[name, start_ns, end_ns, span_id, parent_id, request,
attrs, thread_id]``.  The parent and request id flow through a
``ContextVar``, so spans opened in the engine's worker pool (which copies
the submitting context) attach to the request that submitted them.
"""

from __future__ import annotations

import contextvars
import dataclasses
import gc
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

NAME, START, END, SID, PARENT, REQUEST, ATTRS, TID = range(8)

clock = _clock = time.perf_counter_ns

_current: "contextvars.ContextVar[Optional[list]]" = contextvars.ContextVar(
    "e2ebench_span", default=None)


class Recorder:
    """Collects spans; one per traced run.

    Lock-free on purpose: ``itertools.count`` and ``list.append`` are
    atomic under the interpreter lock, and every cycle spent here shows up
    as unattributed time in the requests being measured.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)

    def open(self, name: str, request: Optional[str] = None,
             attrs: Optional[Dict[str, Any]] = None, start: int = 0):
        """Start a span; ``start`` lets a wrapper stamp its entry time."""
        if not start:
            start = _clock()
        parent = _current.get()
        if parent is None:
            parent_id = 0
        else:
            parent_id = parent[SID]
            if request is None:
                request = parent[REQUEST]
        span = [name, start, 0, next(self._ids), parent_id, request,
                attrs if attrs is not None else {}, threading.get_ident()]
        return span, _current.set(span)

    def close(self, span: list, token, end: int = 0) -> None:
        """End a span; the clock is read last, so a wrapper's own cost is
        charged to the layer it wraps rather than to its caller."""
        _current.reset(token)
        self.spans.append(span)
        span[END] = end or _clock()

    def span(self, name: str, request: Optional[str] = None, **attrs: Any):
        return _SpanContext(self, name, request, attrs)


class _SpanContext:
    __slots__ = ("recorder", "name", "request", "attrs", "span", "token")

    def __init__(self, recorder: Recorder, name: str,
                 request: Optional[str], attrs: Dict[str, Any]) -> None:
        self.recorder = recorder
        self.name = name
        self.request = request
        self.attrs = attrs

    def __enter__(self) -> list:
        self.span, self.token = self.recorder.open(
            self.name, self.request, self.attrs)
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self.recorder.close(self.span, self.token)


def current_attrs() -> Optional[Dict[str, Any]]:
    """The attribute dict of the innermost open span, if any."""
    span = _current.get()
    return span[ATTRS] if span is not None else None


# -- wrapping ----------------------------------------------------------------

def _wrap(recorder: Recorder, fn: Callable, name: str,
          after: Optional[Callable] = None,
          attrs: Optional[Callable] = None) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = _clock()
        extra = attrs(args, kwargs) if attrs is not None else {}
        span, token = recorder.open(name, extra.pop("request", None), extra,
                                    start)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span[ATTRS], args, result)
            return result
        finally:
            recorder.close(span, token)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Swap ``original`` for ``replacement`` in every loaded repro module."""
    swapped = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                swapped += 1
    return swapped


def _bytes_of_first(span_attrs, args, result) -> None:
    span_attrs["bytes"] = len(args[0])


def _rects(span_attrs, args, result) -> None:
    span_attrs["rects"] = int(getattr(result, "laid_out_nodes", 0))


def _encoded(span_attrs, args, result) -> None:
    span_attrs["bytes"] = len(result)


def _method_of(args, kwargs) -> Dict[str, Any]:
    """Dispatcher.handle: its method, and a request id that is unique
    across the sessions of a socket server."""
    dispatcher, message = args[0], args[1]
    return {"method": message.method,
            "request": "%s:%s" % (dispatcher.session_id, message.id)}


#: (module, qualified attribute, span name, after-hook, attrs-hook).
#: Each layer's public entry points; the span name's first component is
#: the layer the attribution table groups by.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str, Any, Any], ...] = (
    ("repro.proto.pprof_pb", "loads_columnar", "proto.decode",
     _bytes_of_first, None),
    ("repro.proto.pprof_pb", "loads", "proto.decode", _bytes_of_first, None),
    ("repro.proto.easyview_pb", "loads", "proto.decode",
     _bytes_of_first, None),
    ("repro.analysis.metrics", "compute_inclusive", "core.inclusive",
     None, None),
    ("repro.core.digest", "profile_digest", "digest.profile", None, None),
    ("repro.core.digest", "viewtree_digest", "digest.viewtree", None, None),
    ("repro.analysis.transform", "transform", "analysis.transform",
     None, None),
    ("repro.analysis.aggregate", "merge_trees", "analysis.aggregate",
     None, None),
    ("repro.analysis.aggregate", "aggregate_profiles", "analysis.aggregate",
     None, None),
    ("repro.analysis.diff", "diff_trees", "analysis.diff", None, None),
    ("repro.analysis.diff", "summarize", "analysis.summarize", None, None),
    ("repro.analysis.query", "search", "analysis.search", None, None),
    ("repro.analysis.query", "match_fraction", "analysis.search",
     None, None),
    ("repro.ide.annotations", "line_attribution", "ide.line_attribution",
     None, None),
    ("repro.ide.annotations", "build_hover", "ide.hover", None, None),
    ("repro.viz.layout", "layout", "viz.layout", _rects, None),
    ("repro.viz.layout", "layout_profile", "viz.layout", _rects, None),
    ("repro.serve.dispatch", "parse_line", "dispatch.parse", None, None),
    ("repro.converters.base", "open_profile", "converters.read", None, None),
    ("repro.converters.base", "parse_bytes", "converters.detect", None,
     None),
)

#: Methods wrapped on their class (so every instance and subclass sees it).
METHOD_TARGETS: Tuple[Tuple[str, str, str, str, Any, Any], ...] = (
    ("repro.serve.dispatch", "Dispatcher", "handle", "dispatch.handle",
     None, _method_of),
    ("repro.ide.protocol", "Response", "to_json", "dispatch.encode",
     _encoded, None),
    ("repro.ide.protocol", "Request", "to_json", "dispatch.encode",
     _encoded, None),
    ("repro.core.profile", "Profile", "summary", "core.summary", None, None),
    ("repro.ide.session", "ViewerSession", "handle", "session.handle",
     None, None),
    ("repro.ide.session", "ViewerSession", "select", "ide.codelink",
     None, None),
    ("repro.ide.tips", "TipEngine", "tips_for", "ide.tips", None, None),
    ("repro.store.store", "ProfileStore", "ingest", "store.ingest",
     None, None),
    ("repro.store.store", "ProfileStore", "flush", "store.flush", None, None),
    ("repro.store.store", "ProfileStore", "query", "store.query", None, None),
    ("repro.store.store", "ProfileStore", "query_window", "store.query",
     None, None),
    ("repro.store.store", "ProfileStore", "load", "store.load", None, None),
    ("repro.continuous.watch", "RegressionWatch", "tick", "watch.tick",
     None, None),
)

#: Engine operations: one span each, the cache lookup marks hit or miss.
ENGINE_OPS = ("transform", "layout", "diff_trees", "diff_profiles",
              "merge_trees", "aggregate_profiles", "aggregate_window",
              "line_attribution")


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer target; returns a function that undoes it."""
    import repro.converters  # registers every converter
    for module_name in {t[0] for t in FUNCTION_TARGETS} | \
            {t[0] for t in METHOD_TARGETS} | {"repro.engine.engine",
                                              "repro.engine.cache",
                                              "repro.analysis.viewtree",
                                              "repro.converters.base"}:
        importlib.import_module(module_name)
    undo: List[Callable[[], None]] = []

    for module_name, attr, name, after, attrs in FUNCTION_TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(recorder, original, name, after, attrs)
        _replace_everywhere(original, wrapper)
        undo.append(lambda o=original, w=wrapper: _replace_everywhere(w, o))

    def patch_method(cls, attr, replacement):
        original = cls.__dict__[attr]
        setattr(cls, attr, replacement)
        undo.append(lambda: setattr(cls, attr, original))

    for module_name, cls_name, attr, name, after, attrs in METHOD_TARGETS:
        cls = getattr(sys.modules[module_name], cls_name)
        patch_method(cls, attr,
                     _wrap(recorder, cls.__dict__[attr], name, after, attrs))

    engine_cls = sys.modules["repro.engine.engine"].AnalysisEngine
    for op in ENGINE_OPS:
        patch_method(engine_cls, op,
                     _wrap(recorder, engine_cls.__dict__[op], "engine." + op))

    cache_cls = sys.modules["repro.engine.cache"].LRUCache
    lookup = cache_cls.__dict__["lookup"]

    def traced_lookup(self, operation, key):
        found, value = lookup(self, operation, key)
        attrs = current_attrs()
        if attrs is not None:
            attrs["hit"] = bool(found)
        return found, value
    patch_method(cache_cls, "lookup", traced_lookup)

    # First touch of a lazy view tree's ``root`` materializes its nodes.
    tree_cls = sys.modules["repro.analysis.viewtree"].ViewTree
    root_property = tree_cls.__dict__["root"]

    def traced_root(tree):
        if tree._root is None and tree._columnar is not None:
            with recorder.span("viewtree.materialize",
                               nodes=int(tree._columnar.n_rows)):
                return root_property.fget(tree)
        return root_property.fget(tree)
    patch_method(tree_cls, "root",
                 property(traced_root, root_property.fset))

    # Each registered converter's parse, tagged with its format name and
    # whether the result carries the columnar CCT.
    base = sys.modules["repro.converters.base"]
    registry = base._REGISTRY
    saved = dict(registry)
    def columnar(span_attrs, args, result):
        span_attrs["columnar"] = result.columnar() is not None
        if span_attrs["columnar"]:
            span_attrs["nodes"] = int(result.columnar().n_nodes)

    for fmt, converter in saved.items():
        registry[fmt] = dataclasses.replace(converter, parse=_wrap(
            recorder, converter.parse, "converters.parse", columnar,
            lambda a, k, fmt=fmt: {"format": fmt}))
    undo.append(lambda: registry.update(saved))

    # Cyclic garbage collections land inside whichever span allocates when
    # a threshold is crossed; a span of their own keeps them out of it.
    # The callback only reads the current span: setting a context variable
    # while a collection interrupts another set or reset crashes CPython.
    collecting: List[list] = []

    def on_gc(phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            parent = _current.get()
            collecting.append([
                "runtime.gc", _clock(), 0, next(recorder._ids),
                parent[SID] if parent is not None else 0,
                parent[REQUEST] if parent is not None else None,
                {"generation": info["generation"]}, threading.get_ident()])
        elif collecting:
            span = collecting.pop()
            span[END] = _clock()
            recorder.spans.append(span)
    gc.callbacks.append(on_gc)
    undo.append(lambda: gc.callbacks.remove(on_gc))

    def uninstall() -> None:
        for step in reversed(undo):
            step()
    return uninstall


# -- analysis ------------------------------------------------------------------

def self_times(spans: Iterable[list]) -> Dict[int, float]:
    """span id -> self seconds (duration minus direct children's)."""
    spans = list(spans)
    child_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT]:
            child_ns[span[PARENT]] += span[END] - span[START]
    return {span[SID]: max(0, span[END] - span[START] - child_ns[span[SID]])
            / 1e9 for span in spans}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


#: Spans around a whole request rather than one layer.  Their self time is
#: the part of a request that no layer span explains (the viewer session's
#: own code: routing, parameter checks, building the result), so
#: attribution counts it as unattributed.  ``dispatch.handle``'s self time
#: is the dispatcher's request accounting (counters, latency histogram,
#: the obs span) and stays with the dispatch layer.
CATCH_ALL = frozenset({"request", "session.handle"})


def attribution(spans: List[list], roots: Dict[str, Tuple[str, float]]
                ) -> Dict[str, Dict[str, Any]]:
    """Per request class: end-to-end, per-layer self time, unattributed.

    ``roots`` maps request id -> (class, end-to-end seconds).  A request's
    unattributed time is its end-to-end time minus the summed self time of
    the layer spans inside it; the :data:`CATCH_ALL` spans are not layers.
    """
    own = self_times(spans)
    per_request: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in spans:
        request = span[REQUEST]
        if request in roots and span[NAME] not in CATCH_ALL:
            per_request[request][layer_of(span[NAME])] += own[span[SID]]
    table: Dict[str, Dict[str, Any]] = {}
    for request, (klass, e2e) in roots.items():
        row = table.setdefault(klass, {"requests": 0, "e2e_s": 0.0,
                                       "layers": defaultdict(float)})
        row["requests"] += 1
        row["e2e_s"] += e2e
        for layer, seconds in per_request.get(request, {}).items():
            row["layers"][layer] += seconds
    for row in table.values():
        attributed = sum(row["layers"].values())
        row["unattributed_s"] = max(0.0, row["e2e_s"] - attributed)
        row["unattributed_share"] = (row["unattributed_s"] / row["e2e_s"]
                                     if row["e2e_s"] > 0 else 0.0)
        row["layers"] = dict(row["layers"])
    return table


def format_attribution(table: Dict[str, Dict[str, Any]]) -> str:
    layers = sorted({layer for row in table.values()
                     for layer in row["layers"]})
    header = "%-26s %5s %9s " % ("request class", "n", "e2e s") + " ".join(
        "%9s" % layer[:9] for layer in layers) + " %9s %6s" % (
            "unattr s", "unattr")
    lines = [header]
    for klass in sorted(table):
        row = table[klass]
        lines.append("%-26s %5d %9.4f " % (klass, row["requests"],
                                           row["e2e_s"]) + " ".join(
            "%9.4f" % row["layers"].get(layer, 0.0) for layer in layers)
            + " %9.4f %5.1f%%" % (row["unattributed_s"],
                                  100 * row["unattributed_share"]))
    return "\n".join(lines)


def write_chrome_trace(spans: List[list], path: str, pid: int = 1) -> int:
    """Write spans as Trace Event ``B``/``E`` pairs; returns event count.

    The repo's ``chrome-trace`` converter folds B/E nesting per (pid, tid)
    track into calling contexts, so ``easyview open`` shows the
    benchmark's own run as a flame graph.  Events are ordered so that at
    equal timestamps parents open before children and children close
    before parents.
    """
    depth: Dict[int, int] = {}
    by_id = {span[SID]: span for span in spans}

    def depth_of(span: list) -> int:
        sid = span[SID]
        if sid not in depth:
            parent = by_id.get(span[PARENT])
            depth[sid] = 0 if parent is None or parent[TID] != span[TID] \
                else depth_of(parent) + 1
        return depth[sid]

    base = min((span[START] for span in spans), default=0)
    threads = {tid: index + 1 for index, tid in enumerate(
        sorted({span[TID] for span in spans}))}
    keyed = []
    for span in spans:
        d = depth_of(span)
        tid = threads[span[TID]]
        args = {"request": span[REQUEST] or ""}
        args.update({k: v for k, v in span[ATTRS].items()
                     if isinstance(v, (bool, int, float, str))})
        keyed.append(((span[START] - base, 0, d), {
            "ph": "B", "name": span[NAME], "pid": pid, "tid": tid,
            "ts": (span[START] - base) / 1e3, "args": args}))
        keyed.append(((span[END] - base, 1, -d), {
            "ph": "E", "name": span[NAME], "pid": pid, "tid": tid,
            "ts": (span[END] - base) / 1e3}))
    keyed.sort(key=lambda item: item[0])
    events = [{"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
               "args": {"name": "thread %d" % tid}}
              for tid in sorted(threads.values())]
    events.extend(event for _, event in keyed)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)
