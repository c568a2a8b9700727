"""Per-layer tracing for the benchmark, installed from outside the program.

:func:`install` wraps the public functions and methods of each layer
(scheme allocation, SAT builds, corner-gather kernels, the scalar cost
oracle, the replica planner, the allocation cache, the theorem search
and the serve protocol) so that every call records a span with
:class:`repro.obs.trace.Tracer`: name, start, duration and the span that
was open when it began.  Nothing inside ``src/`` is edited; the wrappers
replace module and class attributes, and every module that already
imported a wrapped function by name is re-pointed at the wrapper.  Call
:func:`install` before ``repro.experiments`` is imported, because the
experiment modules bind some of these names at import time.

Spans are kept in memory (one tracer per thread, so worker threads of
the serve daemon keep their own parent chains) and turned into the
``per_layer`` metrics by :func:`program_metrics` and into a per-layer
self-time table by :func:`self_time_table`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.obs.trace import Tracer

#: Span name -> layer (module) it belongs to, for the self-time table.
LAYER_OF_SPAN = {
    "experiments": "experiments",
    "gridfile.growth": "gridfile",
    "replication.plan": "replication",
    "cache.lookup": "core.cache",
    "schemes.disk_array": "schemes",
    "sat.build": "core.sat",
    "sat.chunked": "core.sat",
    "engine.batch": "core.engine+backends",
    "engine.stream": "core.engine+backends",
    "engine.sliding": "core.engine+backends",
    "cost.response_time": "core.cost",
    "theory.search": "theory",
    "serve.protocol": "serve",
}


def layer_of(name: str) -> str:
    """The layer a span name belongs to (longest known prefix wins)."""
    parts = name.split(".")
    for size in range(len(parts), 0, -1):
        layer = LAYER_OF_SPAN.get(".".join(parts[:size]))
        if layer is not None:
            return layer
    return parts[0]


class LayerTrace:
    """Thread-aware span recorder plus the counters the spans carry."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tracers: List[Tracer] = []
        self.counters: Dict[str, float] = defaultdict(float)

    def _tracer(self) -> Tracer:
        tracer = getattr(self._local, "tracer", None)
        if tracer is None:
            tracer = Tracer()
            tracer.enable()
            self._local.tracer = tracer
            self._local.active = set()
            with self._lock:
                self._tracers.append(tracer)
        return tracer

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def span(self, name: str):
        """A context manager recording one span on this thread's tracer."""
        return self._tracer().span(name)

    def wrap(
        self,
        func: Callable,
        name: Callable[..., str],
        after: Optional[Callable] = None,
    ) -> Callable:
        """``func`` timed as span ``name(*args)``; ``after`` sees results.

        A call made while a span of the same name is already open on
        this thread (a method calling its own base class, a planner
        entry point calling ``plan_query``) is not re-spanned, so call
        counts and times count the outermost call once; ``after`` still
        runs for it.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs)
            tracer = self._tracer()
            active = self._local.active
            if span_name in active:
                result = func(*args, **kwargs)
            else:
                active.add(span_name)
                try:
                    with tracer.span(span_name):
                        result = func(*args, **kwargs)
                finally:
                    active.discard(span_name)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def spans(self) -> List[Dict[str, object]]:
        with self._lock:
            tracers = list(self._tracers)
        spans: List[Dict[str, object]] = []
        for tracer in tracers:
            spans.extend(tracer.spans())
        return spans

    def dump(self, path: str) -> None:
        """Write spans and counters as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {"spans": self.spans(), "counters": dict(self.counters)},
                handle,
            )


def load_dump(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def self_times(spans: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Each span with ``self_s`` = its duration minus its children's."""
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_time[parent] += float(span["duration_s"])
    return [
        dict(
            span,
            self_s=max(
                0.0, float(span["duration_s"]) - child_time[span["span_id"]]
            ),
        )
        for span in spans
    ]


def self_time_table(spans: List[Dict[str, object]]) -> Dict[str, Dict]:
    """Per-layer span count and self seconds, busiest layer first."""
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0}
    )
    for span in self_times(spans):
        row = table[layer_of(str(span["name"]))]
        row["calls"] += 1
        row["self_s"] += span["self_s"]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


def render_table(table: Dict[str, Dict], overhead_s: float) -> str:
    lines = [f"{'layer':<24} {'calls':>9} {'self_s':>10}"]
    for layer, row in table.items():
        lines.append(
            f"{layer:<24} {int(row['calls']):>9} {row['self_s']:>10.4f}"
        )
    lines.append(f"tracing overhead: {overhead_s:+.4f} s")
    return "\n".join(lines)


def _replace_everywhere(owner, attr: str, wrapper: Callable) -> None:
    """Set ``owner.attr`` and re-point modules that imported it by name."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for module in list(sys.modules.values()):
        if module is None or module is owner:
            continue
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def _wrap_method(
    layer: LayerTrace,
    cls: type,
    attr: str,
    name: Callable[..., str],
    after: Optional[Callable] = None,
) -> None:
    """Wrap a method defined in ``cls`` itself (classmethods included)."""
    raw = inspect.getattr_static(cls, attr)
    if getattr(raw, "__wrapped_by_perfbench__", False):
        return
    if isinstance(raw, classmethod):
        inner = raw.__func__
        if getattr(inner, "__wrapped_by_perfbench__", False):
            return
        setattr(cls, attr, classmethod(layer.wrap(inner, name, after)))
    else:
        setattr(cls, attr, layer.wrap(raw, name, after))


def install(layer: LayerTrace) -> None:
    """Wrap every layer's public entry points with ``layer``'s spans."""
    from repro.core import cost
    from repro.core.cache import AllocationCache
    from repro.core.engine import ResponseTimeEngine
    from repro.core.registry import available_schemes, get_scheme
    from repro.core.sat import SummedAreaTable
    from repro.replication import planner
    from repro.schemes.base import DeclusteringScheme
    from repro.serve import protocol
    from repro.theory import search

    def fixed(span_name: str) -> Callable[..., str]:
        return lambda *args, **kwargs: span_name

    # core.cost: the scalar oracle.
    _replace_everywhere(
        cost, "response_time",
        layer.wrap(cost.response_time, fixed("cost.response_time")),
    )

    # replication: the planner entry points.
    def count_plan(plan, *args, **kwargs):
        layer.add("replication.plan.buckets", plan.num_buckets)
        layer.add("replication.plan.lost", plan.num_lost)

    _replace_everywhere(
        planner, "plan_query",
        layer.wrap(planner.plan_query, fixed("replication.plan"),
                   count_plan),
    )
    for attr in ("replicated_response_time",
                 "degraded_replicated_response_time"):
        _replace_everywhere(
            planner, attr,
            layer.wrap(getattr(planner, attr), fixed("replication.plan")),
        )

    # theory: the exhaustive existence search.
    def count_nodes(result, *args, **kwargs):
        layer.add("theory.search.nodes", result.nodes_explored)

    _replace_everywhere(
        search, "search_strictly_optimal",
        layer.wrap(search.search_strictly_optimal,
                   fixed("theory.search"), count_nodes),
    )

    # core.cache: lookups, timed; misses detected from the public stats.
    def cache_lookup(func):
        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            before = self.stats().misses
            started = time.perf_counter()
            with layer.span("cache.lookup"):
                result = func(self, *args, **kwargs)
            if self.stats().misses > before:
                layer.add("cache.miss.s", time.perf_counter() - started)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    for attr in ("allocation", "engine"):
        raw = inspect.getattr_static(AllocationCache, attr)
        if not getattr(raw, "__wrapped_by_perfbench__", False):
            setattr(AllocationCache, attr, cache_lookup(raw))

    # schemes: whole-grid disk tables, every class that defines one.
    def count_buckets(table, *args, **kwargs):
        layer.add("schemes.disk_array.buckets", table.size)

    classes = {DeclusteringScheme}
    for scheme_name in available_schemes():
        classes.update(type(get_scheme(scheme_name)).__mro__)
    for cls in classes:
        if "disk_array" in vars(cls):
            _wrap_method(layer, cls, "disk_array",
                         fixed("schemes.disk_array"), count_buckets)

    # core.sat: in-RAM and chunked (spilling) builds.
    def count_bytes(sat, *args, **kwargs):
        layer.add("sat.build.bytes", sat.nbytes())

    _wrap_method(layer, SummedAreaTable, "build", fixed("sat.build"),
                 count_bytes)
    _wrap_method(layer, SummedAreaTable, "build_chunked",
                 fixed("sat.chunked"), count_bytes)

    # core.engine + core.backends: corner-gather kernels.
    def batch_name(engine, *args, **kwargs):
        return "engine.stream" if engine.sat.is_mmap else "engine.batch"

    def count_queries(result, engine, queries, *args, **kwargs):
        layer.add("engine.batch.queries", len(queries))

    for attr in ("batch_response_times", "batch_disk_counts"):
        _wrap_method(layer, ResponseTimeEngine, attr, batch_name,
                     count_queries)

    def count_placements(result, *args, **kwargs):
        layer.add("engine.sliding.placements", result.size)

    _wrap_method(layer, ResponseTimeEngine, "sliding_response_times",
                 fixed("engine.sliding"), count_placements)

    # serve: frame encode and payload decode.  read_frame's await is
    # socket wait (idle between requests); parse_payload is its work.
    for attr in ("encode_frame", "parse_payload"):
        _replace_everywhere(
            protocol, attr,
            layer.wrap(getattr(protocol, attr), fixed("serve.protocol")),
        )


def _named(spans, prefix: str):
    return [s for s in spans if str(s["name"]).startswith(prefix)]


def _total(spans) -> float:
    return float(sum(float(s["duration_s"]) for s in spans))


def program_metrics(dump: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of one process's spans and counters."""
    spans = dump["spans"]
    counters = dump["counters"]
    batch = _named(spans, "engine.batch") + _named(spans, "engine.stream")
    queries = counters.get("engine.batch.queries", 0.0)
    builds = _named(spans, "sat.build") + _named(spans, "sat.chunked")
    metrics = {
        "replication.plan.calls": len(_named(spans, "replication.plan")),
        "replication.plan.s": _total(_named(spans, "replication.plan")),
        "replication.plan.buckets": counters.get(
            "replication.plan.buckets", 0.0),
        "replication.plan.lost": counters.get("replication.plan.lost", 0.0),
        "cache.miss.s": counters.get("cache.miss.s", 0.0),
        "schemes.disk_array.calls": len(_named(spans, "schemes.disk_array")),
        "schemes.disk_array.s": _total(_named(spans, "schemes.disk_array")),
        "schemes.disk_array.buckets": counters.get(
            "schemes.disk_array.buckets", 0.0),
        "sat.build.calls": len(builds),
        "sat.build.s": _total(builds),
        "sat.build.bytes": counters.get("sat.build.bytes", 0.0),
        "sat.chunked.s": _total(_named(spans, "sat.chunked")),
        "engine.batch.calls": len(batch),
        "engine.batch.queries": queries,
        "engine.batch.s": _total(batch),
        "engine.batch.ns_per_query": (
            _total(batch) * 1e9 / queries if queries else 0.0
        ),
        "engine.stream.s": _total(_named(spans, "engine.stream")),
        "engine.sliding.calls": len(_named(spans, "engine.sliding")),
        "engine.sliding.placements": counters.get(
            "engine.sliding.placements", 0.0),
        "engine.sliding.s": _total(_named(spans, "engine.sliding")),
        "cost.response_time.calls": len(
            _named(spans, "cost.response_time")),
        "cost.response_time.s": _total(_named(spans, "cost.response_time")),
        "theory.search.s": _total(_named(spans, "theory.search")),
        "theory.search.nodes": counters.get("theory.search.nodes", 0.0),
    }
    return metrics
