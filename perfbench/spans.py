"""Outside-in tracing of kpartite's public functions.

``Tracer.install()`` replaces each function in ``LAYERS`` with a timing
wrapper in every kpartite module that binds the same object (callers import
names directly, so patching the defining module alone would miss them).
``Graph.__init__`` is wrapped on the class, and the stream returned by
``enumerate_realizations`` is wrapped so that each ``next()`` is one span.

A span is (name, parent, start, end).  Spans are kept in flat arrays and
written out with ``dump``; self time is derived from them in ``summary``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = {
    "formats": ("decode_graph6", "encode_graph6", "decode_edge_list", "encode_edge_list", "load_graph", "save_graph"),
    "graph": ("complement", "connected_components", "induced_subgraph"),
    "sequences": (
        "is_graphical",
        "clique_union_profile_from_degrees",
        "multipartite_profile_from_degrees",
        "parse_degree_list",
    ),
    "recognition": ("is_clique_union", "is_complete_multipartite"),
    "isomorphism": ("labeling_is_canonical", "canonical_key", "contains_induced"),
    "realizations": ("enumerate_realizations", "havel_hakimi_realize", "random_switch_walk"),
    "exact": ("max_independent_set", "max_clique"),
    "bounds": ("compare_bounds", "sharpened_alpha_bound", "sharpened_omega_bound"),
    "witness": ("witness_independent_set", "witness_clique"),
    "harness": ("check_profile", "bounds_report_rows", "bounds_report_csv", "find_sharp_example"),
}

ITEM = "item"
ENUMERATE_NEXT = "realizations.enumerate"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._id(name))

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        begin, finish = self._begin, self._finish

        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every layer function; returns a function that restores the
        originals."""
        from kpartite import graph

        modules = [m for key, m in sys.modules.items() if key == "kpartite" or key.startswith("kpartite.")]
        replaced = []
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"kpartite.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original, self._after(fn_name))
                if fn_name == "enumerate_realizations":
                    wrapper = self._stream_wrapper(wrapper)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            replaced.append((module, attr, original))
        init = graph.Graph.__init__
        graph.Graph.__init__ = self.wrap("graph.Graph", init)
        replaced.append((graph.Graph, "__init__", init))

        def undo() -> None:
            for target, attr, original in replaced:
                setattr(target, attr, original)

        return undo

    def _after(self, fn_name: str):
        counts = self.counts
        if fn_name == "labeling_is_canonical":
            def after(args, kwargs, result):
                counts["isomorphism.labeling_is_canonical.accepted"] += bool(result)
        elif fn_name in ("decode_graph6", "decode_edge_list"):
            def after(args, kwargs, result):
                counts["formats.bytes_in"] += len(args[0])
        elif fn_name == "save_graph":
            def after(args, kwargs, result):
                counts["formats.bytes_out"] += Path(args[1]).stat().st_size
        else:
            after = None
        return after

    def _stream_wrapper(self, enumerate_fn):
        tracer = self
        nid = self._id(ENUMERATE_NEXT)

        def wrapper(*args, **kwargs):
            return _TracedStream(tracer, nid, enumerate_fn(*args, **kwargs))

        return wrapper

    def summary(self) -> dict:
        """Per-name calls, inclusive time of outermost spans, self time and
        longest span, from the recorded spans."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        longest = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += duration - child_time[i]
            longest[name] = max(longest[name], duration)
            if not self._has_ancestor_named(i, self.name[i]):
                incl[name] += duration
        return {
            name: {"calls": calls[name], "s": incl[name], "self_s": self_s[name], "max_s": longest[name]}
            for name in calls
        }

    def _has_ancestor_named(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line with the name table, then the
        name, parent, start and end arrays in native byte order."""
        with open(path, "wb") as f:
            f.write(json.dumps({"names": self.names, "spans": len(self.start)}).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(f)


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._begin(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._finish(self.idx)
        return False


class _TracedStream:
    """Iterator proxy: each ``next()`` on the realization stream is a span."""

    def __init__(self, tracer: Tracer, nid: int, stream) -> None:
        self._tracer, self._nid, self._stream = tracer, nid, stream

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer._begin(self._nid)
        try:
            graph = next(self._stream)
        finally:
            self._tracer._finish(idx)
        self._tracer.counts["realizations.enumerate.items"] += 1
        return graph

    def __getattr__(self, attr):
        return getattr(self._stream, attr)
