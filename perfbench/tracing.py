"""Spans around calls into ramseystats's public API, from outside it.

instrument() rebinds, in every loaded ramseystats module, each global
that is one of the functions named in ramseystats.__all__, and wraps
the constructors of the validating classes. Calls the CLI makes and
calls the package makes internally both become spans, so sweep's
threshold colorings and censuses nest under it. Nothing inside the
package changes; everything is restored on exit.

A span is [name, tag, start_ns, end_ns, parent]: name is
"<module>.<function>", tag tells apart calls of one function that do
different work (the clique order, the color, the vertex count), parent
is the index of the enclosing span or -1. Spans stay in memory until
written out.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from math import comb
from pathlib import Path

# Public classes whose construction validates its input.
VALIDATING_CLASSES = ("TwoColoring", "DistanceMatrix")


def _tag(name: str, n_at: int | None, args, kwargs) -> str:
    """The clique order, the color, or else the vertex count n."""
    if name == "clique_census":
        return f"k{kwargs.get('m', args[1] if len(args) > 1 else '')}"
    if name == "max_clique":
        color = kwargs.get("color", args[1] if len(args) > 1 else None)
        return getattr(color, "value", str(color))
    if n_at is not None:
        n = kwargs.get("n", args[n_at] if len(args) > n_at else None)
    else:
        n = getattr(args[0], "n", None) if args else None
    return f"n{n}" if type(n) is int else ""


def _count(counters: Counter, name: str, tag: str, result) -> None:
    """Work counters read off return values."""
    if name == "hamming_matrix":
        counters["ingest.pairs"] += comb(result.n, 2)
    elif name == "sweep":
        counters["ingest.thresholds"] += len(result.rows)
    elif name == "random_coloring":
        counters["ingest.colorings"] += 1
    elif name == "clique_census":
        counters[f"census.{tag}.counted"] += result.red_count + result.blue_count
    elif name == "max_clique":
        counters[f"census.max_clique.{tag}_nodes"] += result.nodes_explored
        counters["census.max_clique.searches"] += 1
        counters["census.max_clique.exact"] += not result.is_lower_bound


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str, tag: str = "") -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, time.perf_counter_ns(), 0, parent])
        self._stack.append(i)
        return i

    def end(self, i: int) -> None:
        self.spans[i][3] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: str = ""):
        i = self.begin(name, tag)
        try:
            yield
        finally:
            self.end(i)

    def wrap(self, fn, name: str):
        """fn with one span per call (per step, for a generator)."""
        short = name.rsplit(".", 1)[-1]
        params = list(inspect.signature(fn).parameters)
        n_at = params.index("n") if "n" in params else None
        counters = self.counters

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counters[f"{name}.calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = self.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.end(i)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = _tag(short, n_at, args, kwargs)
            counters[f"{name}.calls"] += 1
            i = self.begin(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i)
            _count(counters, short, tag, result)
            return result
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _layer(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


@contextmanager
def instrument(tracer: Tracer, package):
    """Wrap every public function and validating constructor of package."""
    wrapped = {}
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isfunction(obj):
            wrapped[id(obj)] = (obj, tracer.wrap(obj, f"{_layer(obj)}.{name}"))
    prefix = package.__name__ + "."
    undo = []
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == package.__name__ or k.startswith(prefix))]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
                undo.append((mod, key, value))
    for name in VALIDATING_CLASSES:
        cls = getattr(package, name)
        init = cls.__dict__["__init__"]
        cls.__init__ = tracer.wrap(init, f"{_layer(cls)}.{name}")
        undo.append((cls, "__init__", init))
    try:
        yield
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def span_cost_s(samples: int = 20000) -> float:
    """Added seconds per span: a wrapped no-op call against a bare one."""
    def noop():
        return None

    probe = Tracer().wrap(noop, "probe.noop")
    elapsed = []
    for fn in (noop, probe):
        t0 = time.perf_counter()
        for _ in range(samples):
            fn()
        elapsed.append(time.perf_counter() - t0)
    return max(elapsed[1] - elapsed[0], 0.0) / samples


def summarize(spans: list[list]) -> tuple[dict, dict]:
    """Per (name, tag): inclusive and self seconds, summed over spans."""
    child = [0] * len(spans)
    for name, tag, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: Counter = Counter()
    self_time: Counter = Counter()
    for i, (name, tag, start, end, parent) in enumerate(spans):
        total[(name, tag)] += (end - start) / 1e9
        self_time[(name, tag)] += (end - start - child[i]) / 1e9
    return dict(total), dict(self_time)
