"""Outside-in tracing of liptriv's layers for the benchmark.

The program has no counters of its own yet, so the traced run wraps
each layer's public functions from here.  A name bound with
``from .x import f`` is a second reference to the same function, so
every module of the package that holds the original is rebound, not
only the module that defines it.

Each wrapped call records a span (name, start, end, parent) in flat
arrays; :meth:`Tracer.summary` derives inclusive and self times from
them after a pass.  Polynomial and arc multiplication are only counted:
a span around a multiply would mostly time the wrapper.  Calls made
inside :meth:`Tracer.paused` (the benchmark's own replay of evidence)
are neither recorded nor counted, so every span is the library's work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Package modules that are benchmark layers.  ``cli`` is a thin wrapper
# over ``analyze`` and the table, and ``rings`` gets counts only.
SPAN_LAYERS = ("analyzer", "curves", "groebner", "doubling", "tangent", "catalog")

# (module, class, counter) for the multiplies that are only counted.
PACKAGE = "liptriv"

COUNTED_METHODS = (
    ("rings", "Polynomial", "rings.poly_mul.calls"),
    ("rings", "UnivariatePoly", "rings.univariate_mul.calls"),
)


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Installs wrappers on enter, removes them on exit, keeps spans."""

    def __init__(self):
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.recording = True
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts.clear()

    @contextmanager
    def paused(self):
        """Run the block with the wrappers passing calls straight through."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _span(self, name: str, fn, on_result=None):
        self.names.append(name)
        nid = len(self.names) - 1
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                tracer._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.recording:
                counts[key] += 1
            return fn(*args)

        return wrapper

    # -- result hooks: counts that only the return value shows --------------

    def _result_hooks(self, lt) -> dict:
        counts = self.counts

        def basis(result):
            counts["groebner.basis_len"] += len(result)

        def member(result):
            counts["groebner.members"] += result is not None

        def witness(result):
            counts["curves.witnesses"] += isinstance(result, lt.curves.Witness)

        def route(result):
            counts[f"analyzer.route.{result.route}"] += 1

        return {
            "groebner.buchberger": basis,
            "groebner.membership_certificate": member,
            "curves.closure_test": witness,
            "analyzer.analyze": route,
        }

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        lt = sys.modules[PACKAGE]
        hooks = self._result_hooks(lt)
        replacements: dict[int, object] = {}
        for layer in SPAN_LAYERS:
            module = getattr(lt, layer)
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                    or inspect.isgeneratorfunction(value)
                ):
                    continue
                name = f"{layer}.{attr}"
                replacements[id(value)] = (
                    value,
                    self._span(name, value, hooks.get(name)),
                )
        for layer, cls_name, key in COUNTED_METHODS:
            cls = getattr(getattr(lt, layer), cls_name)
            original = vars(cls)["__mul__"]
            wrapped = self._counted(key, original)
            for attr in ("__mul__", "__rmul__"):
                if vars(cls).get(attr) is original:
                    self._patch(cls, attr, wrapped)
        # Rebind every reference to a wrapped function, wherever it was imported.
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derivation ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds; per-layer self seconds.

        Spans are appended at call start, so a child always has a larger
        index than its parent and one backward sweep settles self time.
        """
        n = len(self.span_name)
        child = [0.0] * n
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_s: Counter = Counter()
        by_parent: Counter = Counter()
        names, parents = self.names, self.span_parent
        starts, ends, ids = self.span_start, self.span_end, self.span_name
        for i in range(n - 1, -1, -1):
            name = names[ids[i]]
            duration = ends[i] - starts[i]
            calls[name] += 1
            inclusive[name] += duration
            self_s[name] += duration - child[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
                by_parent[(names[ids[parent]], name)] += 1
        layer_self: Counter = Counter()
        for name, seconds in self_s.items():
            layer_self[name.split(".", 1)[0]] += seconds
        return {
            "calls": calls,
            "inclusive": inclusive,
            "self": self_s,
            "layer_self": layer_self,
            "by_parent": by_parent,
            "counts": Counter(self.counts),
        }
