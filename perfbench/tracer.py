"""Span tracer that times calls into the ``mycielski`` layers from outside.

``Tracer.install()`` wraps every public function of the layer modules
(``generators``, ``graph``, ``transform``, ``indices``, ``verify``, ``cli``)
and rebinds each wrapper under every module attribute that held the
original, so calls made through names imported with ``from .x import y``
are timed too. ``Graph`` is rebound only in ``generators`` and
``transform``, the two modules that build graphs for a workload; it is
never rebound in ``graph.py`` itself, whose ``__eq__`` relies on
``isinstance``. ``uninstall()`` restores every binding.

Spans are aggregated in memory per name: calls, total seconds and self
seconds (the span minus the time its direct child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("generators", "graph", "transform", "indices", "verify", "cli")

# mu graphs are remembered by id; each stays referenced here while it is
# registered, so its id cannot be reused by a base graph. Registered graphs
# that nothing else references any more can never reach APSP again, and are
# dropped once the table grows past this size.
_MU_PRUNE_AT = 1024


def _table_only_refcount() -> int:
    probe = {0: object()}
    return sys.getrefcount(probe[0])


# what getrefcount reports for an object that only a dict entry references
_TABLE_ONLY = _table_only_refcount()


def layer_modules() -> dict[str, object]:
    """The package and its layer modules, keyed by short name."""
    mods = {"mycielski": importlib.import_module("mycielski")}
    for layer in LAYERS:
        mods[layer] = importlib.import_module(f"mycielski.{layer}")
    return mods


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n))
        and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    """Aggregating span recorder; install around one CLI call."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {
            "enumerate_yields": 0,
            "gnp_builds": 0,
            "apsp_vertices": 0,
        }
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._mu: dict[int, object] = {}
        self._bindings: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        frame = [name, 0.0]
        stack = self._stack
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            agg = self.spans.get(name)
            if agg is None:
                agg = self.spans[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    # -- special wrappers ---------------------------------------------------

    def _wrap_enumerate(self, fn):
        # span each next() of the generator, so consumer time is excluded
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            sentinel = object()
            while True:
                g = self._call("generators.enumerate_connected", next, (it, sentinel), {})
                if g is sentinel:
                    return
                self.counters["enumerate_yields"] += 1
                yield g

        return traced

    def _wrap_build(self, graph_cls):
        def build(*args, **kwargs):
            if self._stack and self._stack[-1][0] == "generators.erdos_renyi_connected":
                self.counters["gnp_builds"] += 1
            return self._call("graph.build", graph_cls, args, kwargs)

        return build

    def _wrap_apsp(self, fn):
        @functools.wraps(fn)
        def traced(g, *args, **kwargs):
            self.counters["apsp_vertices"] += g.n
            name = "graph.apsp_mu" if self._mu.get(id(g)) is g else "graph.apsp_base"
            return self._call(name, fn, (g,) + args, kwargs)

        return traced

    def _wrap_mycielskian(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layout = self._call("transform.mycielskian", fn, args, kwargs)
            self._remember_mu(layout.mu)
            return layout

        return traced

    def _remember_mu(self, mu) -> None:
        table = self._mu
        table[id(mu)] = mu
        if len(table) > _MU_PRUNE_AT:
            for key in list(table):
                if sys.getrefcount(table[key]) <= _TABLE_ONLY:
                    del table[key]

    # -- install / uninstall ------------------------------------------------

    def _wrapper_for(self, layer: str, name: str, fn):
        if (layer, name) == ("generators", "enumerate_connected"):
            return self._wrap_enumerate(fn)
        if (layer, name) == ("graph", "all_pairs_distances"):
            return self._wrap_apsp(fn)
        if (layer, name) == ("transform", "mycielskian"):
            return self._wrap_mycielskian(fn)
        return self._wrap(f"{layer}.{name}", fn)

    def _rebind(self, module, name: str, new) -> None:
        self._bindings.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        mods = layer_modules()
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = mods[layer]
            for name in _public_functions(module):
                fn = getattr(module, name)
                replacements[id(fn)] = (fn, self._wrapper_for(layer, name, fn))
        for module in mods.values():
            for name, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, name, hit[1])
        build = self._wrap_build(mods["graph"].Graph)
        for layer in ("generators", "transform"):
            self._rebind(mods[layer], "Graph", build)

    def uninstall(self) -> None:
        while self._bindings:
            module, name, original = self._bindings.pop()
            setattr(module, name, original)
        self._mu.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in sorted(self.spans.items())
        }
