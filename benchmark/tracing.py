"""Per-layer counters for the traced run.

Wrappers replace a function at every place the program looks its name up
(each module global bound to it, or the class attribute of a method), so
calls between the program's modules are counted too. Each layer keeps a
call count, inclusive and self time, and optional work counters; no span
is stored per call. Self time is a call's time minus the time of the
wrapped calls made inside it.
"""

from __future__ import annotations

import inspect
from collections import Counter
from time import perf_counter


class Layer:
    __slots__ = ("calls", "self_s", "total_s", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.work = Counter()


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self._open: list[float] = []  # time spent in wrapped callees, per open call

    def _close(self, layer: Layer, t0: float) -> None:
        elapsed = perf_counter() - t0
        layer.self_s += elapsed - self._open.pop()
        layer.total_s += elapsed
        if self._open:
            self._open[-1] += elapsed

    def wrap(self, name: str, fn, work=None, timed=True):
        """A wrapper of ``fn`` that charges its calls to layer ``name``;
        ``work(result)``, a dict of counts, is added to the layer's work. An
        untimed wrapper only counts calls, and its time stays in its caller's
        self time."""
        layer = self.layers.setdefault(name, Layer())
        opened = self._open
        close = self._close

        if not timed:
            def counted(*args, **kwargs):
                layer.calls += 1
                return fn(*args, **kwargs)
            return counted

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                layer.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    opened.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(layer, t0)
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            layer.calls += 1
            opened.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(layer, t0)
            if work is not None:
                layer.work.update(work(result))
            return result
        return traced

    def install(self, modules: dict, name: str, owner: str, attr: str, work=None,
                timed=True) -> None:
        """Wrap ``owner.attr`` (``owner`` a module name, ``attr`` possibly
        ``Class.method``) wherever a module in ``modules`` binds it. A name
        that no longer exists leaves its layer at zero."""
        self.layers.setdefault(name, Layer())
        holder = modules.get(owner)
        *path, leaf = attr.split(".")
        for part in path:
            holder = getattr(holder, part, None)
        fn = getattr(holder, leaf, None)
        if fn is None:
            return
        wrapper = self.wrap(name, fn, work, timed)
        if path:
            setattr(holder, leaf, wrapper)
            return
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
