"""Spans around the calls into each layer of the package, kept in memory.

``Tracer.instrument`` replaces each named public function with a wrapper
that records a span, in every package module that binds it, so calls made
from one layer into another are seen as well as calls from the benchmark.
The package's code is not modified; the wrappers live in this process only.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans as [name, start, end, parent, state] lists, in start order."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.state = None

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.state])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def instrument(self, layers):
        """Wrap each ``(module, attribute)`` in ``layers`` wherever a
        ``qdiscord`` module binds it; spans are named ``module.attribute``."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qdiscord"]
        for mod, attr in layers:
            fn = getattr(mod, attr)
            wrapper = self._wrap(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def layer_times(self):
        """Per root span: total and self seconds per span name below it."""
        root_of, child_sum = {}, defaultdict(float)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            root_of[i] = i if parent is None else root_of[parent]
            if parent is not None:
                child_sum[parent] += end - start
        out = defaultdict(lambda: (defaultdict(float), defaultdict(float)))
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                total, self_time = out[root_of[i]]
                total[name] += end - start
                self_time[name] += end - start - child_sum[i]
        return out

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "state": st}
            for n, s, e, p, st in self.spans
        ]
