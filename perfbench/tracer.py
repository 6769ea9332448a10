"""Spans around the calls into relay_align's public functions, recorded from outside.

The tracer replaces every public function of each relay_align module, and
`Constellation.nearest_index`, with a timing wrapper, in the defining module
and in every other module that imported it by name
(`relaysim.verify_strategy`, `cli.load_strategy`, ...), so calls are seen
whichever binding the caller uses. Spans are aggregated as
they close: per span name, the call count, the inclusive seconds, and the
self seconds (inclusive minus the time of the spans opened inside it).
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("subspace", "feasibility", "variety", "relaysim", "serialization", "cli")
REDRAWS = "relaysim.draw_channels.redraws"  # sum of ChannelSet.redraws over the traced calls


class Tracer:
    """Context manager that traces relay_align calls while it is open."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.redraws = 0
        self._child_s: list[float] = []  # one accumulator per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        open_spans = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                self.calls[name] += 1
                self.inclusive_s[name] += elapsed
                self.self_s[name] += elapsed - children
            if name == "relaysim.draw_channels":
                self.redraws += result.redraws
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = {name: sys.modules[f"relay_align.{name}"] for name in MODULES}
        wrapped = {}  # original function -> wrapper
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in (sys.modules["relay_align"], *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])
        constellation = modules["relaysim"].Constellation
        self._patch(constellation, "nearest_index",
                    self._wrap("relaysim.Constellation.nearest_index", constellation.nearest_index))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metric(self, name: str) -> float:
        """Value of a per-layer metric name.

        `<span>.calls` and `<span>.s` are the span's count and inclusive
        seconds; `<span>.self_s` its self seconds; `<module>.self_s` the self
        seconds of all spans of that module.
        """
        if name == REDRAWS:
            return self.redraws
        head, _, field = name.rpartition(".")
        if field == "calls":
            return self.calls[head]
        if field == "s":
            return self.inclusive_s[head]
        if field == "self_s":
            if "." in head:
                return self.self_s[head]
            return sum(v for span, v in self.self_s.items() if span.startswith(head + "."))
        raise KeyError(f"unknown per-layer metric {name!r}")
