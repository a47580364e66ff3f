"""In-memory spans around the public functions of the surfrep modules.

The tracer lives in the benchmark, not in the package: it replaces each
public function (and a few named methods) with a wrapper that records a
span ``[name, start, end, parent]``, and patches the wrapper into every
``surfrep`` module namespace that binds the original, so calls made
inside the package are caught as well as calls from the CLI.  Nothing is
patched outside an ``installed()`` block, so an untraced run records no
spans and pays nothing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: modules of the package, in dependency order; metric names use these
MODULES = ("surface", "smoothing", "certificate", "facewidth", "families", "bounds", "cli")

#: methods traced besides the module-level public functions: span name ->
#: (module, class, attribute)
METHODS = {
    "surface.boundary_count": ("surface", "MultiCurve", "boundary_count"),
    "facewidth.RotationSystem.from_json": ("facewidth", "RotationSystem", "from_json"),
    "bounds.SubjectTags.from_strings": ("bounds", "SubjectTags", "from_strings"),
}


class Tracer:
    """Spans and work counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, func: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counts_orbits = name == "smoothing.trace_orbits"
        counts_contradictions = name == "bounds.propagate"

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                stack.pop()
                if counts_contradictions and type(exc).__name__ == "Contradiction":
                    counts["bounds.contradictions"] += 1
                raise
            span[2] = clock()
            stack.pop()
            if counts_orbits:
                counts["smoothing.trace_orbits.orbits"] += len(result)
                counts["smoothing.trace_orbits.states"] += sum(len(orbit) for orbit in result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch the wrappers in for the duration of the block."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            loaded = [m for n, m in list(sys.modules.items())
                      if n == "surfrep" or n.startswith("surfrep.")]
            for short in MODULES:
                module = importlib.import_module(f"surfrep.{short}")
                for attr in module.__all__:
                    func = getattr(module, attr)
                    if not inspect.isfunction(func) or func.__module__ != module.__name__:
                        continue
                    wrapper = self.wrap(f"{short}.{attr}", func)
                    for holder in loaded:
                        if holder.__dict__.get(attr) is func:
                            undo.append((holder, attr, func))
                            setattr(holder, attr, wrapper)
            for name, (short, cls_name, attr) in METHODS.items():
                cls = getattr(importlib.import_module(f"surfrep.{short}"), cls_name)
                raw = inspect.getattr_static(cls, attr)
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                undo.append((cls, attr, raw))
                setattr(cls, attr, new)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    #-- Reading the spans --#

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s.

        ``total_s`` counts only spans with no ancestor of the same name,
        so recursion is not counted twice.  A span's self time is its
        duration minus the part of it that its child spans cover.
        """
        spans = self.spans
        cover = child_cover(spans)
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - cover[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                row["total_s"] += end - start
        return out

    def write(self, path: Path) -> None:
        """Write spans and counters as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.write_text(json.dumps({
            "span_fields": ["name", "start", "end", "parent"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
            "counts": dict(self.counts),
        }))


def child_cover(spans: list[list[Any]]) -> list[float]:
    """Time of each span covered by its children, overlaps counted once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    cover = [0.0] * len(spans)
    for parent, intervals in children.items():
        p_start, p_end = spans[parent][1], spans[parent][2]
        covered, reach = 0.0, p_start
        for start, end in sorted(intervals):
            start, end = max(start, reach), min(end, p_end)
            if end > start:
                covered += end - start
                reach = end
        cover[parent] = covered
    return cover


def layer_time(spans: list[list[Any]], prefix: str) -> float:
    """Wall time inside spans whose name starts with ``prefix``.

    Only outermost such spans count, so nested calls within the layer
    are not added twice.
    """
    total = 0.0
    for name, start, end, parent in spans:
        if not name.startswith(prefix):
            continue
        ancestor = parent
        while ancestor >= 0 and not spans[ancestor][0].startswith(prefix):
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total += end - start
    return total
