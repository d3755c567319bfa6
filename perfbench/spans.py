"""In-memory layer spans for the traced run.

A :class:`Tracer` wraps public functions of the program's modules in
timing shims (patching the module attribute a caller looked the name up
in, e.g. ``repro.fracture.refine.greedy_shot_edge_adjustment``), keeps
every span in memory, and folds them into per-layer busy and self times
once the pass is over.  Nothing under ``src/`` changes: the shims are
installed for one pass and removed afterwards.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    #: an enclosing span belongs to the same layer (not counted twice)
    nested: bool = False
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class NoTrace:
    """Stand-in for the tracer in the untraced pass."""

    enabled = False


@dataclass
class Tracer:
    """Spans and counts of one traced pass, and the shims that make them."""

    enabled = True
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _local: threading.local = field(default_factory=threading.local)
    _undo: list[tuple[Any, str, Any, bool]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, layer: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        nested = any(s.layer == layer for s in stack)
        span = Span(layer, time.perf_counter(), parent=parent, nested=nested)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.duration
            with self._lock:
                self.spans.append(span)

    def add_interval(self, layer: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. by the daemon)."""
        with self._lock:
            self.spans.append(Span(layer, start, max(start, end)))

    # -- instrumentation ----------------------------------------------------

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: Callable[[Any, Any], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` span.

        ``on_result(tracer, result)`` runs after each call, outside the
        span, to read counts off the returned value.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with self.span(layer):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        self._replace(owner, attr, timed)

    def count_calls(self, owner: Any, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` (constructors included)."""
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value, own = self._undo.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- folding ------------------------------------------------------------

    def of(self, layer: str) -> list[Span]:
        return [s for s in self.spans if s.layer == layer]

    def busy_s(self, *layers: str) -> float:
        """Wall time inside the layers' outermost spans."""
        return sum(
            s.duration for layer in layers for s in self.of(layer)
            if not s.nested
        ) + 0.0

    def self_s(self, layer: str) -> float:
        """Busy time minus the time covered by timed child spans."""
        return sum(s.duration - s.child_s for s in self.of(layer)) + 0.0

    def covered_s(self, start: float, end: float) -> float:
        """Length of ``[start, end]`` covered by at least one span."""
        intervals = sorted(
            (max(start, s.start), min(end, s.end)) for s in self.spans
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered

    def dump(self, path: Path, origin: float) -> None:
        """Write the spans (times relative to ``origin``) as JSON."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        records = [
            {
                "layer": s.layer,
                "start_s": s.start - origin,
                "end_s": s.end - origin,
                "parent": index.get(id(s.parent)),
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(
            {"spans": records, "counts": dict(self.counts)}
        ) + "\n")
