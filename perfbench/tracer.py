"""Spans taken from outside the program.

The benchmark does not edit the code it measures.  Instead a :class:`Tracer`
replaces a public callable (a module-level function or a class attribute)
with a wrapper that records a span around each call, and puts the original
back when tracing ends.  A span has an id, a name, a start, an end, the id
of the span that was open when it started (its parent) and, for served
requests, the id of the request it belongs to.  Spans live in memory and are
written out once, at the end of the run.

A span's *self time* is its duration minus the time covered by its child
spans; the layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


#: Marks a patched attribute that was looked up through the class (or the
#: class's bases): restoring it means deleting the shadowing attribute.
_INHERITED = object()


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 request: Optional[int], start: float) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "request": self.request, "start": self.start, "end": self.end}


class Tracer:
    """Collects spans; wraps callables so that each call opens one."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: List[Tuple[Any, str, Any]] = []
        self.weights: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[Span]:
        parent = self._current.get()
        if request is None and parent is not None:
            request = parent.request
        span = Span(next(self._ids), name, parent.id if parent is not None else None,
                    request, time.perf_counter())
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(span)

    def wrap(self, owner: Any, attr: str, name: str,
             weigh: Optional[Callable[..., int]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that opens span ``name``.

        ``owner`` is a module (for a function bound by import), a class (for
        a method) or an instance (for one object's method).  ``weigh``, given
        the call's arguments, returns the work the call carries (points in a
        batch), summed in :attr:`weights` under ``name``.  A name the
        program no longer has is an error: a silently unwrapped layer would
        report zero time.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if weigh is not None:
                tracer.weights[name] += weigh(*args, **kwargs)
            with tracer.span(name):
                return original(*args, **kwargs)

        self.patch(owner, attr, traced)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Install ``replacement`` for ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped callable back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def self_times(self) -> Dict[str, float]:
        """Self time summed per span name."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.duration - child_time.get(span.id, 0.0)
        return dict(out)

    def layer_table(self, exclude: Tuple[str, ...] = ()) -> str:
        """Self time per layer (span name up to the first dot), largest first.

        Spans named in ``exclude`` are left out: a span that encloses time
        spent waiting (a served request) is not a layer's work.
        """
        layers: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            if name not in exclude:
                layers[name.split(".", 1)[0]] += seconds
        return "self time per layer: " + ", ".join(
            f"{layer} {seconds:.3f}s"
            for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_json() for span in self.spans], handle)
            handle.write("\n")
