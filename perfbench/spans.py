"""In-memory span recorder that instruments effdof from the outside.

A traced run replaces a module or class attribute with a recording wrapper at
the place where the program looks the name up (for example
``effdof.montecarlo.sample_component_variance``, a module global read by the
block loop), and puts every original back afterwards. Nothing in the package
itself changes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    """One timed call. A tuple of plain values, so the garbage collector stops
    tracking it and a long traced run does not slow every collection down."""

    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # the span that caused this one; may sit on another thread
    thread: int
    units: tuple = ()   # work counted at this boundary (values, rows, ...)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Records spans of wrapped callables; use as a context manager to undo the wrapping.

    A span opened on a thread with no open span of its own takes the
    outermost open span (on any thread) as its parent, so block work in pool
    threads hangs under the grid call that scheduled it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # hooks whose attribute no longer exists

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def traced(self, fn, name: str, count=None):
        """``fn`` wrapped to record a span; ``count(args, kwargs, result)`` gives its units."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._root
            is_root = not stack and self._root is None
            if is_root:
                self._root = span_id
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if is_root:
                    self._root = None
            units = count(args, kwargs, result) if count else ()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   threading.get_ident(), units))
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute) with a traced one."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = inspect.getattr_static(owner, attr)
        wrapper = self.traced(getattr(owner, attr), name, count)
        setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
        self._patches.append((owner, attr, original))

    def replace(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` with ``value`` until the tracer exits."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus its same-thread children's."""
    by_id = {s.id: s for s in spans}
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.seconds
    return own


def write_spans(spans: list[Span], path: Path, limit: int = 20_000) -> None:
    """Write the first ``limit`` spans as JSON lines after a header line with the total."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"spans": len(spans), "written": min(limit, len(spans))}) + "\n")
        for s in spans[:limit]:
            fh.write(json.dumps(s._asdict()) + "\n")
