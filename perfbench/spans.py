"""In-memory span recording around calls into the program's layers.

The traced run replaces the attribute a caller looks up (for example
``repro.core.scores.union_support``) with a wrapper that records one
span per call: name, start, end, parent span, and the operation (a
detect call or an HTTP request) it belongs to. Nothing under ``src/``
changes; :meth:`Tracer.install` returns a function that puts every
original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    count: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children may nest further or overlap one another (spans recorded on
    other threads); the covered part is the union of the children's
    intervals clipped to the parent's.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[span.id]
        ]
        result[span.id] = span.duration - covered_length(clipped)
    return result


class Tracer:
    """Collects spans from wrapped calls on any thread.

    A span's parent is the innermost open span on its own thread; a
    span opened on a thread with no open span is attributed to the
    operation root currently open on any thread (helper threads of the
    program work on behalf of that operation).
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: str | None = None, root: bool = False):
        """Record one span around the ``with`` body.

        ``op`` starts a new operation on this thread; ``root`` also
        makes the span the parent of spans opened on other threads
        until it closes.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root
        if op is None:
            op = parent.op if parent is not None else None
        record = Span(
            id=next(self._ids), name=name, start=0.0, end=0.0,
            parent=None if parent is None else parent.id, op=op,
        )
        stack.append(record)
        if root:
            self._root = record
        record.start = self._clock()
        try:
            yield record
        finally:
            record.end = self._clock()
            stack.pop()
            if root:
                self._root = None
            with self._lock:
                self.spans.append(record)

    def wrap(self, name: str, function, count=None, op_of=None):
        """``function`` recording a span per call.

        ``count(args, kwargs, result)`` stores a per-call quantity on
        the span; ``op_of(args)`` names a new operation the call starts.
        """
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            op = op_of(args) if op_of is not None else None
            with self.span(name, op=op) as record:
                result = function(*args, **kwargs)
                if count is not None:
                    record.count = float(count(args, kwargs, result))
                return result

        return wrapper

    def install(self, patches) -> callable:
        """Wrap each ``(target, attribute, span name[, count[, op_of]])``.

        ``target`` is a dotted module path, optionally followed by a
        class name inside it. Returns the function that restores every
        original attribute.
        """
        restore = []
        for patch in patches:
            target, attribute, name = patch[:3]
            count = patch[3] if len(patch) > 3 else None
            op_of = patch[4] if len(patch) > 4 else None
            owner = resolve(target)
            had_own = attribute in vars(owner)
            original = getattr(owner, attribute)
            setattr(owner, attribute,
                    self.wrap(name, original, count=count, op_of=op_of))
            restore.append((owner, attribute, had_own, original))

        def undo() -> None:
            for owner, attribute, had_own, original in reversed(restore):
                if had_own:
                    setattr(owner, attribute, original)
                else:
                    delattr(owner, attribute)

        return undo


def resolve(target: str):
    """A module, or a class inside one, from its dotted path."""
    try:
        return importlib.import_module(target)
    except ModuleNotFoundError:
        module, _, name = target.rpartition(".")
        return getattr(importlib.import_module(module), name)


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(asdict(span)) + "\n")


def read_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]
