"""In-memory spans around calls into the library's public functions.

The tracer patches module attributes from outside the package, so the code
under measurement is unchanged.  Each span records its name, start, end, the
span that caused it and the id of the benchmark operation it belongs to.
Worker threads have no open span of their own; their spans take the
innermost span open on the main thread as parent, which is the call that is
waiting for them.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int | None
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.run_id: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, tag, fn, *args, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
            self.counts[name] += 1
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.run_id,
                                   tag)

    def patch(self, modules, attr: str, name: str, tag=None) -> None:
        """Replace ``attr`` in every module that holds the same function, so
        calls bound by ``from x import f`` are traced too."""
        original = getattr(modules[0], attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = tag(*args, **kwargs) if tag else None
            return self.call(name, label, original, *args, **kwargs)

        for module in modules:
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def to_dict(self) -> dict:
        return {"spans": [dict(asdict(s), tag=repr(s.tag))
                          for s in self.finished()],
                "counts": dict(self.counts)}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out
