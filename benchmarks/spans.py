"""In-memory span recorder that wraps graphsynth's public functions.

Nothing inside ``src/`` is instrumented: the recorder replaces a public
function at the name its caller looks it up by (a module attribute such as
``graphsynth.traversal.sample_paths``, or a class attribute such as
``HashEmbeddingBackend.embed``) and restores it on ``uninstall``. A name
that no longer exists is recorded in ``missing`` instead of failing, so
metrics that need it read ``null``.

Spans nest per thread. A span opened on a worker thread with nothing open
on that thread takes the main thread's innermost open span as its parent,
which is the span that caused it (``synthesis.generate`` for chat calls).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: Any = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    missing: set[str] = field(default_factory=set)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    def __post_init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int, info: Any = None) -> None:
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].info = info
        self._stack().pop()

    def wrap(self, target: str, attr: str, name: str,
             info: Callable[[Any, tuple, dict], Any] | None = None) -> bool:
        """Wrap ``target.attr`` (``target`` a dotted module or ``module:Class``)."""
        owner = _resolve(target)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None or not callable(original):
            self.missing.add(name)
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.close(idx, info(result, args, kwargs) if info else None)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- queries -------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        return sum(s.seconds for s in self.spans if s.name in names)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def has(self, *names: str) -> bool:
        return not self.missing.intersection(names)

    def within(self, name: str, ancestor: str) -> list[Span]:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            if p is not None:
                out.append(s)
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the part of it covered by child spans.

        Spans on concurrent threads each count in full, so a layer that
        runs on several threads can have more self time than wall time.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            covered = _union_length(children.get(i, []))
            out[s.layer] = out.get(s.layer, 0.0) + max(0.0, s.seconds - covered)
        return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _resolve(target: str):
    module_name, _, cls_name = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, cls_name, None) if cls_name else module


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
