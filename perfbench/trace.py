"""In-memory span tracer for the traced (``--trace 1``) benchmark run.

The tracer measures the program from outside: it replaces a public function
or method *where its caller looks it up* with a wrapper that records one span
per call, and puts every original back on :meth:`Tracer.restore`.  Spans live
in memory (name, start, end, parent, key, thread) and are written out once
when the run ends, so recording costs a list append per call.

A span's *self time* is its duration minus the time its child spans cover.
Children are always recorded on their parent's thread (the parent is the
innermost open span of the calling thread), so they nest without overlapping
and the covered time is the plain sum of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "SpanStats"]


class SpanStats:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

    @property
    def mean_self_s(self) -> float:
        return self.self_s / self.calls if self.calls else 0.0


class Tracer:
    """Record spans around wrapped calls; keep counters at the same boundaries."""

    def __init__(self) -> None:
        # (name, start, end, parent_index, key, thread_id); index = span id.
        self.spans: List[Tuple[str, float, float, int, object, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Tuple[int, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, key: object = None) -> Tuple[int, object, float]:
        """Open a span on this thread; returns the token :meth:`end` needs."""
        stack = self._stack()
        parent_key = stack[-1][1] if stack else None
        if key is None:
            key = parent_key
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # reserved: children may close first
        stack.append((index, key))
        return index, key, time.perf_counter()

    def end(self, name: str, token: Tuple[int, object, float]) -> None:
        """Close the span opened by :meth:`begin`."""
        end = time.perf_counter()
        index, key, start = token
        stack = self._stack()
        stack.pop()
        parent = stack[-1][0] if stack else -1
        self.spans[index] = (name, start, end, parent, key, threading.get_ident())

    def span(self, name: str, key: object = None) -> "_Span":
        """Context manager recording one span (``key`` ties a request's spans)."""
        return _Span(self, name, key)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, owner: object, attr: str, name: str,
             key: Optional[Callable[..., object]] = None,
             on_result: Optional[Callable[[object], None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Args:
            owner: the module or class the caller looks the name up on.
            attr: the attribute to replace.
            name: span name.
            key: optional ``f(*args, **kwargs)`` giving the span's key.
            on_result: optional callback fed each call's return value.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = self.begin(key(*args, **kwargs) if key is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(name, token)
            if on_result is not None:
                on_result(result)
            return result

        self.patch(owner, attr, original, wrapper)

    def wrap_generator(self, owner: object, attr: str, name: str, item_counter: str) -> None:
        """Wrap a generator method: one span per call covering only the time
        spent producing items, plus a count of the items yielded."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator: Iterator = original(*args, **kwargs)
            busy = 0.0
            produced = 0
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        busy += time.perf_counter() - start
                        return
                    busy += time.perf_counter() - start
                    produced += 1
                    yield item
            finally:
                iterator.close()
                self.record(name, busy)
                self.count(item_counter, produced)

        self.patch(owner, attr, original, wrapper)

    def count_calls(self, owner: object, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without recording spans (hot paths)."""
        original = owner.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self.patch(owner, attr, original, wrapper)

    def count_calls_everywhere(self, module_name: str, attr: str, counter: str) -> None:
        """Count calls of a module-level function in its home module *and* in
        every loaded ``repro`` module that imported it by name."""
        original = getattr(sys.modules[module_name], attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", None) or ""
            if (name == "repro" or name.startswith("repro.")) \
                    and module.__dict__.get(attr) is original:
                self.patch(module, attr, original, wrapper)

    def record(self, name: str, seconds: float) -> None:
        """Record a leaf span of known duration ending now."""
        end = time.perf_counter()
        stack = self._stack()
        parent, key = stack[-1] if stack else (-1, None)
        with self._lock:
            self.spans.append((name, end - seconds, end, parent, key, threading.get_ident()))

    def patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        """Set ``owner.attr`` to ``wrapper``; :meth:`restore` puts ``original`` back."""
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped name back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, SpanStats]:
        """Per span name: calls, total seconds and self seconds."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, SpanStats] = defaultdict(SpanStats)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _, _ = span
            stats = out[name]
            stats.calls += 1
            stats.total_s += end - start
            stats.self_s += max(0.0, (end - start) - child_time[index])
        return dict(out)

    def dump(self, path: Path, extra: Optional[Dict[str, object]] = None) -> None:
        """Write every span, the per-name summary and the counters as JSON."""
        stats = self.stats()
        payload = {
            "spans": [
                {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "key": s[4], "thread": s[5]}
                for i, s in enumerate(self.spans) if s is not None
            ],
            "summary": {
                name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s,
                       "mean_s": st.mean_s, "mean_self_s": st.mean_self_s}
                for name, st in sorted(stats.items())
            },
            "counts": dict(self.counts),
        }
        if extra:
            payload.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, default=str))


class _Span:
    __slots__ = ("_tracer", "_name", "_key", "_token")

    def __init__(self, tracer: Tracer, name: str, key: object) -> None:
        self._tracer = tracer
        self._name = name
        self._key = key

    def __enter__(self) -> "_Span":
        self._token = self._tracer.begin(self._key)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.end(self._name, self._token)
