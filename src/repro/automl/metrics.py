"""Stdlib-only metrics registry and trace ids for the tune service.

Every hot path of the service — scheduler ticks, algorithm ask/tell, executor
queue-wait and trial runtime, event-bus publishes, event-log appends, HTTP
requests — records into one process-global :data:`REGISTRY`.  The registry
exposes the data three ways (all read-only, all safe to hit while the service
is under load):

* :meth:`MetricsRegistry.render` — Prometheus text exposition (served by
  ``GET /v1/metrics`` on the remote server);
* :meth:`MetricsRegistry.snapshot` — a JSON-safe structured dict (embedded in
  ``server_status()["metrics"]``);
* the CLI ``metrics`` subcommand, which formats either of the above.

Design constraints, in order:

1. **Cheap on the hot path.**  A counter increment or histogram observation
   is one short critical section on a per-child lock (no global registry lock
   is touched after the first ``labels()`` resolution, which callers cache at
   module import).  The whole plane can be switched off with
   :func:`set_enabled` — the overhead benchmark
   (``benchmarks/test_telemetry_overhead.py``) holds the instrumented event
   path to within 5% of the uninstrumented one.
2. **Exact under concurrency.**  Increments are never lost and a concurrent
   :meth:`~MetricsRegistry.render` always observes a consistent per-child
   state (bucket counts, sum and count are updated under one lock).
3. **Stdlib only, Python 3.9+.**  No ``prometheus_client`` dependency; the
   exposition format is implemented here (``# HELP``/``# TYPE`` lines,
   ``_bucket``/``_sum``/``_count`` series with cumulative ``le`` labels).

Trace ids
---------

Trace ids are plain hex strings (:func:`new_trace_id`): the server stamps one
per job (from the client's ``X-Request-Id`` header when given) and
propagates it onto every event the job publishes, so one id follows a tuning
job from HTTP request through scheduler, executor, event log, and back out
the event stream.
"""

from __future__ import annotations

import bisect
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "exponential_buckets",
    "DEFAULT_BUCKETS",
    "set_enabled",
    "metrics_enabled",
    "new_trace_id",
]

_INF = float("inf")

#: Global kill-switch: when False every inc/set/observe is a no-op.  Used by
#: the overhead benchmark to measure the cost of the instrumentation layer
#: itself; leave it on in production — the whole point is visibility.
_ENABLED = True


def set_enabled(flag: bool) -> None:
    """Enable or disable all metric recording process-wide.

    Rendering and snapshots keep working while disabled; only the write
    paths (``inc``/``set``/``observe``/``time``) become no-ops.
    """
    global _ENABLED
    _ENABLED = bool(flag)


def metrics_enabled() -> bool:
    """Whether metric recording is currently enabled."""
    return _ENABLED


def exponential_buckets(start: float, factor: float, count: int,
                        ) -> Tuple[float, ...]:
    """``count`` histogram bucket bounds growing geometrically from ``start``.

    Args:
        start: the first (smallest) upper bound; must be positive.
        factor: the ratio between consecutive bounds; must be > 1.
        count: how many finite bounds to produce (the implicit ``+Inf``
            bucket is added by the histogram itself).

    Returns:
        A strictly increasing tuple of ``count`` finite bounds.
    """
    if start <= 0:
        raise ValueError("start must be > 0")
    if factor <= 1:
        raise ValueError("factor must be > 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(start * factor ** i for i in range(count))


#: Default latency buckets: 100us .. ~26s in x4 steps — wide enough to cover
#: a sub-millisecond bus publish and a multi-second trial in one histogram.
DEFAULT_BUCKETS = exponential_buckets(0.0001, 4.0, 10)


def _format_value(value: float) -> str:
    """Format a sample value the way Prometheus text exposition expects."""
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        '%s="%s"' % (name, _escape_label_value(value))
        for name, value in zip(names, values))
    return "{%s}" % inner


class _Counter:
    """A monotonically increasing sample (one label combination)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def inc_to(self, value: float) -> None:
        """Raise the counter to ``value`` if it is below it (never lowers).

        For mirroring an externally accumulated cumulative count (e.g. the
        shared-memory transport's drop tally) into the registry without
        double counting: call it with the source's current total whenever
        convenient.
        """
        if not _ENABLED:
            return
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _Gauge:
    """A sample that can go up and down (one label combination)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _Histogram:
    """Cumulative-bucket histogram (one label combination).

    Invariants (established by :meth:`_fold`, which every reader runs
    first): per-bucket counts sum to ``count``; ``sum`` is the sum of every
    observed value; the rendered ``le`` series is non-decreasing and ends
    at ``count`` for ``le="+Inf"``.

    The write path is deliberately minimal: :meth:`observe` appends the raw
    value to a pending list (``list.append`` is a single atomic bytecode
    under the GIL, so no lock is touched) and the bucket arithmetic happens
    in batches — when the pending list reaches ``_FOLD_AT`` values, or when
    a reader (:meth:`state`, i.e. any render/snapshot) needs the folded
    view.  Folding sorts the batch once and walks the bucket bounds over
    it, so the per-observation amortised cost is far below one
    bisect-plus-lock per call, and unfolded memory is bounded by
    ``_FOLD_AT`` floats (~128 KiB) per child — only children actually
    taking observations grow a pending list, and any scrape drains it.
    No observation is ever lost or counted twice: folds serialise on the
    lock, capture the pending length on entry, and concurrent appends land
    past that length.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count", "_pending")

    #: Fold the pending list into buckets once it grows this long.  High on
    #: purpose: folds between scrapes then stay rare, so the writer thread
    #: almost never pays a fold pause (~1 ms at this size) on its hot path.
    _FOLD_AT = 16384

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._pending: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation (hot path: one lock-free list append)."""
        if not _ENABLED:
            return
        pending = self._pending
        pending.append(value)
        if len(pending) >= self._FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        """Batch-apply pending observations to the bucket state."""
        with self._lock:
            pending = self._pending
            n = len(pending)
            if not n:
                return
            batch = pending[:n]
            del pending[:n]  # appends racing this fold land past index n
            batch.sort()
            # `le` semantics: bucket i counts value <= bounds[i]; past the
            # last finite bound the observation lands in +Inf.  On the
            # sorted batch each cumulative count is one bisect per bound.
            counts = self._counts
            prev = 0
            for index, bound in enumerate(self._bounds):
                cumulative = bisect.bisect_right(batch, bound)
                counts[index] += cumulative - prev
                prev = cumulative
            counts[-1] += n - prev
            self._sum += sum(batch)
            self._count += n

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager observing the elapsed ``perf_counter`` seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)

    def state(self) -> Tuple[List[int], float, int]:
        """A consistent (bucket counts, sum, count) snapshot."""
        self._fold()
        with self._lock:
            return list(self._counts), self._sum, self._count


_CHILD_TYPES = {"counter": _Counter, "gauge": _Gauge, "histogram": _Histogram}


class _Family:
    """One named metric: a kind, a help string, and children per label set.

    With no declared labels the family proxies ``inc``/``set``/``observe``/
    ``time``/``inc_to`` straight to its single default child, so unlabelled
    metrics read naturally: ``REGISTRY.counter("x", "…").inc()``.
    """

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: Tuple[str, ...],
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not label_names:
            self._children[()] = self._make_child()

    def _make_child(self) -> object:
        if self.kind == "histogram":
            return _Histogram(self.buckets or DEFAULT_BUCKETS)
        return _CHILD_TYPES[self.kind]()

    def labels(self, **label_values: object):
        """The child for one label-value combination (created on first use).

        Children are cached: hot paths should resolve their label sets once
        (at module import or per job) and keep the returned child.
        """
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels "
                f"{list(self.label_names)}, got {sorted(label_values)}")
        key = tuple(str(label_values[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _default(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} has labels {list(self.label_names)}; "
                f"use .labels(...)")
        return self._children[()]

    # Unlabelled-family conveniences ------------------------------------ #
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def inc_to(self, value: float) -> None:
        self._default().inc_to(value)

    def set(self, value: float) -> None:
        self._default().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def time(self):
        return self._default().time()

    @property
    def value(self) -> float:
        return self._default().value

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """A named collection of metric families, safe for concurrent use.

    Registration is idempotent get-or-create: instrumenting modules declare
    their families at import time against the process-global
    :data:`REGISTRY`, and repeated declarations with the same signature
    return the same family (a mismatch in kind or label names raises, so two
    modules cannot silently fight over one name).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _register(self, name: str, kind: str, help_text: str,
                  labels: Sequence[str],
                  buckets: Optional[Sequence[float]] = None) -> _Family:
        label_names = tuple(labels)
        bucket_bounds = None
        if buckets is not None:
            bucket_bounds = tuple(sorted(float(b) for b in buckets))
            if len(set(bucket_bounds)) != len(bucket_bounds):
                raise ValueError("histogram buckets must be distinct")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels "
                        f"{list(family.label_names)}")
                return family
            family = _Family(name, kind, help_text, label_names,
                             bucket_bounds)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> _Family:
        """Get or create a counter family."""
        return self._register(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> _Family:
        """Get or create a gauge family."""
        return self._register(name, "gauge", help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> _Family:
        """Get or create a histogram family (default :data:`DEFAULT_BUCKETS`)."""
        return self._register(name, "histogram", help_text, labels,
                              buckets or DEFAULT_BUCKETS)

    # -- read side ------------------------------------------------------ #
    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            families = [self._families[name]
                        for name in sorted(self._families)]
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                labels = _render_labels(family.label_names, key)
                if family.kind == "histogram":
                    counts, total, count = child.state()
                    bounds = list(family.buckets or DEFAULT_BUCKETS) + [_INF]
                    cumulative = 0
                    for bound, bucket_count in zip(bounds, counts):
                        cumulative += bucket_count
                        le = _render_labels(
                            tuple(family.label_names) + ("le",),
                            key + (_format_value(bound),))
                        lines.append(
                            f"{family.name}_bucket{le} {cumulative}")
                    lines.append(
                        f"{family.name}_sum{labels} {_format_value(total)}")
                    lines.append(f"{family.name}_count{labels} {count}")
                else:
                    lines.append(
                        f"{family.name}{labels} "
                        f"{_format_value(child.value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-safe structured view of every family.

        Counters and gauges carry ``samples: [{labels, value}]``; histograms
        carry ``samples: [{labels, count, sum, buckets}]`` where ``buckets``
        maps the ``le`` bound (as a string) to the *cumulative* count.
        """
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            families = [self._families[name]
                        for name in sorted(self._families)]
        for family in families:
            samples: List[Dict[str, object]] = []
            for key, child in family.children():
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    counts, total, count = child.state()
                    bounds = list(family.buckets or DEFAULT_BUCKETS) + [_INF]
                    buckets: Dict[str, int] = {}
                    cumulative = 0
                    for bound, bucket_count in zip(bounds, counts):
                        cumulative += bucket_count
                        buckets[_format_value(bound)] = cumulative
                    samples.append({"labels": labels, "count": count,
                                    "sum": total, "buckets": buckets})
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {"type": family.kind, "help": family.help,
                                "samples": samples}
        return out


#: The process-global default registry every instrumented module records to.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default :class:`MetricsRegistry`."""
    return REGISTRY


# --------------------------------------------------------------------- #
# Trace ids
# --------------------------------------------------------------------- #

def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (job-scoped correlation id)."""
    return uuid.uuid4().hex[:16]
