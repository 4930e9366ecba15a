"""The C10k serving edge: a stdlib ``selectors`` event loop for HTTP/JSON.

A thread-per-connection transport gives every NDJSON event stream a
handler thread for its lifetime and pins one more per blocked ``/wait``,
capping a backend at a few dozen concurrent streaming clients.  This module
is the remote layer's only transport: one I/O thread multiplexing **all**
sockets:

* **One event loop** (:class:`AsyncHTTPEdge`) owns every connection: a
  non-blocking listener, incremental HTTP/1.1 request parsing straight off
  the read buffer, per-connection write buffers drained on writability, a
  timer heap for heartbeats/timeouts, and a wake-up socketpair so other
  threads can post work onto the loop.
* **Short-lived control requests** (submit, status, cancel, tickets) are
  dispatched to a small bounded worker pool; the loop itself never blocks
  on application code.
* **Event streams leave the thread world**: each streaming connection is a
  write buffer fed by event-bus callbacks.  Frames queued between two loop
  passes are coalesced into **one batched send** (observed by the
  ``anttune_edge_flush_batch_size`` histogram), and every frame is the
  event's shared pre-serialised wire line
  (:func:`repro.automl.events.event_wire_bytes`) — one serialisation per
  event regardless of subscriber count.
* **``/wait`` parks**: instead of blocking a thread on the job, the edge
  registers a terminal-event continuation plus a loop timer; whichever
  fires first completes the response.  A thousand waiting clients cost a
  thousand parked connections, not a thousand threads.
* **Slow readers are bounded**: a stalled connection's live frame queue
  drops oldest (counted through the app's drop hook into
  ``anttune_event_queue_dropped_total``), its write buffer is capped, and a
  connection that makes no send progress for the stream send-timeout grace
  is disconnected.

The edge is application-agnostic: it drives an *app* object (the ``/v1``
endpoint core :class:`~repro.automl.remote.front.FrontApp`, which the tune
server and the router both extend) through a small duck-typed protocol::

    app.log(line)                       # request-log hook
    app.check_auth(token) -> bool       # bearer-token gate
    app.classify(method, path)          # -> (kind, template, args) | None
                                        #    kind: control | wait | events
    app.handle_control(method, template, args, params, read_body,
                       request_id) -> Reply
    app.wait_begin(args, params, request_id)
                                        # -> ("reply", payload)
                                        #  | ("park", parker)
    app.stream_begin(args, params, request_id, sink) -> None

Streams send an idle heartbeat every :data:`HEARTBEAT_SECONDS` and drop a
reader that makes no progress for :data:`STREAM_SEND_TIMEOUT`; an app may
carry ``heartbeat_seconds`` / ``stream_send_timeout`` attributes to use
other values.

``handle_control`` / ``wait_begin`` / ``stream_begin`` run on worker-pool
threads and may raise :class:`~repro.automl.remote.api.ProtocolError` /
:class:`~repro.exceptions.TrialError` — the edge maps them to the same
4xx/404/409/500 JSON error taxonomy.

Everything here is stdlib-only, like the rest of the remote layer.
"""

from __future__ import annotations

import heapq
import itertools
import json
import selectors
import socket
import threading
import urllib.parse
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from time import monotonic, perf_counter
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.automl import metrics as _metrics
from repro.automl.remote.api import PROTOCOL_VERSION, ProtocolError
from repro.exceptions import TrialError

__all__ = ["AsyncHTTPEdge", "Reply", "json_reply"]

# Caps on the incremental parser: a header block (request line included)
# beyond 64 KiB or a declared body beyond 1 MiB is refused outright.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 1 << 20
_RECV_CHUNK = 64 * 1024
# Idle heartbeat period on event streams (a blank NDJSON line): detects dead
# connections and keeps client read timeouts from firing on quiet jobs.
HEARTBEAT_SECONDS = 5.0
# Grace for a connected client that stopped *reading*: the stall sweep
# disconnects it after this long without send progress.
STREAM_SEND_TIMEOUT = 30.0

# Request metrics: one latency histogram and one status counter per route
# template, shared by every app the edge serves.
_HTTP_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_http_request_seconds",
    "HTTP request handling latency by method and route template.",
    labels=("method", "endpoint"))
_HTTP_TOTAL = _metrics.REGISTRY.counter(
    "anttune_http_requests_total",
    "HTTP requests served by method, route template and status code.",
    labels=("method", "endpoint", "status"))
_OPEN_CONNECTIONS = _metrics.REGISTRY.gauge(
    "anttune_http_open_connections",
    "Connections currently open on the async edge, by kind: short-lived "
    "control requests (parked /wait included) vs long-lived event streams.",
    labels=("kind",))
_FLUSH_BATCH = _metrics.REGISTRY.histogram(
    "anttune_edge_flush_batch_size",
    "Live event frames coalesced into one batched send per stream flush.",
    buckets=_metrics.exponential_buckets(1.0, 2.0, 11))
_LOOP_LAG = _metrics.REGISTRY.histogram(
    "anttune_edge_loop_lag_seconds",
    "How late loop timers fire: the gap between a timer's deadline and the "
    "moment the loop ran it. The saturation signal for the event loop.")
_CONN_CHILDREN = {kind: _OPEN_CONNECTIONS.labels(kind=kind)
                  for kind in ("control", "stream")}


def _json_bytes(payload: object) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


_TERMINATOR = b"\r\n\r\n"


def _partial_terminator(buf: bytearray) -> int:
    """How many trailing bytes of ``buf`` could begin a head terminator."""
    for size in (3, 2, 1):
        if buf.endswith(_TERMINATOR[:size]):
            return size
    return 0


def _clean_request_id(raw: Optional[str]) -> Optional[str]:
    """A caller-supplied X-Request-Id, or None when unusable.

    Printable, headerable, bounded: anything else is replaced by a generated
    id rather than echoed back verbatim into a response header.
    """
    if not raw:
        return None
    raw = raw.strip()
    if not raw or len(raw) > 128 or not raw.isprintable():
        return None
    return raw


def _int_param(params: Dict[str, str], key: str, default: int) -> int:
    raw = params.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ProtocolError(f"query parameter {key!r} must be an "
                            f"integer, got {raw!r}") from None


def _float_param(params: Dict[str, str], key: str, default: float) -> float:
    raw = params.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ProtocolError(f"query parameter {key!r} must be a "
                            f"number, got {raw!r}") from None


def _job_id_segment(segment: str) -> int:
    if not segment.isdigit():
        raise ProtocolError(f"job id must be an integer, got {segment!r}",
                            status=404)
    return int(segment)


def _split_target(target: str) -> Tuple[str, Dict[str, str]]:
    split = urllib.parse.urlsplit(target)
    params = dict(urllib.parse.parse_qsl(split.query, keep_blank_values=True))
    return split.path.rstrip("/") or "/", params


def _bearer_token(headers: Dict[str, str]) -> Optional[str]:
    header = headers.get("authorization", "")
    scheme, _, credentials = header.partition(" ")
    if scheme.lower() == "bearer" and credentials:
        return credentials.strip()
    return None


class Reply:
    """One complete control response: status, body bytes, content type."""

    __slots__ = ("status", "body", "content_type", "close")

    def __init__(self, status: int, body: bytes,
                 content_type: str = "application/json",
                 close: bool = False) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.close = close


def json_reply(status: int, payload: object, close: bool = False) -> Reply:
    """A :class:`Reply` carrying a JSON body (the common case)."""
    return Reply(status, _json_bytes(payload), close=close)


_REASONS = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
            404: "Not Found", 409: "Conflict", 413: "Payload Too Large",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error"}


class _Request:
    """One parsed HTTP request, handed from the loop to a worker thread."""

    __slots__ = ("method", "target", "headers", "body", "keep_alive",
                 "serial")

    def __init__(self, method: str, target: str, headers: Dict[str, str],
                 body: bytes, keep_alive: bool, serial: int) -> None:
        self.method = method
        self.target = target
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive
        self.serial = serial


class _Stream(object):
    """Per-connection streaming state: the live frame queue and its bounds."""

    __slots__ = ("lock", "live", "live_bound", "dropped_pending", "drop_hook",
                 "watermark", "backfill_done", "started", "ending",
                 "last_write", "drain_ok", "heartbeat_timer", "unsent")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        # (frame bytes, seq, terminal) triples pushed by bus callbacks.
        self.live: Deque[Tuple[bytes, int, bool]] = deque()
        self.live_bound = 1024
        self.dropped_pending = 0
        self.drop_hook: Optional[Callable[[int], None]] = None
        # Highest seq already written via backfill; live frames at or below
        # it are duplicates of the overlap window and are skipped.
        self.watermark = -1
        self.backfill_done = False
        self.started = False
        self.ending = False
        self.last_write = 0.0
        # Backfill flow control: set while the write buffer has room.
        self.drain_ok = threading.Event()
        self.heartbeat_timer: Optional[int] = None
        # Backfill bytes emitted but not yet on the wire.  Accounted on the
        # *producer* side (emit time), because counting on the loop side
        # lets a worker post frames faster than the loop applies them and
        # the write-buffer bound becomes advisory.
        self.unsent = 0


class _Connection:
    """One socket as the loop sees it: buffers, parser state, mode."""

    __slots__ = ("sock", "addr", "rbuf", "out", "kind", "busy", "closing",
                 "alive", "want_write", "last_progress", "serial", "answered",
                 "stream", "cleanups", "out_started_at")

    def __init__(self, sock: socket.socket, addr: object) -> None:
        self.sock = sock
        self.addr = addr
        self.rbuf = bytearray()
        self.out = bytearray()
        self.kind = "control"
        self.busy = False          # a request is in flight; parsing paused
        self.closing = False       # close once `out` drains
        self.alive = True
        self.want_write = False
        self.last_progress = monotonic()
        self.serial = 0            # increments per parsed request
        self.answered = True       # the current serial has been replied to
        self.stream: Optional[_Stream] = None
        self.cleanups: List[Callable[[], None]] = []


class _StreamSink:
    """The app-facing handle for one streaming response.

    ``start``/``emit``/``backfill_done``/``end`` are called in order from
    the worker thread running ``stream_begin``; ``live`` may be called from
    any publisher thread at any time (including before ``start``, during
    the bus's synchronous replay).  Everything that touches the connection
    is posted onto the loop.
    """

    def __init__(self, edge: "AsyncHTTPEdge", conn: _Connection,
                 request_id: Optional[str], send_timeout: float) -> None:
        self._edge = edge
        self._conn = conn
        self._request_id = request_id
        self._send_timeout = send_timeout
        self._state = _Stream()
        self._state.drain_ok.set()
        self._dead = threading.Event()
        self.started = False

    # -- app side -------------------------------------------------------- #
    @property
    def live_bound(self) -> int:
        return self._state.live_bound

    @live_bound.setter
    def live_bound(self, bound: int) -> None:
        self._state.live_bound = max(1, int(bound))

    @property
    def drop_hook(self) -> Optional[Callable[[int], None]]:
        return self._state.drop_hook

    @drop_hook.setter
    def drop_hook(self, hook: Optional[Callable[[int], None]]) -> None:
        self._state.drop_hook = hook

    def on_close(self, cleanup: Callable[[], None]) -> None:
        """Run ``cleanup`` when the connection goes away (or now if it has)."""
        self._edge._attach_cleanup(self._conn, cleanup)

    def start(self) -> bool:
        """Send the stream's response head; False when the client is gone."""
        self.started = True
        self._edge._post(lambda: self._edge._stream_start(
            self._conn, self, self._request_id))
        return not self._dead.is_set()

    def emit(self, data: bytes) -> bool:
        """Write one backfill frame, with flow control; False when gone.

        Blocks the calling worker thread while the connection's write buffer
        is above its high-water mark, so a huge durable-log backfill streams
        at the client's pace in bounded memory.
        """
        if self._dead.is_set():
            return False
        state = self._state
        with state.lock:
            state.unsent += len(data)
            if state.unsent >= self._edge.write_buffer_limit:
                state.drain_ok.clear()
        self._edge._post(lambda: self._edge._stream_emit(self._conn, data))
        if not state.drain_ok.wait(self._send_timeout):
            # The client made no room for the whole grace period: stop the
            # backfill and tear the connection down (it can resume later
            # with last_seq).
            self._edge._post(lambda: self._edge._teardown(self._conn))
            return False
        return not self._dead.is_set()

    def live(self, data: bytes, seq: int, terminal: bool) -> None:
        """Queue one live frame (bounded, drop-oldest; publisher thread)."""
        state = self._state
        with state.lock:
            if self._dead.is_set():
                return
            if not terminal:
                while len(state.live) >= state.live_bound:
                    _, _, was_terminal = state.live.popleft()
                    if was_terminal:  # pragma: no cover - terminal is always
                        state.live.appendleft((_, _, was_terminal))  # newest
                        break
                    state.dropped_pending += 1
            state.live.append((data, seq, terminal))
        self._edge._mark_dirty(self._conn)

    def backfill_done(self, watermark: int) -> None:
        """Backfill finished at ``watermark``; live flushing may begin."""
        state = self._state

        def activate() -> None:
            state.watermark = max(state.watermark, watermark)
            state.backfill_done = True
            self._edge._flush_stream(self._conn, monotonic())

        self._edge._post(activate)

    def end(self) -> None:
        """The stream is complete: close once everything queued is written."""
        def finish() -> None:
            self._state.ending = True
            self._state.backfill_done = True
            conn = self._conn
            if conn.alive:
                conn.closing = True
                if not conn.out:
                    self._edge._teardown(conn)
                else:
                    self._edge._arm_write(conn)

        self._edge._post(finish)

    # -- edge side ------------------------------------------------------- #
    def _mark_dead(self) -> None:
        with self._state.lock:
            self._dead.set()
            self._state.live.clear()
        self._state.drain_ok.set()  # unblock a worker stuck in emit()


class AsyncHTTPEdge:
    """One event loop serving every connection of an HTTP/JSON app.

    Args:
        address: ``(host, port)`` to bind; port 0 picks a free one.
        app: the endpoint core driven by this edge (see the module
            docstring for the protocol).
        workers: bounded worker-pool size for control handlers and stream
            backfills.
        write_buffer_limit: per-connection cap (bytes) on buffered unsent
            output; above it, backfills block (flow control) and live
            flushing pauses so the bounded frame queue takes over.
        backlog: listen backlog.
        name: thread-name prefix.
    """

    def __init__(self, address: Tuple[str, int], app: object, *,
                 workers: int = 8, write_buffer_limit: int = 256 * 1024,
                 backlog: int = 1024, name: str = "anttune-edge") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._app = app
        self.write_buffer_limit = max(4096, int(write_buffer_limit))
        self._name = name
        self._listener = socket.create_server(address, backlog=backlog)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                ("accept", None))
        # Wake-up channel: other threads post() thunks and prod the loop.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                ("wake", None))
        self._pending: Deque[Callable[[], None]] = deque()
        self._pending_lock = threading.Lock()
        # Wake coalescing: one byte per loop pass, not one per producer.
        # Under fan-out load _mark_dirty() fires per event per subscriber;
        # without the armed flag every one of those is a send() syscall.
        self._wake_armed = False
        self._wake_lock = threading.Lock()
        self._dirty: Set[_Connection] = set()
        self._dirty_lock = threading.Lock()
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        self._timer_ids = itertools.count()
        self._cancelled: Set[int] = set()
        self._conns: Set[_Connection] = set()
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix=f"{name}-worker")
        self._stop_flag = threading.Event()
        self._done = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._listener.getsockname()[:2]

    def _log(self, line: str) -> None:
        log = getattr(self._app, "log", None)
        if log is not None:
            try:
                log(line)
            except Exception:  # noqa: BLE001 - logging must never kill IO
                pass

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "AsyncHTTPEdge":
        """Run the loop in a background thread (idempotent)."""
        if self._thread is None and not self._closed:
            self._thread = threading.Thread(target=self.serve_forever,
                                            name=self._name, daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the loop on the calling thread until :meth:`stop`."""
        self._running = True
        self._done.clear()
        try:
            while not self._stop_flag.is_set():
                self._loop_pass()
        finally:
            self._running = False
            self._shutdown_loop()
            self._done.set()

    def stop(self) -> None:
        """Stop the loop, close every connection, release the pool."""
        self._stop_flag.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        elif self._running:
            self._done.wait(timeout=10.0)
        else:
            # Never started: nothing is draining the stop flag, clean up
            # inline.
            self._shutdown_loop()
        self._pool.shutdown(wait=False)

    def _shutdown_loop(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns):
            self._teardown(conn)
        for sock in (self._listener, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._selector.close()

    # ------------------------------------------------------------------ #
    # Cross-thread plumbing
    # ------------------------------------------------------------------ #
    def _wake(self) -> None:
        with self._wake_lock:
            if self._wake_armed:
                return  # a wake byte is already in flight for this pass
            self._wake_armed = True
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # full pipe already wakes the loop; closed pipe = stopping

    def _post(self, thunk: Callable[[], None]) -> None:
        """Run ``thunk`` on the loop thread at the next pass."""
        with self._pending_lock:
            self._pending.append(thunk)
        self._wake()

    def _mark_dirty(self, conn: _Connection) -> None:
        # Racy fast-path, safe because callers enqueue their frame BEFORE
        # marking: if the conn is in the dirty set at any moment after the
        # enqueue, the flush that consumes that set delivers the frame.
        if conn in self._dirty:
            return
        with self._dirty_lock:
            self._dirty.add(conn)
        self._wake()

    def schedule(self, delay: float, fn: Callable[[], None]) -> int:
        """Arm ``fn`` to run on the loop in ``delay`` seconds; returns an id.

        Thread-safe; cancel with :meth:`cancel_timer`.  Fire lateness is
        observed in ``anttune_edge_loop_lag_seconds``.
        """
        tid = next(self._timer_ids)
        when = monotonic() + max(0.0, delay)
        self._post(lambda: heapq.heappush(self._timers, (when, tid, fn)))
        return tid

    def cancel_timer(self, tid: int) -> None:
        """Best-effort cancel: the timer becomes a no-op if still pending."""
        self._post(lambda: self._cancelled.add(tid))

    def _attach_cleanup(self, conn: _Connection,
                        cleanup: Callable[[], None]) -> None:
        """Run ``cleanup`` at teardown — or immediately if already gone."""
        def attach() -> None:
            if conn.alive:
                conn.cleanups.append(cleanup)
            else:
                self._run_cleanup(cleanup)

        self._post(attach)

    def _run_cleanup(self, cleanup: Callable[[], None]) -> None:
        try:
            cleanup()
        except Exception:  # noqa: BLE001 - cleanup must never kill the loop
            pass

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def _loop_pass(self) -> None:
        now = monotonic()
        timeout = 0.5
        if self._timers:
            timeout = min(timeout, max(0.0, self._timers[0][0] - now))
        with self._dirty_lock:
            if self._dirty:
                timeout = 0.0
        try:
            events = self._selector.select(timeout)
        except OSError:  # pragma: no cover - selector closed under us
            return
        for key, mask in events:
            tag, conn = key.data
            if tag == "accept":
                self._accept()
            elif tag == "wake":
                try:
                    while self._wake_r.recv(4096):
                        pass
                except (BlockingIOError, OSError):
                    pass
            else:
                if mask & selectors.EVENT_READ:
                    self._handle_read(conn)
                if mask & selectors.EVENT_WRITE and conn.alive:
                    self._handle_write(conn)
        # Disarm BEFORE reading the work queues: a producer that raced the
        # drain above had its work enqueued in time for this pass; one that
        # arrives after this line sends a fresh wake byte.
        with self._wake_lock:
            self._wake_armed = False
        while True:
            with self._pending_lock:
                if not self._pending:
                    break
                thunk = self._pending.popleft()
            try:
                thunk()
            except Exception as exc:  # noqa: BLE001 - a bad thunk must not
                self._log(f"edge: posted task failed: {exc!r}")  # kill IO
        now = monotonic()
        while self._timers and self._timers[0][0] <= now:
            when, tid, fn = heapq.heappop(self._timers)
            if tid in self._cancelled:
                self._cancelled.discard(tid)
                continue
            _LOOP_LAG.observe(monotonic() - when)
            try:
                fn()
            except Exception as exc:  # noqa: BLE001
                self._log(f"edge: timer failed: {exc!r}")
        with self._dirty_lock:
            dirty = list(self._dirty)
            self._dirty.clear()
        if dirty:
            now = monotonic()
            for conn in dirty:
                if conn.alive:
                    self._flush_stream(conn, now)

    # -- accept --------------------------------------------------------- #
    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - not a TCP socket
                pass
            conn = _Connection(sock, addr)
            self._conns.add(conn)
            _CONN_CHILDREN["control"].inc()
            try:
                self._selector.register(sock, selectors.EVENT_READ,
                                        ("conn", conn))
            except (ValueError, OSError):  # pragma: no cover - raced close
                self._conns.discard(conn)
                _CONN_CHILDREN["control"].dec()
                sock.close()

    # -- read + incremental parse --------------------------------------- #
    def _handle_read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._teardown(conn)
            return
        if not data:
            self._teardown(conn)
            return
        if conn.stream is not None or conn.closing:
            return  # close-delimited response in flight; inbound is noise
        conn.rbuf += data
        self._try_parse(conn)

    def _try_parse(self, conn: _Connection) -> None:
        """Pull complete requests off the read buffer and dispatch them."""
        while conn.alive and not conn.busy and not conn.closing:
            head_end = conn.rbuf.find(_TERMINATOR)
            # Bound the head however its bytes were split across reads: with
            # no terminator yet, the head is at least everything before a
            # terminator that may have begun in the last bytes received.
            head_len = (head_end if head_end >= 0
                        else len(conn.rbuf) - _partial_terminator(conn.rbuf))
            if head_len > MAX_HEADER_BYTES:
                self._parse_error(conn, 431, "request header too large")
                return
            if head_end < 0:
                return
            head = bytes(conn.rbuf[:head_end])
            try:
                method, target, headers = self._parse_head(head)
            except ValueError as exc:
                self._parse_error(conn, 400, str(exc))
                return
            length_raw = headers.get("content-length", "0")
            # Plain ASCII digits only: int() also accepts "+5", "-1", "0_0".
            if not (length_raw.isascii() and length_raw.isdigit()):
                self._parse_error(conn, 400, "invalid Content-Length header")
                return
            length = int(length_raw)
            if length > MAX_BODY_BYTES:
                self._parse_error(conn, 413, "request body too large")
                return
            total = head_end + 4 + length
            if len(conn.rbuf) < total:
                return  # body still in flight
            body = bytes(conn.rbuf[head_end + 4:total])
            del conn.rbuf[:total]
            keep_alive = headers.get("connection", "").lower() != "close"
            conn.serial += 1
            conn.busy = True
            conn.answered = False
            request = _Request(method, target, headers, body, keep_alive,
                               conn.serial)
            self._pool.submit(self._dispatch, conn, request)

    @staticmethod
    def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
        try:
            text = head.decode("iso-8859-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise ValueError("undecodable request head") from None
        lines = text.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise ValueError(f"unsupported HTTP version {version!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method, target, headers

    def _parse_error(self, conn: _Connection, status: int,
                     message: str) -> None:
        """Refuse an unparseable request and close (no app involved)."""
        body = _json_bytes({"error": message, "protocol": PROTOCOL_VERSION})
        conn.busy = True  # stop parsing; this connection is done
        self._write_head_and_body(conn, status, body, "application/json",
                                  None, close=True)

    # -- write ----------------------------------------------------------- #
    def _arm_write(self, conn: _Connection) -> None:
        if conn.want_write or not conn.alive:
            return
        conn.want_write = True
        try:
            self._selector.modify(conn.sock,
                                  selectors.EVENT_READ | selectors.EVENT_WRITE,
                                  ("conn", conn))
        except (KeyError, ValueError, OSError):  # pragma: no cover
            self._teardown(conn)

    def _disarm_write(self, conn: _Connection) -> None:
        if not conn.want_write:
            return
        conn.want_write = False
        try:
            self._selector.modify(conn.sock, selectors.EVENT_READ,
                                  ("conn", conn))
        except (KeyError, ValueError, OSError):  # pragma: no cover
            self._teardown(conn)

    def _handle_write(self, conn: _Connection) -> None:
        if not conn.out:
            self._disarm_write(conn)
            if conn.closing:
                self._teardown(conn)
            return
        try:
            sent = conn.sock.send(memoryview(conn.out)[:256 * 1024])
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._teardown(conn)
            return
        if sent > 0:
            del conn.out[:sent]
            conn.last_progress = monotonic()
            stream = conn.stream
            if stream is not None:
                state = stream._state
                with state.lock:
                    state.unsent = max(0, state.unsent - sent)
                    if state.unsent < self.write_buffer_limit:
                        state.drain_ok.set()
                    backlog = bool(state.live)
                if backlog and state.backfill_done:
                    self._mark_dirty(conn)
        if not conn.out:
            self._disarm_write(conn)
            if conn.closing:
                self._teardown(conn)

    def _write_head_and_body(self, conn: _Connection, status: int,
                             body: bytes, content_type: str,
                             request_id: Optional[str],
                             close: bool) -> None:
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}"]
        if request_id:
            head.append(f"X-Request-Id: {request_id}")
        if close:
            head.append("Connection: close")
        payload = ("\r\n".join(head) + "\r\n\r\n").encode("iso-8859-1") + body
        if not conn.out:
            conn.last_progress = monotonic()
        conn.out += payload
        if close:
            conn.closing = True
        self._arm_write(conn)

    # -- streaming ------------------------------------------------------- #
    def _stream_start(self, conn: _Connection, sink: _StreamSink,
                      request_id: Optional[str]) -> None:
        if not conn.alive:
            sink._mark_dead()
            return
        head = ["HTTP/1.1 200 OK",
                "Content-Type: application/x-ndjson",
                "Cache-Control: no-store"]
        if request_id:
            head.append(f"X-Request-Id: {request_id}")
        head.append("Connection: close")  # close-delimited stream
        if not conn.out:
            conn.last_progress = monotonic()
        conn.out += ("\r\n".join(head) + "\r\n\r\n").encode("iso-8859-1")
        conn.stream = sink
        state = sink._state
        state.started = True
        state.last_write = monotonic()
        if conn.kind != "stream":
            _CONN_CHILDREN[conn.kind].dec()
            conn.kind = "stream"
            _CONN_CHILDREN["stream"].inc()
        self._arm_write(conn)
        self._schedule_stream_upkeep(conn, sink)

    def _schedule_stream_upkeep(self, conn: _Connection,
                                sink: _StreamSink) -> None:
        """Heartbeat + stall sweep for one stream, rescheduled until done."""
        heartbeat = max(0.1, float(getattr(self._app, "heartbeat_seconds",
                                           HEARTBEAT_SECONDS)))

        def upkeep() -> None:
            if not conn.alive or conn.stream is not sink:
                return
            state = sink._state
            now = monotonic()
            grace = max(0.1, float(getattr(self._app, "stream_send_timeout",
                                           STREAM_SEND_TIMEOUT)))
            if conn.out and now - conn.last_progress > grace:
                # The client stopped reading and its grace is spent.
                self._teardown(conn)
                return
            if (state.started and not state.ending and not conn.out
                    and now - state.last_write >= heartbeat):
                # Idle heartbeat: a blank NDJSON line keeps client read
                # timeouts quiet and surfaces dead peers as write errors.
                conn.last_progress = now
                conn.out += b"\n"
                state.last_write = now
                self._arm_write(conn)
            state.heartbeat_timer = self.schedule(
                min(heartbeat, max(0.5, grace / 4)), upkeep)

        state = sink._state
        state.heartbeat_timer = self.schedule(
            min(heartbeat, 1.0), upkeep)

    def _stream_emit(self, conn: _Connection, data: bytes) -> None:
        if not conn.alive or conn.stream is None:
            return
        state = conn.stream._state
        if not conn.out:
            conn.last_progress = monotonic()
        conn.out += data
        state.last_write = monotonic()
        self._arm_write(conn)

    def _flush_stream(self, conn: _Connection, now: float) -> None:
        """Coalesce queued live frames into one batched write."""
        sink = conn.stream
        if sink is None or not conn.alive:
            return
        state = sink._state
        if not state.started or not state.backfill_done:
            return
        if conn.out and len(conn.out) >= self.write_buffer_limit:
            return  # buffer full: leave frames queued (bounded, drop-oldest)
        frames: List[bytes] = []
        ending = False
        with state.lock:
            while state.live:
                data, seq, terminal = state.live.popleft()
                if terminal:
                    ending = True
                if seq <= state.watermark:
                    continue  # the backfill overlap already shipped it
                state.watermark = seq
                frames.append(data)
            dropped, state.dropped_pending = state.dropped_pending, 0
        if dropped and state.drop_hook is not None:
            try:
                state.drop_hook(dropped)
            except Exception:  # noqa: BLE001 - accounting must not kill IO
                pass
        if frames:
            if not conn.out:
                conn.last_progress = now
            conn.out += b"".join(frames)
            state.last_write = now
            _FLUSH_BATCH.observe(len(frames))
            self._arm_write(conn)
        if ending:
            state.ending = True
            conn.closing = True
            if not conn.out:
                self._teardown(conn)
            else:
                self._arm_write(conn)

    # -- dispatch (worker threads) --------------------------------------- #
    def _respond(self, conn: _Connection, serial: int, status: int,
                 body: bytes, content_type: str, close: bool,
                 request_id: Optional[str]) -> None:
        """Queue one response for the request ``serial`` (first reply wins)."""
        def write() -> None:
            if not conn.alive or conn.serial != serial or conn.answered:
                return
            conn.answered = True
            self._write_head_and_body(conn, status, body, content_type,
                                      request_id, close)
            if not close:
                conn.busy = False
                self._try_parse(conn)  # a pipelined request may be buffered

        self._post(write)

    def _dispatch(self, conn: _Connection, request: _Request) -> None:
        app = self._app
        start = perf_counter()
        method = request.method
        endpoint = "unmatched"
        counted = [False]
        request_id = (_clean_request_id(request.headers.get("x-request-id"))
                      or _metrics.new_trace_id())

        def record(status: int) -> None:
            if counted[0]:
                return
            counted[0] = True
            _HTTP_TOTAL.labels(method=method, endpoint=endpoint,
                               status=str(status)).inc()
            _HTTP_SECONDS.labels(method=method, endpoint=endpoint).observe(
                perf_counter() - start)

        def reply(status: int, payload: object, close: bool = False) -> None:
            self._respond(conn, request.serial, status, _json_bytes(payload),
                          "application/json", close or not request.keep_alive,
                          request_id)
            record(status)

        def fail(status: int, message: str) -> None:
            # Errors may pre-empt the body read (bad auth, unknown route):
            # close so a keep-alive client's stream cannot desync.
            reply(status, {"error": message, "protocol": PROTOCOL_VERSION},
                  close=True)

        def read_body() -> object:
            if not request.body:
                raise ProtocolError("request requires a JSON body")
            try:
                return json.loads(request.body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(
                    f"request body is not valid JSON: {exc}") from None

        try:
            path, params = _split_target(request.target)
            self._log(f"{conn.addr} - {method} {path}")
            if not app.check_auth(_bearer_token(request.headers)):
                fail(401, "missing or invalid bearer token")
                return
            classified = app.classify(method, path)
            if classified is None:
                fail(404, f"no such endpoint: {method} {path}")
                return
            kind, template, args = classified
            endpoint = template
            if kind == "control":
                result = app.handle_control(method, template, args, params,
                                            read_body, request_id)
                self._respond(conn, request.serial, result.status, result.body,
                              result.content_type,
                              result.close or not request.keep_alive,
                              request_id)
                record(result.status)
            elif kind == "wait":
                outcome = app.wait_begin(args, params, request_id)
                if outcome[0] == "reply":
                    reply(200, outcome[1])
                else:
                    self._park(conn, request, outcome[1], request_id, record)
            else:  # events
                sink = _StreamSink(self, conn, request_id,
                                   float(getattr(app, "stream_send_timeout",
                                                 STREAM_SEND_TIMEOUT)))
                try:
                    app.stream_begin(args, params, request_id, sink)
                except Exception:
                    if sink.started:
                        # Mid-stream failure: the head is on the wire, no
                        # error response is possible — just drop the stream.
                        record(200)
                        self._post(lambda: self._teardown(conn))
                        return
                    raise
                record(200)
        except ProtocolError as exc:
            fail(exc.status, str(exc))
        except TrialError as exc:
            message = str(exc)
            fail(404 if message.startswith("unknown") else 409, message)
        except Exception as exc:  # noqa: BLE001 - one bad request must never
            fail(500, f"{type(exc).__name__}: {exc}")  # take the edge down

    # -- parked /wait ----------------------------------------------------- #
    def _park(self, conn: _Connection, request: _Request, parker: object,
              request_id: Optional[str],
              record: Callable[[int], None]) -> None:
        """Hold the response until the job's terminal event or the timeout.

        No thread blocks while parked: the continuation is an event-bus
        callback plus a loop timer, whichever fires first.  The client
        disconnecting cancels both.
        """
        fired = threading.Event()
        serial = request.serial

        def finish(payload_fn: Callable[[], object]) -> None:
            if fired.is_set():
                return
            fired.set()

            def work() -> None:
                try:
                    payload = payload_fn()
                    status = 200
                except TrialError as exc:
                    message = str(exc)
                    status = 404 if message.startswith("unknown") else 409
                    payload = {"error": message, "protocol": PROTOCOL_VERSION}
                except Exception as exc:  # noqa: BLE001
                    status = 500
                    payload = {"error": f"{type(exc).__name__}: {exc}",
                               "protocol": PROTOCOL_VERSION}
                close = status != 200 or not request.keep_alive
                self._respond(conn, serial, status, _json_bytes(payload),
                              "application/json", close, request_id)
                record(status)
                self._run_cleanup(getattr(parker, "cancel", lambda: None))

            self._pool.submit(work)

        timer = self.schedule(
            float(getattr(parker, "timeout_seconds", 10.0)),
            lambda: finish(parker.timeout_payload))

        def on_teardown() -> None:
            fired.set()
            self.cancel_timer(timer)
            self._run_cleanup(getattr(parker, "cancel", lambda: None))

        self._attach_cleanup(conn, on_teardown)
        # Registered last: an already-terminal job fires synchronously here.
        parker.register(lambda: finish(parker.terminal_payload))

    # -- teardown --------------------------------------------------------- #
    def _teardown(self, conn: _Connection) -> None:
        if not conn.alive:
            return
        conn.alive = False
        self._conns.discard(conn)
        with self._dirty_lock:
            self._dirty.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        _CONN_CHILDREN[conn.kind].dec()
        if conn.stream is not None:
            state = conn.stream._state
            if state.heartbeat_timer is not None:
                self.cancel_timer(state.heartbeat_timer)
            conn.stream._mark_dead()
        cleanups, conn.cleanups = conn.cleanups, []
        for cleanup in cleanups:
            self._run_cleanup(cleanup)
