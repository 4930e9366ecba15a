"""The ``/v1`` front door, shared by the tune server and the fleet router.

:class:`~repro.automl.remote.http_server.RemoteTuneServer` and
:class:`~repro.automl.remote.router.RemoteRouterServer` speak one endpoint
contract over :class:`~repro.automl.remote.edge.AsyncHTTPEdge`, written once
here: the route table (:data:`ROUTES` plus :func:`match_route`), the
endpoint core the edge drives (:class:`FrontApp`) and the wrapper lifecycle
(:class:`FrontServer`).  A front door overrides only what really differs:
submit/resume, health's ``role``, the metrics text, how ``/wait`` parks and
how streams are fed.

The *service* behind a front door — an
:class:`~repro.automl.server.AntTuneServer` or a
:class:`~repro.automl.remote.router.TuneRouter` — answers
``server_status()``, ``jobs()``, ``status(job_id)``, ``cancel(job_id)`` and
``note_stream_drops(job_id, count)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.automl import metrics as _metrics
from repro.automl.remote.api import PROTOCOL_VERSION, ProtocolError
from repro.automl.remote.edge import (
    AsyncHTTPEdge,
    Reply,
    _float_param,
    _int_param,
    _job_id_segment,
    json_reply,
)

__all__ = ["ROUTES", "match_route", "FrontApp", "FrontServer"]

# How long a single /wait request may stay parked; clients poll.
MAX_WAIT_SECONDS = 60.0
# The Prometheus text exposition content type served by GET /v1/metrics.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Every ``/v1`` route, as ``(method, template, kind)``.  ``{id}`` matches
#: one path segment, handed to the endpoint as its argument.  ``kind`` picks
#: the edge treatment: ``control`` answers from a worker, ``wait`` may park,
#: ``events`` becomes a stream.  The template doubles as the ``endpoint``
#: metric label, so series never multiply with job ids.  The router serves
#: these rows minus ``/v1/tickets/*`` (pull workers talk to backends).
ROUTES: Tuple[Tuple[str, str, str], ...] = (
    ("GET", "/v1/health", "control"),
    ("GET", "/v1/status", "control"),
    ("GET", "/v1/metrics", "control"),
    ("GET", "/v1/jobs", "control"),
    ("GET", "/v1/jobs/{id}", "control"),
    ("GET", "/v1/jobs/{id}/wait", "wait"),
    ("GET", "/v1/jobs/{id}/events", "events"),
    ("POST", "/v1/jobs", "control"),
    ("POST", "/v1/resume", "control"),
    ("POST", "/v1/jobs/{id}/cancel", "control"),
    ("POST", "/v1/tickets/claim", "control"),
    ("POST", "/v1/tickets/{id}/report", "control"),
    ("POST", "/v1/tickets/{id}/heartbeat", "control"),
    ("POST", "/v1/tickets/{id}/complete", "control"),
)

# Each template split into path segments once, not per request.
_SEGMENTS = {template: tuple(p for p in template.split("/") if p)
             for _, template, _ in ROUTES}


def match_route(routes: Iterable[Tuple[str, str, str]], method: str,
                path: str) -> Optional[Tuple[str, str, Optional[str]]]:
    """``(kind, template, id_segment)`` for a request, or None.

    ``routes`` are rows of :data:`ROUTES`.  Empty path segments are ignored
    (``//v1//health`` is ``/v1/health``).
    """
    parts = [p for p in path.split("/") if p]
    for route_method, template, kind in routes:
        segments = _SEGMENTS[template]
        if route_method != method or len(segments) != len(parts):
            continue
        arg = None
        for want, got in zip(segments, parts):
            if want == "{id}":
                arg = got
            elif want != got:
                break
        else:
            return kind, template, arg
    return None


class FrontApp:
    """The endpoint core one front door serves through the async edge.

    ``remote`` is the :class:`FrontServer` whose ``log``/``check_auth`` the
    edge's hooks call (so overriding them there works); ``service`` is the
    tune server or router behind it.
    """

    #: The route rows this front door serves.
    routes: Sequence[Tuple[str, str, str]] = ROUTES
    #: ``GET /v1/health``'s ``role`` field; None leaves it out.
    role: Optional[str] = None

    def __init__(self, remote: "FrontServer", service: object) -> None:
        self.remote = remote
        self.service = service

    # -- edge hooks ------------------------------------------------------ #
    def log(self, line: str) -> None:
        self.remote.log(line)

    def check_auth(self, token: Optional[str]) -> bool:
        return self.remote.check_auth(token)

    def classify(self, method: str, path: str):
        return match_route(self.routes, method, path)

    # -- what a front door overrides ------------------------------------- #
    def place(self, kind: str, body: object,
              request_id: Optional[str]) -> Dict[str, object]:
        """Submit (``kind="submit"``) or resume a job; the answer payload."""
        raise NotImplementedError

    def metrics_text(self) -> str:
        """The ``GET /v1/metrics`` exposition: this process's registry."""
        return _metrics.REGISTRY.render()

    def park_wait(self, job_id: int, timeout: float):
        """``("reply", payload)`` now, or ``("park", parker)`` for the edge."""
        raise NotImplementedError

    def open_stream(self, job_id: int, last_seq: int, max_queue: int,
                    sink) -> Tuple[Iterable[Tuple[int, bytes, bool]], bool]:
        """Attach the live feed to ``sink``; return ``(backfill, live)``.

        ``backfill`` yields ``(seq, frame, terminal)`` for what the client
        missed after ``last_seq``; ``live`` says whether a live feed was
        attached (False: the backfill is the whole story).  The live side
        pushes through ``sink.live`` and detaches via ``sink.on_close``.
        """
        raise NotImplementedError

    # -- control --------------------------------------------------------- #
    def handle_control(self, method: str, template: str, args: object,
                       params: Dict[str, str],
                       read_body: Callable[[], object],
                       request_id: Optional[str]) -> Reply:
        service = self.service
        if template == "/v1/health":
            payload: Dict[str, object] = {"ok": True,
                                          "protocol": PROTOCOL_VERSION}
            if self.role is not None:
                payload["role"] = self.role
            return json_reply(200, payload)
        if template == "/v1/status":
            payload = service.server_status()
            payload["protocol"] = PROTOCOL_VERSION
            return json_reply(200, payload)
        if template == "/v1/metrics":
            return Reply(200, self.metrics_text().encode("utf-8"),
                         METRICS_CONTENT_TYPE)
        if template == "/v1/jobs" and method == "GET":
            return json_reply(200, {"jobs": service.jobs()})
        if template == "/v1/jobs":  # POST: submit
            return json_reply(200, self.place("submit", read_body(),
                                              request_id))
        if template == "/v1/resume":
            return json_reply(200, self.place("resume", read_body(),
                                              request_id))
        if template == "/v1/jobs/{id}":
            return json_reply(200, service.status(_job_id_segment(args)))
        if template == "/v1/jobs/{id}/cancel":
            job_id = _job_id_segment(args)
            return json_reply(200, {"job_id": job_id,
                                    "cancelled": service.cancel(job_id)})
        raise ProtocolError(f"no such endpoint: {method} {template}",
                            status=404)  # pragma: no cover - classify gates

    # -- wait ------------------------------------------------------------ #
    def wait_begin(self, args: object, params: Dict[str, str],
                   request_id: Optional[str]):
        """``/wait``: answer now, or park a continuation.

        A job that is already done (or a zero timeout) answers immediately;
        otherwise no thread blocks — the edge holds the connection and the
        job's terminal event (or a loop timer) completes it.
        """
        job_id = _job_id_segment(args)
        timeout = min(_float_param(params, "timeout", 10.0), MAX_WAIT_SECONDS)
        return self.park_wait(job_id, timeout)

    # -- event streams --------------------------------------------------- #
    def stream_begin(self, args: object, params: Dict[str, str],
                     request_id: Optional[str], sink) -> None:
        """``/events``: wire one job's feed into a stream sink.

        ``last_seq`` skips everything the client already saw: the backfill
        is written first, then live frames take over.  The live feed
        attaches *before* the backfill is read, so the two overlap rather
        than gap, and the sink de-duplicates by seq.  ``max_queue`` bounds
        this connection's live frame queue (drop-oldest); every shed frame
        is counted in ``anttune_event_queue_dropped_total``.
        """
        job_id = _job_id_segment(args)
        last_seq = _int_param(params, "last_seq", -1)
        max_queue = _int_param(params, "max_queue", 1024)
        if max_queue < 1:
            raise ProtocolError("max_queue must be >= 1")
        service = self.service
        sink.live_bound = max_queue
        sink.drop_hook = lambda count: service.note_stream_drops(job_id,
                                                                 count)
        backfill, live = self.open_stream(job_id, last_seq, max_queue, sink)
        if not sink.start():
            return
        sent = last_seq  # highest seq emitted; the de-dup watermark
        for seq, frame, terminal in backfill:
            if seq <= sent:
                continue
            if not sink.emit(frame):
                return  # client gone or stalled out its grace
            sent = seq
            if terminal:
                sink.end()  # the backfill already holds the stream's end
                return
        if not live:
            sink.end()
            return
        sink.backfill_done(sent)


class FrontServer:
    """The lifecycle both ``/v1`` wrappers share: bind, serve, stop.

    Subclasses build their service, then call :meth:`_bind`.
    """

    def _bind(self, app: FrontApp, host: str, port: int,
              token: Optional[str], log: Optional[object],
              owns_service: bool, **edge_kwargs: object) -> None:
        self.token = token
        self._log = log
        self._owns_service = owns_service
        self.app = app
        try:
            self._edge = AsyncHTTPEdge((host, port), app,
                                       **edge_kwargs)  # type: ignore[arg-type]
        except OSError:
            # Bind failure (port in use, bad host): a service this wrapper
            # constructed — and so owns — must not leak.
            if owns_service:
                self._close_service()
            raise

    def _start_service(self) -> None:
        """Start background work the service needs before serving."""

    def _close_service(self) -> None:
        """Release the owned service (called from :meth:`stop`)."""
        raise NotImplementedError

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self._edge.address

    @property
    def url(self) -> str:
        """Base URL clients connect to (e.g. ``http://127.0.0.1:8123``)."""
        host, port = self.address
        return f"http://{host}:{port}"

    def log(self, line: str) -> None:
        """Request-log hook; default drops the line (override or pass log=)."""
        if self._log is not None:
            self._log(line)

    def check_auth(self, token: Optional[str]) -> bool:
        """Whether a request presenting ``token`` may proceed.

        The default accepts everything when the server has no token, and
        requires an exact bearer match otherwise.  Override for custom
        schemes (keys per client, allow-lists, ...).
        """
        if self.token is None:
            return True
        return token == self.token

    def start(self):
        """Serve in a background thread and return self (idempotent)."""
        self._start_service()
        self._edge.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI ``serve``/``route`` mode)."""
        self._start_service()
        self._edge.serve_forever()

    def stop(self) -> None:
        """Stop accepting requests; release the service when owned here."""
        self._edge.stop()
        if self._owns_service:
            self._close_service()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
