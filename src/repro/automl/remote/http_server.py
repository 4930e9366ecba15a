"""Stdlib-only HTTP/JSON front end for the tune service.

:class:`RemoteTuneServer` exposes an in-process
:class:`~repro.automl.server.AntTuneServer` over the versioned wire schema
of :mod:`repro.automl.remote.api`, on every route of the ``/v1`` table
(:data:`repro.automl.remote.front.ROUTES`, documented in ``docs/api.md``).
Its endpoint core, :class:`_TuneApp`, is the shared
:class:`~repro.automl.remote.front.FrontApp` plus what only a backend does:
parse and submit/resume jobs, park ``/wait`` on the event bus, feed event
streams, and serve the ``/v1/tickets/*`` surface pull workers lease trials
through.  :class:`~repro.automl.remote.edge.AsyncHTTPEdge` serves it: one
``selectors`` loop for every socket, streams fed by event-bus callbacks with
each frame the event's shared pre-serialised wire bytes, and ``/wait``
parked as a terminal-event continuation instead of a blocked thread.

The event stream is the server-side half of ``subscribe()``: each line is one
:func:`~repro.automl.events.event_to_wire` payload carrying the job's
monotonic ``seq``.  A client that lost its connection reconnects with
``last_seq=<highest seq it saw>``; the gap backfills from the **durable
event log** first (so replay works even when the in-memory bus ring rotated
or the whole process restarted — see :mod:`repro.automl.eventlog`), then the
live subscription takes over, de-duplicated by seq.

Constructed with ``recover=True`` (the CLI's ``serve --recover``), the
wrapper runs :meth:`AntTuneServer.recover
<repro.automl.server.AntTuneServer.recover>` **before** binding the port, so
interrupted jobs are auto-resumed or finalised before the first client
request can observe the restarted server — reconnecting SDKs never race the
reconciliation.

Each request's ``X-Request-Id`` header (generated when absent) is echoed on
the response and, on submit/resume, becomes the job's trace id, stamped on
every event the job publishes.  Schema violations answer 4xx JSON error
bodies, unknown jobs/studies 404, conflicts 409 and anything unexpected 500
— a bad request never takes the server down.  A ``token`` enables bearer
auth (401 without it); override :meth:`RemoteTuneServer.check_auth` for
anything fancier.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.automl.events import JobStateChanged, event_wire_bytes
from repro.automl.remote.api import (
    PROTOCOL_VERSION,
    ProtocolError,
    parse_resume,
    parse_submit,
)
from repro.automl.remote.edge import Reply, json_reply
from repro.automl.remote.front import FrontApp, FrontServer
from repro.automl.server import AntTuneServer
from repro.exceptions import TrialError
from repro.utils.rng import new_rng

__all__ = ["RemoteTuneServer"]


def _wait_payload(tune: AntTuneServer, job_id: int,
                  timeout: float) -> Dict[str, object]:
    """The ``/wait`` response body after blocking up to ``timeout`` seconds.

    Raises TrialError (propagated as 404) only for unknown job ids; a
    finished-but-failed job is a *successful* wait whose payload carries the
    error, and a still-running one answers ``{"done": false}``.
    """
    try:
        best = tune.wait(job_id, timeout=timeout)
    except TrialError as exc:
        status = tune.status(job_id)  # raises 404 for unknown ids
        if not status["finished"]:
            return {"done": False, "state": status["state"]}
        if status["state"] == "completed":
            # The terminal event publishes *before* the job's done-flag
            # flips, so a zero/short wait can lose that race while status
            # already reads finished; a short bounded re-wait bridges it.
            try:
                best = tune.wait(job_id, timeout=5.0)
            except TrialError as exc2:
                return {"done": True, "state": status["state"],
                        "error": status["error"] or str(exc2), "best": None}
            return {"done": True, "state": "completed", "error": None,
                    "best": best.as_record()}
        return {"done": True, "state": status["state"],
                "error": status["error"] or str(exc), "best": None}
    return {"done": True, "state": "completed", "error": None,
            "best": best.as_record()}


def _terminal(event: object) -> bool:
    return isinstance(event, JobStateChanged) and event.terminal


class _WaitParker:
    """A parked ``/wait``: the continuation the async edge completes.

    ``register`` subscribes the fire callback to the job's terminal event on
    the bus — an already-terminal job fires synchronously during
    registration (bus replay), so the park never misses a finish that raced
    the initial "not done yet" check.
    """

    def __init__(self, tune: AntTuneServer, job_id: int,
                 timeout: float) -> None:
        self._tune = tune
        self.job_id = job_id
        self.timeout_seconds = timeout
        self._sub = None

    def register(self, fire: Callable[[], None]) -> None:
        self._sub = self._tune.on_terminal(self.job_id, fire)

    def cancel(self) -> None:
        sub, self._sub = self._sub, None
        if sub is not None:
            sub.close()

    def terminal_payload(self) -> Dict[str, object]:
        # The terminal event publishes *before* the job's done-flag is set;
        # a short bounded wait bridges that ordering without busy-waiting.
        return _wait_payload(self._tune, self.job_id, 10.0)

    def timeout_payload(self) -> Dict[str, object]:
        return _wait_payload(self._tune, self.job_id, 0.0)


class _TuneApp(FrontApp):
    """The tune service's endpoint core: the shared ``/v1`` front door on an
    in-process :class:`AntTuneServer`, plus the ticket surface."""

    # -- control --------------------------------------------------------- #
    def handle_control(self, method: str, template: str, args: object,
                       params: Dict[str, str],
                       read_body: Callable[[], object],
                       request_id: Optional[str]) -> Reply:
        if template == "/v1/tickets/claim":
            return self._ticket_claim(read_body())
        if template.startswith("/v1/tickets/"):
            action = template.rsplit("/", 1)[1]
            return self._ticket(args, action, read_body())
        return super().handle_control(method, template, args, params,
                                      read_body, request_id)

    def place(self, kind: str, body: object,
              request_id: Optional[str]) -> Dict[str, object]:
        tune = self.service
        if kind == "submit":
            kwargs = parse_submit(body)
            seed = kwargs.pop("seed", None)
            if seed is not None:
                kwargs["rng"] = new_rng(seed)
            # The request's correlation id becomes the job's trace id: every
            # event the job publishes carries it, end to end.
            job_id = tune.submit(trace_id=request_id, **kwargs)
        else:
            job_id = tune.resume(trace_id=request_id, **parse_resume(body))
        return {"job_id": job_id, "trace_id": request_id,
                "protocol": PROTOCOL_VERSION}

    # -- ticket surface (pull workers; backend="ticket" only) ------------ #
    def _ticket_claim(self, body: object) -> Reply:
        """Lease the oldest open trial ticket to the calling worker.

        Answers ``{"ticket": null}`` when the board is idle — an idle
        board is a poll outcome, not an error, so workers can spin on a
        single status code.
        """
        if not isinstance(body, dict):
            raise ProtocolError("claim body must be a JSON object")
        worker = body.get("worker")
        if worker is not None and not isinstance(worker, str):
            raise ProtocolError("'worker' must be a string")
        board = self.service.ticket_board()
        return json_reply(200, {"ticket": board.claim(worker=worker),
                                "protocol": PROTOCOL_VERSION})

    def _ticket(self, segment: str, action: str, body: object) -> Reply:
        """``report``/``heartbeat``/``complete`` against a leased ticket.

        Every answer carries ``kill`` (a kill reason or null) so the
        worker observes cancellation/pruning/preemption at its next call —
        the same cooperative-kill contract the shared-memory flag table
        gives process workers.  Stale-lease calls get the 404/409 the
        board raises: the worker drops the attempt; the config already
        requeued server-side.
        """
        if not segment.isdigit():
            raise ProtocolError(
                f"ticket id must be an integer, got {segment!r}", status=404)
        ticket_id = int(segment)
        if not isinstance(body, dict):
            raise ProtocolError("ticket body must be a JSON object")
        token = body.get("token")
        if not isinstance(token, str) or not token:
            raise ProtocolError("'token' (the lease token) is required")
        board = self.service.ticket_board()
        if action == "report":
            step, value = body.get("step"), body.get("value")
            if not isinstance(step, int) or isinstance(step, bool) or step < 0:
                raise ProtocolError("'step' must be a non-negative integer")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ProtocolError("'value' must be a number")
            kill = board.report(ticket_id, token, step, float(value))
        elif action == "heartbeat":
            kill = board.heartbeat(ticket_id, token)
        else:  # complete
            record = body.get("record")
            if not isinstance(record, dict):
                raise ProtocolError("'record' (the trial record) is required")
            required = ("state", "value", "error", "duration_seconds",
                        "intermediate_values")
            missing = [key for key in required if key not in record]
            if missing:
                raise ProtocolError(
                    f"trial record is missing keys: {', '.join(missing)}")
            board.complete(ticket_id, token, record)
            kill = None
        return json_reply(200, {"ok": True, "kill": kill})

    # -- wait ------------------------------------------------------------ #
    def park_wait(self, job_id: int, timeout: float):
        payload = _wait_payload(self.service, job_id, 0.0)
        if payload["done"] or timeout <= 0.0:
            return ("reply", payload)
        return ("park", _WaitParker(self.service, job_id, timeout))

    # -- event streams --------------------------------------------------- #
    def open_stream(self, job_id: int, last_seq: int, max_queue: int,
                    sink) -> Tuple[Iterable[Tuple[int, bytes, bool]], bool]:
        """The bus subscription is live; the durable log is the backfill.

        Frames are the event's shared wire bytes
        (:func:`~repro.automl.events.event_wire_bytes`): serialized once,
        reused by every subscriber and the event log.
        """
        def push(event) -> None:
            sink.live(event_wire_bytes(event), event.seq, _terminal(event))

        backfill, subscription = self.service.open_event_stream(
            job_id, last_seq=last_seq, max_queue=max_queue, callback=push)
        if subscription is not None:
            sink.on_close(subscription.close)
        # A log-only job (finished before a restart) has no live side: its
        # backfill ended terminal, or was compacted down to a tail the
        # client already has.
        frames = ((event.seq, event_wire_bytes(event), _terminal(event))
                  for event in backfill)
        return frames, subscription is not None


class RemoteTuneServer(FrontServer):
    """Serve an :class:`AntTuneServer` over HTTP/JSON on a loopback (or any) port.

    Args:
        tune_server: the in-process server to expose; constructed from
            ``server_kwargs`` when omitted (and then owned — shut down with
            the HTTP layer).
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (see :attr:`address`).
        token: when set, every request must carry
            ``Authorization: Bearer <token>`` (else 401).  Override
            :meth:`check_auth` for custom schemes.
        log: optional callable receiving one line per handled request.
        recover: run :meth:`AntTuneServer.recover
            <repro.automl.server.AntTuneServer.recover>` before binding the
            port — interrupted jobs are auto-resumed or finalised before any
            client can connect; the summary lands in :attr:`recovery`.
            Requires file-backed storage.
        edge: the serving edge; only ``"async"`` exists.  Accepted so
            callers that name it keep working; any other value raises
            :class:`ValueError`.
        edge_workers: bounded worker pool for control handlers and stream
            backfills.
        write_buffer_limit: per-connection cap (bytes) on buffered unsent
            output before backpressure engages.
        **server_kwargs: forwarded to :class:`AntTuneServer` when
            ``tune_server`` is omitted (``num_workers=``, ``storage=``, ...).

    Use as a context manager, or call :meth:`start` / :meth:`stop`::

        with RemoteTuneServer(num_workers=2) as remote:
            client = AntTuneClient(remote.url)
            ...
    """

    def __init__(self, tune_server: Optional[AntTuneServer] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 token: Optional[str] = None,
                 log: Optional[object] = None,
                 recover: bool = False,
                 edge: str = "async",
                 edge_workers: int = 8,
                 write_buffer_limit: int = 256 * 1024,
                 **server_kwargs: object) -> None:
        if edge != "async":
            raise ValueError(f"edge must be 'async', got {edge!r}")
        owns = tune_server is None
        self.tune_server = (tune_server if tune_server is not None
                            else AntTuneServer(**server_kwargs))  # type: ignore[arg-type]
        #: recover()'s summary when constructed with ``recover=True``.
        self.recovery: Optional[Dict[str, object]] = None
        if recover:
            # Reconcile *before* the socket exists: a reconnecting client is
            # held in the kernel backlog (or connection-refused and retried
            # by the SDK) rather than observing half-recovered state.
            try:
                self.recovery = self.tune_server.recover()
            except Exception:
                if owns:
                    self._close_service()
                raise
        self._bind(_TuneApp(self, self.tune_server), host, port, token, log,
                   owns, workers=edge_workers,
                   write_buffer_limit=write_buffer_limit, name="anttune-edge")

    def _close_service(self) -> None:
        self.tune_server.shutdown()
