"""The SDK-side client of the remote tune service.

:class:`AntTuneClient` mirrors the in-process API
(:class:`repro.automl.server.AntTuneClient`) over HTTP/JSON: ``submit`` /
``poll`` / ``wait`` / ``cancel`` / ``subscribe`` keep their shapes, with two
wire-imposed differences:

* search spaces, objectives, algorithms and pruners travel as
  ``module:attr`` code references (strings) — the server imports them; code
  itself never crosses the wire;
* ``subscribe`` returns an *iterator of reconstructed typed events*
  (:mod:`repro.automl.events` classes, rebuilt from the NDJSON stream), and
  transparently reconnects with ``last_seq`` replay when the connection
  drops mid-stream — the caller sees one gapless, duplicate-free feed ending
  with the job's terminal ``JobStateChanged``.

Retry semantics
---------------

The client distinguishes two failure classes and treats them differently:

* **Connection-level failures** (refused, DNS, socket timeout, reset
  mid-stream) raise the internal ``_ServerUnreachable`` — these are
  *retryable*: the server may be restarting, the network blipping.
  ``subscribe`` reconnects with the highest ``seq`` it already yielded and
  backs off with full-jitter exponential delays (uniform below a ceiling
  that doubles per attempt, capped at 5s) so a fleet of streaming clients
  does not reconnect in lockstep against a restarting server.  Attempts that
  deliver **no new event** count against ``max_stream_retries``; any
  progress resets the counter, so a long-lived stream survives any number
  of blips while a genuinely dead server fails fast.
* **HTTP error responses** (unknown job 404, bad auth 401, conflict 409,
  schema rejection 400) are *permanent*: reconnecting cannot change the
  answer, so they raise immediately —
  :class:`~repro.exceptions.TrialError` (or :class:`ValueError` for 400)
  with the server's message.

Because the server journals every event durably and recovers on restart
(``serve --recover``), a ``subscribe`` that spans a server **crash** keeps
working: the reconnect lands on the restarted process, the ``last_seq``
backfill is served from the on-disk event log, and the stream continues —
the restart shows up as at most a pause, never a gap.  Pass a larger
``max_stream_retries`` (or rely on progress resets) when restarts are
expected to take longer than the default retry budget.

Only the Python stdlib (``urllib``) is used.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional, Union

from repro.automl.events import Event, JobStateChanged, event_from_wire
from repro.automl.remote.api import PROTOCOL_VERSION, trial_from_record
from repro.automl.study import StudyConfig
from repro.automl.trial import Trial
from repro.exceptions import TrialError

__all__ = ["AntTuneClient"]

# Socket-level read timeout on event streams; the server heartbeats every
# few seconds, so a silent stream this long means the connection is dead.
_STREAM_READ_TIMEOUT = 30.0


def _reconnect_delay(attempt: int, base: float = 0.1,
                     cap: float = 5.0) -> float:
    """Full-jitter exponential backoff: uniform over [0, min(cap, base*2^n)].

    Every streaming client of a restarting server reconnects at once; a
    fixed (or even deterministic exponential) sleep keeps them synchronised
    into a thundering herd that hammers the same instants.  Full jitter
    (AWS-style) decorrelates them: the *ceiling* grows exponentially with
    the attempt number, the actual sleep is drawn uniformly below it.

    Args:
        attempt: 0-based consecutive failure count.
        base: ceiling of the first attempt's sleep.
        cap: upper bound on the ceiling however many attempts failed.

    Returns:
        Seconds to sleep before the next attempt.
    """
    ceiling = min(cap, base * (2 ** max(0, attempt)))
    return random.uniform(0.0, ceiling)


class _ServerUnreachable(TrialError):
    """A connection-level failure (refused, DNS, timeout) — retryable.

    Distinct from a TrialError built from an HTTP error *response* (unknown
    job, bad auth, conflict), which is permanent: reconnecting can never
    change the answer, so ``subscribe`` re-raises those immediately and
    retries only this class.
    """


class AntTuneClient:
    """Talk to a :class:`~repro.automl.remote.http_server.RemoteTuneServer`.

    Args:
        base_url: the server's base URL (e.g. ``http://127.0.0.1:8123``).
        token: bearer token, when the server requires one.
        timeout: per-request socket timeout in seconds.
        max_stream_retries: reconnect attempts an event stream survives
            *without receiving a single new event* before giving up.
    """

    def __init__(self, base_url: str, token: Optional[str] = None,
                 timeout: float = 30.0, max_stream_retries: int = 5) -> None:
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = float(timeout)
        self.max_stream_retries = int(max_stream_retries)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, object]] = None,
                 timeout: Optional[float] = None,
                 request_id: Optional[str] = None) -> Dict[str, object]:
        raw = self._request_raw(method, path, payload=payload,
                                timeout=timeout, request_id=request_id)
        return json.loads(raw.decode("utf-8"))

    def _request_raw(self, method: str, path: str,
                     payload: Optional[Dict[str, object]] = None,
                     timeout: Optional[float] = None,
                     request_id: Optional[str] = None) -> bytes:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method,
            headers=self._headers(json_body=body is not None,
                                  request_id=request_id))
        try:
            with urllib.request.urlopen(
                    request, timeout=timeout or self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            raise self._to_error(exc) from None
        except urllib.error.URLError as exc:
            raise _ServerUnreachable(
                f"cannot reach tune server at {self.base_url}: "
                f"{exc.reason}") from None

    def _headers(self, json_body: bool = False,
                 request_id: Optional[str] = None) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if json_body:
            headers["Content-Type"] = "application/json"
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if request_id is not None:
            headers["X-Request-Id"] = str(request_id)
        return headers

    @staticmethod
    def _to_error(exc: urllib.error.HTTPError) -> Exception:
        try:
            message = json.loads(exc.read().decode("utf-8"))["error"]
        except Exception:  # noqa: BLE001 - non-JSON error body
            message = f"HTTP {exc.code}"
        if exc.code == 400:
            return ValueError(message)
        return TrialError(f"tune server refused the request "
                          f"({exc.code}): {message}")

    # ------------------------------------------------------------------ #
    # Mirrored API
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        """Liveness probe: ``{"ok": true, "protocol": N}``."""
        return self._request("GET", "/v1/health")

    def server_status(self) -> Dict[str, object]:
        """Server-wide snapshot (pool sizing, job counts, backpressure).

        Includes the structured ``metrics`` section — the server's full
        registry snapshot; :meth:`metrics` fetches the same data in
        Prometheus text form instead.
        """
        return self._request("GET", "/v1/status")

    def metrics(self) -> str:
        """The server's ``/v1/metrics`` Prometheus text exposition, verbatim.

        One ``# HELP``/``# TYPE``-annotated block per metric family; feed it
        to a Prometheus scraper or parse the lines directly (see
        ``docs/observability.md`` for the catalog).
        """
        return self._request_raw("GET", "/v1/metrics").decode("utf-8")

    def submit(self, space: str, objective: str, *,
               algorithm: Optional[str] = None, pruner: Optional[str] = None,
               config: Union[None, StudyConfig, Dict[str, object]] = None,
               seed: Optional[int] = None, study_name: Optional[str] = None,
               priority: float = 1.0, preempt: bool = False,
               request_id: Optional[str] = None) -> int:
        """Enqueue a job on the remote server and return its id.

        Mirrors :meth:`AntTuneServer.submit
        <repro.automl.server.AntTuneServer.submit>`, except code travels as
        references: ``space``/``objective`` (and the optional
        ``algorithm``/``pruner``) are ``module:attr`` strings the *server*
        imports.

        Args:
            space: ``module:attr`` reference to the :class:`SearchSpace`.
            objective: ``module:attr`` reference to the objective callable.
            algorithm: optional reference to an algorithm instance/factory.
            pruner: optional reference to a pruner instance/factory.
            config: a :class:`StudyConfig` (serialised for the wire) or a
                plain dict of its fields.
            seed: study RNG seed; without it the server derives one from the
                job id.
            study_name: storage name (must be unique among active jobs).
            priority: fair-share weight (> 0).
            preempt: claim the fair share immediately on start.
            request_id: sent as ``X-Request-Id`` and adopted by the server
                as the job's trace id — every event the job publishes then
                carries it; the server generates one when omitted.

        Returns:
            The new job's id.

        Raises:
            ValueError: the server rejected the request shape (400).
            TrialError: conflicts (duplicate study name), auth failures, or
                an unreachable server.
        """
        body = self._job_body(space, objective, algorithm=algorithm,
                              pruner=pruner, priority=priority,
                              preempt=preempt)
        if config is not None:
            body["config"] = (dataclasses.asdict(config)
                              if isinstance(config, StudyConfig)
                              else dict(config))
        if seed is not None:
            body["seed"] = int(seed)
        if study_name is not None:
            body["study_name"] = study_name
        result = self._request("POST", "/v1/jobs", body,
                               request_id=request_id)
        return int(result["job_id"])

    def resume(self, study_name: str, space: str, objective: str, *,
               algorithm: Optional[str] = None, pruner: Optional[str] = None,
               priority: float = 1.0, preempt: bool = False,
               request_id: Optional[str] = None) -> int:
        """Resume a stored study on the remote server; returns the new job id.

        Mirrors :meth:`AntTuneServer.resume
        <repro.automl.server.AntTuneServer.resume>`; the server must have
        storage attached and know ``study_name``.  ``request_id`` becomes
        the resumed job's trace id (see :meth:`submit`).
        """
        body = self._job_body(space, objective, algorithm=algorithm,
                              pruner=pruner, priority=priority,
                              preempt=preempt)
        body["study_name"] = study_name
        result = self._request("POST", "/v1/resume", body,
                               request_id=request_id)
        return int(result["job_id"])

    def _job_body(self, space: str, objective: str, *,
                  algorithm: Optional[str], pruner: Optional[str],
                  priority: float, preempt: bool) -> Dict[str, object]:
        for label, ref in (("space", space), ("objective", objective)):
            if not isinstance(ref, str):
                raise ValueError(
                    f"{label} must be a 'module:attr' reference string; the "
                    f"remote API ships references, not code — got "
                    f"{type(ref).__name__}")
        body: Dict[str, object] = {
            "protocol": PROTOCOL_VERSION, "space": space,
            "objective": objective, "priority": float(priority),
            "preempt": bool(preempt),
        }
        if algorithm is not None:
            body["algorithm"] = algorithm
        if pruner is not None:
            body["pruner"] = pruner
        return body

    def poll(self, job_id: int) -> Dict[str, object]:
        """Non-blocking status snapshot (see ``AntTuneServer.status``)."""
        return self._request("GET", f"/v1/jobs/{int(job_id)}")

    status = poll

    def jobs(self) -> List[Dict[str, object]]:
        """Status snapshots of every job on the server, oldest first."""
        return list(self._request("GET", "/v1/jobs")["jobs"])

    def cancel(self, job_id: int) -> bool:
        """Cancel a queued or running job (mirrors ``AntTuneServer.cancel``)."""
        return bool(self._request(
            "POST", f"/v1/jobs/{int(job_id)}/cancel", {})["cancelled"])

    def wait(self, job_id: int, timeout: Optional[float] = None) -> Trial:
        """Block until the job finishes; return its best trial.

        The server bounds each request's block, so this loops until ``timeout``
        (None = forever).  Raises mirror the in-process ``wait``:

        Raises:
            TrialError: the job failed, was cancelled, timed out, or finished
                without any successful trial.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            chunk = 10.0 if deadline is None else max(
                0.0, min(10.0, deadline - time.monotonic()))
            result = self._request(
                "GET", f"/v1/jobs/{int(job_id)}/wait?timeout={chunk}",
                timeout=chunk + self.timeout)
            if result["done"]:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise TrialError(
                    f"job {job_id} still running after {timeout}s")
        if result.get("best") is None:
            state, error = result.get("state"), result.get("error")
            if state == "cancelled":
                raise TrialError(f"job {job_id} was cancelled")
            raise TrialError(f"job {job_id}: {error or state}")
        return trial_from_record(result["best"])

    # ------------------------------------------------------------------ #
    # Event streaming
    # ------------------------------------------------------------------ #
    def subscribe(self, job_id: int, last_seq: int = -1,
                  max_queue: int = 1024) -> Iterator[Event]:
        """Follow one job's ordered event stream as reconstructed typed events.

        Yields :mod:`repro.automl.events` instances in per-job ``seq`` order,
        starting after ``last_seq`` (backfilled from the server's durable
        event log, then its live stream) and ending with the terminal
        :class:`~repro.automl.events.JobStateChanged`.  A dropped connection
        reconnects transparently, resuming from the highest ``seq`` already
        yielded — no duplicates, no gaps, even when the *server process
        itself* was killed and restarted in between (the replay then comes
        off disk; see the module docs for the retry budget).  A stream that
        skips seqs (live frames shed by a bounded server queue) is closed
        and re-requested from the last contiguous seq, so the durable-log
        backfill fills the hole; a hole the server cannot fill either (its
        log was compacted past it) is passed through on the second sight.

        Args:
            job_id: the job to follow.
            last_seq: resume point; -1 streams from the beginning.
            max_queue: per-connection server-side queue bound (drop-oldest).

        Yields:
            Typed events.

        Raises:
            TrialError: unknown job, or the stream died and reconnection
                kept failing without progress.
        """
        retries = 0
        gap_refetched_after: Optional[int] = None
        while True:
            made_progress = False
            gap = False
            try:
                response = self._open_stream(job_id, last_seq, max_queue)
            except _ServerUnreachable:
                # Connection-level failure: the server may come back.
                if retries >= self.max_stream_retries:
                    raise
                retries += 1
                time.sleep(_reconnect_delay(retries - 1))
                continue
            # An HTTP error *response* (unknown job, bad auth, rejected
            # parameters) is permanent — _open_stream raised it already and
            # it propagates: retrying cannot change the answer.
            failure: Optional[BaseException] = None
            try:
                for line in response:
                    line = line.strip()
                    if not line:
                        continue  # heartbeat
                    event = event_from_wire(json.loads(line.decode("utf-8")))
                    if event.seq <= last_seq:
                        continue  # replay overlap after a reconnect
                    if (event.seq > last_seq + 1
                            and gap_refetched_after != last_seq):
                        gap_refetched_after = last_seq
                        gap = True
                        break
                    last_seq = event.seq
                    made_progress = True
                    retries = 0
                    yield event
                    if isinstance(event, JobStateChanged) and event.terminal:
                        return
            except (OSError, ValueError) as exc:
                # Connection died mid-stream (socket timeout, reset, or a
                # line torn mid-JSON): reconnect and replay from last_seq.
                failure = exc
            finally:
                response.close()
            if gap:
                continue  # re-request the hole at once; it is not a failure
            # Reconnect: either the connection failed, or the server closed
            # the stream without a terminal event (shed queue tail, handler
            # error).  Repeated attempts that deliver nothing new give up.
            if not made_progress:
                retries += 1
                if retries > self.max_stream_retries:
                    raise TrialError(
                        f"event stream for job {job_id} kept failing "
                        f"without progress" +
                        (f": {failure}" if failure else "")) from None
            # Jittered backoff here too: a stream that made progress
            # reconnects almost immediately (attempt 0), while repeated
            # no-progress attempts spread the herd out exponentially.
            time.sleep(_reconnect_delay(0 if made_progress else retries - 1))

    def _open_stream(self, job_id: int, last_seq: int, max_queue: int):
        """One streaming connection (split out so tests can inject failures)."""
        request = urllib.request.Request(
            self.base_url + f"/v1/jobs/{int(job_id)}/events"
            f"?last_seq={int(last_seq)}&max_queue={int(max_queue)}",
            headers=self._headers())
        try:
            return urllib.request.urlopen(request,
                                          timeout=_STREAM_READ_TIMEOUT)
        except urllib.error.HTTPError as exc:
            raise self._to_error(exc) from None
        except urllib.error.URLError as exc:
            raise _ServerUnreachable(
                f"cannot reach tune server at {self.base_url}: "
                f"{exc.reason}") from None

    def tune(self, space: str, objective: str, **kwargs: object) -> Trial:
        """Submit a job, wait for it and return the best trial (convenience)."""
        return self.wait(self.submit(space, objective, **kwargs))  # type: ignore[arg-type]
