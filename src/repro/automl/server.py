"""An in-process implementation of the AntTune client/server architecture (Fig. 8).

In the paper, an SDK submits a tuning request (search space + limits) to a
long-lived tune server, which generates candidate trials, dispatches them to
distributed executors, collects the metrics and finally returns the best
model configuration.  Offline we model the same flow as an async multi-job
service:

* :meth:`AntTuneServer.submit` only *enqueues* a job and returns its id —
  a background dispatcher picks jobs up and runs up to
  ``max_concurrent_jobs`` of them concurrently on the shared worker pool
  (:mod:`repro.automl.executors`), driven by the configured trial scheduler
  (:mod:`repro.automl.scheduler`).
* Concurrent jobs share the pool **fairly, not FIFO**: each job's
  ``priority=`` weight feeds a :class:`~repro.automl.scheduler.FairShareGovernor`
  that apportions trial slots, so a latency-sensitive job overtakes a bulk
  sweep as slots free up.
* Clients use the non-blocking :meth:`poll` to inspect progress (including
  intermediate values streamed live from in-flight trials) and :meth:`wait`
  to block for a result; :meth:`cancel` stops a queued or running job within
  one scheduling tick, leaving it in the terminal ``CANCELLED`` state.
  :meth:`AntTuneClient.tune` keeps the blocking submit-and-wait convenience
  API on top.
* Every job also exposes a push stream: the whole trial/job lifecycle is
  published as typed events (:mod:`repro.automl.events`) on one ordered bus,
  and :meth:`subscribe` follows it — iterator or callback form — ending with
  a terminal ``JobStateChanged`` on completion, failure or cancellation.
  Storage persists trial history off the same stream.
* ``submit(..., preempt=True)`` claims the new job's fair share immediately:
  co-tenants' youngest running trials beyond their new allowance are killed
  with the ``preempted`` reason and requeued by their own schedulers (no
  budget slot or retry charged), so a latency-sensitive job acquires slots
  within one scheduling tick even when the pool is saturated.
* With a :class:`~repro.automl.storage.StudyStorage` attached, every job's
  study is checkpointed into SQLite as it runs, so a restarted server can
  list stored studies and :meth:`resume` them with only the remaining
  trial budget.

Each job gets its own RNG stream derived from its job id (unless the caller
passes ``rng=`` explicitly), so concurrently submitted jobs never explore
identical trial sequences.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import threading
import uuid
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.automl import metrics as _metrics
from repro.automl.algorithms.base import SearchAlgorithm, completed_trials
from repro.automl.events import (
    Event,
    EventBus,
    JobStateChanged,
    Subscription,
    TrialFinished,
)
from repro.automl.executors import EXECUTOR_BACKENDS, TrialExecutor, make_executor
from repro.automl.pruners import Pruner
from repro.automl.scheduler import (
    FairShareGovernor,
    GovernedExecutor,
    SchedulerLike,
    make_scheduler,
)
from repro.automl.search_space import SearchSpace
from repro.automl.storage import StudyStorage
from repro.automl.study import Study, StudyConfig
from repro.automl.trial import KILL_PREEMPTED, Trial, TrialState
from repro.exceptions import TrialError
from repro.utils.rng import new_rng

__all__ = ["JobState", "TuneJob", "AntTuneServer", "AntTuneClient"]

Objective = Callable[[Trial], float]


class JobState(enum.Enum):
    """Lifecycle of one submitted tuning job.

    ``QUEUED -> RUNNING`` and then exactly one terminal state: ``COMPLETED``
    (study ran its budget), ``FAILED`` (study raised) or ``CANCELLED``
    (:meth:`AntTuneServer.cancel`).  A queued job may go straight to
    ``CANCELLED`` without ever running.
    """

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


def _job_seed(job_id: int) -> int:
    """A distinct, process-independent seed per job id (CRC32, not hash())."""
    return zlib.crc32(f"anttune-job-{job_id}".encode("utf-8"))


@dataclass
class TuneJob:
    """One submitted hyper-parameter optimisation job.

    Attributes:
        job_id: server-assigned identifier, returned by ``submit``.
        study: the underlying :class:`~repro.automl.study.Study`.
        objective: the user callable evaluated per trial.
        workers: worker attribution labels for this job's trials.
        priority: fair-share weight (> 0); larger = bigger slot share.
        preempt: whether the job claims its share immediately on start by
            killing (and requeueing) co-tenants' youngest excess trials.
        study_name: the name the job persists under (auto-generated default).
        checkpoint_path: optional JSON checkpoint target.
        refs: ``module:attr`` code references (``space``/``objective``,
            optionally ``algorithm``/``pruner``) recorded in the event log so
            a restarted server can re-import the code and auto-resume the
            job; None for jobs submitted with bare callables.
        trace_id: the correlation id stamped onto every event this job
            publishes (caller-supplied via ``X-Request-Id`` on the remote
            path, otherwise generated at enqueue).  Persisted in the event
            log's metadata so a crash-recovered resume continues the same
            trace.
        state: current :class:`JobState`.
        error: failure description once ``FAILED``.
    """

    job_id: int
    study: Study
    objective: Objective
    workers: List[str] = field(default_factory=lambda: ["worker-0"])
    priority: float = 1.0
    preempt: bool = False
    study_name: Optional[str] = None
    checkpoint_path: Optional[str] = None
    refs: Optional[Dict[str, str]] = None
    trace_id: Optional[str] = None
    state: JobState = JobState.QUEUED
    error: Optional[str] = None
    cancel_requested: bool = False
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False, compare=False)
    # Guards state transitions against the cancel()/dispatcher race.
    _state_lock: threading.Lock = field(default_factory=threading.Lock,
                                        repr=False, compare=False)

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in (JobState.COMPLETED, JobState.FAILED,
                              JobState.CANCELLED)

    @property
    def best_trial(self) -> Trial:
        """The study's best completed trial (raises if none completed)."""
        return self.study.best_trial


class AntTuneServer:
    """Non-blocking multi-job tune service on a shared worker pool.

    ``num_workers`` sizes the trial executor shared by every job;
    ``max_concurrent_jobs`` bounds how many jobs' studies advance at once.
    ``backend``/``scheduler`` select the executor backend and the trial
    scheduling discipline for all jobs (see :func:`make_executor` and
    :mod:`repro.automl.scheduler`).  ``storage`` (a :class:`StudyStorage` or a
    path to a SQLite file) enables persistence and :meth:`resume`.

    Concurrent jobs share the pool by weighted fair share: each job's
    ``priority`` registers with a :class:`FairShareGovernor`, and every job's
    scheduler caps its in-flight trials at its current allowance, re-read on
    each refill tick.
    """

    def __init__(self, num_workers: int = 4, max_concurrent_jobs: int = 2,
                 backend: str = "auto", scheduler: SchedulerLike = None,
                 base_seed: int = 0,
                 storage: Union[None, str, StudyStorage] = None,
                 lease_seconds: Optional[float] = None) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be >= 1")
        if backend not in EXECUTOR_BACKENDS:
            raise ValueError(f"unknown executor backend {backend!r}; "
                             f"expected one of {EXECUTOR_BACKENDS}")
        if lease_seconds is not None and backend != "ticket":
            raise ValueError("lease_seconds only applies to the 'ticket' "
                             "backend")
        make_scheduler(scheduler)  # fail fast on a typo, not in the dispatcher
        self.num_workers = num_workers
        self.max_concurrent_jobs = max_concurrent_jobs
        self.backend = backend
        self.lease_seconds = lease_seconds
        self.scheduler = scheduler
        self.base_seed = base_seed
        # A storage opened here from a path is ours to close at shutdown();
        # a StudyStorage instance stays the caller's.
        self._owns_storage = isinstance(storage, str)
        self.storage = (StudyStorage(storage) if self._owns_storage
                        else storage)
        self._jobs: Dict[int, TuneJob] = {}
        self._jobs_lock = threading.Lock()
        self._next_job_id = itertools.count()
        # Terminal snapshots of jobs that predate this process, reconstructed
        # by recover() from the event log + storage.  They have no TuneJob
        # (no live study/objective) but status()/jobs()/wait()/subscribe()
        # answer for them, so a client that outlived the crash is not met
        # with 404s for ids it legitimately holds.
        self._recovered: Dict[int, Dict[str, object]] = {}
        self._governor = FairShareGovernor(num_workers)
        # One ordered event stream per job: every layer publishes onto this
        # bus and subscribe()/storage persistence read from it.
        self._bus = EventBus()
        # Default study names embed a per-server-process nonce so a restarted
        # server never silently upserts over studies a previous process
        # persisted under the same job ids.
        self._instance_id = uuid.uuid4().hex[:8]
        # Background storage-writer threads, one per persisted job; joined by
        # shutdown() so no trial rows are lost at close.
        self._writers: List[threading.Thread] = []
        self._writers_lock = threading.Lock()
        self._executor: Optional[TrialExecutor] = None
        self._dispatcher: Optional[ThreadPoolExecutor] = None
        self._closed = False
        # Guards lazy construction of the shared pools: submit() can race from
        # client threads, and the executor property from dispatcher threads.
        self._init_lock = threading.Lock()

    @property
    def event_log(self):
        """The storage's durable event log (None without file-backed storage).

        Every job's bus stream is mirrored into it synchronously at publish
        time, so a restarted server can replay pre-crash history
        (:meth:`open_event_stream`) and reconcile interrupted jobs
        (:meth:`recover`).
        """
        return None if self.storage is None else self.storage.event_log

    # ------------------------------------------------------------------ #
    # Shared resources (lazy)
    # ------------------------------------------------------------------ #
    @property
    def executor(self) -> TrialExecutor:
        """The worker pool shared by every job on this server (lazy).

        Raises:
            TrialError: the server has been shut down (no silent rebuilds).
        """
        with self._init_lock:
            if self._executor is None:
                if self._closed:
                    # Never rebuild a pool behind shutdown()'s back — that
                    # would leak worker threads/processes nothing releases.
                    raise TrialError("server has been shut down")
                self._executor = make_executor(self.num_workers,
                                               backend=self.backend,
                                               base_seed=self.base_seed,
                                               lease_seconds=self.lease_seconds)
            return self._executor

    def ticket_board(self) -> "TrialExecutor":
        """The ticket board pull workers claim from (``backend="ticket"``).

        Raises:
            TrialError: this server runs a local pool, not the ticket
                backend — there are no tickets to claim.
        """
        if self.backend != "ticket":
            raise TrialError(
                f"server backend is {self.backend!r}, not 'ticket': "
                f"no ticket board to claim from")
        return self.executor

    def _ensure_dispatcher(self) -> ThreadPoolExecutor:
        with self._init_lock:
            if self._dispatcher is None:
                if self._closed:
                    raise TrialError("server has been shut down")
                self._dispatcher = ThreadPoolExecutor(
                    max_workers=self.max_concurrent_jobs,
                    thread_name_prefix="anttune-dispatch")
            return self._dispatcher

    # ------------------------------------------------------------------ #
    # Job submission and execution
    # ------------------------------------------------------------------ #
    def submit(self, space: SearchSpace, objective: Objective,
               algorithm: Optional[SearchAlgorithm] = None,
               config: Optional[StudyConfig] = None,
               pruner: Optional[Pruner] = None,
               rng: Optional[np.random.Generator] = None,
               study_name: Optional[str] = None,
               checkpoint_path: Optional[str] = None,
               priority: float = 1.0, preempt: bool = False,
               refs: Optional[Dict[str, str]] = None,
               trace_id: Optional[str] = None) -> int:
        """Enqueue a new tuning job and return its id immediately.

        The job starts as soon as a dispatcher slot frees up; use
        :meth:`poll`/:meth:`wait`/:meth:`subscribe` to follow it and
        :meth:`cancel` to stop it.  Without an explicit ``rng`` the study
        seeds from the job id, so concurrent jobs explore distinct trial
        sequences.

        Args:
            space: the search space to explore.
            objective: callable evaluated per trial (picklable for the
                process backend).
            algorithm: search algorithm (default RACOS seeded per job).
            config: study limits and budget.
            pruner: early-stopping policy; fed live telemetry on every
                backend, including process pools.
            rng: explicit RNG stream (overrides the per-job seed).
            study_name: storage name; must be unique among active jobs.
            checkpoint_path: optional JSON checkpoint target.
            priority: fair-share weight (> 0); a job with weight 4 holds
                roughly 4x the trial slots of a weight-1 co-tenant.
            preempt: when True the job does not wait for co-tenants' trials
                to finish — on start it kills their youngest running trials
                beyond the new fair share (kill reason ``preempted``).
                Preempted trials are requeued by their own scheduler and
                charged neither a budget slot nor a retry.
            refs: optional ``module:attr`` reference strings for the job's
                code (``space``/``objective``, optionally
                ``algorithm``/``pruner``).  Recorded in the durable event
                log so :meth:`recover` can auto-resume the job after a
                server crash; the remote layer fills this in from the
                request body automatically.
            trace_id: explicit correlation id for this job's event stream
                (the remote layer passes the request's ``X-Request-Id``);
                a fresh id is generated when omitted.

        Returns:
            The new job's id.

        Raises:
            ValueError: for a non-positive priority.
            TrialError: duplicate study name, dying storage, or a server
                that has been shut down.
        """
        if priority <= 0:
            raise ValueError("priority must be > 0")
        job_id = next(self._next_job_id)
        study = Study(space, algorithm=algorithm, config=config, pruner=pruner,
                      rng=new_rng(rng if rng is not None else _job_seed(job_id)))
        return self._enqueue(job_id, study, objective, study_name,
                             checkpoint_path, priority=priority,
                             preempt=preempt, refs=refs, trace_id=trace_id)

    def resume(self, study_name: str, space: SearchSpace, objective: Objective,
               algorithm: Optional[SearchAlgorithm] = None,
               pruner: Optional[Pruner] = None,
               priority: float = 1.0, preempt: bool = False,
               refs: Optional[Dict[str, str]] = None,
               trace_id: Optional[str] = None) -> int:
        """Reload a persisted study from storage and enqueue its remainder.

        The study resumes with only the trial budget it had left when last
        checkpointed; v2 checkpoints also restore the algorithm/RNG state so
        the continuation replays as if never interrupted.  Cancelled studies
        may be resumed: their CANCELLED trials stay in the history and the
        unconsumed budget re-runs.

        Args:
            study_name: the stored study to continue.
            space: the original search space (code is not persisted).
            objective: callable evaluated per trial.
            algorithm: matching algorithm when the original used a
                non-default one.
            pruner: early-stopping policy for the continuation.
            priority: fair-share weight for the resumed job.
            preempt: claim the fair share immediately on start (see
                :meth:`submit`).
            refs: optional ``module:attr`` code references recorded for
                crash auto-resume (see :meth:`submit`).
            trace_id: explicit correlation id for the resumed stream (see
                :meth:`submit`).

        Returns:
            The new job's id.

        Raises:
            TrialError: no storage attached, or unknown study name.
        """
        if self.storage is None:
            raise TrialError("server has no storage attached; pass storage= "
                             "to AntTuneServer to enable resume()")
        study = self.storage.load_study(study_name, space, algorithm=algorithm,
                                        pruner=pruner)
        job_id = next(self._next_job_id)
        return self._enqueue(job_id, study, objective, study_name, None,
                             priority=priority, preempt=preempt,
                             allow_stored=True, refs=refs, trace_id=trace_id)

    def _enqueue(self, job_id: int, study: Study, objective: Objective,
                 study_name: Optional[str], checkpoint_path: Optional[str],
                 priority: float = 1.0, preempt: bool = False,
                 allow_stored: bool = False,
                 refs: Optional[Dict[str, str]] = None,
                 trace_id: Optional[str] = None) -> int:
        if priority <= 0:
            raise ValueError("priority must be > 0")
        workers = [f"worker-{i}" for i in range(self.num_workers)]
        job = TuneJob(job_id=job_id, study=study, objective=objective,
                      workers=workers, priority=float(priority),
                      preempt=preempt,
                      study_name=study_name or f"job-{job_id}-{self._instance_id}",
                      checkpoint_path=checkpoint_path, refs=refs,
                      trace_id=trace_id or _metrics.new_trace_id())
        if self.backend == "ticket":
            # Pull workers import the objective from its module:attr ref —
            # pin it on the board now so an unimportable objective (lambda,
            # __main__ callable) is refused at submit, not mid-study.
            ref = (refs or {}).get("objective")
            self.ticket_board().register_objective(
                objective, ref if isinstance(ref, str) else None)
        if (self.storage is not None and study_name is not None
                and not allow_stored and self.storage.study_exists(study_name)):
            # A plain submit must not upsert over a persisted study's history;
            # that path is reserved for resume() (or after delete_study()).
            raise TrialError(
                f"study {study_name!r} already exists in storage; use "
                f"resume() to continue it or delete_study() to discard it")
        # Acquire the dispatcher *before* registering or persisting anything:
        # a shut-down server must refuse cleanly, not leave a zombie QUEUED
        # job whose _done event never fires.
        dispatcher = self._ensure_dispatcher()
        with self._jobs_lock:
            for other in self._jobs.values():
                if other.study_name == job.study_name and not other.finished:
                    raise TrialError(
                        f"study name {job.study_name!r} is already in use by "
                        f"active job {other.job_id}; pick a unique study_name")
            self._jobs[job_id] = job
        # Every lifecycle event the study (and its scheduler) publishes is
        # stamped with this job's id and fanned out on the server's bus.
        study._event_sink = self._event_sink_for(job_id, job.trace_id)
        log = self.event_log
        if log is not None:
            # Durable mirror of the stream: meta first (so recovery can map
            # the job back to its study and code refs), then a synchronous
            # callback subscription — every event is on disk before any
            # queue consumer sees it, so a killed process loses nothing it
            # delivered.  Registered before the QUEUED publish below: the
            # log observes the stream from its very first event.
            log.open_job(job_id, job.study_name, refs=job.refs,
                         priority=job.priority, preempt=job.preempt,
                         trace_id=job.trace_id)
            self._bus.subscribe(job_id, callback=log.append)
        if self.storage is not None:
            # Trial history persists off the event stream: terminal trials
            # land as rows shortly after their TrialFinished event publishes,
            # between (and independent of) full payload checkpoints.  The
            # writer is a background thread draining an iterator
            # subscription, so storage commits never run on (or block) the
            # publisher's thread.
            self._start_storage_writer(job)
            try:
                self.storage.save_study(job.study_name, study,
                                        status=JobState.QUEUED.value)
            except Exception:  # dying storage: no zombie QUEUED job may stay
                # registered whose _done event would never fire.
                with self._jobs_lock:
                    self._jobs.pop(job_id, None)
                with job._state_lock:
                    job.state = JobState.FAILED
                    job.error = "storage save failed at enqueue"
                self._publish_job_state(job, terminal=True)
                raise
        self._publish_job_state(job)  # QUEUED opens the job's stream
        try:
            dispatcher.submit(self._run_job, job)
        except RuntimeError as exc:  # shutdown() raced us: undo registration
            with self._jobs_lock:
                self._jobs.pop(job_id, None)
            if self.storage is not None:
                try:
                    self.storage.delete_study(job.study_name)
                except TrialError:
                    pass
            with job._state_lock:
                job.state = JobState.FAILED
                job.error = "server has been shut down"
            self._publish_job_state(job, terminal=True)
            raise TrialError("server has been shut down") from exc
        return job_id

    # ------------------------------------------------------------------ #
    # Event stream plumbing
    # ------------------------------------------------------------------ #
    def _event_sink_for(self, job_id: int,
                        trace_id: Optional[str] = None) -> Callable[[Event], None]:
        """The per-job sink a study publishes through: stamp ids, fan out.

        Every event is stamped with both the job id and the job's trace id,
        so the whole lifecycle — across subscribers, the durable log, and a
        crash-recovered resume — correlates under one trace.
        """
        bus = self._bus
        def sink(event: Event) -> None:
            bus.publish(dataclasses.replace(event, job_id=job_id,
                                            trace_id=trace_id))
        return sink

    def _publish_job_state(self, job: TuneJob,
                           terminal: bool = False) -> None:
        """Publish the job's current state onto its event stream."""
        self._bus.publish(JobStateChanged(
            state=job.state.value, error=job.error, terminal=terminal,
            job_id=job.job_id, trace_id=job.trace_id))

    def _start_storage_writer(self, job: TuneJob) -> None:
        """Persist this job's event stream from a background writer thread.

        The writer drains an iterator subscription (subscribed before the
        job's first event publishes, so it observes the whole stream) and
        exits when the terminal event arrives — every lifecycle path
        publishes one, so the thread never leaks.  :meth:`shutdown` joins the
        writers, flushing any still-queued rows before the server closes.

        Best effort by design: the dispatcher's checkpoint/finalise path
        still saves the authoritative study payload, so a dying storage here
        must neither crash the writer nor mark the job failed — and the
        publisher's thread is never involved at all.  The subscription queue
        is wide (8192 events) and only TrialFinished/JobStateChanged touch
        storage; should an extreme burst still shed rows, the final
        ``save_study`` backfills them.
        """
        subscription = self._bus.subscribe(job.job_id, max_queue=8192)
        storage, name = self.storage, job.study_name

        def drain() -> None:
            for event in subscription:
                try:
                    if isinstance(event, TrialFinished):
                        storage.record_trial(name, event.record)
                    elif isinstance(event, JobStateChanged):
                        storage.set_status(name, event.state)
                except Exception:  # noqa: BLE001 - keep draining to terminal
                    pass

        thread = threading.Thread(target=drain, daemon=True,
                                  name=f"anttune-storage-{job.job_id}")
        with self._writers_lock:
            # Finished jobs' writers have exited: prune them here so a
            # long-lived server doesn't accumulate one dead Thread per job.
            self._writers = [t for t in self._writers if t.is_alive()]
            self._writers.append(thread)
        thread.start()

    def subscribe(self, job_id: int,
                  callback: Optional[Callable[[Event], None]] = None,
                  max_queue: int = 1024) -> Subscription:
        """Follow one job's ordered event stream (push, not poll).

        Events arrive in publish order, sequenced per job: ``JobStateChanged``
        for every lifecycle transition, and ``TrialStarted`` /
        ``TrialReport`` / ``TrialKilled`` / ``TrialFinished`` per trial, with
        each trial's events in its own lifecycle order.  The stream always
        ends with a terminal ``JobStateChanged`` (``terminal=True``) —
        completion, failure or cancellation — after which iteration stops;
        subscribing to an already-finished job yields that terminal event
        immediately.

        Args:
            job_id: the job to follow.
            callback: optional callable invoked synchronously per event
                instead of queueing for iteration (keep it fast; never call
                back into the server from it).
            max_queue: bound on the iterator queue for live delivery; the
                oldest undelivered events are shed (``Subscription.dropped``
                counts them) when a consumer falls behind.  The initial
                replay is delivered in full regardless (bounded by the bus
                history limit).

        Returns:
            A :class:`~repro.automl.events.Subscription`.

        Raises:
            TrialError: unknown job id.
        """
        with self._jobs_lock:
            known = job_id in self._jobs
        if not known and job_id not in self._recovered:
            raise TrialError(f"unknown job id {job_id}")
        return self._bus.subscribe(job_id, callback=callback,
                                   max_queue=max_queue)

    def on_terminal(self, job_id: int,
                    callback: Callable[[], None]) -> Subscription:
        """Fire ``callback`` once when the job reaches a terminal state.

        The continuation behind the async edge's parked ``/wait``: no
        thread blocks on the job.  A job that is *already* terminal fires
        synchronously during registration (the bus replays history into new
        subscriptions), so a finish racing the registration is never lost.
        Close the returned subscription to cancel.

        Raises:
            TrialError: unknown job id.
        """
        fired = threading.Event()

        def observe(event: Event) -> None:
            if (isinstance(event, JobStateChanged) and event.terminal
                    and not fired.is_set()):
                fired.set()
                callback()

        return self.subscribe(job_id, callback=observe)

    def note_stream_drops(self, job_id: int, count: int) -> None:
        """Fold transport-side stream drops into the bus's drop accounting.

        The async edge bounds each streaming connection's frame queue
        itself (drop-oldest); this routes those drops into the same
        telemetry and ``anttune_event_queue_dropped_total`` series the
        bus's own subscription queues use.
        """
        self._bus.note_drops(job_id, count)

    def open_event_stream(self, job_id: int, last_seq: int = -1,
                          max_queue: int = 1024,
                          callback: Optional[Callable[[Event], None]] = None):
        """A job's full event history: durable backfill plus live stream.

        This is what the remote ``GET /v1/jobs/{id}/events?last_seq=`` serves
        from.  Unlike :meth:`subscribe` — whose replay is bounded by the bus's
        in-memory history and empty in a freshly restarted process — the
        backfill comes from the durable event log, so a client resuming with
        ``last_seq`` sees a seamless stream across bus-ring rotation *and*
        server restarts.

        The subscription is opened *before* the disk read starts, which is
        what makes the merge gapless: the subscription observes everything
        published after it attached (plus the bus's bounded replay), and the
        log — written synchronously at publish time — holds everything before
        it.  The two overlap rather than gap; consumers de-duplicate by
        skipping events whose ``seq`` they have already emitted.

        Args:
            job_id: the job to stream.
            last_seq: highest seq the caller already has; the backfill starts
                after it.
            max_queue: live-subscription queue bound (drop-oldest).
            callback: optional push delivery for the live side — forwarded
                to :meth:`subscribe`, so the subscription replays history
                and then delivers synchronously per publish instead of
                queueing for iteration (the async edge's mode).

        Returns:
            ``(backfill, subscription)`` — an iterator over logged events
            with ``seq > last_seq``, and a live
            :class:`~repro.automl.events.Subscription`, or None in its place
            when the job is known only to the log (a pre-restart job this
            process finished reconciling, or one recovered read-only):
            the backfill then already ends with the terminal event.

        Raises:
            TrialError: the job is unknown to both the server and the log.
        """
        with self._jobs_lock:
            known = job_id in self._jobs
        known = known or job_id in self._recovered
        log = self.event_log
        logged = log is not None and log.has_job(job_id)
        if not known and not logged:
            raise TrialError(f"unknown job id {job_id}")
        subscription = (self._bus.subscribe(job_id, callback=callback,
                                            max_queue=max_queue)
                        if known else None)
        backfill = (log.read(job_id, after_seq=last_seq) if logged
                    else iter(()))
        return backfill, subscription

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def recover(self) -> Dict[str, List[Dict[str, object]]]:
        """Reconcile the durable event log with storage after a restart.

        For every job the log knows, compare its last logged event with the
        stored study status and take exactly one action:

        * **terminal logged** — the job ended before the crash; if storage
          still says ``queued``/``running`` (the status write lost the race
          with the kill), write the logged terminal status back
          (*reconciled*).  The terminal event re-registers on the bus at its
          original seq so late subscribers observe termination.
        * **non-terminal logged, storage terminal** — storage saw the end but
          the log's writer didn't; synthesize the matching terminal
          :class:`~repro.automl.events.JobStateChanged` (*finalised*).
        * **non-terminal logged, storage queued/running** — the process died
          mid-job.  When the log's metadata carries ``module:attr`` code
          refs, re-import them and re-enqueue the study's remainder under
          the job's **original id**, with its bus sequence primed past the
          last logged seq (*resumed*) — a client replaying from its last
          seen seq streams straight across the crash.  Without refs (or if
          the re-import fails) the job is finalised ``FAILED`` with an
          explanatory error.
        * **study missing from storage** — the rows were deleted behind the
          log; the orphan job log is dropped (*removed*).

        Job-id allocation continues after the highest recovered id, so new
        submits never collide with pre-crash ids.  Run this before serving
        traffic (``RemoteTuneServer(recover=True)`` / ``serve --recover``
        do); it must not race live publishes.

        Returns:
            A summary dict with ``resumed``, ``finalised``, ``reconciled``
            and ``removed`` lists of ``{"job_id", "study_name", ...}`` dicts.

        Raises:
            TrialError: the server has no file-backed storage (nothing to
                recover from).
        """
        log = self.event_log
        if log is None:
            raise TrialError("recover() needs file-backed storage with an "
                             "event log; pass storage= to AntTuneServer")
        summary: Dict[str, List[Dict[str, object]]] = {
            "resumed": [], "finalised": [], "reconciled": [], "removed": []}
        max_id = -1
        for job_id in log.jobs():
            max_id = max(max_id, job_id)
            meta = log.meta(job_id) or {}
            name = meta.get("study_name")
            if not isinstance(name, str) or not self.storage.study_exists(name):
                # The study's rows were deleted behind the log (or the meta
                # never landed): an event history annotating nothing.
                log.remove_job(job_id)
                summary["removed"].append(
                    {"job_id": job_id, "study_name": name})
                continue
            last = log.last_event(job_id)
            last_seq = -1 if last is None else last.seq
            stored = self.storage.study_status(name)
            if isinstance(last, JobStateChanged) and last.terminal:
                if stored in (JobState.QUEUED.value, JobState.RUNNING.value):
                    try:
                        self.storage.set_status(name, last.state)
                    except TrialError:  # pragma: no cover - raced delete
                        pass
                    summary["reconciled"].append(
                        {"job_id": job_id, "study_name": name,
                         "state": last.state})
                self._register_recovered_terminal(job_id, name, last, meta)
                continue
            if stored in (JobState.COMPLETED.value, JobState.FAILED.value,
                          JobState.CANCELLED.value):
                # Storage outran the log's writer at the crash: trust it.
                self._finalise_recovered(job_id, name, stored, None,
                                         last_seq + 1, meta)
                summary["finalised"].append(
                    {"job_id": job_id, "study_name": name, "state": stored})
                continue
            # The process died mid-job.  Auto-resume needs the code back.
            refs = meta.get("refs") if isinstance(meta.get("refs"), dict) \
                else {}
            error = None
            if "space" in refs and "objective" in refs:
                try:
                    self._resume_recovered(job_id, name, refs, meta, last_seq)
                    summary["resumed"].append(
                        {"job_id": job_id, "study_name": name})
                    continue
                except Exception as exc:  # noqa: BLE001 - an unimportable
                    # ref must fail this one job, not the whole recovery.
                    error = (f"auto-resume after server restart failed: "
                             f"{type(exc).__name__}: {exc}")
            else:
                error = ("interrupted by a server restart and not "
                         "auto-resumable: no space/objective code refs were "
                         "recorded at submit (resume() it manually)")
            self._finalise_recovered(job_id, name, JobState.FAILED.value,
                                     error, last_seq + 1, meta)
            summary["finalised"].append(
                {"job_id": job_id, "study_name": name,
                 "state": JobState.FAILED.value, "error": error})
        if max_id >= 0:
            self._next_job_id = itertools.count(max_id + 1)
        return summary

    def _resume_recovered(self, job_id: int, name: str,
                          refs: Dict[str, object], meta: Dict[str, object],
                          last_seq: int) -> None:
        """Re-enqueue an interrupted job from its logged code refs.

        The job keeps its **original id** and its bus stream is primed to
        continue one past the last durably logged seq, so the post-restart
        events extend the pre-restart history with no seq reuse — the
        contract ``?last_seq=`` replay depends on.
        """
        from repro.automl.remote.api import instantiate_ref, load_ref
        space = load_ref(refs["space"], "space")
        objective = load_ref(refs["objective"], "objective")
        if not callable(objective):
            raise TrialError(
                f"objective ref {refs['objective']!r} is not callable")
        algorithm = (instantiate_ref(refs["algorithm"], "algorithm")
                     if refs.get("algorithm") else None)
        pruner = (instantiate_ref(refs["pruner"], "pruner")
                  if refs.get("pruner") else None)
        study = self.storage.load_study(name, space, algorithm=algorithm,
                                        pruner=pruner)
        self._bus.prime(job_id, last_seq + 1)
        string_refs = {key: str(value) for key, value in refs.items()}
        trace_id = meta.get("trace_id")
        self._enqueue(job_id, study, objective, name, None,
                      priority=float(meta.get("priority", 1.0)),
                      preempt=bool(meta.get("preempt", False)),
                      allow_stored=True, refs=string_refs,
                      trace_id=trace_id if isinstance(trace_id, str) else None)

    def _finalise_recovered(self, job_id: int, name: str, state: str,
                            error: Optional[str], next_seq: int,
                            meta: Dict[str, object]) -> None:
        """End an unresumable job's stream with a synthesized terminal event.

        The event publishes through the bus (primed to continue the logged
        sequence) with the log's callback attached, so it is both durably
        appended and replayable from the bus — a reconnecting client sees the
        stream end instead of hanging on a job no process is running.
        """
        self._bus.prime(job_id, next_seq)
        self._bus.subscribe(job_id, callback=self.event_log.append)
        trace = meta.get("trace_id")
        self._bus.publish(JobStateChanged(
            state=state, error=error, terminal=True, job_id=job_id,
            trace_id=trace if isinstance(trace, str) else None))
        try:
            self.storage.set_status(name, state)
        except TrialError:  # pragma: no cover - raced delete
            pass
        self._recovered[job_id] = self._recovered_snapshot(
            job_id, name, state, error, meta, action="finalised")

    def _register_recovered_terminal(self, job_id: int, name: str,
                                     last: JobStateChanged,
                                     meta: Dict[str, object]) -> None:
        """Re-register an already-terminal logged job on the fresh bus.

        The logged terminal event is re-published at its **original seq**
        (bus primed to stamp exactly it) with no log subscription attached —
        the bus learns the stream ended without duplicating the log's last
        line, and in-process ``subscribe()`` on the old id replays the
        terminal immediately instead of hanging.
        """
        self._bus.prime(job_id, last.seq)
        self._bus.publish(JobStateChanged(state=last.state, error=last.error,
                                          terminal=True, job_id=job_id,
                                          trace_id=last.trace_id))
        self._recovered[job_id] = self._recovered_snapshot(
            job_id, name, last.state, last.error, meta, action="terminal")

    def _recovered_snapshot(self, job_id: int, name: str, state: str,
                            error: Optional[str], meta: Dict[str, object],
                            action: str) -> Dict[str, object]:
        """A status()-shaped terminal snapshot built from storage rows."""
        summary = self.storage.study_summary(name) or {}
        states = self.storage.trial_state_counts(name)
        return {
            "job_id": job_id,
            "state": state,
            "finished": True,
            "error": error,
            "num_trials": sum(states.values()),
            "states": states,
            "best_value": summary.get("best_value"),
            "priority": float(meta.get("priority", 1.0)),
            "preempt": bool(meta.get("preempt", False)),
            "workers": [],
            "study_name": name,
            "trace_id": (meta.get("trace_id")
                         if isinstance(meta.get("trace_id"), str) else None),
            "recovered": action,
            "telemetry": self._telemetry_snapshot(job_id),
        }

    def _run_job(self, job: TuneJob) -> None:
        """Dispatcher-side job body: run the study, never kill the dispatcher."""
        with job._state_lock:
            if job.cancel_requested or job.state is JobState.CANCELLED:
                # cancel() finalised the queued job already (or flagged it just
                # before we started): never run its study.  The terminal event
                # was (or is being) published by cancel() itself.
                job.state = JobState.CANCELLED
                job._done.set()
                return
            job.state = JobState.RUNNING
        self._publish_job_state(job)
        checkpoint_fn = None
        if self.storage is not None:
            storage, name, study = self.storage, job.study_name, job.study
            checkpoint_fn = lambda: storage.save_study(name, study,
                                                       status=JobState.RUNNING.value)
        self._governor.register(job.job_id, job.priority)
        if job.preempt:
            # Claim this job's share now: co-tenants' youngest excess trials
            # are killed (and requeued by their own schedulers) instead of
            # being waited out.
            self._preempt_for(job)
        executor = GovernedExecutor(self.executor, self._governor, job.job_id)
        try:
            job.study.optimize(job.objective, executor=executor,
                               scheduler=self.scheduler,
                               worker_names=job.workers,
                               checkpoint_path=job.checkpoint_path,
                               checkpoint_fn=checkpoint_fn)
            # The terminal transition takes the state lock so a concurrent
            # cancel() either lands before it (and wins: CANCELLED) or
            # observes `finished` and reports False — never a True return
            # against a job that finalises COMPLETED.
            with job._state_lock:
                job.state = (JobState.CANCELLED if job.cancel_requested
                             else JobState.COMPLETED)
        except TrialError as exc:
            with job._state_lock:
                cancelled = job.cancel_requested
                job.state = (JobState.CANCELLED if cancelled
                             else JobState.FAILED)
            if not cancelled:
                # A cancelled study may finish with zero completed trials;
                # that is cancellation, not failure.  Only the study's
                # all-trials-failed outcome gets the classic label; other
                # TrialErrors (e.g. a shut-down executor before any trial
                # ran) must not masquerade as trial failures.
                if job.study.trials and not completed_trials(job.study.trials):
                    job.error = f"every trial failed ({exc})"
                else:
                    job.error = str(exc)
        except BaseException as exc:  # noqa: BLE001 - a job must never take the
            # dispatcher thread (and with it every queued job) down with it.
            with job._state_lock:
                cancelled = job.cancel_requested
                job.state = (JobState.CANCELLED if cancelled
                             else JobState.FAILED)
            if not cancelled:
                job.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._governor.unregister(job.job_id)
            if self.storage is not None:
                try:
                    self.storage.save_study(job.study_name, job.study,
                                            status=job.state.value)
                except Exception as exc:  # a dying storage must not leave the
                    # job un-finished: wait() would block forever on _done.
                    job.error = job.error or f"storage save failed: {exc}"
            # The terminal event: subscriptions drain and close on it.
            self._publish_job_state(job, terminal=True)
            job._done.set()

    @staticmethod
    def _select_victims(trials: List[Trial], excess: int) -> List[Trial]:
        """Pick ``excess`` preemption victims by least reported progress.

        The cost model sheds the cheapest work first: a trial that has
        streamed the fewest telemetry reports has the least invested compute
        to throw away (its requeued re-run repeats the least), with the
        youngest trial id breaking ties — so a nearly-done trial is spared
        even when it happens to be the youngest.
        """
        return sorted(
            trials,
            key=lambda t: (len(t.intermediate_values), -t.trial_id))[:excess]

    def _preempt_for(self, job: TuneJob) -> None:
        """Kill co-tenants' least-progressed trials beyond their new share.

        Called once when a ``preempt=True`` job starts (after its weight
        registered with the governor).  Victims are chosen by
        :meth:`_select_victims` — fewest streamed reports first, youngest
        trial id as the tiebreak — and get the ``preempted`` kill reason:
        their objectives stop at the next ``report()``, their schedulers
        requeue the same configurations without charging a budget slot or a
        retry, and the freed pool slots go to the new job within one
        scheduling tick.
        """
        with self._jobs_lock:
            others = [other for other in self._jobs.values()
                      if other.job_id != job.job_id
                      and other.state is JobState.RUNNING]
        if not others:
            return
        try:
            executor = self.executor
        except TrialError:
            return  # shutting down: nothing left to preempt for
        # Pull the freshest progress counts before costing victims: process
        # workers' reports only become visible to the parent on a drain.
        executor.drain_telemetry()
        running: Dict[int, List[Trial]] = {}
        for other in others:
            with other.study._lock:
                running[other.job_id] = [
                    trial for trial in other.study.trials
                    if trial.state is TrialState.RUNNING
                    and trial.kill_reason is None]
        overage = self._governor.overage(
            {job_id: len(trials) for job_id, trials in running.items()})
        for other in others:
            excess = overage.get(other.job_id, 0)
            if excess <= 0:
                continue
            for trial in self._select_victims(running[other.job_id], excess):
                # Kill only; the TrialKilled event publishes from the
                # victim's own scheduler when it settles the trial, so the
                # event stream never shows a kill for (or sequenced after) a
                # trial that actually finished normally.
                executor.kill_trial(trial, KILL_PREEMPTED)

    # ------------------------------------------------------------------ #
    # Cancellation
    # ------------------------------------------------------------------ #
    def cancel(self, job_id: int) -> bool:
        """Cancel a queued or running job; terminal state is ``CANCELLED``.

        A queued job is finalised immediately (its ``_done`` event fires and
        its CANCELLED status persists to storage without waiting for a
        dispatcher slot).  A running job's study observes the stop request at
        its next scheduling tick: in-flight trials — including remote
        process-backend ones — are killed and recorded ``CANCELLED``.

        Args:
            job_id: the job to cancel.

        Returns:
            True if the job was (or will shortly be) cancelled; False if it
            had already finished.

        Raises:
            TrialError: unknown job id.
        """
        if job_id in self._recovered:
            return False  # terminal before this process started
        job = self._get(job_id)
        with job._state_lock:
            if job.finished:
                return False
            job.cancel_requested = True
            finalise_queued = job.state is JobState.QUEUED
            if finalise_queued:
                job.state = JobState.CANCELLED
        # Outside the state lock: the running study stops at its next tick.
        job.study.request_stop()
        if finalise_queued:
            if self.storage is not None:
                try:
                    self.storage.save_study(job.study_name, job.study,
                                            status=JobState.CANCELLED.value)
                except Exception as exc:  # noqa: BLE001 - never block cancel
                    job.error = f"storage save failed: {exc}"
            # Queued jobs terminate here (no dispatcher run will): close the
            # stream.  Running jobs get their terminal event from _run_job.
            self._publish_job_state(job, terminal=True)
            job._done.set()
        return True

    # ------------------------------------------------------------------ #
    # Client-facing queries
    # ------------------------------------------------------------------ #
    def poll(self, job_id: int) -> Dict[str, object]:
        """A non-blocking snapshot of one job's progress (see :meth:`status`)."""
        return self.status(job_id)

    def wait(self, job_id: int, timeout: Optional[float] = None) -> Trial:
        """Block until a job finishes and return its best trial.

        Args:
            job_id: the job to wait on.
            timeout: seconds to wait before giving up (None = forever).

        Returns:
            The best completed trial.

        Raises:
            TrialError: the job failed, was cancelled, timed out, or finished
                without any successful trial.
        """
        if job_id in self._recovered:
            return self._wait_recovered(job_id)
        job = self._get(job_id)
        if not job._done.wait(timeout):
            raise TrialError(f"job {job_id} still running after {timeout}s")
        if job.state is JobState.CANCELLED:
            raise TrialError(f"job {job_id} was cancelled")
        if job.state is JobState.FAILED:
            raise TrialError(f"job {job_id}: {job.error}")
        try:
            return job.study.best_trial
        except TrialError as exc:
            # raise_on_all_failed=False lets a study complete with zero
            # usable trials; surface that as this job's outcome, not as a
            # bare best-trial lookup error.
            raise TrialError(
                f"job {job_id} completed without any successful trial "
                f"(raise_on_all_failed=False)") from exc

    def _wait_recovered(self, job_id: int) -> Trial:
        """wait() for a pre-restart job: answer from its stored trial rows."""
        snapshot = self._recovered[job_id]
        state, name = snapshot["state"], snapshot["study_name"]
        if state == JobState.CANCELLED.value:
            raise TrialError(f"job {job_id} was cancelled")
        if state == JobState.FAILED.value:
            raise TrialError(f"job {job_id}: {snapshot['error']}")
        summary = self.storage.study_summary(name) or {}
        records = [record for record
                   in self.storage.load_payload(name)["trials"]
                   if record.get("state") == TrialState.COMPLETED.value
                   and record.get("value") is not None]
        if not records:
            raise TrialError(
                f"job {job_id} completed without any successful trial")
        best = (max if summary.get("maximize", True) else min)(
            records, key=lambda record: record["value"])
        from repro.automl.remote.api import trial_from_record
        return trial_from_record(best)

    def status(self, job_id: int) -> Dict[str, object]:
        """Job state plus per-trial-state counts (consistent mid-run).

        Because in-flight trials stream their intermediate values live, the
        snapshot's ``num_trials``/``states`` reflect work in progress, not
        just finished trials.

        Args:
            job_id: the job to inspect.

        Returns:
            A dict with ``job_id``, ``state``, ``finished``, ``error``,
            ``num_trials``, per-state ``states`` counts, ``best_value``
            (COMPLETED trials only), ``priority``, ``workers``,
            ``study_name``, ``trace_id`` (the correlation id stamped on the
            job's events) and a ``telemetry`` sub-dict making backpressure
            observable end to end: ``transport_dropped`` (report records
            shed by the shared executor's telemetry channel — server-wide,
            the pool is shared) and ``event_queue_dropped`` (events shed by
            this job's lagging subscriber queues).

        Raises:
            TrialError: unknown job id.
        """
        snapshot = self._recovered.get(job_id)
        if snapshot is not None:
            # A pre-restart job: its snapshot (built from storage rows at
            # recovery time) answers, with "recovered" marking how it ended.
            return dict(snapshot)
        job = self._get(job_id)
        study = job.study
        with study._lock:
            trials = list(study.trials)
        states: Dict[str, int] = {}
        best_value: Optional[float] = None
        for trial in trials:
            states[trial.state.value] = states.get(trial.state.value, 0) + 1
            # Only COMPLETED trials count: a TIMED_OUT trial may carry a value
            # the job will never return through wait()/best_trial.
            if trial.state is TrialState.COMPLETED and trial.value is not None:
                if best_value is None or (trial.value > best_value
                                          if study.config.maximize
                                          else trial.value < best_value):
                    best_value = trial.value
        return {
            "job_id": job_id,
            "state": job.state.value,
            "finished": job.finished,
            "error": job.error,
            "num_trials": len(trials),
            "states": states,
            "best_value": best_value,
            "priority": job.priority,
            "preempt": job.preempt,
            "workers": list(job.workers),
            "study_name": job.study_name,
            "trace_id": job.trace_id,
            "telemetry": self._telemetry_snapshot(job_id),
        }

    def _transport_dropped(self) -> int:
        """Telemetry report records shed by the shared executor (0 if unbuilt)."""
        with self._init_lock:
            executor = self._executor
        return 0 if executor is None else executor.telemetry_dropped

    def _telemetry_snapshot(self, job_id: Optional[int] = None) -> Dict[str, int]:
        """The one backpressure dict every status shape embeds.

        ``transport_dropped`` is server-wide either way (the worker pool is
        shared); ``event_queue_dropped`` is scoped to ``job_id`` when given,
        or summed across every job's subscriber queues otherwise.  Both
        counters are cumulative for the process lifetime — they survive pool
        rebuilds and bus re-priming — and are also exported as the
        ``anttune_transport_dropped_total`` / ``anttune_event_queue_dropped_total``
        metric families.  The dict's keys are a **deprecated alias**: new
        consumers should scrape ``/v1/metrics`` or read
        ``server_status()["metrics"]`` instead.
        """
        dropped = (self._bus.dropped(job_id) if job_id is not None
                   else self._bus.dropped_total())
        return {
            "transport_dropped": self._transport_dropped(),
            "event_queue_dropped": dropped,
        }

    def jobs(self) -> List[Dict[str, object]]:
        """Status snapshots of every job on this server, oldest first.

        Includes terminal snapshots of pre-restart jobs registered by
        :meth:`recover`, so a reconnecting client's job listing is complete
        across a crash.
        """
        with self._jobs_lock:
            job_ids = set(self._jobs)
        job_ids.update(self._recovered)
        return [self.status(job_id) for job_id in sorted(job_ids)]

    def server_status(self) -> Dict[str, object]:
        """A server-wide snapshot: configuration, job counts, backpressure.

        This is what the remote layer serves as ``GET /v1/status``: pool
        sizing, how many jobs are in each lifecycle state, and a structured
        ``metrics`` section — the full
        :meth:`~repro.automl.metrics.MetricsRegistry.snapshot` of every
        instrumented hot path (scheduler ticks, ask/tell latency, trial
        queue-wait/run times, event publish/append/fsync timings, drop
        counters).  The flat ``telemetry`` sub-dict (``transport_dropped``,
        ``event_queue_dropped``) is kept as a deprecated alias of the
        corresponding counter families; prefer ``metrics`` or the
        ``GET /v1/metrics`` Prometheus exposition.
        """
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        job_states: Dict[str, int] = {}
        for job in jobs:
            job_states[job.state.value] = job_states.get(job.state.value, 0) + 1
        for snapshot in self._recovered.values():
            state = snapshot["state"]
            job_states[state] = job_states.get(state, 0) + 1
        log = self.event_log
        tickets = None
        if self.backend == "ticket" and self._executor is not None:
            board = getattr(self._executor, "board_status", None)
            if board is not None:
                tickets = board()
        return {
            "num_workers": self.num_workers,
            "max_concurrent_jobs": self.max_concurrent_jobs,
            "backend": self.backend,
            "num_jobs": len(jobs) + len(self._recovered),
            "job_states": job_states,
            "tickets": tickets,
            "storage": None if self.storage is None else self.storage.path,
            "event_log": None if log is None else log.stats(),
            # Deprecated alias kept for older clients; the same counters (and
            # much more) live in the structured "metrics" section below.
            "telemetry": self._telemetry_snapshot(),
            "metrics": _metrics.REGISTRY.snapshot(),
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> None:
        """Stop the dispatcher and release the worker pool (idempotent).

        With ``wait=True`` (default) queued and running jobs drain on the
        existing pool first; the pool is released only afterwards, and no new
        pool can be created once the server is closed.  A storage the server
        opened from a path is closed last (its SQLite connection and event
        log segments) once every job has finished and every storage writer
        has exited; with ``wait=False`` and jobs still draining it stays
        open for them, and a later ``shutdown()`` closes it.  A
        :class:`StudyStorage` passed in stays open.

        Args:
            wait: block until in-flight jobs drain before closing the pool.
        """
        with self._jobs_lock:
            has_pending = any(not job.finished for job in self._jobs.values())
        if has_pending:
            try:
                # Materialise the lazy pool before closing so draining jobs
                # that haven't touched it yet don't hit the closed guard.
                self.executor
            except TrialError:
                pass  # already closed by a concurrent/repeated shutdown
        with self._init_lock:
            self._closed = True
            dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.shutdown(wait=wait)
        with self._init_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            # close(), not shutdown(): a job still draining (wait=False) must
            # not silently rebuild the pool and leak its workers.
            executor.close()
        # Flush-on-close: every finished job's terminal event has published
        # by now (the dispatcher drained above), so its storage writer is
        # finishing its last commits — join them so no trial rows are lost.
        # The timeout only bounds a wedged storage; writers are daemons.
        with self._writers_lock:
            writers = list(self._writers)
        for thread in writers:
            thread.join(timeout=10.0 if wait else 0.25)
        with self._writers_lock:
            # A writer still running stays tracked, so a later shutdown()
            # joins it before closing the storage under it.
            self._writers = [t for t in self._writers if t.is_alive()]
            writing = bool(self._writers)
        log = self.event_log
        if log is not None:
            # Everything published above is already flushed per append; this
            # settles the stronger fsync durability before the process exits.
            log.flush()
        with self._jobs_lock:
            draining = any(not job.finished for job in self._jobs.values())
        if self._owns_storage and not draining and not writing:
            self.storage.close()

    def __enter__(self) -> "AntTuneServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def _get(self, job_id: int) -> TuneJob:
        with self._jobs_lock:
            if job_id not in self._jobs:
                raise TrialError(f"unknown job id {job_id}")
            return self._jobs[job_id]


class AntTuneClient:
    """The SDK-side view: submit a space + objective, poll or wait, fetch the best."""

    def __init__(self, server: Optional[AntTuneServer] = None) -> None:
        self.server = server or AntTuneServer()

    def submit(self, space: SearchSpace, objective: Objective, **kwargs: object) -> int:
        """Enqueue a job on the server and return its id (non-blocking).

        Keyword arguments pass through to :meth:`AntTuneServer.submit`
        (``priority=``, ``pruner=``, ``study_name=``, ...).
        """
        return self.server.submit(space, objective, **kwargs)

    def poll(self, job_id: int) -> Dict[str, object]:
        """Non-blocking progress snapshot (see :meth:`AntTuneServer.status`)."""
        return self.server.poll(job_id)

    def wait(self, job_id: int, timeout: Optional[float] = None) -> Trial:
        """Block for a job's best trial (see :meth:`AntTuneServer.wait`)."""
        return self.server.wait(job_id, timeout=timeout)

    def cancel(self, job_id: int) -> bool:
        """Cancel a queued or running job (see :meth:`AntTuneServer.cancel`)."""
        return self.server.cancel(job_id)

    def subscribe(self, job_id: int, **kwargs: object) -> Subscription:
        """Follow a job's event stream (see :meth:`AntTuneServer.subscribe`)."""
        return self.server.subscribe(job_id, **kwargs)

    def tune(self, space: SearchSpace, objective: Objective,
             algorithm: Optional[SearchAlgorithm] = None,
             config: Optional[StudyConfig] = None,
             pruner: Optional[Pruner] = None,
             rng: Optional[np.random.Generator] = None) -> Trial:
        """Submit a job, run it to completion and return the best trial.

        Args:
            space: the search space to explore.
            objective: callable evaluated per trial.
            algorithm: search algorithm (default RACOS seeded per job).
            config: study limits and budget.
            pruner: early-stopping policy.
            rng: explicit RNG stream.

        Returns:
            The best completed trial.
        """
        job_id = self.server.submit(space, objective, algorithm=algorithm, config=config,
                                    pruner=pruner, rng=rng)
        return self.server.wait(job_id)
