"""Trial executors: the worker pool behind :meth:`repro.automl.study.Study.optimize`.

The paper's tune server (Fig. 8) dispatches generated trials to a pool of
distributed executors and collects the reported metrics.  This module provides
the in-process equivalent of that pool:

* :class:`SynchronousExecutor` runs each trial inline on the calling thread
  (the ``n_workers=1`` case): ``submit`` returns an already-resolved future.
* :class:`ThreadPoolTrialExecutor` runs up to ``n_workers`` trials
  concurrently on a :class:`concurrent.futures.ThreadPoolExecutor`.  It
  survives worker death: if the underlying pool becomes unusable the
  executor transparently rebuilds it and resubmits.
* :class:`ProcessPoolTrialExecutor` runs trials in separate worker processes,
  sidestepping the GIL for CPU-bound objectives.  Objectives (and their
  sampled parameters) must be picklable; each worker process derives its own
  RNG (:func:`worker_rng`) so stochastic objectives stay reproducible per
  process.

Live trial telemetry
--------------------

Every executor exposes the same two telemetry hooks, so schedulers treat all
backends uniformly:

* :meth:`TrialExecutor.drain_telemetry` mirrors intermediate values reported
  by in-flight trials into the caller's :class:`~repro.automl.trial.Trial`
  objects.  Thread and sync backends share the trial object with the
  objective, so reports land directly and the drain is a no-op; the process
  backend streams ``(ticket, step, value)`` records through a shared-memory
  ring (:class:`~repro.automl.transport.TelemetryTransport`) and the drain
  empties it.
* :meth:`TrialExecutor.kill_trial` delivers a kill signal (deadline, prune,
  cancel or preempt).  Local backends mark the shared trial; the process
  backend also sets the submission's kill flag in the shared-memory
  transport, which the remote worker reads (one array load, no RPC) on every
  ``trial.report(...)`` — so a killed remote trial stops at its next report
  instead of running to its deadline.

Executors only *run* trials: ``submit`` returns a future and nothing more.
Waiting, deadlines (stragglers are killed cooperatively and their late
results discarded), cancellation and retries live in the one dispatch loop of
:mod:`repro.automl.scheduler`; proposing configurations (``ask``) and feeding
results back into the search algorithm (``tell``) stay inside the study, which
serialises them under a lock so any sequential algorithm works unchanged.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.sharedctypes import Synchronized

import numpy as np

from repro.automl import metrics as _metrics
from repro.automl.transport import TelemetryTransport
from repro.automl.trial import (
    KILL_CANCELLED,
    KILL_DEADLINE,
    PrunedTrial,
    Trial,
    TrialCancelled,
    TrialState,
)

__all__ = [
    "TrialCancelled",
    "execute_trial",
    "expire_trial",
    "TrialExecutor",
    "TrialExecutorClosed",
    "SynchronousExecutor",
    "ThreadPoolTrialExecutor",
    "ProcessPoolTrialExecutor",
    "worker_rng",
    "make_executor",
]

EXECUTOR_BACKENDS = ("auto", "sync", "thread", "process", "ticket")

# Parent-side trial metrics, labelled per backend.  Recorded from future
# done-callbacks so the process backend (whose objective runs in another
# interpreter) is observed exactly like the local ones.
_QUEUE_WAIT_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_trial_queue_wait_seconds",
    "Seconds a submitted trial waited before its objective started.",
    labels=("backend",))
_RUN_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_trial_run_seconds",
    "Trial objective wall-clock runtime (terminal trials).",
    labels=("backend",))
_TRIALS_TOTAL = _metrics.REGISTRY.counter(
    "anttune_trials_total", "Trials resolved, by backend and terminal state.",
    labels=("backend", "state"))
_TRANSPORT_DROPPED = _metrics.REGISTRY.counter(
    "anttune_transport_dropped_total",
    "Intermediate report records shed by the shared-memory telemetry ring. "
    "Cumulative across pool rebuilds (mirrors TrialExecutor.telemetry_dropped).",
    labels=("backend",))


class TrialExecutorClosed(RuntimeError):
    """Submitting to an executor after ``close()``: no pool rebuild allowed."""

Objective = Callable[[Trial], float]


def execute_trial(objective: Objective, trial: Trial,
                  trial_time_limit: Optional[float] = None) -> Trial:
    """Run ``objective`` on ``trial`` and record outcome, duration and errors.

    This is the single place where a trial's lifecycle transitions happen, on
    every backend (it also runs worker-side inside process workers).  A kill signal observed while the objective ran maps to
    the matching terminal state: deadline kills to ``TIMED_OUT``, prune kills
    to ``PRUNED``, job cancellation to ``CANCELLED``.  If the canceller's
    bookkeeping already recorded a terminal state, the late outcome is
    discarded so the algorithm's view stays consistent.

    Args:
        objective: the user callable evaluated on the trial.
        trial: the trial to run; mutated in place.
        trial_time_limit: wall-clock budget used to post-hoc mark an overlong
            (but completed) run as ``TIMED_OUT``.

    Returns:
        The same ``trial``, now in a terminal state.
    """
    start = time.perf_counter()
    trial.started_at = start
    try:
        value = objective(trial)
        outcome, result, error = TrialState.COMPLETED, float(value), None
    except (PrunedTrial, TrialCancelled) as exc:
        outcome = trial.killed_state
        if outcome is None:
            # The objective raised on its own (cooperative should_prune(), or
            # a legacy TrialCancelled): classify by the exception type.
            outcome = (TrialState.TIMED_OUT if isinstance(exc, TrialCancelled)
                       else TrialState.PRUNED)
        result, error = None, None
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - fault tolerance: even SystemExit
        # from a dying worker must not leave the trial stuck in RUNNING.
        outcome, result = TrialState.FAILED, None
        error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}"
    duration = time.perf_counter() - start
    with trial._state_lock:
        if trial.is_finished:
            # A straggler finishing after its canceller already recorded a
            # terminal state (deadline or job cancellation): the algorithm has
            # been — or is about to be — told that state, so the whole late
            # outcome (value, error, duration) is discarded, keeping the
            # canceller's bookkeeping intact.
            return trial
        trial.value = result
        trial.error = error
        trial.state = outcome
        trial.duration_seconds = duration
        if (outcome == TrialState.COMPLETED and trial_time_limit is not None
                and duration > trial_time_limit):
            trial.state = TrialState.TIMED_OUT
    return trial


def expire_trial(trial: Trial, future: "Future[Trial]", limit: float,
                 reason: str = KILL_DEADLINE) -> None:
    """Kill a trial (deadline passed or job cancelled) and record its state.

    A trial whose future could still be cancelled never ran: under a deadline
    kill it is recorded FAILED (retryable starvation), not TIMED_OUT; under a
    job cancellation it is recorded CANCELLED either way.  A running straggler
    is killed cooperatively and recorded TIMED_OUT (deadline) or CANCELLED
    (job cancel); its late result is discarded on arrival.

    Args:
        trial: the in-flight trial.
        future: its executor future (cancelled when still queued).
        limit: the per-trial time limit, recorded as the duration of a
            timed-out straggler.
        reason: :data:`~repro.automl.trial.KILL_DEADLINE` (default) or
            :data:`~repro.automl.trial.KILL_CANCELLED`.
    """
    trial.kill(reason)  # cooperative: Trial.report raises from now on
    never_started = future.cancel()
    with trial._state_lock:
        if trial.is_finished:
            return
        if reason == KILL_CANCELLED:
            trial.state = TrialState.CANCELLED
        elif never_started:
            trial.state = TrialState.FAILED
            trial.error = ("trial never started: worker pool starved at "
                           "the deadline")
        else:
            trial.state = TrialState.TIMED_OUT
            trial.duration_seconds = limit


class TrialExecutor:
    """Minimal pool interface: submit trials, relay telemetry, shut down.

    Subclasses provide the pool; the base class supplies the default (local,
    shared-object) telemetry behaviour.
    """

    n_workers: int = 1

    #: Metrics label for this executor's pool flavour.
    backend_name: str = "custom"

    def _observe_trial(self, trial: Trial,
                       future: "Future[Trial]") -> "Future[Trial]":
        """Attach per-trial metric recording to a submission's future.

        Records, when the future resolves: the terminal-state counter, the
        queue wait (submit -> observed start) and the objective runtime —
        all labelled with :attr:`backend_name`.  Metric failures are
        swallowed; observation must never break result delivery.
        """
        submitted = time.perf_counter()
        backend = self.backend_name

        def _done(_: "Future[Trial]") -> None:
            try:
                state = trial.state.value if trial.is_finished else "unknown"
                _TRIALS_TOTAL.labels(backend=backend, state=state).inc()
                started = trial.started_at
                if started is not None and started >= submitted:
                    _QUEUE_WAIT_SECONDS.labels(backend=backend).observe(
                        started - submitted)
                duration = trial.duration_seconds
                if duration is not None:
                    _RUN_SECONDS.labels(backend=backend).observe(duration)
            except Exception:  # noqa: BLE001 - never fail the done-callback
                pass
        future.add_done_callback(_done)
        return future

    def submit(self, objective: Objective, trial: Trial,
               trial_time_limit: Optional[float] = None) -> "Future[Trial]":
        """Schedule one trial and return a future resolving to it.

        Args:
            objective: the user callable to evaluate.
            trial: the trial record to run and mutate.
            trial_time_limit: per-trial wall-clock budget (None = unlimited).

        Returns:
            A future whose result is ``trial`` once it reached a terminal
            state.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Live telemetry
    # ------------------------------------------------------------------ #
    def drain_telemetry(self) -> int:
        """Mirror streamed intermediate reports into the local trials.

        Thread and sync backends share trial objects with the objective, so
        reports are already visible and the drain is a no-op; the process
        backend overrides this to empty its shared-memory report ring.

        Returns:
            The number of reports mirrored by this call.
        """
        return 0

    @property
    def telemetry_dropped(self) -> int:
        """Report records shed by the telemetry channel since construction.

        Thread and sync backends share trial objects with the objective, so
        nothing is ever shed (0); the process backend reports its
        shared-memory ring's overflow count — cumulative across pool rebuilds
        — so backpressure is observable through ``server.status()``.
        """
        return 0

    def kill_trial(self, trial: Trial, reason: str = KILL_CANCELLED) -> None:
        """Deliver a kill signal to an in-flight trial (cooperative).

        The objective observes the kill at its next ``trial.report(...)``.
        The process backend overrides this to also signal the remote worker.

        Args:
            trial: the trial to stop.
            reason: a kill reason from :mod:`repro.automl.trial`
                (``KILL_DEADLINE``, ``KILL_PRUNED``, ``KILL_CANCELLED`` or
                ``KILL_PREEMPTED``).
        """
        trial.kill(reason)

    def shutdown(self) -> None:
        """Release pool resources (idempotent; a later submit may rebuild)."""

    def close(self) -> None:
        """Shut down *permanently*: no submit may rebuild the pool afterwards.

        ``shutdown`` models recoverable worker death (the pool is rebuilt on
        the next submit); ``close`` is for owners going away for good — e.g.
        the tune server — where a silent rebuild would leak worker threads.
        """
        self.shutdown()

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class SynchronousExecutor(TrialExecutor):
    """Runs every trial inline on the calling thread (``n_workers=1``).

    There is no concurrency to stream telemetry into: the trial has finished
    before the scheduler's next tick, so pruning happens cooperatively inside
    the objective (``trial.should_prune()``).
    """

    n_workers = 1
    backend_name = "sync"

    def submit(self, objective: Objective, trial: Trial,
               trial_time_limit: Optional[float] = None) -> "Future[Trial]":
        """Run the trial inline and return an already-resolved future."""
        future: "Future[Trial]" = Future()
        self._observe_trial(trial, future)
        future.set_result(execute_trial(objective, trial, trial_time_limit))
        return future


class ThreadPoolTrialExecutor(TrialExecutor):
    """Runs trials on a ``ThreadPoolExecutor`` with fault-tolerant resubmission.

    Worker death (a pool that raises on submit, e.g. after an interpreter-level
    failure marked it broken) is handled by rebuilding the pool once per
    submission attempt, so a study survives losing its workers mid-flight.
    Trials share their objects with the objective threads, so intermediate
    reports are immediately visible to the scheduler and kill signals take
    effect at the straggler's next report.
    """

    backend_name = "thread"

    def __init__(self, n_workers: int, thread_name_prefix: str = "anttune-worker") -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self._thread_name_prefix = thread_name_prefix
        self._pool_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise TrialExecutorClosed("executor has been closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_workers,
                    thread_name_prefix=self._thread_name_prefix)
            return self._pool

    def _discard_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def submit(self, objective: Objective, trial: Trial,
               trial_time_limit: Optional[float] = None) -> "Future[Trial]":
        """Schedule the trial on the thread pool (rebuilding a broken pool once).

        Raises:
            TrialExecutorClosed: the executor was permanently closed.
        """
        try:
            future = self._ensure_pool().submit(execute_trial, objective,
                                                trial, trial_time_limit)
        except RuntimeError:
            # BrokenThreadPool subclasses RuntimeError; a shut-down pool raises
            # RuntimeError too.  Rebuild once and resubmit.
            self._discard_pool()
            future = self._ensure_pool().submit(execute_trial, objective,
                                                trial, trial_time_limit)
        return self._observe_trial(trial, future)

    def shutdown(self) -> None:
        """Release the pool; a later submit transparently rebuilds it."""
        self._discard_pool()

    def close(self) -> None:
        """Release the pool permanently; further submits raise."""
        with self._pool_lock:
            self._closed = True
        self.shutdown()


# --------------------------------------------------------------------------- #
# Process-pool backend
# --------------------------------------------------------------------------- #
_WORKER_RNG: Optional[np.random.Generator] = None
_THREAD_RNGS = threading.local()
# Telemetry endpoint inside a worker process (set by the pool initializer):
# the shared-memory transport carries (ticket, step, value) reports up and
# per-submission kill flags down (read on every report, one array load).
_WORKER_TRANSPORT: Optional[TelemetryTransport] = None


def _init_process_worker(base_seed: int, worker_counter: "Synchronized",
                         transport: Optional[TelemetryTransport] = None) -> None:
    """Process-pool initializer: derive this worker's RNG, wire telemetry.

    The shared counter hands each worker a deterministic index 0..n-1, so for
    a fixed ``base_seed`` the pool's RNG streams are reproducible across runs
    (pids are not).  ``transport`` is the shared-memory telemetry channel to
    the parent process.
    """
    global _WORKER_RNG, _WORKER_TRANSPORT
    with worker_counter.get_lock():
        worker_index = worker_counter.value
        worker_counter.value += 1
    _WORKER_RNG = np.random.default_rng([int(base_seed), worker_index])
    _WORKER_TRANSPORT = transport


def worker_rng() -> np.random.Generator:
    """The per-worker RNG available to objectives running on an executor.

    Inside a :class:`ProcessPoolTrialExecutor` worker the generator is derived
    from the executor's ``base_seed`` and the worker's index in the pool, so
    two workers never share a stream and a fixed ``base_seed`` reproduces the
    same streams across runs.  Outside a process worker (thread or sync
    backend) each *thread* lazily gets its own generator derived from
    (pid, thread id) — numpy generators are not thread-safe, so the streams
    must not be shared across pool threads.

    Returns:
        The calling worker's (or thread's) private generator.
    """
    if _WORKER_RNG is not None:
        return _WORKER_RNG
    rng = getattr(_THREAD_RNGS, "rng", None)
    if rng is None:
        rng = np.random.default_rng([os.getpid(), threading.get_ident()])
        _THREAD_RNGS.rng = rng
    return rng


def _telemetry_hook(ticket: int, kill_slot: int):
    """Worker-side report hook: stream the value up, observe kill signals."""
    def _hook(trial: Trial, value: float, step: Optional[int]) -> None:
        transport = _WORKER_TRANSPORT
        if transport is None:
            return
        try:
            transport.push(ticket, len(trial.intermediate_values) - 1, value)
        except Exception:  # noqa: BLE001 - a torn-down parent transport must
            pass           # never crash a worker mid-objective.
        reason = transport.kill_reason(kill_slot)
        if reason is not None:
            trial.kill(reason)
            trial._raise_if_killed()
    return _hook


def _run_trial_in_process(objective: Objective, params: Dict[str, object],
                          trial_id: int, ticket: int, kill_slot: int,
                          worker: Optional[str],
                          trial_time_limit: Optional[float]) -> Dict[str, object]:
    """Worker-side entry point: rebuild the trial, run it, ship the record back."""
    trial = Trial(trial_id=trial_id, params=params, worker=worker,
                  state=TrialState.RUNNING)
    trial._report_hook = _telemetry_hook(ticket, kill_slot)
    execute_trial(objective, trial, trial_time_limit)
    return trial.as_record()


class _MergedFuture(Future):
    """A future resolving to the *local* trial once the remote record merged.

    ``cancel`` delegates to the underlying pool future so the scheduler's
    deadline logic can still distinguish never-started work (retryable FAILED) from a
    running straggler (TIMED_OUT).
    """

    def __init__(self) -> None:
        super().__init__()
        self._raw: Optional[Future] = None

    def attach(self, raw: Future) -> None:
        self._raw = raw

    def cancel(self) -> bool:
        if self._raw is None:
            return super().cancel()
        return self._raw.cancel()

    def running(self) -> bool:
        if self._raw is None:
            return super().running()
        return self._raw.running()


class ProcessPoolTrialExecutor(TrialExecutor):
    """Runs trials in worker processes (CPU-bound objectives, no GIL contention).

    Objectives and their parameters must be picklable.  The remote trial is a
    fresh object in the worker process, but it is *not* blind any more: every
    ``trial.report(...)`` pushes ``(ticket, step, value)`` into a
    shared-memory ring (:class:`~repro.automl.transport.TelemetryTransport`),
    :meth:`drain_telemetry` mirrors those values into the caller's trial
    objects mid-run, and :meth:`kill_trial` sets the submission's kill flag in
    the same transport so the remote objective's next report raises and the
    trial stops early (pruning, cancellation, deadlines, preemption).  There
    is no Manager proxy and no per-report RPC: the worker's kill check is a
    single shared-array read.  A broken pool (worker killed hard) is rebuilt
    transparently and the affected trials are recorded as FAILED, which the
    study's retry logic resubmits.
    """

    backend_name = "process"

    def __init__(self, n_workers: int, base_seed: int = 0) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.base_seed = int(base_seed)
        self._pool_lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        # Telemetry plumbing: tickets are executor-unique submission ids (two
        # jobs sharing this pool may both run a "trial 0", so trial_id alone
        # cannot key the channel).
        self._telemetry_lock = threading.Lock()
        self._ticket_counter = itertools.count()
        self._live: Dict[int, Trial] = {}            # ticket -> local trial
        self._ticket_by_trial: Dict[int, int] = {}   # id(trial) -> ticket
        # ticket -> (owning transport, kill slot): the transport reference is
        # kept per submission so a pool rebuild mid-flight can't release or
        # set a stale slot against the *new* transport's table.
        self._slot_by_ticket: Dict[int, tuple] = {}
        # Kills that raced submit() before its kill slot was assigned: the
        # reason parks here and is applied the moment the slot exists, so the
        # remote signal is never lost in that window.
        self._pending_kills: Dict[int, str] = {}
        self._transport: Optional[TelemetryTransport] = None
        # Ring-overflow drops accumulated from transports of discarded pools,
        # so telemetry_dropped stays cumulative across rebuilds.
        self._dropped_baseline = 0
        # How much of telemetry_dropped this instance already mirrored into
        # the anttune_transport_dropped_total metric (delta accounting, so
        # several executors in one process sum instead of clobbering).
        self._dropped_mirrored = 0

    def _ensure_pool(self) -> "tuple[ProcessPoolExecutor, TelemetryTransport]":
        """The live (pool, transport) pair, created together.

        Returned as a pair read under one lock hold: a concurrent rebuild
        must never let a submission pair the old pool with the new
        transport's kill slots (the worker would watch the wrong table).
        """
        with self._pool_lock:
            if self._closed:
                raise TrialExecutorClosed("executor has been closed")
            if self._pool is None:
                ctx = multiprocessing.get_context()
                self._transport = TelemetryTransport(ctx=ctx)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    initializer=_init_process_worker,
                    initargs=(self.base_seed, ctx.Value("i", 0),
                              self._transport))
            return self._pool, self._transport

    def _discard_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            if self._transport is not None:
                self._dropped_baseline += self._transport.dropped
            self._transport = None
        if pool is not None:
            pool.shutdown(wait=False)
        # The transport's shared memory is released with its last reference
        # (parent dict entries above, worker globals when the pool dies).
        self._mirror_dropped()

    def _submit_raw(self, objective: Objective, trial: Trial, ticket: int,
                    trial_time_limit: Optional[float]) -> Future:
        def args(pool_transport: Optional[TelemetryTransport]) -> tuple:
            # Slots are allocated per attempt from the transport created
            # *with* the pool being submitted to (a rebuilt pool gets a
            # fresh transport, and mixing the two would point the worker at
            # the wrong kill table).
            slot = (-1 if pool_transport is None
                    else pool_transport.allocate_kill_slot())
            with self._telemetry_lock:
                self._slot_by_ticket[ticket] = (pool_transport, slot)
                # A kill that raced us before the slot existed lands now
                # (trial.kill_reason also covers a kill consumed by a first
                # submit attempt whose pool then broke and was rebuilt).
                reason = self._pending_kills.pop(ticket, None) or trial.kill_reason
                if reason is not None and pool_transport is not None:
                    pool_transport.set_kill(slot, reason)
            return (objective, dict(trial.params), trial.trial_id, ticket,
                    slot, trial.worker, trial_time_limit)
        try:
            pool, transport = self._ensure_pool()
            return pool.submit(_run_trial_in_process, *args(transport))
        except RuntimeError:
            # BrokenProcessPool subclasses RuntimeError; rebuild once.
            self._discard_pool()
            pool, transport = self._ensure_pool()
            return pool.submit(_run_trial_in_process, *args(transport))

    def submit(self, objective: Objective, trial: Trial,
               trial_time_limit: Optional[float] = None) -> "Future[Trial]":
        """Ship the trial to a worker process; the future merges its record back.

        Raises:
            TrialExecutorClosed: the executor was permanently closed.
        """
        merged = _MergedFuture()
        ticket = next(self._ticket_counter)
        # Register before submitting: a fast worker's first report must find
        # its ticket, or the report would be silently dropped.
        with self._telemetry_lock:
            self._live[ticket] = trial
            self._ticket_by_trial[id(trial)] = ticket
        try:
            raw = self._submit_raw(objective, trial, ticket, trial_time_limit)
        except BaseException:
            self._forget(ticket, trial)
            raise
        merged.attach(raw)
        self._observe_trial(trial, merged)
        raw.add_done_callback(self._merge_into(trial, ticket, merged))
        return merged

    def _forget(self, ticket: int, trial: Trial) -> None:
        """Drop a finished submission from the telemetry registries."""
        with self._telemetry_lock:
            self._live.pop(ticket, None)
            self._ticket_by_trial.pop(id(trial), None)
            self._pending_kills.pop(ticket, None)
            transport, slot = self._slot_by_ticket.pop(ticket, (None, -1))
        if transport is not None:
            transport.release_kill_slot(slot)

    def drain_telemetry(self) -> int:
        """Empty the shared-memory report ring, mirroring into local trials.

        Returns:
            The number of reports mirrored by this call.
        """
        with self._pool_lock:
            transport = self._transport
        if transport is None:
            return 0
        mirrored = 0
        # One lock hold for the whole batch — and the drain itself happens
        # under it: two schedulers sharing this executor both tick, and
        # draining outside the lock would let their batches apply out of
        # order (later steps first), NaN-padding over real values.  Workers
        # pushing only contend for the transport's own lock, never this one.
        with self._telemetry_lock:
            for ticket, step, value in transport.drain():
                trial = self._live.get(ticket)
                if trial is None:
                    continue  # late report from an already-merged trial
                with trial._state_lock:
                    # The final record replaces the whole list on merge; until
                    # then mirror in step order.  A gap means ring overflow
                    # shed this trial's older records: pad the missing steps
                    # with NaN so the surviving report keeps its *true* index
                    # (the pruner and TrialReport steps stay honest, and
                    # mirroring keeps working after a burst) — the
                    # authoritative final record backfills the pads on merge.
                    if (not trial.is_finished
                            and step >= len(trial.intermediate_values)):
                        values = trial.intermediate_values
                        while len(values) < step:
                            values.append(float("nan"))
                        values.append(float(value))
                        mirrored += 1
        self._mirror_dropped()
        return mirrored

    def _mirror_dropped(self) -> None:
        """Mirror new drops into ``anttune_transport_dropped_total``.

        Delta accounting against what this instance already exported, so the
        metric keeps the counter contract (monotonic, cumulative across pool
        rebuilds) even with several process executors alive in one process.
        """
        total = self.telemetry_dropped
        with self._telemetry_lock:
            delta = total - self._dropped_mirrored
            if delta > 0:
                self._dropped_mirrored = total
        if delta > 0:
            _TRANSPORT_DROPPED.labels(backend=self.backend_name).inc(delta)

    @property
    def telemetry_dropped(self) -> int:
        """Report records shed to ring overflow since construction.

        **Cumulative across pool rebuilds**: when a broken pool is discarded,
        its transport's drop count folds into a baseline that every later
        read includes — the counter never goes backwards, matching the
        ``anttune_transport_dropped_total`` metric it feeds.
        """
        with self._pool_lock:
            live = 0 if self._transport is None else self._transport.dropped
            return self._dropped_baseline + live

    def kill_trial(self, trial: Trial, reason: str = KILL_CANCELLED) -> None:
        """Kill locally and signal the remote worker via the shared kill flag."""
        trial.kill(reason)
        with self._telemetry_lock:
            ticket = self._ticket_by_trial.get(id(trial))
            if ticket is None or ticket not in self._live:
                # Already merged: the flag's slot has been (or is being)
                # recycled — setting it now could kill an unrelated later
                # submission.
                return
            entry = self._slot_by_ticket.get(ticket)
            if entry is None:
                # submit() registered the ticket but has not assigned its
                # kill slot yet: park the reason; args() applies it as soon
                # as the slot exists, so the remote signal is never lost.
                self._pending_kills[ticket] = reason
                return
            transport, slot = entry
            # Set under the lock: _forget() pops the slot under the same lock
            # first, so either it sees our entry and clears the flag on
            # release, or we saw the ticket gone and skipped the write.
            if transport is not None:
                transport.set_kill(slot, reason)

    def _merge_into(self, trial: Trial, ticket: int,
                    merged: _MergedFuture) -> Callable[[Future], None]:
        def _done(raw: Future) -> None:
            self._forget(ticket, trial)
            if raw.cancelled():
                with trial._state_lock:
                    if not trial.is_finished:
                        trial.state = TrialState.FAILED
                        trial.error = ("trial never started: worker pool "
                                       "starved at the deadline")
                merged.set_result(trial)
                return
            exc = raw.exception()
            if exc is not None:
                # Unpicklable objective/result or a pool broken by a dying
                # worker: record as FAILED (retryable), never crash the study.
                with trial._state_lock:
                    if not trial.is_finished:
                        trial.state = TrialState.FAILED
                        trial.error = f"{type(exc).__name__}: {exc}"
                merged.set_result(trial)
                return
            record = raw.result()
            with trial._state_lock:
                if not trial.is_finished:
                    # A canceller that already recorded a terminal state wins;
                    # otherwise the remote record is authoritative.
                    trial.state = TrialState(record["state"])
                    trial.value = record["value"]
                    trial.error = record["error"]
                    trial.duration_seconds = float(record["duration_seconds"])
                    trial.intermediate_values = [
                        float(v) for v in record["intermediate_values"]]
            merged.set_result(trial)
        return _done

    def shutdown(self) -> None:
        """Release the pool and telemetry transport (rebuilt on demand)."""
        self._discard_pool()

    def close(self) -> None:
        """Release everything permanently; further submits raise."""
        with self._pool_lock:
            self._closed = True
        self.shutdown()


def make_executor(n_workers: int, backend: str = "auto",
                  base_seed: int = 0,
                  lease_seconds: Optional[float] = None) -> TrialExecutor:
    """Build the executor for ``n_workers`` workers on the requested backend.

    ``auto`` picks the cheapest sufficient backend: inline execution for one
    worker, a thread pool otherwise.  ``process`` builds a
    :class:`ProcessPoolTrialExecutor` (picklable objectives required) whose
    workers derive per-process RNGs from ``base_seed``.  ``ticket`` builds
    the pull-based board (`repro.automl.remote.tickets`): no local pool at
    all — remote worker agents claim trials over HTTP, with ``n_workers``
    bounding how many tickets are kept in flight and ``lease_seconds``
    their heartbeat deadline.

    Args:
        n_workers: pool size (>= 1).
        backend: one of ``"auto"``, ``"sync"``, ``"thread"``, ``"process"``,
            ``"ticket"``.
        base_seed: seed for the process workers' RNG streams.
        lease_seconds: ticket-backend lease duration (None = its default);
            rejected for the local backends, which have no leases.

    Returns:
        A ready :class:`TrialExecutor`.

    Raises:
        ValueError: for a non-positive worker count, unknown backend, or
            ``lease_seconds`` on a non-ticket backend.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError(f"unknown executor backend {backend!r}; "
                         f"expected one of {EXECUTOR_BACKENDS}")
    if backend == "ticket":
        from repro.automl.remote.tickets import (
            DEFAULT_LEASE_SECONDS,
            TicketTrialExecutor,
        )
        return TicketTrialExecutor(
            n_workers,
            lease_seconds=(DEFAULT_LEASE_SECONDS if lease_seconds is None
                           else lease_seconds))
    if lease_seconds is not None:
        raise ValueError(
            f"lease_seconds only applies to the 'ticket' backend, "
            f"not {backend!r}")
    if backend == "process":
        return ProcessPoolTrialExecutor(n_workers, base_seed=base_seed)
    if backend == "sync" or (backend == "auto" and n_workers == 1):
        return SynchronousExecutor()
    return ThreadPoolTrialExecutor(n_workers)
