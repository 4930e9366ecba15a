"""Trial schedulers: how a study keeps its worker pool busy (Fig. 8 dispatch).

One dispatch loop (:class:`_DispatchLoop`) hands every trial to the executor
and collects it back.  It is the only place that submits, waits on trial
futures (waking at least every :data:`TICK_INTERVAL`), enforces deadlines,
cancellation and the total time limit, publishes kill events and settles
retries, preemption requeues and budget charges.  The two built-in
schedulers are its two refill policies:

* :class:`RoundScheduler` — the deterministic default, also used for the
  inline ``n_workers=1`` case.  Up to ``n_workers`` configurations are
  asked only when nothing is in flight, and the round is told back in
  submission order once every trial in it is terminal.  Because the round
  forms a barrier, a fixed seed always yields the same trial set, but one
  straggler idles every other worker until the round ends.
* :class:`AsyncScheduler` — slot refill.  All ``n_workers`` slots are kept
  busy at all times: the moment any trial finishes it is told back (under the
  study lock, so every sequential algorithm still works unchanged) and a new
  configuration is asked and submitted into the freed slot.  A straggler only
  occupies its own slot.  Completion order feeds the algorithm, so the trial
  *sequence* is not reproducible across runs — use the round scheduler when
  bit-identical replays matter.

Both policies share the study's retry policy (a failed configuration is
resubmitted up to ``max_retries`` times without consuming extra budget slots),
one per-trial deadline rule and the total time limit.  On every tick the loop
also:

* **drains live telemetry** (:class:`TelemetryMonitor`) — intermediate values
  streamed back by in-flight trials (including process-backend ones, over the
  shared-memory transport) are published to the study's event sink as
  :class:`~repro.automl.events.TrialReport` events and fed to the study's
  pruner; a futureless trial is killed mid-run instead of running to its
  deadline;
* **observes cancellation** — a :meth:`Study.request_stop` (e.g. the tune
  server's ``cancel(job_id)``) expires everything in flight with the
  ``CANCELLED`` terminal state within one tick;
* **requeues preempted trials** — a trial killed with
  :data:`~repro.automl.trial.KILL_PREEMPTED` (the tune server yielding slots
  to a ``preempt=True`` high-priority job) is resubmitted with the same
  configuration, without charging a budget slot or a retry.

Every trial's event stream reads started → reports → (at most one) killed →
finished on both policies.

Fair sharing of one pool between jobs is provided by
:class:`FairShareGovernor` and :class:`GovernedExecutor`: the governor
apportions the pool's slots among registered jobs by priority weight, and the
governed view caps each job's refill width at its current allowance, so a
latency-sensitive job overtakes a bulk sweep as slots free up instead of
queueing behind it FIFO.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.automl import metrics as _metrics
from repro.automl.events import TrialKilled, TrialReport
from repro.automl.executors import TrialExecutor, expire_trial
from repro.automl.pruners import NoPruner
from repro.automl.trial import (
    KILL_CANCELLED,
    KILL_DEADLINE,
    KILL_PREEMPTED,
    KILL_PRUNED,
    KILLED_STATES,
    Trial,
    TrialState,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.automl.study import Study

__all__ = [
    "TrialScheduler",
    "RoundScheduler",
    "AsyncScheduler",
    "make_scheduler",
    "TelemetryMonitor",
    "FairShareGovernor",
    "GovernedExecutor",
]

Objective = Callable[[Trial], float]
CheckpointFn = Optional[Callable[[], None]]
SchedulerLike = Union[None, str, "TrialScheduler"]

# How often the dispatch loop wakes while trials run (telemetry draining,
# mid-trial pruning, cancellation and deadline checks).
TICK_INTERVAL = 0.05

# A trial that has not started is waiting on the pool, which may be serving
# another owner (a co-tenant job): its own clock hasn't begun, so it must not
# be failed at trial_time_limit — but the wait cannot be unbounded either (a
# wedged pool would hang the study).  This factor bounds the queue wait.
STARVATION_GRACE_FACTOR = 5.0

# Tick work (telemetry drain, pruning, deadline checks, refill) — the wait
# itself is excluded, so the histogram shows scheduling cost, not idleness.
_TICK_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_scheduler_tick_seconds",
    "Scheduler tick work duration (drain, prune, deadlines, refill), "
    "excluding the inter-tick wait.", labels=("scheduler",))
_TICKS_TOTAL = _metrics.REGISTRY.counter(
    "anttune_scheduler_ticks_total", "Scheduler ticks run.",
    labels=("scheduler",))
_SLOTS_BUSY = _metrics.REGISTRY.gauge(
    "anttune_scheduler_slots_busy",
    "In-flight trials occupying executor slots (last tick's view).",
    labels=("scheduler",))


class TelemetryMonitor:
    """Turns live telemetry into events and prune decisions between ticks.

    The dispatch loop calls :meth:`observe` on every tick.  The executor's
    telemetry is drained (mirroring process-backend reports into the local
    trial objects through the shared-memory transport), every newly visible
    intermediate value is published to the study's event sink as a
    :class:`~repro.automl.events.TrialReport` — one ordered stream regardless
    of backend — and any trial with new reports is judged by the study's
    pruner.  A futureless trial is killed with
    :data:`~repro.automl.trial.KILL_PRUNED`, which its objective observes
    at the next ``report()`` — so even a remote straggler stops mid-run.

    With a :class:`~repro.automl.pruners.NoPruner` the monitor only drains
    and publishes (keeping intermediate values visible to ``status()`` and
    subscriptions mid-run) and never kills, so the round scheduler's
    determinism is unaffected.
    """

    def __init__(self, study: "Study", executor: TrialExecutor) -> None:
        self.study = study
        self.executor = executor
        self.prune_active = not isinstance(study.pruner, NoPruner)
        # Reports already published/judged per trial id, so each new report
        # hits the bus (and the pruner) exactly once.
        self._seen: Dict[int, int] = {}

    def _publish_new_reports(self, trial: Trial) -> bool:
        """Publish the trial's reports not yet on the stream (step order).

        The stream mirrors ``intermediate_values`` faithfully — including
        NaN entries, whether a user-reported diverged loss or a
        ring-overflow pad — so subscribers and ``status()`` agree.

        Returns:
            Whether any new report was published (i.e. the pruner has new
            evidence to judge).
        """
        seen = self._seen.get(trial.trial_id, 0)
        if len(trial.intermediate_values) <= seen:
            return False  # cheap pre-check before taking the lock
        with trial._state_lock:
            fresh = trial.intermediate_values[seen:]
        if not fresh:
            return False
        self._seen[trial.trial_id] = seen + len(fresh)
        for offset, value in enumerate(fresh):
            self.study.publish_event(TrialReport(
                trial_id=trial.trial_id, step=seen + offset, value=value))
        return True

    def observe(self, trials: Sequence[Trial]) -> None:
        """Drain telemetry, publish new reports, prune futureless trials.

        Args:
            trials: the caller's in-flight trials (other jobs' trials on a
                shared executor are mirrored too, but only published and
                judged by their own scheduler).
        """
        self.executor.drain_telemetry()
        if not self.prune_active and self.study._event_sink is None:
            # Bare study, no pruner: the drain above keeps intermediate
            # values visible; there is nobody to publish to or judge for.
            return
        for trial in trials:
            if trial.is_finished or trial.is_cancelled:
                continue
            if not self._publish_new_reports(trial):
                continue
            if not self.prune_active:
                continue
            with self.study._lock:
                prune = self.study.pruner.should_prune(
                    trial, self.study.trials, self.study.config.maximize)
            if prune:
                # The kill event publishes when the trial settles, and only
                # if the prune decided its terminal state.
                self.executor.kill_trial(trial, KILL_PRUNED)

    def flush(self, trial: Trial) -> None:
        """Publish a settling trial's not-yet-published reports.

        Called right before the trial is told back (and its
        :class:`~repro.automl.events.TrialFinished` publishes), so even a
        trial faster than one tick gets every report onto the stream, in step
        order, ahead of its terminal event.
        """
        self._publish_new_reports(trial)

    def forget(self, trial: Trial) -> None:
        """Stop tracking a settled trial (frees the seen-report counter)."""
        self._seen.pop(trial.trial_id, None)


class TrialScheduler:
    """Strategy for feeding asked configurations into a :class:`TrialExecutor`.

    The built-in :class:`RoundScheduler` and :class:`AsyncScheduler` are two
    refill policies of one dispatch loop; a custom scheduler overrides
    :meth:`run` wholesale.
    """

    name: str = "base"

    def run(self, study: "Study", objective: Objective, executor: TrialExecutor,
            remaining: int, worker_names: Sequence[str],
            checkpoint_fn: CheckpointFn = None) -> None:
        """Consume ``remaining`` budget slots of ``study`` on ``executor``.

        Args:
            study: the study whose algorithm is asked/told (under its lock).
            objective: the user callable evaluated per trial.
            executor: the worker pool to keep busy.
            remaining: how many budget slots are left to consume.
            worker_names: round-robin worker attribution labels.
            checkpoint_fn: invoked after every consumed budget slot (async)
                or every finished round (round).
        """
        raise NotImplementedError


class _RefillScheduler(TrialScheduler):
    """A scheduler driven by :class:`_DispatchLoop` under one refill policy."""

    #: True: ask a whole round only when nothing is in flight and settle it
    #: in submission order once every trial is terminal.  False: refill each
    #: freed slot and settle trials as they complete.
    barrier: bool = True

    def run(self, study: "Study", objective: Objective, executor: TrialExecutor,
            remaining: int, worker_names: Sequence[str],
            checkpoint_fn: CheckpointFn = None) -> None:
        _DispatchLoop(self, study, executor).run(
            objective, remaining, worker_names, checkpoint_fn)


class RoundScheduler(_RefillScheduler):
    """Round barrier: deterministic, but a straggler idles the round.

    Up to ``n_workers`` configurations are asked only when nothing is in
    flight; the round is told back in submission order once every trial
    in it is terminal, so a fixed seed replays the same ask/tell sequence.
    """

    name = "round"
    barrier = True


class AsyncScheduler(_RefillScheduler):
    """Slot refill: every finished trial immediately frees a slot for the next.

    ask/tell stay serialised under the study lock, so algorithms see a
    consistent history; only the *order* in which results arrive depends on
    completion timing.
    """

    name = "async"
    barrier = False


@dataclass(eq=False)
class _Flight:
    """One submitted trial: its asked params, retry count and future."""

    params: Dict[str, object]
    retries: int
    trial: Trial
    future: "Future[Trial]"
    submitted_at: float
    #: Set when the loop itself expired the trial (its zombie future may
    #: never resolve).
    expired: bool = field(default=False, init=False)

    @property
    def terminal(self) -> bool:
        """Whether the trial's outcome is decided.

        Only the future (resolved after the backend's locked merge of the
        whole record) or the loop's own expiry count: a backend sets
        ``trial.state`` before the rest of the record, so reading
        ``is_finished`` here could settle a trial mid-merge.
        """
        return self.future.done() or self.expired


class _DispatchLoop:
    """The one loop that submits trials, waits on them and settles them.

    Every tick (at most :data:`TICK_INTERVAL` apart) it enforces
    cancellation, the total time limit and the per-trial deadlines, feeds
    live telemetry to :class:`TelemetryMonitor`, settles terminal trials
    (kill event, tell, retry or requeue, budget charge) and refills the
    freed slots.  ``executor.n_workers`` is re-read on every refill, so a
    :class:`GovernedExecutor` allowance change takes effect within a tick.
    The scheduler's ``barrier`` flag is the only policy switch: it decides
    when the loop asks and when it settles.
    """

    def __init__(self, scheduler: _RefillScheduler, study: "Study",
                 executor: TrialExecutor) -> None:
        self.barrier = scheduler.barrier
        self.study = study
        self.executor = executor
        self.config = study.config
        self.monitor = TelemetryMonitor(study, executor)
        self.tick_seconds = _TICK_SECONDS.labels(scheduler=scheduler.name)
        self.ticks_total = _TICKS_TOTAL.labels(scheduler=scheduler.name)
        self.slots_busy = _SLOTS_BUSY.labels(scheduler=scheduler.name)
        # Submission order, so a round settles exactly as it was asked.
        self.in_flight: List[_Flight] = []
        # (params, retries) waiting for a slot: retries, preempted
        # configurations and a round's asks beyond the current width.
        # Requeues go through refill(), not straight to submit, so they
        # honour a fair-share allowance that shrank since the ask.
        self.queued: List[Tuple[Dict[str, object], int]] = []
        self.asked = 0
        # Latest observed start of any of this loop's trials (see
        # enforce_deadlines for the starvation rule it feeds).
        self.latest_start: Optional[float] = None
        self.next_deadline: Optional[float] = None

    # ------------------------------------------------------------------ #
    def run(self, objective: Objective, remaining: int,
            worker_names: Sequence[str], checkpoint_fn: CheckpointFn) -> None:
        """Consume ``remaining`` budget slots (see :meth:`TrialScheduler.run`)."""
        self.objective = objective
        self.remaining = remaining
        self.names = list(worker_names)
        self.checkpoint_fn = checkpoint_fn
        limit = self.config.total_time_limit
        self.hard_deadline = (None if limit is None
                              else time.perf_counter() + limit)
        self.refill()
        while self.in_flight:
            self.wait()
            tick_start = time.perf_counter()
            if self.study.stop_requested:
                # Job cancelled: everything in flight is expired CANCELLED
                # within this tick; settle() never retries a cancelled trial.
                self.expire_live(KILL_CANCELLED)
            elif self.out_of_time():
                # Total study budget spent: nothing may outlive it, even on
                # a wedged pool.
                self.expire_live(KILL_DEADLINE)
            else:
                self.enforce_deadlines(tick_start)
            self.monitor.observe([f.trial for f in self.in_flight
                                  if not f.terminal])
            self.settle_ready()
            self.refill()
            self.slots_busy.set(len(self.in_flight))
            self.ticks_total.inc()
            self.tick_seconds.observe(time.perf_counter() - tick_start)
        self.slots_busy.set(0)

    def out_of_time(self) -> bool:
        return (self.hard_deadline is not None
                and time.perf_counter() > self.hard_deadline)

    def open(self) -> bool:
        """Whether new work (asks, retries, requeues) may still be launched."""
        return not self.study.stop_requested and not self.out_of_time()

    def checkpoint(self) -> None:
        if self.checkpoint_fn is not None:
            self.checkpoint_fn()

    # ------------------------------------------------------------------ #
    # Submitting
    # ------------------------------------------------------------------ #
    def launch(self, params: Dict[str, object], retries: int,
               submitted_at: float) -> None:
        study = self.study
        with study._lock:
            trial = study._new_trial(
                dict(params), self.names[len(study.trials) % len(self.names)])
        # Outside the study lock (event delivery may block), before the
        # submit so TrialStarted precedes anything the worker produces.
        study._publish_started(trial)
        future = self.executor.submit(self.objective, trial,
                                      self.config.trial_time_limit)
        self.in_flight.append(_Flight(params, retries, trial, future,
                                      submitted_at))

    def refill(self) -> None:
        """Fill free slots: queued work first, then fresh asks."""
        if self.barrier and self.in_flight:
            return
        width = max(1, self.executor.n_workers)
        if (self.barrier and not self.queued and self.asked < self.remaining
                and self.open()):
            size = min(width, self.remaining - self.asked)
            self.queued = [(self.study.ask_params(), 0) for _ in range(size)]
            self.asked += size
        # One submit time per refill: a round's trials are siblings.
        now = time.perf_counter()
        while len(self.in_flight) < width and self.open():
            if self.queued:
                self.launch(*self.queued.pop(0), now)
            elif not self.barrier and self.asked < self.remaining:
                self.asked += 1
                self.launch(self.study.ask_params(), 0, now)
            else:
                break

    # ------------------------------------------------------------------ #
    # Waiting and killing
    # ------------------------------------------------------------------ #
    def wait(self) -> None:
        """Block until a live trial finishes, a deadline is due or a tick passes."""
        live = [f.future for f in self.in_flight if not f.terminal]
        if not live:
            return
        timeout = TICK_INTERVAL
        now = time.perf_counter()
        for deadline in (self.next_deadline, self.hard_deadline):
            if deadline is not None:
                timeout = min(timeout, max(0.0, deadline - now) + 0.01)
        wait(live, timeout=timeout, return_when=FIRST_COMPLETED)

    def expire(self, flight: _Flight, reason: str) -> None:
        self.executor.kill_trial(flight.trial, reason)
        expire_trial(flight.trial, flight.future,
                     self.config.trial_time_limit or 0.0, reason=reason)
        flight.expired = True

    def expire_live(self, reason: str) -> None:
        for flight in self.in_flight:
            if not flight.terminal:
                self.expire(flight, reason)

    def enforce_deadlines(self, now: float) -> None:
        """Expire trials past their deadline; the clock runs from the start.

        A started trial gets ``trial_time_limit`` from its start, so queue
        wait behind other work (e.g. a co-tenant job) never counts.  A trial
        that has not started is failed "never started" (retryable) at
        ``min(latest sibling start + limit, submit + limit *
        STARVATION_GRACE_FACTOR)`` — the first term only once a sibling
        started after this trial's submission (the pool is serving us, so
        our own zombie stragglers starve it), the second so a wedged pool
        cannot hang the study.
        """
        live = [f for f in self.in_flight if not f.terminal]
        for flight in live:
            if flight.trial.started_at is None and flight.future.running():
                # Process workers never ship started_at back mid-run; the
                # first time the future reports running is the best proxy.
                flight.trial.started_at = now
        for flight in self.in_flight:
            if flight.trial.started_at is not None:
                self.latest_start = max(self.latest_start or 0.0,
                                        flight.trial.started_at)
        self.next_deadline = None
        limit = self.config.trial_time_limit
        if limit is None:
            return
        for flight in live:
            started, submitted = flight.trial.started_at, flight.submitted_at
            if started is not None:
                deadline = started + limit
            elif self.latest_start is not None and self.latest_start >= submitted:
                deadline = min(self.latest_start + limit,
                               submitted + limit * STARVATION_GRACE_FACTOR)
            else:
                deadline = submitted + limit * STARVATION_GRACE_FACTOR
            if now < deadline:
                if self.next_deadline is None or deadline < self.next_deadline:
                    self.next_deadline = deadline
                continue
            # A zombie straggler's late result is discarded on arrival.
            self.expire(flight, KILL_DEADLINE)

    # ------------------------------------------------------------------ #
    # Settling
    # ------------------------------------------------------------------ #
    def settle_ready(self) -> None:
        """Settle terminal trials: all at once for a round, else as they end."""
        ready = [f for f in self.in_flight if f.terminal]
        if not ready or (self.barrier and len(ready) < len(self.in_flight)):
            return
        self.in_flight = [f for f in self.in_flight if f not in ready]
        requeue = []
        for flight in ready:
            entry = self.settle(flight)
            if entry is not None:
                requeue.append(entry)
        # Retries and requeues run before anything not yet launched.
        self.queued[:0] = requeue
        if self.barrier and not (self.queued and self.open()):
            self.checkpoint()  # the round is over (done or abandoned)

    def settle(self, flight: _Flight) -> Optional[Tuple[Dict[str, object], int]]:
        """Tell a terminal trial back; return the entry to requeue, if any.

        The one point where a trial's kill event publishes: only when the
        kill decided its terminal state (first kill wins; a killed trial
        that still finished normally, or a never-started one recorded
        FAILED, gets none), after its reports and before TrialFinished.
        A retry, preemption requeue, or cancellation charges no budget slot,
        and neither does work the stop or the time limit abandons.
        """
        study, trial, future = self.study, flight.trial, flight.future
        if future.done() and not future.cancelled():
            exc = future.exception()
            if exc is not None:
                # Only non-Exception BaseExceptions (e.g. KeyboardInterrupt)
                # escape execute_trial: surface them on the scheduling
                # thread so the study aborts instead of spinning.
                raise exc
        self.monitor.flush(trial)
        reason = trial.kill_reason
        if reason is not None and trial.state is KILLED_STATES.get(reason):
            study.publish_event(TrialKilled(trial_id=trial.trial_id,
                                            reason=reason))
        study.tell(trial)
        self.monitor.forget(trial)
        if trial.state is TrialState.CANCELLED:
            if reason == KILL_PREEMPTED and self.open():
                # Slot yielded to a higher-priority job: re-run the same
                # configuration without charging a slot or a retry.
                return flight.params, flight.retries
        elif (trial.state is TrialState.FAILED
                and flight.retries < self.config.max_retries):
            if self.open():
                return flight.params, flight.retries + 1
        else:
            study._budget_used += 1
        if not self.barrier:
            self.checkpoint()
        return None


# --------------------------------------------------------------------------- #
# Fair sharing of one executor between jobs
# --------------------------------------------------------------------------- #
class FairShareGovernor:
    """Weighted apportionment of a pool's slots among concurrently running jobs.

    Each registered owner (a tune-server job) holds a positive priority
    weight; :meth:`allowance` apportions ``total_slots`` proportionally to
    the weights using the largest-remainder method, with deterministic
    tie-breaking by registration order and a guaranteed minimum of one slot
    per owner (so a low-priority job is slowed, never starved).  Schedulers
    re-read their allowance on every refill tick through
    :class:`GovernedExecutor`, so shares rebalance within a tick whenever a
    job registers or finishes.
    """

    def __init__(self, total_slots: int) -> None:
        if total_slots < 1:
            raise ValueError("total_slots must be >= 1")
        self.total_slots = int(total_slots)
        self._lock = threading.Lock()
        # dicts preserve insertion order: registration order breaks ties.
        self._weights: Dict[object, float] = {}

    def register(self, owner: object, weight: float = 1.0) -> None:
        """Add (or re-weight) an owner competing for slots.

        Args:
            owner: any hashable job identity.
            weight: positive priority weight; larger means a bigger share.

        Raises:
            ValueError: for a non-positive weight.
        """
        if weight <= 0:
            raise ValueError("priority weight must be > 0")
        with self._lock:
            self._weights[owner] = float(weight)

    def unregister(self, owner: object) -> None:
        """Remove an owner; its slots redistribute on the next allowance call."""
        with self._lock:
            self._weights.pop(owner, None)

    def allowance(self, owner: object) -> int:
        """How many slots ``owner`` may keep in flight right now.

        Returns:
            The owner's current apportioned share (>= 1), or the full pool
            for an unregistered owner (no contention bookkeeping to honour).
        """
        with self._lock:
            if owner not in self._weights:
                return self.total_slots
            return self._apportion()[owner]

    def shares(self) -> Dict[object, int]:
        """The current slot apportionment over all registered owners."""
        with self._lock:
            return self._apportion()

    def overage(self, in_flight: Dict[object, int]) -> Dict[object, int]:
        """How many in-flight trials each owner holds beyond its fair share.

        The tune server uses this when a ``preempt=True`` job arrives: each
        owner's overage is the number of its youngest running trials to kill
        (and requeue) so the pool converges to the new apportionment within
        one scheduling tick instead of waiting for trials to finish.

        Args:
            in_flight: current in-flight trial count per owner.

        Returns:
            Per-owner counts to shed (0 for owners within their share; an
            unregistered owner is treated as entitled to the full pool).
        """
        shares = self.shares()
        return {owner: max(0, count - shares.get(owner, self.total_slots))
                for owner, count in in_flight.items()}

    def _apportion(self) -> Dict[object, int]:
        # Largest-remainder apportionment; caller holds the lock.
        total_weight = sum(self._weights.values())
        quotas = {owner: self.total_slots * weight / total_weight
                  for owner, weight in self._weights.items()}
        shares = {owner: int(quota) for owner, quota in quotas.items()}
        leftover = self.total_slots - sum(shares.values())
        remainders = sorted(
            quotas, key=lambda o: quotas[o] - shares[o], reverse=True)
        for owner in remainders[:leftover]:
            shares[owner] += 1
        for owner in shares:
            # Never starve: a job always gets at least one slot, even if that
            # briefly oversubscribes the pool (bounded by the number of jobs).
            shares[owner] = max(1, shares[owner])
        return shares


class GovernedExecutor(TrialExecutor):
    """A per-job view of a shared executor, capped at its fair-share allowance.

    ``n_workers`` is dynamic: it re-reads the governor's current apportionment
    on every access, so a scheduler that checks its width per refill tick
    (both built-ins do) shrinks or grows its in-flight set as co-tenant jobs
    come and go.  All execution, telemetry and kill traffic delegates to the
    shared inner executor; lifecycle calls are no-ops because the pool belongs
    to the server, not to any single job.
    """

    def __init__(self, inner: TrialExecutor, governor: FairShareGovernor,
                 owner: object) -> None:
        self.inner = inner
        self.governor = governor
        self.owner = owner

    @property
    def n_workers(self) -> int:  # type: ignore[override]
        """This job's current slot allowance (>= 1)."""
        return max(1, self.governor.allowance(self.owner))

    def submit(self, objective: Objective, trial: Trial,
               trial_time_limit: Optional[float] = None) -> "Future[Trial]":
        return self.inner.submit(objective, trial, trial_time_limit)

    def drain_telemetry(self) -> int:
        return self.inner.drain_telemetry()

    @property
    def telemetry_dropped(self) -> int:  # type: ignore[override]
        return self.inner.telemetry_dropped

    def kill_trial(self, trial: Trial, reason: str = KILL_CANCELLED) -> None:
        self.inner.kill_trial(trial, reason)

    def shutdown(self) -> None:
        """No-op: the shared pool's lifecycle belongs to the server."""

    def close(self) -> None:
        """No-op: the shared pool's lifecycle belongs to the server."""


def make_scheduler(spec: SchedulerLike) -> TrialScheduler:
    """Resolve ``None``/``"round"``/``"async"``/instance into a scheduler.

    Args:
        spec: None (round default), a scheduler name, or an instance.

    Returns:
        A :class:`TrialScheduler` ready to ``run``.

    Raises:
        ValueError: for an unknown scheduler name.
    """
    if spec is None:
        return RoundScheduler()
    if isinstance(spec, TrialScheduler):
        return spec
    if spec == RoundScheduler.name:
        return RoundScheduler()
    if spec == AsyncScheduler.name:
        return AsyncScheduler()
    raise ValueError(f"unknown scheduler {spec!r}; expected 'round', 'async' "
                     f"or a TrialScheduler instance")
