"""Tests for live trial telemetry: cross-process mid-trial pruning, weighted
fair-share scheduling between jobs, and job cancellation with the CANCELLED
terminal state (including its round-trip through storage)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.automl import (
    AntTuneServer,
    FairShareGovernor,
    GovernedExecutor,
    JobState,
    MedianPruner,
    RandomSearch,
    Study,
    StudyConfig,
    StudyStorage,
    make_executor,
)
from repro.automl.events import TrialReport
from repro.automl.search_space import SearchSpace, Uniform
from repro.automl.trial import (
    KILL_CANCELLED,
    KILL_PRUNED,
    PrunedTrial,
    Trial,
    TrialCancelled,
    TrialState,
)
from repro.exceptions import TrialError


@pytest.fixture
def space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


def _study(space, seed=0, pruner=None, **config):
    return Study(space, algorithm=RandomSearch(rng=np.random.default_rng(seed)),
                 config=StudyConfig(**config), pruner=pruner,
                 rng=np.random.default_rng(seed))


# Module-level objective: the process backend requires picklable callables.
def _reporting_straggler(trial):
    """Trials 0/1 finish fast with strong reports; trial 2+ is a weak straggler
    that would run for ~6 s if nothing stops it mid-flight."""
    if trial.trial_id < 2:
        for _ in range(3):
            trial.report(1.0)
            time.sleep(0.01)
        return 1.0
    for _ in range(120):
        trial.report(0.0)  # raises once the scheduler kills the trial
        time.sleep(0.05)
    return 0.0


def _burst_reporter(trial):
    """Reports 30 steps faster than one scheduler tick, then completes."""
    for step in range(30):
        trial.report(float(step))
    return 1.0


class TestKillSignals:
    def test_kill_reasons_map_to_exceptions(self):
        trial = Trial(0, {"x": 0.5})
        trial.kill(KILL_PRUNED)
        with pytest.raises(PrunedTrial):
            trial.report(0.1)
        cancelled = Trial(1, {"x": 0.5})
        cancelled.kill(KILL_CANCELLED)
        with pytest.raises(TrialCancelled):
            cancelled.report(0.1)

    def test_first_kill_wins(self):
        trial = Trial(0, {"x": 0.5})
        trial.kill(KILL_PRUNED)
        trial.kill(KILL_CANCELLED)
        assert trial.kill_reason == KILL_PRUNED
        assert trial.killed_state is TrialState.PRUNED

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            Trial(0, {}).kill("vibes")

    def test_cancel_keeps_deadline_semantics(self):
        trial = Trial(0, {"x": 0.5})
        trial.cancel()
        assert trial.killed_state is TrialState.TIMED_OUT
        with pytest.raises(TrialCancelled):
            trial.report(0.1)


class TestMidTrialPruning:
    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_process_backend_straggler_pruned_before_deadline(self, space, scheduler):
        # The acceptance case: a process-backend trial reporting below-median
        # intermediate values must be stopped well before its (generous)
        # deadline, which requires the reports to stream back mid-run.
        study = _study(space, n_trials=3, trial_time_limit=30.0,
                       pruner=MedianPruner(warmup_steps=0, min_trials=2))
        start = time.perf_counter()
        study.optimize(_reporting_straggler, n_workers=2, backend="process",
                       scheduler=scheduler)
        elapsed = time.perf_counter() - start
        straggler = study.trials[2]
        assert straggler.state == TrialState.PRUNED
        assert elapsed < 5.0, (
            f"straggler ran {elapsed:.1f}s: telemetry never pruned it")
        # The mirrored reports made it back before completion: the pruner saw
        # at least one below-median value.
        assert straggler.intermediate_values
        assert all(v == 0.0 for v in straggler.intermediate_values)
        # The fast reference trials were untouched.
        assert all(study.trials[i].state == TrialState.COMPLETED
                   for i in range(2))

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_process_backend_reports_stream_completely(self, space, scheduler):
        # Trials faster than one tick settle only after the backend merged
        # their whole record: every trial's TrialReport stream equals its
        # final intermediate values, and no COMPLETED trial lacks a value.
        study = _study(space, n_trials=24)
        events = []
        study._event_sink = events.append
        study.optimize(_burst_reporter, n_workers=2, backend="process",
                       scheduler=scheduler)
        for trial in study.trials:
            assert trial.state == TrialState.COMPLETED
            assert trial.value == 1.0
            reports = [e for e in events if isinstance(e, TrialReport)
                       and e.trial_id == trial.trial_id]
            assert [e.step for e in reports] == list(range(30))
            assert [e.value for e in reports] == trial.intermediate_values
            assert trial.intermediate_values == [float(s) for s in range(30)]

    def test_thread_backend_objective_without_should_prune_is_stopped(self, space):
        # The objective only reports — it never calls trial.should_prune() —
        # so only the scheduler-side telemetry pass can stop it.
        study = _study(space, n_trials=3,
                       pruner=MedianPruner(warmup_steps=0, min_trials=2))
        start = time.perf_counter()
        study.optimize(_reporting_straggler, n_workers=2, backend="thread",
                       scheduler="async")
        elapsed = time.perf_counter() - start
        assert study.trials[2].state == TrialState.PRUNED
        assert elapsed < 5.0

    def test_process_backend_intermediates_visible_mid_run(self, space):
        # drain_telemetry mirrors streamed reports into the *local* trial
        # object while the remote objective is still running.
        executor = make_executor(1, backend="process")
        try:
            study = _study(space, n_trials=1)
            with study._lock:
                trial = study._new_trial({"x": 0.1}, "worker-0")
            # Reuse the straggler branch: trial_id >= 2 reports every 0.05s.
            trial.trial_id = 2
            future = executor.submit(_reporting_straggler, trial, None)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not trial.intermediate_values:
                executor.drain_telemetry()
                time.sleep(0.02)
            assert trial.intermediate_values, "no report streamed back mid-run"
            executor.kill_trial(trial, KILL_PRUNED)
            assert future.result(timeout=10.0).state == TrialState.PRUNED
        finally:
            executor.shutdown()


class TestFairShareGovernor:
    def test_single_owner_gets_the_whole_pool(self):
        governor = FairShareGovernor(4)
        governor.register("bulk", 1.0)
        assert governor.allowance("bulk") == 4

    def test_weighted_apportionment(self):
        governor = FairShareGovernor(4)
        governor.register("bulk", 1.0)
        governor.register("hot", 3.0)
        assert governor.allowance("bulk") == 1
        assert governor.allowance("hot") == 3
        governor.unregister("hot")
        assert governor.allowance("bulk") == 4

    def test_minimum_one_slot_guarantee(self):
        governor = FairShareGovernor(2)
        governor.register("bulk", 1.0)
        governor.register("hot", 9.0)
        shares = governor.shares()
        assert shares["hot"] == 2
        assert shares["bulk"] == 1  # never starved, even oversubscribed

    def test_unregistered_owner_sees_full_pool(self):
        governor = FairShareGovernor(3)
        assert governor.allowance("stranger") == 3

    def test_invalid_weights_rejected(self):
        governor = FairShareGovernor(2)
        with pytest.raises(ValueError):
            governor.register("job", 0.0)
        with pytest.raises(ValueError):
            FairShareGovernor(0)

    def test_single_job_any_weight_gets_everything(self):
        # A lone owner's weight is irrelevant: it always holds the full pool.
        for weight in (0.001, 1.0, 1e6):
            governor = FairShareGovernor(8)
            governor.register("only", weight)
            assert governor.allowance("only") == 8

    def test_equal_priorities_split_evenly_with_deterministic_ties(self):
        governor = FairShareGovernor(5)
        for owner in ("a", "b", "c"):
            governor.register(owner, 2.5)
        shares = governor.shares()
        assert sum(shares.values()) == 5
        assert sorted(shares.values()) == [1, 2, 2]
        # Largest-remainder ties break by registration order: the earliest
        # registrants get the leftover slots, reproducibly.
        assert shares["a"] == 2 and shares["b"] == 2 and shares["c"] == 1
        assert governor.shares() == shares  # stable across calls

    def test_zero_and_negative_priorities_rejected_everywhere(self):
        governor = FairShareGovernor(4)
        with pytest.raises(ValueError):
            governor.register("job", 0.0)
        with pytest.raises(ValueError):
            governor.register("job", -2.0)
        # A rejected registration must not leave a phantom owner behind.
        governor.register("real", 1.0)
        assert governor.shares() == {"real": 4}

    def test_unregister_mid_apportionment_is_safe(self):
        # Cancellation can unregister an owner from the dispatcher thread
        # while schedulers read allowances from theirs: the reader always
        # sees a consistent apportionment and never crashes.
        governor = FairShareGovernor(4)
        governor.register("stays", 1.0)
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    governor.register("flaps", 3.0)
                    governor.unregister("flaps")
            except Exception as exc:  # noqa: BLE001 - surfaced to the test
                errors.append(exc)

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(2000):
                allowance = governor.allowance("stays")
                assert allowance in (1, 4)  # with or without the co-tenant
                shares = governor.shares()
                assert shares["stays"] >= 1
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert not errors
        assert governor.allowance("stays") == 4  # cancelled owner released

    def test_allowance_never_below_one_slot(self):
        # Even a sub-1% weight against many heavy co-tenants keeps one slot.
        governor = FairShareGovernor(4)
        governor.register("tiny", 0.01)
        for i in range(6):
            governor.register(f"heavy-{i}", 100.0)
        shares = governor.shares()
        assert shares["tiny"] == 1
        assert all(share >= 1 for share in shares.values())
        assert governor.allowance("tiny") == 1

    def test_governed_executor_tracks_allowance(self):
        governor = FairShareGovernor(4)
        inner = make_executor(4, backend="thread")
        try:
            view = GovernedExecutor(inner, governor, "job")
            governor.register("job", 1.0)
            assert view.n_workers == 4
            governor.register("other", 3.0)
            assert view.n_workers == 1
            view.shutdown()  # must NOT touch the shared inner pool
            trial = Trial(0, {"x": 0.5}, state=TrialState.RUNNING)
            view.submit(lambda t: t.params["x"], trial).result(timeout=10.0)
            assert trial.state == TrialState.COMPLETED
        finally:
            inner.close()


class TestFairShareUnderContention:
    @pytest.mark.parametrize("scheduler", ["async", "round"])
    def test_high_priority_job_overtakes_bulk_sweep(self, space, scheduler):
        # A bulk sweep holds the pool; a latency-sensitive job submitted later
        # with 3x the weight must finish while the sweep is still running,
        # which FIFO slot assignment would never allow.
        with AntTuneServer(num_workers=4, max_concurrent_jobs=2,
                           backend="thread", scheduler=scheduler) as server:
            bulk = server.submit(
                space, lambda t: time.sleep(0.15) or t.params["x"],
                config=StudyConfig(n_trials=16), priority=1.0)
            deadline = time.monotonic() + 5.0
            while (time.monotonic() < deadline
                   and server.poll(bulk)["state"] != JobState.RUNNING.value):
                time.sleep(0.01)
            hot = server.submit(
                space, lambda t: time.sleep(0.15) or t.params["x"],
                config=StudyConfig(n_trials=6), priority=3.0)
            best = server.wait(hot, timeout=30.0)
            assert best.value is not None
            bulk_snapshot = server.poll(bulk)
            assert bulk_snapshot["finished"] is False, (
                "bulk sweep finished before the high-priority job: "
                "no fair-share preemption happened")
            assert server.wait(bulk, timeout=30.0).value is not None
            assert server.poll(bulk)["states"] == {
                TrialState.COMPLETED.value: 16}

    def test_priority_validation(self, space):
        with AntTuneServer(num_workers=2) as server:
            with pytest.raises(ValueError):
                server.submit(space, lambda t: t.params["x"], priority=0.0)
            with pytest.raises(ValueError):
                server.submit(space, lambda t: t.params["x"], priority=-1.0)

    def test_priority_reported_in_status(self, space):
        with AntTuneServer(num_workers=2) as server:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=2), priority=2.5)
            server.wait(job_id, timeout=10.0)
            assert server.status(job_id)["priority"] == 2.5


class TestCancellation:
    def test_cancel_queued_job_finalises_immediately(self, space):
        release = threading.Event()

        def gated(trial):
            assert release.wait(10.0)
            return trial.params["x"]

        with AntTuneServer(num_workers=2, max_concurrent_jobs=1) as server:
            blocker = server.submit(space, gated, config=StudyConfig(n_trials=1))
            queued = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=4))
            try:
                assert server.poll(queued)["state"] == JobState.QUEUED.value
                assert server.cancel(queued) is True
                # No dispatcher slot ever freed, yet the job is terminal now.
                status = server.poll(queued)
                assert status["state"] == JobState.CANCELLED.value
                assert status["finished"] is True
                with pytest.raises(TrialError, match="was cancelled"):
                    server.wait(queued, timeout=1.0)
                assert server.cancel(queued) is False  # already finished
            finally:
                release.set()
            assert server.wait(blocker, timeout=10.0).value is not None
            # The cancelled job never ran a trial.
            assert server.poll(queued)["num_trials"] == 0

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_cancel_running_job_stops_within_a_tick(self, space, scheduler):
        started = threading.Event()

        def slow(trial):
            started.set()
            for _ in range(100):
                time.sleep(0.05)
                trial.report(trial.params["x"])  # raises once cancelled
            return trial.params["x"]

        with AntTuneServer(num_workers=2, backend="thread",
                           scheduler=scheduler) as server:
            job_id = server.submit(space, slow, config=StudyConfig(n_trials=8))
            assert started.wait(5.0)
            cancel_at = time.perf_counter()
            assert server.cancel(job_id) is True
            with pytest.raises(TrialError, match="was cancelled"):
                server.wait(job_id, timeout=10.0)
            elapsed = time.perf_counter() - cancel_at
            # Without cancellation the job would run ~20s; one refill tick plus
            # one report interval is well under 3s even on a loaded CI box.
            assert elapsed < 3.0
            status = server.poll(job_id)
            assert status["state"] == JobState.CANCELLED.value
            assert status["states"].get(TrialState.CANCELLED.value, 0) >= 1

    def test_cancel_unknown_job_raises(self):
        with AntTuneServer(num_workers=1) as server:
            with pytest.raises(TrialError):
                server.cancel(99)

    def test_cancel_process_backend_job_kills_remote_trials(self, space):
        with AntTuneServer(num_workers=2, backend="process") as server:
            job_id = server.submit(space, _reporting_straggler,
                                   config=StudyConfig(n_trials=6))
            deadline = time.monotonic() + 10.0
            while (time.monotonic() < deadline
                   and server.poll(job_id)["num_trials"] < 3):
                time.sleep(0.05)
            cancel_at = time.perf_counter()
            assert server.cancel(job_id) is True
            with pytest.raises(TrialError, match="was cancelled"):
                server.wait(job_id, timeout=10.0)
            # The remote stragglers observed the kill at their next report
            # instead of running out their ~6s loops.
            assert time.perf_counter() - cancel_at < 5.0


class TestCancelledStateRoundTrip:
    def test_cancelled_status_and_trials_persist_and_resume(self, space, tmp_path):
        path = str(tmp_path / "cancel.db")

        def slow(trial):
            for _ in range(100):
                time.sleep(0.05)
                trial.report(trial.params["x"])
            return trial.params["x"]

        with AntTuneServer(num_workers=2, backend="thread", storage=path) as server:
            job_id = server.submit(space, slow,
                                   config=StudyConfig(n_trials=4),
                                   study_name="cancel-me")
            deadline = time.monotonic() + 5.0
            # Wait for an actual in-flight trial (not just the RUNNING state):
            # cancelling before the first trial exists is the queued-like path
            # and records no CANCELLED trial rows.
            while (time.monotonic() < deadline
                   and server.poll(job_id)["num_trials"] < 1):
                time.sleep(0.01)
            server.cancel(job_id)
            with pytest.raises(TrialError):
                server.wait(job_id, timeout=10.0)

        # A fresh "process" over the same SQLite file sees the terminal state.
        with StudyStorage(path) as storage:
            listed = {row["name"]: row for row in storage.list_studies()}
            assert listed["cancel-me"]["status"] == JobState.CANCELLED.value
            payload = storage.load_payload("cancel-me")
            recorded = {t["state"] for t in payload["trials"]}
            assert TrialState.CANCELLED.value in recorded

        # And the study is resumable: cancelled slots were never charged, so
        # the full remaining budget re-runs to completion.
        with AntTuneServer(num_workers=2, storage=path) as second:
            resumed = second.resume("cancel-me", space,
                                    lambda t: t.params["x"])
            best = second.wait(resumed, timeout=20.0)
            assert best.value is not None
            study = second._jobs[resumed].study
            completed = [t for t in study.trials
                         if t.state == TrialState.COMPLETED]
            assert len(completed) == 4

    def test_cancelled_trials_survive_checkpoint_json(self, space, tmp_path):
        study = _study(space, n_trials=2)
        with study._lock:
            trial = study._new_trial({"x": 0.3}, "worker-0")
        trial.kill(KILL_CANCELLED)
        trial.state = TrialState.CANCELLED
        ckpt = str(tmp_path / "cancelled.json")
        study.save_checkpoint(ckpt)
        restored = _study(space, n_trials=2)
        restored.restore_checkpoint(ckpt)
        assert [t.state for t in restored.trials] == [TrialState.CANCELLED]
        assert restored.trials[0].is_finished

    def test_request_stop_is_sticky_until_reset(self, space):
        study = _study(space, n_trials=4, raise_on_all_failed=False)
        study.request_stop()
        assert study.optimize(lambda t: t.params["x"]) is None
        assert len(study.trials) == 0  # nothing ran while stopped
        study.reset_stop()
        study.optimize(lambda t: t.params["x"])
        assert len(study.trials) == 4


class TestDeterminismPreserved:
    def test_round_mode_identical_with_telemetry_machinery(self, space):
        # The acceptance criterion: round-mode determinism must survive the
        # telemetry channel.  Two seeded runs over the governed/ticking stack
        # produce identical trial sets, matching the sequential path.
        runs = []
        for _ in range(2):
            study = _study(space, seed=11, n_trials=12)
            study.optimize(lambda t: t.params["x"], n_workers=4,
                           scheduler="round")
            runs.append([t.params for t in study.trials])
        assert runs[0] == runs[1]
        sequential = _study(space, seed=11, n_trials=12)
        sequential.optimize(lambda t: t.params["x"])
        assert runs[0] == [t.params for t in sequential.trials]
