"""Tests for the async multi-job tune service: submit/poll/wait, concurrency,
per-job seeds, fault isolation and persistence/resume."""

from __future__ import annotations

import gc
import sqlite3
import threading
import time
import warnings

import numpy as np
import pytest

from repro.automl import (
    AntTuneClient,
    AntTuneServer,
    JobState,
    MedianPruner,
    RandomSearch,
    StudyConfig,
    StudyStorage,
)
from repro.automl.search_space import SearchSpace, Uniform
from repro.automl.trial import PrunedTrial, TrialState
from repro.exceptions import TrialError


@pytest.fixture
def space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


@pytest.fixture
def server():
    with AntTuneServer(num_workers=4, max_concurrent_jobs=2) as srv:
        yield srv


class TestSubmitPollWait:
    def test_submit_is_non_blocking(self, space, server):
        release = threading.Event()

        def gated(trial):
            assert release.wait(5.0), "job never released"
            return trial.params["x"]

        start = time.perf_counter()
        job_id = server.submit(space, gated, config=StudyConfig(n_trials=2))
        submit_elapsed = time.perf_counter() - start
        assert submit_elapsed < 0.5  # enqueue only; the objective blocks
        status = server.poll(job_id)
        assert status["state"] in (JobState.QUEUED.value, JobState.RUNNING.value)
        assert status["finished"] is False
        release.set()
        best = server.wait(job_id, timeout=10.0)
        assert best.value is not None
        assert server.poll(job_id)["state"] == JobState.COMPLETED.value

    def test_wait_timeout_raises_and_job_survives(self, space, server):
        release = threading.Event()

        def gated(trial):
            assert release.wait(5.0)
            return trial.params["x"]

        job_id = server.submit(space, gated, config=StudyConfig(n_trials=2))
        with pytest.raises(TrialError, match="still running"):
            server.wait(job_id, timeout=0.05)
        release.set()
        assert server.wait(job_id, timeout=10.0).value is not None

    def test_two_jobs_run_concurrently(self, space, server):
        intervals = {}
        lock = threading.Lock()

        def make_objective(tag):
            def objective(trial):
                start = time.monotonic()
                time.sleep(0.2)
                with lock:
                    intervals.setdefault(tag, []).append((start, time.monotonic()))
                return trial.params["x"]
            return objective

        a = server.submit(space, make_objective("a"), config=StudyConfig(n_trials=2))
        b = server.submit(space, make_objective("b"), config=StudyConfig(n_trials=2))
        server.wait(a, timeout=10.0)
        server.wait(b, timeout=10.0)
        overlap = any(
            sa < eb and sb < ea
            for sa, ea in intervals["a"] for sb, eb in intervals["b"])
        assert overlap, "jobs a and b never executed trials concurrently"

    def test_jobs_listing(self, space, server):
        ids = [server.submit(space, lambda t: t.params["x"],
                             config=StudyConfig(n_trials=2)) for _ in range(3)]
        for job_id in ids:
            server.wait(job_id, timeout=10.0)
        listing = server.jobs()
        assert [row["job_id"] for row in listing] == ids
        assert all(row["state"] == JobState.COMPLETED.value for row in listing)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            AntTuneServer(num_workers=0)
        with pytest.raises(ValueError):
            AntTuneServer(max_concurrent_jobs=0)
        # Typos fail fast at construction, not as a FAILED job later.
        with pytest.raises(ValueError):
            AntTuneServer(scheduler="asnyc")
        with pytest.raises(ValueError):
            AntTuneServer(backend="proces")

    def test_shutdown_drains_jobs_and_refuses_new_work(self, space):
        server = AntTuneServer(num_workers=2, max_concurrent_jobs=1)
        ids = [server.submit(space, lambda t: time.sleep(0.05) or t.params["x"],
                             config=StudyConfig(n_trials=2)) for _ in range(2)]
        server.shutdown()  # graceful: queued job drains before the pool closes
        for job_id in ids:
            assert server.wait(job_id, timeout=1.0).value is not None
        assert server._executor is None  # nothing leaked or rebuilt
        with pytest.raises(TrialError, match="shut down"):
            server.submit(space, lambda t: t.params["x"],
                          config=StudyConfig(n_trials=1))
        # The refused submit must not leave a zombie QUEUED job behind.
        assert len(server.jobs()) == len(ids)

    def test_all_failed_tolerated_job_reports_outcome_in_wait(self, space):
        def failing(trial):
            raise RuntimeError("nope")

        with AntTuneServer(num_workers=2) as server:
            job_id = server.submit(
                space, failing, config=StudyConfig(n_trials=2, max_retries=0,
                                                   raise_on_all_failed=False))
            with pytest.raises(TrialError, match="without any successful trial"):
                server.wait(job_id, timeout=10.0)
            # The study itself completed per its config; poll agrees.
            assert server.poll(job_id)["state"] == JobState.COMPLETED.value


class TestPerJobSeeds:
    def test_default_seeds_differ_per_job(self, space, server):
        # No rng= given: each job derives its stream from its job id, so two
        # identical submissions must not explore identical trial sequences.
        ids = [server.submit(space, lambda t: t.params["x"],
                             config=StudyConfig(n_trials=5)) for _ in range(2)]
        for job_id in ids:
            server.wait(job_id, timeout=10.0)
        sequences = [[t.params["x"] for t in server._jobs[job_id].study.trials]
                     for job_id in ids]
        assert sequences[0] != sequences[1]

    def test_explicit_rng_override_still_works(self, space, server):
        ids = [server.submit(space, lambda t: t.params["x"],
                             algorithm=RandomSearch(rng=np.random.default_rng(0)),
                             config=StudyConfig(n_trials=5),
                             rng=np.random.default_rng(0)) for _ in range(2)]
        for job_id in ids:
            server.wait(job_id, timeout=10.0)
        sequences = [[t.params["x"] for t in server._jobs[job_id].study.trials]
                     for job_id in ids]
        assert sequences[0] == sequences[1]


class TestStatusUnderConcurrency:
    def test_status_is_consistent_mid_run(self, space, server):
        job_id = server.submit(space,
                               lambda t: time.sleep(0.05) or t.params["x"],
                               config=StudyConfig(n_trials=8))
        # Poll while the job runs: counts must always sum to num_trials.
        deadline = time.monotonic() + 10.0
        snapshots = 0
        while time.monotonic() < deadline:
            status = server.poll(job_id)
            assert sum(status["states"].values()) == status["num_trials"]
            snapshots += 1
            if status["finished"]:
                break
            time.sleep(0.01)
        assert snapshots > 1
        final = server.poll(job_id)
        assert final["states"] == {TrialState.COMPLETED.value: 8}
        assert final["best_value"] == server._jobs[job_id].study.best_value

    def test_pruned_trials_are_counted(self, space, server):
        def objective(trial):
            trial.report(trial.params["x"])
            if trial.params["x"] < 0.7:
                raise PrunedTrial()
            return trial.params["x"]

        job_id = server.submit(space, objective,
                               pruner=MedianPruner(warmup_steps=0, min_trials=2),
                               config=StudyConfig(n_trials=10,
                                                  raise_on_all_failed=False),
                               rng=np.random.default_rng(0))
        server.wait(job_id, timeout=10.0)
        status = server.status(job_id)
        assert status["states"].get(TrialState.PRUNED.value, 0) >= 1
        assert sum(status["states"].values()) == 10

    def test_failed_job_leaves_server_usable(self, space, server):
        def failing(trial):
            raise RuntimeError("always fails")

        bad = server.submit(space, failing,
                            config=StudyConfig(n_trials=2, max_retries=0))
        with pytest.raises(TrialError, match="every trial failed"):
            server.wait(bad, timeout=10.0)
        assert server.status(bad)["state"] == JobState.FAILED.value
        assert server.status(bad)["error"] is not None

        good = server.submit(space, lambda t: t.params["x"],
                             config=StudyConfig(n_trials=4))
        best = server.wait(good, timeout=10.0)
        assert best.value is not None
        assert server.status(good)["state"] == JobState.COMPLETED.value

    def test_unknown_job_raises(self, server):
        with pytest.raises(TrialError):
            server.status(99)
        with pytest.raises(TrialError):
            server.wait(99)


class TestPersistence:
    def test_jobs_are_persisted_to_storage(self, space, tmp_path):
        path = str(tmp_path / "service.db")
        with AntTuneServer(num_workers=2, storage=path) as server:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=4),
                                   study_name="persisted")
            server.wait(job_id, timeout=10.0)
            listed = server.storage.list_studies()
            assert listed[0]["name"] == "persisted"
            assert listed[0]["status"] == JobState.COMPLETED.value
            assert listed[0]["completed"] == 4

    def test_path_built_server_closes_its_storage(self, space, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            server = AntTuneServer(num_workers=1,
                                   storage=str(tmp_path / "owned.db"))
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=1))
            server.wait(job_id, timeout=10.0)
            storage, log = server.storage, server.event_log
            server.shutdown()
            assert not [a for a in log._appenders.values()
                        if a.handle is not None]
            with pytest.raises(sqlite3.ProgrammingError):
                storage.list_studies()
            del server, storage, log
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_shutdown_without_wait_keeps_storage_for_draining_job(
            self, space, tmp_path):
        started, release = threading.Event(), threading.Event()

        def objective(trial):
            started.set()
            release.wait(10.0)
            return trial.params["x"]

        server = AntTuneServer(num_workers=1,
                               storage=str(tmp_path / "draining.db"))
        job_id = server.submit(space, objective, config=StudyConfig(n_trials=2),
                               study_name="draining")
        assert started.wait(10.0)
        server.shutdown(wait=False)
        release.set()
        server.wait(job_id, timeout=10.0)
        storage = server.storage
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            summary = storage.list_studies()[0]
            if summary["status"] == JobState.COMPLETED.value:
                break
            time.sleep(0.02)
        # The job drained onto the still-open storage: every trial persisted.
        assert summary["status"] == JobState.COMPLETED.value
        assert summary["completed"] == 2
        server.shutdown()  # nothing is draining now: the storage closes
        with pytest.raises(sqlite3.ProgrammingError):
            storage.list_studies()

    def test_caller_owned_storage_stays_open(self, space, tmp_path):
        with StudyStorage(str(tmp_path / "shared.db")) as storage:
            with AntTuneServer(num_workers=1, storage=storage) as server:
                job_id = server.submit(space, lambda t: t.params["x"],
                                       config=StudyConfig(n_trials=1),
                                       study_name="kept")
                server.wait(job_id, timeout=10.0)
            assert storage.study_exists("kept")

    def test_study_resumes_in_fresh_server_process(self, space, tmp_path):
        path = str(tmp_path / "service.db")
        interrupted = {"n": 0}

        def dying(trial):
            interrupted["n"] += 1
            if interrupted["n"] > 3:
                raise KeyboardInterrupt  # the first server process dies
            return trial.params["x"]

        with AntTuneServer(num_workers=1, storage=path) as first:
            job_id = first.submit(space, dying, config=StudyConfig(n_trials=6),
                                  algorithm=RandomSearch(rng=np.random.default_rng(1)),
                                  study_name="restartable",
                                  rng=np.random.default_rng(1))
            with pytest.raises(TrialError):
                first.wait(job_id, timeout=10.0)

        # "Fresh process": a brand-new server over the same SQLite file.
        ran = {"n": 0}

        def counting(trial):
            ran["n"] += 1
            return trial.params["x"]

        with AntTuneServer(num_workers=1, storage=path) as second:
            assert second.storage.study_exists("restartable")
            job_id = second.resume("restartable", space, counting,
                                   algorithm=RandomSearch(rng=np.random.default_rng(1)))
            best = second.wait(job_id, timeout=10.0)
            study = second._jobs[job_id].study
        assert ran["n"] == 3  # only the remaining trial budget ran
        completed = [t for t in study.trials if t.state == TrialState.COMPLETED]
        assert len(completed) == 6
        assert best.value == max(t.value for t in completed)

    def test_resume_without_storage_raises(self, space, server):
        with pytest.raises(TrialError, match="storage"):
            server.resume("nope", space, lambda t: 0.0)

    def test_submit_refuses_to_overwrite_stored_study(self, space, tmp_path):
        path = str(tmp_path / "dup.db")
        with AntTuneServer(num_workers=1, storage=path) as server:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=2),
                                   study_name="once")
            server.wait(job_id, timeout=10.0)
            with pytest.raises(TrialError, match="already exists in storage"):
                server.submit(space, lambda t: t.params["x"],
                              config=StudyConfig(n_trials=2), study_name="once")
            # resume() is the sanctioned way to touch the stored study again.
            again = server.resume("once", space, lambda t: t.params["x"])
            server.wait(again, timeout=10.0)

    def test_duplicate_active_study_name_rejected(self, space, server):
        release = threading.Event()

        def gated(trial):
            assert release.wait(5.0)
            return trial.params["x"]

        job_id = server.submit(space, gated, config=StudyConfig(n_trials=2),
                               study_name="taken")
        try:
            with pytest.raises(TrialError, match="already in use"):
                server.submit(space, lambda t: t.params["x"],
                              config=StudyConfig(n_trials=2), study_name="taken")
        finally:
            release.set()
        server.wait(job_id, timeout=10.0)
        # Once the first job finished, the name may be reused (e.g. resume).
        again = server.submit(space, lambda t: t.params["x"],
                              config=StudyConfig(n_trials=2), study_name="taken")
        server.wait(again, timeout=10.0)

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_trial_deadline_excludes_queue_wait_across_jobs(self, space, scheduler):
        # Two single-trial jobs share a one-thread pool (backend='thread'
        # forces a real queue even with one worker): job B's trial waits
        # ~0.3s queued behind job A.  Its 0.5s time limit must measure from
        # when it starts running, not from submission, or it would be
        # spuriously expired by pool contention.
        with AntTuneServer(num_workers=1, max_concurrent_jobs=2,
                           backend="thread", scheduler=scheduler) as server:
            config = StudyConfig(n_trials=1, trial_time_limit=0.5, max_retries=0)
            ids = [server.submit(space,
                                 lambda t: time.sleep(0.3) or t.params["x"],
                                 config=config) for _ in range(2)]
            for job_id in ids:
                best = server.wait(job_id, timeout=10.0)
                assert best.value is not None
                status = server.status(job_id)
                assert status["states"] == {TrialState.COMPLETED.value: 1}

    def test_cotenant_straggler_does_not_starve_healthy_job(self, space):
        # Job A's non-cooperative trials hold the whole pool longer than job
        # B's time limit.  B's trials must not be failed/"never started" for
        # contention they didn't cause: their clocks start when they do.
        with AntTuneServer(num_workers=2, max_concurrent_jobs=2,
                           backend="thread") as server:
            slow = server.submit(
                space, lambda t: time.sleep(0.4) or t.params["x"],
                config=StudyConfig(n_trials=2))
            time.sleep(0.05)  # let A occupy both pool threads first
            fast = server.submit(
                space, lambda t: time.sleep(0.05) or t.params["x"],
                config=StudyConfig(n_trials=4, trial_time_limit=0.3,
                                   max_retries=1))
            assert server.wait(fast, timeout=10.0).value is not None
            assert (server.status(fast)["states"]
                    == {TrialState.COMPLETED.value: 4})
            assert server.wait(slow, timeout=10.0).value is not None

    def test_default_study_names_are_unique_per_server_process(self, space):
        # Two server "processes" over one job-id space must not collide on
        # their default study names (a restart would otherwise overwrite
        # persisted studies).
        with AntTuneServer(num_workers=1) as first, \
                AntTuneServer(num_workers=1) as second:
            a = first.submit(space, lambda t: t.params["x"],
                             config=StudyConfig(n_trials=1))
            b = second.submit(space, lambda t: t.params["x"],
                              config=StudyConfig(n_trials=1))
            first.wait(a, timeout=10.0)
            second.wait(b, timeout=10.0)
            assert (first.status(a)["study_name"]
                    != second.status(b)["study_name"])


class TestClient:
    def test_client_tune_end_to_end(self, space):
        client = AntTuneClient()
        try:
            best = client.tune(space, lambda t: 1.0 - abs(t.params["x"] - 0.7),
                               config=StudyConfig(n_trials=10),
                               rng=np.random.default_rng(0))
            assert best.value > 0.7
        finally:
            client.server.shutdown()

    def test_client_submit_poll_wait(self, space):
        client = AntTuneClient(server=AntTuneServer(num_workers=2))
        try:
            job_id = client.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=4))
            best = client.wait(job_id, timeout=10.0)
            assert best.value is not None
            assert client.poll(job_id)["finished"] is True
        finally:
            client.server.shutdown()

    def test_async_scheduler_service(self, space):
        with AntTuneServer(num_workers=4, scheduler="async") as server:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=8))
            best = server.wait(job_id, timeout=10.0)
            assert best.value is not None
            assert server.status(job_id)["num_trials"] == 8


class TestPreemptionVictimSelection:
    """The cost model: shed least-progressed work first, youngest id on ties."""

    @staticmethod
    def _trial(trial_id, reports):
        from repro.automl.trial import Trial
        trial = Trial(trial_id=trial_id, params={"x": 0.5})
        trial.intermediate_values = [float(i) for i in range(reports)]
        return trial

    def test_least_progress_killed_first(self):
        fresh = self._trial(0, reports=0)
        warm = self._trial(1, reports=2)
        done_soon = self._trial(2, reports=9)
        victims = AntTuneServer._select_victims([warm, done_soon, fresh], 2)
        assert [t.trial_id for t in victims] == [0, 1]

    def test_nearly_done_youngest_is_spared(self):
        # The *youngest* trial has streamed the most reports (nearly done):
        # the old id-based policy would have killed it; the cost model spares
        # it and sheds the idle older trial instead.
        old_idle = self._trial(3, reports=0)
        youngest_nearly_done = self._trial(7, reports=40)
        victims = AntTuneServer._select_victims(
            [old_idle, youngest_nearly_done], 1)
        assert [t.trial_id for t in victims] == [3]
        assert youngest_nearly_done not in victims

    def test_tie_broken_by_youngest_id(self):
        trials = [self._trial(i, reports=1) for i in range(3)]
        victims = AntTuneServer._select_victims(trials, 1)
        assert [t.trial_id for t in victims] == [2]

    def test_excess_larger_than_pool_takes_everything(self):
        trials = [self._trial(i, reports=i) for i in range(2)]
        assert len(AntTuneServer._select_victims(trials, 5)) == 2


class TestBackpressureObservability:
    """TelemetryTransport/EventBus drops surface through status()."""

    def test_status_exposes_telemetry_counters(self, space, server):
        job_id = server.submit(space, lambda t: t.params["x"],
                               config=StudyConfig(n_trials=2))
        server.wait(job_id, timeout=10.0)
        telemetry = server.status(job_id)["telemetry"]
        assert telemetry == {"transport_dropped": 0,
                             "event_queue_dropped": 0}
        summary = server.server_status()
        assert summary["num_workers"] == 4
        assert summary["job_states"].get("completed", 0) >= 1
        assert summary["telemetry"]["transport_dropped"] == 0

    def test_event_queue_drops_are_counted(self, space, server):
        release = threading.Event()

        def gated(trial):
            assert release.wait(5.0)
            for step in range(3):
                trial.report(float(step))
            return trial.params["x"]

        job_id = server.submit(space, gated, config=StudyConfig(n_trials=3))
        # A consumer that never reads: its 1-slot queue must shed events.
        subscription = server.subscribe(job_id, max_queue=1)
        release.set()
        server.wait(job_id, timeout=10.0)
        try:
            telemetry = server.status(job_id)["telemetry"]
            assert telemetry["event_queue_dropped"] > 0
            assert telemetry["event_queue_dropped"] == subscription.dropped
            total = server.server_status()["telemetry"]["event_queue_dropped"]
            assert total >= telemetry["event_queue_dropped"]
        finally:
            subscription.close()


class TestStorageWriterThread:
    """A running job's rows reach storage only through its checkpoints.

    No per-job writer thread persists the event stream: the dispatch loop's
    checkpoint writes trial rows, and the server writes the job's status at
    enqueue, start and finish; rows are complete before shutdown closes.
    """

    def test_rows_flushed_by_shutdown(self, space, tmp_path):
        path = str(tmp_path / "writer.db")
        server = AntTuneServer(num_workers=2, backend="thread", storage=path)
        job_id = server.submit(space, lambda t: t.params["x"],
                               config=StudyConfig(n_trials=3),
                               study_name="writer-study")
        server.wait(job_id, timeout=10.0)
        server.shutdown()
        with StudyStorage(path) as storage:
            listed = {row["name"]: row for row in storage.list_studies()}
            assert listed["writer-study"]["status"] == "completed"
            assert listed["writer-study"]["num_trials"] == 3
            payload = storage.load_payload("writer-study")
            assert len(payload["trials"]) == 3

    def test_running_job_reaches_storage_only_through_checkpoints(
            self, space, tmp_path, monkeypatch):
        started, recorded, statuses = [], [], []
        thread_start = threading.Thread.start
        record_trial = StudyStorage.record_trial
        set_status = StudyStorage.set_status

        def spy_start(thread):
            started.append(thread.name)
            return thread_start(thread)

        def spy_record(storage, name, record):
            recorded.append(record["trial_id"])
            return record_trial(storage, name, record)

        def spy_status(storage, name, status):
            statuses.append(status)
            return set_status(storage, name, status)

        monkeypatch.setattr(threading.Thread, "start", spy_start)
        monkeypatch.setattr(StudyStorage, "record_trial", spy_record)
        monkeypatch.setattr(StudyStorage, "set_status", spy_status)
        entered, release = threading.Event(), threading.Event()

        def gated(trial):
            entered.set()
            assert release.wait(5.0), "trial never released"
            return trial.params["x"]

        path = str(tmp_path / "one-path.db")
        server = AntTuneServer(num_workers=2, backend="thread", storage=path)
        try:
            job_id = server.submit(space, gated,
                                   config=StudyConfig(n_trials=4),
                                   study_name="one-path")
            assert entered.wait(5.0), "no trial started"
            # A gated trial blocks the first round: nothing checkpointed yet,
            # yet the stored status already reads running.
            with StudyStorage(path) as reader:
                assert reader.study_status("one-path") == "running"
            release.set()
            server.wait(job_id, timeout=10.0)
            status = server.status(job_id)
            with StudyStorage(path) as reader:
                stored = reader.trial_state_counts("one-path")
                assert reader.study_status("one-path") == "completed"
        finally:
            release.set()
            server.shutdown()
        assert status["num_trials"] == 4
        assert stored == status["states"]
        assert recorded == []
        assert statuses == ["running"]
        assert started, "the thread spy saw no thread start"
        assert not [name for name in started
                    if name.startswith("anttune-storage")], started

    def test_cancelled_queued_job_status_persists(self, space, tmp_path):
        path = str(tmp_path / "cancel.db")
        release = threading.Event()

        def gated(trial):
            assert release.wait(5.0)
            return trial.params["x"]

        # max_concurrent_jobs=1: the second job stays QUEUED until cancel.
        server = AntTuneServer(num_workers=2, max_concurrent_jobs=1,
                               backend="thread", storage=path)
        try:
            running = server.submit(space, gated,
                                    config=StudyConfig(n_trials=2),
                                    study_name="running-study")
            queued = server.submit(space, gated,
                                   config=StudyConfig(n_trials=2),
                                   study_name="queued-study")
            assert server.cancel(queued) is True
            release.set()
            server.wait(running, timeout=10.0)
        finally:
            release.set()
            server.shutdown()
        with StudyStorage(path) as storage:
            listed = {row["name"]: row for row in storage.list_studies()}
            assert listed["queued-study"]["status"] == "cancelled"
            assert listed["running-study"]["status"] == "completed"
