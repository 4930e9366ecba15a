"""Tests for parallel trial execution: executors, parity, retries, checkpointing."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.automl import (
    RACOS,
    FairShareGovernor,
    GovernedExecutor,
    ProcessPoolTrialExecutor,
    RandomSearch,
    Study,
    StudyConfig,
    SynchronousExecutor,
    ThreadPoolTrialExecutor,
    make_executor,
    worker_rng,
)
from repro.automl.search_space import SearchSpace, Uniform
from repro.automl.trial import Trial, TrialState


@pytest.fixture
def space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


def _study(space, algorithm_cls=RandomSearch, seed=0, **config):
    return Study(space, algorithm=algorithm_cls(rng=np.random.default_rng(seed)),
                 config=StudyConfig(**config), rng=np.random.default_rng(seed))


# Module-level objectives: the process backend requires picklable callables.
def _picklable_objective(trial):
    return trial.params["x"]


def _picklable_rng_objective(trial):
    return float(worker_rng().random())


def _picklable_failing_objective(trial):
    raise RuntimeError("boom in a worker process")


class TestExecutors:
    def test_make_executor_picks_cheapest(self):
        assert isinstance(make_executor(1), SynchronousExecutor)
        assert isinstance(make_executor(4), ThreadPoolTrialExecutor)
        with pytest.raises(ValueError):
            make_executor(0)

    def test_make_executor_backends(self):
        assert isinstance(make_executor(4, backend="sync"), SynchronousExecutor)
        assert isinstance(make_executor(1, backend="thread"), ThreadPoolTrialExecutor)
        process = make_executor(2, backend="process", base_seed=7)
        try:
            assert isinstance(process, ProcessPoolTrialExecutor)
            assert process.base_seed == 7
        finally:
            process.shutdown()
        with pytest.raises(ValueError):
            make_executor(2, backend="fibers")

    def test_thread_pool_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ThreadPoolTrialExecutor(0)

    def test_batch_runs_concurrently(self, space):
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def objective(trial):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.05)
            with lock:
                active["now"] -= 1
            return trial.params["x"]

        study = _study(space, n_trials=8)
        study.optimize(objective, n_workers=4)
        assert active["peak"] >= 2
        assert len(study.trials) == 8

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_late_failure_does_not_overwrite_timeout(self, space, scheduler):
        executor = ThreadPoolTrialExecutor(1)

        def late_boom(trial):
            time.sleep(0.3)
            raise RuntimeError("late boom")

        study = _study(space, n_trials=1, trial_time_limit=0.05,
                       raise_on_all_failed=False)
        study.optimize(late_boom, executor=executor, scheduler=scheduler)
        (trial,) = study.trials
        assert trial.state == TrialState.TIMED_OUT
        time.sleep(0.4)  # let the straggler thread raise after the deadline
        assert trial.state == TrialState.TIMED_OUT  # not overwritten to FAILED
        assert trial.error is None  # late error discarded with the late result
        executor.shutdown()

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_starved_queued_trial_fails_instead_of_timing_out(self, space,
                                                              scheduler):
        inner = ThreadPoolTrialExecutor(1)
        # Two slots over one pool thread: the second trial queues behind
        # the first, a non-cooperative straggler.
        executor = GovernedExecutor(inner, FairShareGovernor(2), "job")
        study = _study(space, n_trials=2, trial_time_limit=0.05,
                       max_retries=0, raise_on_all_failed=False)
        study.optimize(lambda t: time.sleep(0.3) or 1.0, executor=executor,
                       scheduler=scheduler)
        first, queued = study.trials
        assert first.state == TrialState.TIMED_OUT
        # The queued trial never ran: FAILED (retryable), not a fake timeout.
        assert queued.state == TrialState.FAILED
        assert "never started" in queued.error
        inner.shutdown()

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_starved_trial_fails_one_limit_after_a_sibling_started(
            self, space, scheduler):
        # Our own straggler holds the only thread: the queued trial fails
        # one limit after its sibling started, not after the 5-limit grace
        # reserved for pools busy with other owners' work.
        inner = ThreadPoolTrialExecutor(1)
        executor = GovernedExecutor(inner, FairShareGovernor(2), "job")
        study = _study(space, n_trials=2, trial_time_limit=0.2,
                       max_retries=0, raise_on_all_failed=False)
        start = time.perf_counter()
        study.optimize(lambda t: time.sleep(1.5) or 1.0, executor=executor,
                       scheduler=scheduler)
        elapsed = time.perf_counter() - start
        assert [t.state for t in study.trials] == [TrialState.TIMED_OUT,
                                                   TrialState.FAILED]
        assert elapsed < 0.6  # the grace alone would wait 1.0 s
        inner.shutdown()

    def test_executor_survives_pool_shutdown(self):
        executor = ThreadPoolTrialExecutor(2)
        trials = [Trial(0, {"x": 0.5}), Trial(1, {"x": 0.25})]
        executor.submit(lambda t: t.params["x"], trials[0]).result(timeout=10.0)
        executor.shutdown()  # worker death: the pool is gone
        executor.submit(lambda t: t.params["x"], trials[1]).result(timeout=10.0)
        assert all(t.state == TrialState.COMPLETED for t in trials)
        executor.shutdown()


class TestProcessPool:
    def test_process_pool_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ProcessPoolTrialExecutor(0)

    def test_study_runs_on_process_backend(self, space):
        study = _study(space, n_trials=6)
        best = study.optimize(_picklable_objective, n_workers=2, backend="process")
        assert len(study.trials) == 6
        assert all(t.state == TrialState.COMPLETED for t in study.trials)
        assert best.value == study.best_value

    def test_remote_failures_are_recorded_and_retried(self, space):
        study = _study(space, n_trials=2, max_retries=1, raise_on_all_failed=False)
        assert study.optimize(_picklable_failing_objective, n_workers=2,
                              backend="process") is None
        assert all(t.state == TrialState.FAILED for t in study.trials)
        assert all("boom in a worker process" in t.error for t in study.trials)
        assert len(study.trials) == 4  # each budget slot attempted twice

    def test_unpicklable_objective_fails_gracefully(self, space):
        study = _study(space, n_trials=2, max_retries=0, raise_on_all_failed=False)
        # A lambda cannot be pickled into the worker: trials must be recorded
        # as FAILED with the pickling error, never crash the study loop.
        assert study.optimize(lambda t: t.params["x"], n_workers=2,
                              backend="process") is None
        assert all(t.state == TrialState.FAILED for t in study.trials)
        assert all(t.error is not None for t in study.trials)

    def test_worker_rng_produces_values_per_process(self, space):
        study = _study(space, n_trials=4)
        study.optimize(_picklable_rng_objective, n_workers=2, backend="process")
        values = [t.value for t in study.trials]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) == len(values)  # streams advance, never repeat

    def test_worker_rng_is_per_thread_on_thread_backend(self):
        import threading

        rngs = []
        barrier = threading.Barrier(2, timeout=5.0)

        def record():
            barrier.wait()  # both threads alive at once: no ident reuse
            rngs.append(worker_rng())

        threads = [threading.Thread(target=record) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Two pool threads must never share a generator instance.
        assert len(rngs) == 2
        assert rngs[0] is not rngs[1]

    def test_pruner_on_process_backend_no_longer_warns(self, space):
        # Live telemetry feeds the pruner from process workers now, so the
        # old "pruners cannot act inside process-pool workers" warning is
        # gone — a pruner on the process backend is fully supported.
        import warnings as warnings_module

        from repro.automl import MedianPruner

        study = Study(space, algorithm=RandomSearch(rng=np.random.default_rng(0)),
                      config=StudyConfig(n_trials=2), pruner=MedianPruner(),
                      rng=np.random.default_rng(0))
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            study.optimize(_picklable_objective, n_workers=2, backend="process")
        assert all(t.state == TrialState.COMPLETED for t in study.trials)

    def test_executor_survives_pool_shutdown(self, space):
        executor = ProcessPoolTrialExecutor(2)
        trials = [Trial(0, {"x": 0.5}, state=TrialState.RUNNING),
                  Trial(1, {"x": 0.25}, state=TrialState.RUNNING)]
        executor.submit(_picklable_objective, trials[0]).result(timeout=30.0)
        executor.shutdown()  # worker death: the pool is gone
        executor.submit(_picklable_objective, trials[1]).result(timeout=30.0)
        assert all(t.state == TrialState.COMPLETED for t in trials)
        executor.shutdown()


class TestParallelStudy:
    @pytest.mark.parametrize("algorithm_cls", [RandomSearch, RACOS])
    def test_parallel_matches_sequential_with_fixed_seed(self, space, algorithm_cls):
        sequential = _study(space, algorithm_cls, seed=7, n_trials=12)
        sequential.optimize(lambda t: t.params["x"])
        parallel = _study(space, algorithm_cls, seed=7, n_trials=12)
        parallel.optimize(lambda t: t.params["x"], n_workers=4)
        if algorithm_cls is RandomSearch:
            # Random search ignores history, so the trial sequence is identical.
            assert ([t.params for t in sequential.trials]
                    == [t.params for t in parallel.trials])
            assert sequential.best_value == parallel.best_value
        # Every algorithm must be deterministic across identical parallel runs.
        repeat = _study(space, algorithm_cls, seed=7, n_trials=12)
        repeat.optimize(lambda t: t.params["x"], n_workers=4)
        assert [t.params for t in repeat.trials] == [t.params for t in parallel.trials]

    def test_parallel_completes_all_trials(self, space):
        study = _study(space, n_trials=10)
        best = study.optimize(lambda t: t.params["x"], n_workers=4)
        assert len(study.trials) == 10
        assert all(t.state == TrialState.COMPLETED for t in study.trials)
        assert best.value == study.best_value

    def test_parallel_worker_attribution_round_robin(self, space):
        study = _study(space, n_trials=8)
        study.optimize(lambda t: t.params["x"], n_workers=4)
        assert {t.worker for t in study.trials} == {f"worker-{i}" for i in range(4)}

    def test_retry_on_worker_failure(self, space):
        failed_once = set()
        lock = threading.Lock()

        def flaky(trial):
            key = round(trial.params["x"], 12)
            with lock:
                first = key not in failed_once
                failed_once.add(key)
            if first:
                raise SystemExit("worker died")  # harsher than a plain Exception
            return trial.params["x"]

        study = _study(space, n_trials=6, max_retries=1)
        best = study.optimize(flaky, n_workers=4)
        assert best is not None
        completed = [t for t in study.trials if t.state == TrialState.COMPLETED]
        failed = [t for t in study.trials if t.state == TrialState.FAILED]
        assert len(completed) == 6
        assert len(failed) == 6
        assert all(t.error is not None for t in failed)

    def test_exhausted_retries_do_not_block_study(self, space):
        def always_fails_low(trial):
            if trial.params["x"] < 0.5:
                raise RuntimeError("boom")
            return trial.params["x"]

        study = _study(space, seed=3, n_trials=8, max_retries=1,
                       raise_on_all_failed=False)
        study.optimize(always_fails_low, n_workers=4)
        completed = [t for t in study.trials if t.state == TrialState.COMPLETED]
        failed = [t for t in study.trials if t.state == TrialState.FAILED]
        # Every failing configuration is attempted exactly twice (1 retry),
        # then abandoned without blocking the remaining budget slots.
        assert len(failed) % 2 == 0
        failed_params = {round(t.params["x"], 12) for t in failed}
        assert len(failed_params) == len(failed) // 2
        assert len(completed) + len(failed_params) == 8
        assert len(completed) + len(failed) == len(study.trials)

    def test_parallel_trial_timeout_cancels_stragglers(self, space):
        def cooperative_straggler(trial):
            for _ in range(100):
                time.sleep(0.02)
                trial.report(0.0)  # raises TrialCancelled once past the deadline
            return 1.0

        study = _study(space, n_trials=4, trial_time_limit=0.1,
                       raise_on_all_failed=False)
        start = time.perf_counter()
        assert study.optimize(cooperative_straggler, n_workers=4) is None
        elapsed = time.perf_counter() - start
        assert all(t.state == TrialState.TIMED_OUT for t in study.trials)
        assert elapsed < 1.0  # did not wait the full 2 s per straggler

    def test_total_time_limit_stops_parallel_study(self, space):
        study = _study(space, n_trials=100, total_time_limit=0.2)
        study.optimize(lambda t: time.sleep(0.05) or t.params["x"], n_workers=2)
        assert len(study.trials) < 100


class TestCheckpointResume:
    def test_checkpoint_resume_round_trip(self, space, tmp_path):
        ckpt = str(tmp_path / "study.json")
        interrupted = _study(space, seed=1, n_trials=6)
        calls = {"n": 0}

        def objective(trial):
            calls["n"] += 1
            if calls["n"] > 4:
                raise KeyboardInterrupt  # simulate the process dying mid-study
            return trial.params["x"]

        with pytest.raises(KeyboardInterrupt):
            interrupted.optimize(objective, n_workers=2, checkpoint_path=ckpt)
        assert len(interrupted.trials) >= 4

        resumed = _study(space, seed=1, n_trials=6)
        resumed.restore_checkpoint(ckpt)
        assert resumed.config.n_trials == 6
        best = resumed.optimize(lambda t: t.params["x"], n_workers=2,
                                checkpoint_path=ckpt)
        assert best is not None
        completed = [t for t in resumed.trials if t.state == TrialState.COMPLETED]
        assert len(completed) == 6

    def test_checkpoint_preserves_history_and_best(self, space, tmp_path):
        ckpt = str(tmp_path / "study.json")
        study = _study(space, seed=2, n_trials=5)
        study.optimize(lambda t: t.params["x"], checkpoint_path=ckpt)
        clone = _study(space, seed=2, n_trials=5)
        clone.restore_checkpoint(ckpt)
        assert clone.history_records() == study.history_records()
        assert clone.best_value == study.best_value
        # Budget fully consumed: a further optimize call runs nothing new.
        clone.optimize(lambda t: t.params["x"])
        assert len(clone.trials) == 5

    def test_restore_rejects_algorithm_mismatch(self, space, tmp_path):
        from repro.exceptions import TrialError

        ckpt = str(tmp_path / "study.json")
        study = _study(space, RandomSearch, seed=2, n_trials=3)
        study.optimize(lambda t: t.params["x"], checkpoint_path=ckpt)
        with pytest.raises(TrialError, match="algorithm"):
            _study(space, RACOS, seed=2, n_trials=3).restore_checkpoint(ckpt)

    def test_restore_rejects_unknown_version(self, space, tmp_path):
        from repro.exceptions import TrialError
        from repro.utils.serialization import save_json

        path = tmp_path / "bad.json"
        save_json(path, {"version": 99, "config": {}, "budget_used": 0, "trials": []})
        with pytest.raises(TrialError):
            _study(space).restore_checkpoint(str(path))

    def test_sequential_checkpointing_also_works(self, space, tmp_path):
        ckpt = str(tmp_path / "seq.json")
        study = _study(space, seed=4, n_trials=3)
        study.optimize(lambda t: t.params["x"], checkpoint_path=ckpt)
        resumed = _study(space, seed=4, n_trials=3)
        resumed.restore_checkpoint(ckpt)
        resumed.optimize(lambda t: t.params["x"])
        assert len(resumed.trials) == 3


class TestCheckpointV2:
    @pytest.mark.parametrize("algorithm_cls", [RandomSearch, RACOS])
    def test_resumed_study_replays_identically(self, space, tmp_path, algorithm_cls):
        # The v2 format restores the algorithm/RNG internal state, so the
        # resumed study asks exactly what an uninterrupted run would have.
        full = _study(space, algorithm_cls, seed=5, n_trials=8)
        full.optimize(lambda t: t.params["x"])

        ckpt = str(tmp_path / "v2.json")
        interrupted = _study(space, algorithm_cls, seed=5, n_trials=8)
        calls = {"n": 0}

        def dying(trial):
            calls["n"] += 1
            if calls["n"] > 4:
                raise KeyboardInterrupt
            return trial.params["x"]

        with pytest.raises(KeyboardInterrupt):
            interrupted.optimize(dying, checkpoint_path=ckpt)

        resumed = _study(space, algorithm_cls, seed=5, n_trials=8)
        resumed.restore_checkpoint(ckpt)
        resumed.optimize(lambda t: t.params["x"])
        assert [t.params for t in resumed.trials] == [t.params for t in full.trials]
        assert resumed.best_value == full.best_value

    def test_grid_search_cursor_is_restored(self, space, tmp_path):
        from repro.automl import GridSearch

        def mk():
            return Study(space, algorithm=GridSearch(resolution=4,
                                                     rng=np.random.default_rng(0)),
                         config=StudyConfig(n_trials=4),
                         rng=np.random.default_rng(0))

        full = mk()
        full.optimize(lambda t: t.params["x"])

        ckpt = str(tmp_path / "grid.json")
        interrupted = mk()
        calls = {"n": 0}

        def dying(trial):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return trial.params["x"]

        with pytest.raises(KeyboardInterrupt):
            interrupted.optimize(dying, checkpoint_path=ckpt)
        resumed = mk()
        resumed.restore_checkpoint(ckpt)
        resumed.optimize(lambda t: t.params["x"])
        # The grid walk continues where it stopped instead of restarting.
        assert [t.params for t in resumed.trials] == [t.params for t in full.trials]

    def test_v1_checkpoints_are_accepted_and_migrated(self, space, tmp_path):
        from dataclasses import asdict

        from repro.utils.serialization import save_json

        study = _study(space, seed=6, n_trials=2)
        study.optimize(lambda t: t.params["x"])
        v1_payload = {
            "version": 1,
            "algorithm": study.algorithm.name,
            "config": asdict(StudyConfig(n_trials=4)),
            "budget_used": 2,
            "trials": [t.as_record() for t in study.trials],
        }
        path = tmp_path / "v1.json"
        save_json(path, v1_payload)

        resumed = _study(space, seed=6, n_trials=4)
        resumed.restore_checkpoint(str(path))
        resumed.optimize(lambda t: t.params["x"])
        # History kept, only the remaining budget ran; no state to restore.
        assert len(resumed.trials) == 4
        assert all(t.state == TrialState.COMPLETED for t in resumed.trials)

    def test_checkpoint_version_is_2(self, space, tmp_path):
        from repro.automl.study import CHECKPOINT_VERSION
        from repro.utils.serialization import load_json

        assert CHECKPOINT_VERSION == 2
        ckpt = str(tmp_path / "v.json")
        study = _study(space, seed=0, n_trials=2)
        study.optimize(lambda t: t.params["x"], checkpoint_path=ckpt)
        payload = load_json(ckpt)
        assert payload["version"] == 2
        assert "algorithm_state" in payload and "rng_state" in payload
