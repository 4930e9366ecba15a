"""Tests for the trial schedulers: round-barrier default and async slot refill."""

from __future__ import annotations

import re
import threading
import time
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest

from repro.automl import (
    RACOS,
    AsyncScheduler,
    GridSearch,
    MedianPruner,
    RandomSearch,
    RoundScheduler,
    Study,
    StudyConfig,
    TrialScheduler,
    make_scheduler,
)
from repro.automl.events import (
    TrialFinished,
    TrialKilled,
    TrialReport,
    TrialStarted,
)
from repro.automl.executors import TrialExecutor
from repro.automl.search_space import Choice, SearchSpace, Uniform
from repro.automl.trial import TrialState


@pytest.fixture
def space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


def _study(space, algorithm_cls=RandomSearch, seed=0, **config):
    return Study(space, algorithm=algorithm_cls(rng=np.random.default_rng(seed)),
                 config=StudyConfig(**config), rng=np.random.default_rng(seed))


class TestMakeScheduler:
    def test_resolves_names_and_instances(self):
        assert isinstance(make_scheduler(None), RoundScheduler)
        assert isinstance(make_scheduler("round"), RoundScheduler)
        assert isinstance(make_scheduler("async"), AsyncScheduler)
        instance = AsyncScheduler()
        assert make_scheduler(instance) is instance
        with pytest.raises(ValueError):
            make_scheduler("fifo")

    def test_round_is_the_default(self, space):
        # Parallel optimize without a scheduler arg must stay deterministic:
        # two runs with the same seed produce the identical trial set.
        runs = []
        for _ in range(2):
            study = _study(space, RACOS, seed=7, n_trials=12)
            study.optimize(lambda t: t.params["x"], n_workers=4)
            runs.append([t.params for t in study.trials])
        assert runs[0] == runs[1]


class TestAsyncScheduler:
    def test_completes_all_trials(self, space):
        study = _study(space, n_trials=10)
        best = study.optimize(lambda t: t.params["x"], n_workers=4,
                              scheduler="async")
        assert len(study.trials) == 10
        assert all(t.state == TrialState.COMPLETED for t in study.trials)
        assert best.value == study.best_value

    def test_ask_order_matches_sequential_for_random_search(self, space):
        # Random search ignores history, and asks stay serialised under the
        # study lock, so even the async schedule samples the same sequence.
        sequential = _study(space, seed=3, n_trials=12)
        sequential.optimize(lambda t: t.params["x"])
        asynchronous = _study(space, seed=3, n_trials=12)
        asynchronous.optimize(lambda t: t.params["x"], n_workers=4,
                              scheduler="async")
        assert ([t.params for t in asynchronous.trials]
                == [t.params for t in sequential.trials])

    def test_straggler_does_not_idle_other_workers(self, space):
        # One trial sleeps 6x longer than the rest.  The round barrier would
        # pay the straggler price every batch; slot refill pays it once.
        concurrent_past_straggler = threading.Event()
        state = {"fast_done": 0}
        lock = threading.Lock()

        def objective(trial):
            if trial.trial_id == 0:
                time.sleep(0.3)
                with lock:
                    if state["fast_done"] >= 4:
                        # At least 4 fast trials finished while the straggler
                        # (which would end round 1) was still running.
                        concurrent_past_straggler.set()
            else:
                time.sleep(0.05)
                with lock:
                    state["fast_done"] += 1
            return trial.params["x"]

        study = _study(space, n_trials=8)
        study.optimize(objective, n_workers=2, scheduler="async")
        assert concurrent_past_straggler.is_set()
        assert all(t.state == TrialState.COMPLETED for t in study.trials)

    def test_retries_failed_trials_without_extra_budget(self, space):
        failed_once = set()
        lock = threading.Lock()

        def flaky(trial):
            key = round(trial.params["x"], 12)
            with lock:
                first = key not in failed_once
                failed_once.add(key)
            if first:
                raise RuntimeError("boom")
            return trial.params["x"]

        study = _study(space, n_trials=6, max_retries=1)
        best = study.optimize(flaky, n_workers=3, scheduler="async")
        assert best is not None
        completed = [t for t in study.trials if t.state == TrialState.COMPLETED]
        failed = [t for t in study.trials if t.state == TrialState.FAILED]
        assert len(completed) == 6
        assert len(failed) == 6
        assert study._budget_used == 6

    def test_trial_timeout_cancels_stragglers(self, space):
        def cooperative_straggler(trial):
            for _ in range(100):
                time.sleep(0.02)
                trial.report(0.0)  # raises TrialCancelled once past the deadline
            return 1.0

        study = _study(space, n_trials=4, trial_time_limit=0.1,
                       raise_on_all_failed=False)
        start = time.perf_counter()
        assert study.optimize(cooperative_straggler, n_workers=4,
                              scheduler="async") is None
        elapsed = time.perf_counter() - start
        assert all(t.state == TrialState.TIMED_OUT for t in study.trials)
        assert elapsed < 1.5  # did not wait 2 s per straggler

    def test_total_time_limit_stops_refilling(self, space):
        study = _study(space, n_trials=100, total_time_limit=0.2)
        study.optimize(lambda t: time.sleep(0.05) or t.params["x"],
                       n_workers=2, scheduler="async")
        assert 0 < len(study.trials) < 100

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_wedged_pool_cannot_outlive_total_time_limit(self, space, scheduler):
        # Non-cooperative stragglers hold every worker thread far past their
        # per-trial deadline; later trials can never start.  The study must
        # still return within (roughly) its total time limit instead of
        # waiting on the wedged pool forever.
        study = _study(space, n_trials=4, trial_time_limit=0.2,
                       total_time_limit=1.0, raise_on_all_failed=False)
        start = time.perf_counter()
        study.optimize(lambda t: time.sleep(5.0) or 1.0, n_workers=2,
                       scheduler=scheduler)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0
        assert all(t.state in (TrialState.TIMED_OUT, TrialState.FAILED)
                   for t in study.trials)

    def test_checkpointing_after_each_completion(self, space, tmp_path):
        ckpt = str(tmp_path / "async.json")
        study = _study(space, seed=1, n_trials=6)
        study.optimize(lambda t: t.params["x"], n_workers=2, scheduler="async",
                       checkpoint_path=ckpt)
        resumed = _study(space, seed=1, n_trials=6)
        resumed.restore_checkpoint(ckpt)
        # Budget fully consumed: nothing further runs.
        resumed.optimize(lambda t: t.params["x"])
        assert len(resumed.trials) == 6

    def test_checkpoint_fn_called(self, space):
        calls = {"n": 0}

        def count():
            calls["n"] += 1

        study = _study(space, n_trials=5)
        study.optimize(lambda t: t.params["x"], n_workers=2, scheduler="async",
                       checkpoint_fn=count)
        assert calls["n"] == 5

    def test_scheduler_instance_accepted_by_optimize(self, space):
        study = _study(space, n_trials=4)
        study.optimize(lambda t: t.params["x"], n_workers=2,
                       scheduler=AsyncScheduler())
        assert len(study.trials) == 4

    def test_base_scheduler_is_abstract(self, space):
        with pytest.raises(NotImplementedError):
            TrialScheduler().run(_study(space), lambda t: 0.0, None, 0, ["w"])


class _SlowMergeExecutor(TrialExecutor):
    """Records a trial's state first and the rest of its record later.

    Mimics a backend merging a remote result: ``state`` is set inside the
    locked block before value and intermediate values, and the future
    resolves only after the block.
    """

    n_workers = 2

    def submit(self, objective, trial, trial_time_limit=None):
        future = Future()

        def merge():
            trial.started_at = time.perf_counter()
            with trial._state_lock:
                trial.state = TrialState.COMPLETED
                time.sleep(0.2)  # the rest of the record is still merging
                trial.value = 1.0
                trial.duration_seconds = 0.2
                trial.intermediate_values = [0.0, 1.0, 2.0]
            future.set_result(trial)

        threading.Thread(target=merge, daemon=True).start()
        return future


class TestEventContract:
    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_trial_settles_only_after_its_record_merged(self, space, scheduler):
        # A trial whose state is already terminal but whose future has not
        # resolved is mid-merge: settling it then would publish no reports
        # and tell the algorithm a COMPLETED trial without a value.
        study = _study(space, n_trials=4)
        told = []
        tell = study.algorithm.tell
        study.algorithm.tell = lambda trial: (told.append(trial.value),
                                              tell(trial))
        events = []
        study._event_sink = events.append
        study.optimize(lambda t: 1.0, executor=_SlowMergeExecutor(),
                       scheduler=scheduler)
        assert told == [1.0] * 4
        for trial in study.trials:
            steps = [e.step for e in events if isinstance(e, TrialReport)
                     and e.trial_id == trial.trial_id]
            assert steps == [0, 1, 2]

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_mixed_objectives_keep_per_trial_event_order(self, scheduler):
        # One trial of each kind: fast, failing-then-retried, a deadline
        # straggler and one the MedianPruner kills mid-run.  Both policies
        # share one loop, so both give every trial started -> reports ->
        # (at most one) killed -> finished, and the same terminal states.
        space = SearchSpace({"kind": Choice(("fast", "flaky", "straggler",
                                             "pruned"))})
        failed = set()
        lock = threading.Lock()

        def objective(trial):
            kind = trial.params["kind"]
            if kind == "flaky":
                with lock:
                    first = kind not in failed
                    failed.add(kind)
                if first:
                    raise RuntimeError("first attempt fails")
            if kind in ("straggler", "pruned"):
                value = 1.0 if kind == "straggler" else 0.0
                for _ in range(150):
                    trial.report(value)  # raises once killed
                    time.sleep(0.02)
                return value
            for _ in range(100):
                trial.report(1.0)
            return 1.0

        study = Study(space, algorithm=GridSearch(rng=np.random.default_rng(0)),
                      config=StudyConfig(n_trials=4, trial_time_limit=0.5,
                                         max_retries=1),
                      pruner=MedianPruner(warmup_steps=0, min_trials=1),
                      rng=np.random.default_rng(0))
        events = []
        study._event_sink = events.append
        study.optimize(objective, n_workers=4, scheduler=scheduler)

        assert Counter(t.state for t in study.trials) == Counter({
            TrialState.COMPLETED: 2, TrialState.FAILED: 1,
            TrialState.TIMED_OUT: 1, TrialState.PRUNED: 1})
        codes = {TrialStarted: "S", TrialReport: "R", TrialKilled: "K",
                 TrialFinished: "F"}
        kills = {}
        for trial in study.trials:
            stream = [e for e in events if e.trial_id == trial.trial_id]
            shape = "".join(codes[type(e)] for e in stream)
            assert re.fullmatch("SR*K?F", shape), (trial.params, shape)
            steps = [e.step for e in stream if isinstance(e, TrialReport)]
            assert steps == list(range(len(steps)))
            assert stream[-1].state == trial.state.value
            kills.update({trial.params["kind"]: e.reason for e in stream
                          if isinstance(e, TrialKilled)})
        assert kills == {"straggler": "deadline", "pruned": "pruned"}
