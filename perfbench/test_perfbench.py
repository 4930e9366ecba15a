"""Self-tests of the benchmark: smoke runs, negative cases, tracer arithmetic.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from perfbench.checks import check_budget, check_replay, check_scores, check_stream
from perfbench.common import BENCH_DIR, END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, require_sources
from perfbench.trace import Tracer

require_sources()

# The gated workloads.  tune-burst is left out: on some runs it loses events
# from a stream (README.md, "Known defect").
WORKLOADS = ("alt-bert-A", "alt-lstm-B", "tune-live")


def _run(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    human = "\n".join(lines[:-1])
    for name, unit in units.items():
        assert f"  {name} " in human and f" {unit}\n" in human + "\n"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("alt-bert-A", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------- #
# Negative cases: a wrong output must be counted as failed
# ---------------------------------------------------------------------- #
def _stream(job_id: int, trials: int, reports: int):
    from repro.automl.events import JobStateChanged, TrialFinished, TrialReport, TrialStarted

    events = []
    for trial in range(trials):
        events.append(TrialStarted(trial_id=trial, params={"x": 0.5}))
        events += [TrialReport(trial_id=trial, step=step, value=float(step))
                   for step in range(reports)]
        events.append(TrialFinished(trial_id=trial, state="completed", value=1.0))
    events.append(JobStateChanged(state="completed", terminal=True))
    import dataclasses
    return [dataclasses.replace(e, job_id=job_id, seq=seq) for seq, e in enumerate(events)]


def test_check_stream_accepts_a_whole_stream_and_flags_a_gap():
    events = _stream(7, trials=2, reports=3)
    assert check_stream(events, 7, trials=2, reports_per_trial=3) == []
    gapped = events[:2] + events[3:]  # lose one TrialReport
    problems = check_stream(gapped, 7, trials=2, reports_per_trial=3)
    assert any("seqs are not range" in p for p in problems)
    assert any("TrialReport" in p for p in problems)
    assert check_stream(events[:-1], 7, 2, 3)  # no terminal event
    assert check_stream(events + events[-1:], 7, 2, 3)  # two terminal events
    assert check_replay(events, gapped)


def test_check_budget_and_scores():
    assert check_budget(1, 100.0, 100.0) == []
    assert check_budget(1, 101.0, 100.0)
    assert check_scores([0.1, 0.9], 2) == []
    assert check_scores([0.1, float("nan")], 2)
    assert check_scores([0.1, 1.5], 2)
    assert check_scores([0.1], 2)
    assert check_scores([0.1, 0.2], 2, reference=[0.1, 0.3])


def test_model_over_budget_is_counted_as_failed(monkeypatch):
    from perfbench import alt_workload

    monkeypatch.setattr(alt_workload, "_encoder_flops",
                        lambda system, artifacts: artifacts.flops_budget * 2)
    outcome = alt_workload.run("alt-bert-A", seed=3, seconds=0, trace=False, smoke=True)
    assert outcome.failed == outcome.info["scenarios_onboarded"] > 0
    assert all("over budget" in f for f in outcome.failures)


def test_stream_with_a_gap_is_counted_as_failed(monkeypatch):
    from repro.automl.events import TrialReport
    from repro.automl.remote import AntTuneClient
    from perfbench import tune_workload

    subscribe = AntTuneClient.subscribe
    dropped = []

    def lossy_subscribe(self, job_id, last_seq=-1, max_queue=1024):
        for event in subscribe(self, job_id, last_seq, max_queue):
            if isinstance(event, TrialReport) and not dropped:
                dropped.append(event)  # lose one report of the first stream
                continue
            yield event

    monkeypatch.setattr(AntTuneClient, "subscribe", lossy_subscribe)
    outcome = tune_workload.run("tune-live", seed=3, seconds=1, trace=False, smoke=True)
    assert len(dropped) == 1
    assert outcome.failed == 1
    assert "seqs are not range" in outcome.failures[0]
    assert outcome.attempted > outcome.failed


def test_trace_overhead_needs_a_matching_untraced_record(tmp_path, monkeypatch):
    from perfbench import common
    from perfbench.run import _overhead

    monkeypatch.setattr(common, "OUT_DIR", tmp_path)
    facts = {"workload": "tune-live", "seed": 3, "seconds": 35, "smoke": False,
             "source_digest": "abc"}
    traced = common.Outcome(end_to_end={"jobs_per_s": 9.0})

    def write(**changed):
        base = dict(facts, **changed)
        path = common.record_path(base, trace=False)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"facts": base, "end_to_end": {"jobs_per_s": 10.0}}))

    assert isinstance(_overhead(facts, traced), str)  # no record at all
    write(smoke=True, seconds=1)
    assert isinstance(_overhead(facts, traced), str)  # only a smoke run's
    write(seconds=20)
    assert isinstance(_overhead(facts, traced), str)  # other --seconds
    write(source_digest="def")
    assert isinstance(_overhead(facts, traced), str)  # other sources
    write()
    assert _overhead(facts, traced) == {"jobs_per_s": pytest.approx(-0.1)}


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer", key=5):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    stats = tracer.stats()
    outer, inner = stats["outer"], stats["inner"]
    assert outer.total_s >= inner.total_s + 0.02
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert inner.self_s == pytest.approx(inner.total_s)
    assert [s[4] for s in tracer.spans] == [5, 5]  # key inherited by the child


def test_wrap_and_restore():
    class Thing:
        def work(self, x):
            return x + 1

    tracer = Tracer()
    tracer.wrap(Thing, "work", "thing.work")
    assert Thing().work(1) == 2
    tracer.restore()
    assert Thing().work(1) == 2
    assert tracer.stats()["thing.work"].calls == 1
