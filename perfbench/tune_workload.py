"""AntTune workloads: live and burst event delivery from a remote tune server.

The server runs in a child process (``perfbench/tune_server.py``) with the
async edge, SQLite storage plus the event log, ``num_workers=2`` and at most
two concurrent jobs.  The load process runs ``CLIENTS`` closed-loop SDK
clients, one thread and one connection each: submit a job, follow it with
``subscribe`` to its terminal event, check the stream, then submit the next.
On ``tune-burst`` each client then replays the finished job once with
``subscribe(last_seq=-1)``, while the other client's job is writing the log.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import tune_objectives as objectives
from perfbench.checks import check_replay, check_stream
from perfbench.common import (BENCH_DIR, OUT_DIR, ROOT, BenchmarkError, Outcome,
                              at_reference_speed, child_env, machine_probe, median, quantile)
from perfbench.trace import Tracer

CLIENTS = 2
SETUP_REPEATS = 5
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


@dataclass(frozen=True)
class TuneSpec:
    backend: str
    objective: str
    reports: int
    replay: bool


WORKLOADS: Dict[str, TuneSpec] = {
    "tune-live": TuneSpec(backend="process", objective="live_objective",
                          reports=objectives.LIVE_REPORTS, replay=False),
    "tune-burst": TuneSpec(backend="thread", objective="burst_objective",
                           reports=objectives.BURST_REPORTS, replay=True),
}


class ServerProcess:
    """One ``tune_server.py`` child: spawn, wait for health, stop by signal."""

    def __init__(self, backend: str, tag: str, trace: bool) -> None:
        self.workdir = OUT_DIR / "tmp"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.stats_file = self.workdir / f"stats-{tag}-{os.getpid()}.json"
        self.trace_file = OUT_DIR / "traces" / f"{tag}-server.json"
        command = [sys.executable, str(BENCH_DIR / "tune_server.py"), "--backend", backend,
                   "--workdir", str(self.workdir), "--stats-file", str(self.stats_file)]
        if trace:
            command += ["--trace-file", str(self.trace_file)]
        self.process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        self.url = ""

    def wait_ready(self) -> None:
        """Read the URL line, then poll ``/v1/health`` until it answers."""
        from repro.automl.remote import AntTuneClient

        deadline = time.monotonic() + START_TIMEOUT
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=START_TIMEOUT):
                raise BenchmarkError("tune server printed no URL")
        self.url = self.process.stdout.readline().decode().strip()
        if not self.url.startswith("http://"):
            raise BenchmarkError(f"tune server did not start (exit {self.process.poll()})")
        client = AntTuneClient(self.url, timeout=5.0)
        while True:
            try:
                if client.health().get("ok"):
                    return
            except Exception:  # noqa: BLE001 - not accepting yet
                pass
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise BenchmarkError("tune server never answered /v1/health")
            time.sleep(0.01)

    def stop(self) -> Dict[str, object]:
        """SIGTERM the child, wait for it, and return its stats file."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        try:
            stats = json.loads(self.stats_file.read_text())
        except (OSError, ValueError):
            stats = {}
        self.stats_file.unlink(missing_ok=True)
        return stats


@dataclass
class _ClientTally:
    jobs: int = 0
    events: int = 0
    best_values: List[float] = field(default_factory=list)
    event_latency_s: List[float] = field(default_factory=list)
    submit_s: List[float] = field(default_factory=list)
    replay_events: int = 0
    replay_s: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


def _client_loop(url: str, spec: TuneSpec, tag: int, seed: int, deadline: float,
                 tally: _ClientTally) -> None:
    from repro.automl.events import TrialReport
    from repro.automl.remote import AntTuneClient

    client = AntTuneClient(url, timeout=30.0)
    objective = f"perfbench.tune_objectives:{spec.objective}"
    index = 0
    while time.perf_counter() < deadline:
        tally.attempted += 1
        try:
            start = time.perf_counter()
            job_id = client.submit("perfbench.tune_objectives:SPACE", objective,
                                   config={"n_trials": objectives.TRIALS},
                                   seed=seed * 10_000 + tag * 1_000 + index,
                                   study_name=f"bench-{tag}-{index}")
            tally.submit_s.append(time.perf_counter() - start)
            events = []
            for event in client.subscribe(job_id):
                if isinstance(event, TrialReport):
                    tally.event_latency_s.append(time.monotonic() - event.value)
                events.append(event)
            problems = check_stream(events, job_id, objectives.TRIALS, spec.reports)
            if getattr(events[-1], "state", None) != "completed":
                problems.append(f"job {job_id} ended {getattr(events[-1], 'state', None)}")
            best = client.wait(job_id, timeout=60.0)
            if best.value is None:
                problems.append(f"job {job_id} has no best value")
            if spec.replay:
                start = time.perf_counter()
                replay = list(client.subscribe(job_id, last_seq=-1))
                tally.replay_s += time.perf_counter() - start
                tally.replay_events += len(replay)
                problems += check_replay(events, replay)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            problems = [f"client {tag} job {index}: {exc!r}"]
            best = None
        if problems:
            tally.failures.append(problems[0])
        else:
            tally.jobs += 1
            tally.events += len(events)
            tally.best_values.append(float(best.value))
        index += 1


def _histogram_quantile(exposition: str, family: str, q: float) -> float:
    """Upper bound of the bucket holding quantile ``q`` of a Prometheus histogram."""
    buckets: Dict[float, float] = {}
    pattern = re.compile(rf'^{family}_bucket\{{(?:[^}}]*,)?le="([^"]+)"[^}}]*\}} (\S+)$')
    for line in exposition.splitlines():
        match = pattern.match(line)
        if match:
            bound = float(match.group(1))
            buckets[bound] = buckets.get(bound, 0.0) + float(match.group(2))
    if not buckets or buckets.get(float("inf"), 0.0) == 0:
        return 0.0
    total = buckets[float("inf")]
    for bound in sorted(buckets):
        if buckets[bound] >= q * total:
            return bound if bound != float("inf") else max(b for b in buckets if b != bound)
    return 0.0


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Outcome:
    spec = WORKLOADS[name]
    setup_times = []
    scaled_setup_times = []
    probes = [machine_probe()]
    server: Optional[ServerProcess] = None
    repeats = 1 if smoke else SETUP_REPEATS
    for attempt in range(repeats):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        server = ServerProcess(spec.backend, f"{name}-seed{seed}",
                               trace=trace and attempt == repeats - 1)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        setup_times.append(time.perf_counter() - start)
        probes.append(machine_probe())
        scaled_setup_times.append(at_reference_speed(setup_times[-1], *probes[-2:]))

    tracer = Tracer() if trace else None
    tallies = [_ClientTally() for _ in range(CLIENTS)]
    metrics_text = ""
    telemetry: Dict[str, object] = {}
    try:
        if tracer is not None:
            import repro.automl.remote.client as client_module
            tracer.wrap(client_module, "event_from_wire", "client.decode")
        start = time.perf_counter()
        deadline = start + seconds
        threads = [threading.Thread(target=_client_loop,
                                    args=(server.url, spec, tag, seed, deadline, tallies[tag]),
                                    name=f"bench-client-{tag}")
                   for tag in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start
        if tracer is not None:
            from repro.automl.remote import AntTuneClient
            client = AntTuneClient(server.url, timeout=30.0)
            metrics_text = client.metrics()
            telemetry = client.server_status().get("telemetry", {})
    finally:
        if tracer is not None:
            tracer.restore()
        stats = server.stop()

    outcome = Outcome(end_to_end={})
    for tally in tallies:
        outcome.attempted += tally.attempted
        for problem in tally.failures:
            outcome.fail(problem)
    jobs = sum(t.jobs for t in tallies)
    events = sum(t.events for t in tallies)
    latency_ms = [x * 1e3 for t in tallies for x in t.event_latency_s]
    submit_ms = [x * 1e3 for t in tallies for x in t.submit_s]
    best_values = [v for t in tallies for v in t.best_values]
    if not jobs or not latency_ms:
        raise BenchmarkError(f"{name}: no job completed ({outcome.failures[:3]})")
    replay_s = sum(t.replay_s for t in tallies)
    outcome.end_to_end.update({
        "setup_s": median(scaled_setup_times),
        "latency_ms_p50": quantile(latency_ms, 0.5),
        "jobs_per_s": jobs / wall_s,
        "events_per_s": events / wall_s,
        "quality": sum(best_values) / len(best_values),
        "peak_rss_mb": float(stats.get("peak_rss_mb", 0.0)),
    })
    outcome.info.update({
        "setup_s_all": setup_times,
        "probe_ms_p50": 1e3 * median(probes),
        # Only set-up is scaled to reference speed on the tune workloads.
        "raw_over_reference": {"setup_s": median(setup_times) / median(scaled_setup_times)},
        "event_ms_p50": quantile(latency_ms, 0.5),
        "event_ms_p90": quantile(latency_ms, 0.9),
        "event_ms_p99": quantile(latency_ms, 0.99),
        "event_samples": len(latency_ms),
        "submit_ms_p50": quantile(submit_ms, 0.5),
        "jobs": jobs,
        "events": events,
        "wall_s": wall_s,
    })
    if spec.replay:
        outcome.info["replay_events_per_s"] = (sum(t.replay_events for t in tallies) / replay_s
                                               if replay_s else 0.0)
    if tracer is not None:
        stats_layers = dict(stats.get("layers", {}))
        decode = tracer.stats().get("client.decode")
        outcome.per_layer.update(stats_layers)
        outcome.per_layer.update({
            "scheduler.observe_calls": stats_layers.get("scheduler.observe_calls", 0.0) / jobs,
            "events.queue_dropped": float(telemetry.get("event_queue_dropped", 0)),
            "edge.flush_batch_p50": _histogram_quantile(
                metrics_text, "anttune_edge_flush_batch_size", 0.5),
            "edge.loop_lag_s_p99": _histogram_quantile(
                metrics_text, "anttune_edge_loop_lag_seconds", 0.99),
            "client.decode_s": decode.mean_s if decode is not None else 0.0,
        })
        outcome.info["server_spans"] = stats.get("spans", 0)
        outcome.tracer = tracer
    return outcome
