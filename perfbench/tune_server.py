"""Launch a ``RemoteTuneServer`` in this process until SIGTERM/SIGINT.

Run by the tune workloads as a child process::

    python3 perfbench/tune_server.py --backend process --workdir .perfbench/tmp \
        --stats-file .perfbench/tmp/stats.json [--trace-file trace.json]

It prints the server's URL as its only stdout line, then blocks on a signal,
never on stdin: a parent waiting on a child blocked in ``sys.stdin.read()``
deadlocks forked process-pool workers.  Storage (SQLite + event log) lives in
a temporary directory under ``--workdir`` that is removed on exit.  On
shutdown it writes the server's peak RSS to ``--stats-file``.  Given
``--trace-file``, it traces its layers and on shutdown adds their per-layer
figures to the stats file and writes its spans to the trace file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import peak_rss_mb, require_sources  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def install_wrappers(tracer: Tracer) -> None:
    """Wrap each service layer's public entry point where its caller looks it up."""
    from repro.automl.eventlog import EventLog
    from repro.automl.events import EventBus
    from repro.automl.executors import ProcessPoolTrialExecutor
    from repro.automl.remote.http_server import _TuneApp
    from repro.automl.scheduler import TelemetryMonitor
    from repro.automl.storage import StudyStorage
    from repro.automl.study import Study

    def add_reports(mirrored: int) -> None:
        tracer.count("executors.reports", mirrored)

    def job_of(_bus, event) -> object:
        return getattr(event, "job_id", None)

    tracer.wrap(TelemetryMonitor, "observe", "scheduler.observe")
    tracer.wrap(ProcessPoolTrialExecutor, "drain_telemetry", "executors.drain",
                on_result=add_reports)
    tracer.wrap(EventBus, "publish", "events.publish", key=job_of)
    tracer.count_calls_everywhere("repro.automl.events", "event_to_wire",
                                  "events.wire_encodes")
    tracer.wrap(EventLog, "append", "eventlog.append", key=job_of)
    tracer.wrap_generator(EventLog, "read", "eventlog.read", "eventlog.read_events")
    tracer.wrap(StudyStorage, "save_study", "storage.checkpoint")
    tracer.wrap(StudyStorage, "record_trial", "storage.checkpoint")
    tracer.wrap(Study, "ask_params", "study.ask")
    tracer.wrap(Study, "tell", "study.tell")

    # The HTTP layer has one entry point for every control route; only the
    # submit route gets a span.
    handle_control = _TuneApp.__dict__["handle_control"]

    def traced_handle_control(app, method, template, *args, **kwargs):
        if method != "POST" or template != "/v1/jobs":
            return handle_control(app, method, template, *args, **kwargs)
        with tracer.span("http.submit"):
            return handle_control(app, method, template, *args, **kwargs)

    tracer.patch(_TuneApp, "handle_control", handle_control, traced_handle_control)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The server-side per-layer figures of one traced run."""
    stats = tracer.stats()

    def mean(name: str) -> float:
        st = stats.get(name)
        return st.mean_s if st is not None else 0.0

    def calls(name: str) -> int:
        st = stats.get(name)
        return st.calls if st is not None else 0

    published = calls("events.publish")
    reads = calls("eventlog.read")
    drains = calls("executors.drain")
    return {
        "scheduler.observe_s": mean("scheduler.observe"),
        "scheduler.observe_calls": float(calls("scheduler.observe")),
        "executors.drain_s": mean("executors.drain"),
        "executors.reports_per_drain": (tracer.counts["executors.reports"] / drains
                                        if drains else 0.0),
        "events.publish_s": mean("events.publish"),
        "events.wire_encodes_per_event": (tracer.counts["events.wire_encodes"] / published
                                          if published else 0.0),
        "eventlog.append_s": mean("eventlog.append"),
        "eventlog.read_s": mean("eventlog.read"),
        "eventlog.read_events": (tracer.counts["eventlog.read_events"] / reads
                                 if reads else 0.0),
        "storage.checkpoint_s": mean("storage.checkpoint"),
        "study.ask_s": mean("study.ask"),
        "study.tell_s": mean("study.tell"),
        "http.submit_s": mean("http.submit"),
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=("process", "thread"), required=True)
    parser.add_argument("--workdir", required=True,
                        help="directory under which the temporary storage is made")
    parser.add_argument("--stats-file", required=True)
    parser.add_argument("--trace-file", default=None,
                        help="trace the server's layers and write the spans here")
    args = parser.parse_args(argv)

    require_sources()
    from repro.automl.remote import RemoteTuneServer

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    storage_dir = tempfile.mkdtemp(prefix="tune-", dir=args.workdir)
    tracer = Tracer() if args.trace_file else None
    stats: Dict[str, object] = {}
    try:
        if tracer is not None:
            install_wrappers(tracer)
        remote = RemoteTuneServer(num_workers=2, max_concurrent_jobs=2,
                                  backend=args.backend, edge="async",
                                  storage=str(Path(storage_dir) / "tune.db"))
        try:
            remote.start()
            print(remote.url, flush=True)
            while not stop.wait(0.2):
                pass
        finally:
            remote.stop()
        stats["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.restore()
            stats["layers"] = layer_metrics(tracer)
            stats["spans"] = sum(span is not None for span in tracer.spans)
            tracer.dump(Path(args.trace_file))
    finally:
        shutil.rmtree(storage_dir, ignore_errors=True)
        Path(args.stats_file).write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
