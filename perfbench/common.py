"""Shared pieces of the benchmark: paths, statistics, run facts and results."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Everything a run leaves behind (records, traces, temporary storage).
OUT_DIR = ROOT / ".perfbench"

# Per end-to-end metric: unit.  Every workload reports every one of these;
# see perfbench/README.md for what each means on each workload.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "jobs_per_s": "1/s",
    "events_per_s": "1/s",
    "quality": "score",
    "peak_rss_mb": "MB",
}

# Per-layer metric: unit.  Printed by the traced run on every workload; a
# layer the workload does not exercise reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "system.initialize_s": "s",
    "system.add_scenario_self_s": "s",
    "system.predict_s": "s",
    "models.predict_proba_s": "s",
    "meta.adapt_s": "s",
    "meta.feedback_s": "s",
    "meta.distill_s": "s",
    "nas.search_s": "s",
    "nas.budget_use": "ratio",
    "training.train_s": "s",
    "training.eval_s": "s",
    "automl.optimize_s": "s",
    "nn.backward_s": "s",
    "nn.backward_calls": "count",
    "nn.tensors": "count",
    "nn.tensors_per_predict": "count",
    "scheduler.observe_s": "s",
    "scheduler.observe_calls": "count",
    "executors.drain_s": "s",
    "executors.reports_per_drain": "count",
    "events.publish_s": "s",
    "events.wire_encodes_per_event": "ratio",
    "events.queue_dropped": "count",
    "eventlog.append_s": "s",
    "eventlog.read_s": "s",
    "eventlog.read_events": "count",
    "storage.checkpoint_s": "s",
    "study.ask_s": "s",
    "study.tell_s": "s",
    "edge.flush_batch_p50": "count",
    "edge.loop_lag_s_p99": "s",
    "http.submit_s": "s",
    "client.decode_s": "s",
    "trace.latency_ms_p50": "ms",
    "trace.jobs_per_s": "1/s",
    "trace.events_per_s": "1/s",
    "trace.spans": "count",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, server did not start)."""


def require_sources() -> None:
    """Fail unless the program's sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program sources not found under {SRC}; run from a "
                             "checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child processes: same BLAS pinning, program on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of a non-empty sequence."""
    if not values:
        raise ValueError("quantile of an empty sequence")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# Reference machine speed: a timing t measured between probe readings a and
# b is reported as t * PROBE_REF_S / ((a + b) / 2), i.e. as if the probe took
# exactly 1 ms (see machine_probe).
PROBE_REF_S = 1e-3


# What the probe's per-run median read over 30 ten-seed runs on a 2-core box
# (0.91-1.63 ms), widened a little.  A reading outside it means the machine,
# or the program itself, is slowing the load process: the probe runs in that
# process, so CPU or GIL contention the program causes there (a background
# thread left spinning, leftover executor threads) slows the probe too and is
# divided out of every figure at reference speed.  Compare the raw figures.
PROBE_EXPECTED_MS = (0.8, 1.8)


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` measured between two probe readings, at reference speed."""
    return seconds * PROBE_REF_S / ((probe_before + probe_after) / 2)


def machine_probe() -> float:
    """Seconds a fixed slice of small-array NumPy work takes right now.

    CPU-bound timings are scaled by this reading, taken next to each measured
    step (:func:`at_reference_speed`): a small shared box's speed swings by a
    third from one spell of seconds to tens of seconds to the next, and the
    probe slows with it.  The slice (many tiny ops, about 1 ms) resembles the
    autograd engine's mix and runs no code of the program under test.  Median
    of three slices.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((64, 16))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(150):
            np.tanh(a @ a.T[:, :16]).sum()
        times.append(time.perf_counter() - start)
    return median(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Run facts
# ---------------------------------------------------------------------- #
def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's sources: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> Dict[str, object]:
    import numpy as np

    name = "unknown"
    try:
        config = np.show_config(mode="dicts")
        name = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    threads = {var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"library": name, "threads": threads}


def run_facts(workload: str, seed: int, seconds: int, trace: bool,
              smoke: bool) -> Dict[str, object]:
    """Everything needed to explain a shifted number, taken at run start."""
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "git_sha": _git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    # Workload-specific figures printed for people (init_s, submit_ms_p50, ...).
    info: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    # The traced run's tracer (written out under .perfbench/traces).
    tracer: Optional[object] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def result_line(outcome: Outcome, trace: bool) -> Dict[str, object]:
    """The machine-readable result object (printed as the last stdout line)."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = outcome.per_layer if trace else outcome.end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchmarkError(f"workload did not produce metrics {missing}")
    return {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def record_path(facts: Dict[str, object], trace: bool) -> Path:
    """Where the record of a run with these facts and tracing on/off lives."""
    smoke = "-smoke" if facts["smoke"] else ""
    return OUT_DIR / "records" / (
        f"{facts['workload']}-seed{facts['seed']}-trace{int(trace)}{smoke}.json")


def write_record(facts: Dict[str, object], outcome: Outcome, result: Dict[str, object]) -> Path:
    """Keep the run's full record under ``.perfbench/records``."""
    facts = dict(facts, loadavg_end=list(os.getloadavg()))
    path = record_path(facts, bool(facts["trace"]))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "facts": facts,
        "result": result,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "info": outcome.info,
        "failures": outcome.failures,
    }, indent=2, sort_keys=True))
    return path
