"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload alt-bert-A --seed 1 --seconds 35 --trace 0

Workloads: ``alt-bert-A``, ``alt-lstm-B`` (ALT onboarding + light-model
serving) and ``tune-live``, ``tune-burst`` (AntTune event delivery).  With
``--trace 0`` the last stdout line is a JSON object carrying every end-to-end
metric; with ``--trace 1`` it carries every per-layer metric from a run whose
layer entry points are wrapped in spans.  Human-readable lines come first.
The run's full record (machine facts, all figures, failures) is written under
``.perfbench/records`` and a traced run's spans under ``.perfbench/traces``.
``--smoke`` shrinks every workload to a few seconds (for the self-tests).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: the load process, the server and its workers share two
# cores, and BLAS threads fighting the interpreter for them add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (OUT_DIR, PER_LAYER_UNITS, PROBE_EXPECTED_MS,  # noqa: E402
                              BenchmarkError, record_path, require_sources, result_line,
                              run_facts, write_record)

WORKLOADS = ("alt-bert-A", "alt-lstm-B", "tune-live", "tune-burst")


def _workload_module(name: str):
    if name.startswith("alt-"):
        from perfbench import alt_workload
        return alt_workload
    from perfbench import tune_workload
    return tune_workload


def _overhead(facts: dict, outcome):
    """Traced minus untraced, as a share of untraced, per end-to-end metric.

    Compares with the untraced record an earlier run in this checkout wrote
    for the same workload, seed, ``--seconds``, smoke mode and sources; says
    so when there is none.
    """
    path = record_path(facts, trace=False)
    try:
        record = json.loads(path.read_text())
        untraced, base_facts = record["end_to_end"], record["facts"]
    except (OSError, ValueError, KeyError):
        base_facts = None
    if base_facts is None or any(base_facts.get(key) != facts[key]
                                 for key in ("seconds", "smoke", "source_digest")):
        return ("no untraced record with the same seed, seconds, smoke mode and "
                "sources: compare the trace.* metrics with an untraced run")
    return {name: (outcome.end_to_end[name] - base) / base
            for name, base in untraced.items()
            if name in outcome.end_to_end and base}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the plumbing, measures nothing")
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        require_sources()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    facts = run_facts(args.workload, args.seed, args.seconds, trace, args.smoke)
    outcome = _workload_module(args.workload).run(
        args.workload, args.seed, args.seconds, trace, smoke=args.smoke)

    if trace:
        tracer = outcome.tracer
        for name in ("latency_ms_p50", "jobs_per_s", "events_per_s"):
            outcome.per_layer[f"trace.{name}"] = outcome.end_to_end[name]
        outcome.per_layer["trace.spans"] = float(
            sum(span is not None for span in tracer.spans)
            + outcome.info.get("server_spans", 0))
        for name in PER_LAYER_UNITS:
            outcome.per_layer.setdefault(name, 0.0)  # layer not on this workload
        outcome.info["trace_overhead"] = _overhead(facts, outcome)
        trace_path = OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, extra={"facts": facts})
        outcome.info["trace_file"] = str(trace_path.relative_to(OUT_DIR.parent))

    result = result_line(outcome, trace)
    record = write_record(facts, outcome, result)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {int(trace)}  nproc {facts['nproc']}  "
          f"loadavg {facts['loadavg_start'][0]:.2f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in sorted(outcome.info.items()):
        if isinstance(value, float):
            print(f"  ({name}) {value:.6g}")
        elif isinstance(value, dict) and value:
            print(f"  ({name}) " + ", ".join(f"{k} {v:.4g}" for k, v in value.items()))
        elif not isinstance(value, (list, dict)):  # per-step lists: record only
            print(f"  ({name}) {value}")
    probe_ms = outcome.info["probe_ms_p50"]
    if not PROBE_EXPECTED_MS[0] <= probe_ms <= PROBE_EXPECTED_MS[1]:
        print(f"  WARNING: probe_ms_p50 {probe_ms:.3g} is outside its expected "
              f"{PROBE_EXPECTED_MS[0]}-{PROBE_EXPECTED_MS[1]} ms: the figures at reference "
              "speed divide out whatever slowed it, the program's own contention "
              "included; compare the raw figures (raw_over_reference)")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}  record {record}")
    for problem in outcome.failures:
        print(f"  FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
