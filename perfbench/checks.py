"""Correctness checks the benchmark applies to the program's outputs.

Each check returns a list of human-readable problems; an empty list means the
output is correct.  The workloads count every non-empty answer as one failed
operation, so a wrong result can never hide behind a good time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = ["check_scores", "check_budget", "check_stream", "check_replay"]


def check_scores(scores: object, rows: int, reference: Optional[np.ndarray] = None) -> List[str]:
    """A ``predict`` answer: ``rows`` finite probabilities in [0, 1].

    When ``reference`` (a direct ``predict_proba`` on the deployed model) is
    given, the served scores must equal it.
    """
    scores = np.asarray(scores)
    if scores.shape != (rows,):
        return [f"scores have shape {scores.shape}, expected ({rows},)"]
    problems = []
    if not np.all(np.isfinite(scores)):
        problems.append("scores contain non-finite values")
    elif scores.min() < 0.0 or scores.max() > 1.0:
        problems.append(f"scores outside [0, 1]: [{scores.min()}, {scores.max()}]")
    if reference is not None and not np.allclose(scores, reference, rtol=0.0, atol=1e-12):
        problems.append("served scores differ from a direct predict_proba")
    return problems


def check_budget(scenario_id: int, light_flops: float, flops_budget: float) -> List[str]:
    """A deployed light model's searched encoder must fit its FLOPs budget (Eq. 4)."""
    if not light_flops > 0:
        return [f"scenario {scenario_id}: light model has {light_flops} FLOPs"]
    if light_flops > flops_budget:
        return [f"scenario {scenario_id}: light model {light_flops} FLOPs "
                f"over budget {flops_budget}"]
    return []


def check_stream(events: Sequence[object], job_id: int, trials: int,
                 reports_per_trial: int) -> List[str]:
    """One job's event stream, as the SDK delivered it.

    Seqs are exactly ``range(n)``; the stream ends with its only terminal
    ``JobStateChanged``; it carries ``trials * reports_per_trial``
    ``TrialReport`` events; every event belongs to the job.
    """
    from repro.automl.events import JobStateChanged, TrialReport

    if not events:
        return [f"job {job_id}: empty stream"]
    problems = []
    seqs = [event.seq for event in events]
    if seqs != list(range(len(events))):
        missing = sorted(set(range(max(seqs) + 1)) - set(seqs))[:5]
        problems.append(f"job {job_id}: seqs are not range({len(events)}) "
                        f"(first missing {missing})")
    terminals = [i for i, event in enumerate(events)
                 if isinstance(event, JobStateChanged) and event.terminal]
    if terminals != [len(events) - 1]:
        problems.append(f"job {job_id}: terminal JobStateChanged at positions {terminals}, "
                        f"expected only the last")
    reports = sum(isinstance(event, TrialReport) for event in events)
    if reports != trials * reports_per_trial:
        problems.append(f"job {job_id}: {reports} TrialReport events, "
                        f"expected {trials} x {reports_per_trial}")
    strangers = {event.job_id for event in events} - {job_id}
    if strangers:
        problems.append(f"job {job_id}: events of other jobs {sorted(strangers)}")
    return problems


def check_replay(live: Sequence[object], replay: Sequence[object]) -> List[str]:
    """A ``subscribe(last_seq=-1)`` replay equals the live stream event for event."""
    from repro.automl.events import event_to_wire

    if len(live) != len(replay):
        return [f"replay has {len(replay)} events, live stream had {len(live)}"]
    for a, b in zip(live, replay):
        if event_to_wire(a) != event_to_wire(b):
            return [f"replay differs from the live stream at seq {a.seq}"]
    return []
