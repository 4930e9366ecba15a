"""Search space and objectives the tune workloads submit by reference.

The server imports these through ``module:attr`` wire references
(``perfbench.tune_objectives:SPACE``), so this module must stay importable
from the server process and its pool workers.  Every report's value is the
worker's ``time.monotonic()`` at report time: ``CLOCK_MONOTONIC`` is shared by
all processes on the host, so the client's receive time minus the value is the
report's trip from worker to client.
"""

from __future__ import annotations

import time

from repro.automl.search_space import SearchSpace, Uniform

SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})
TRIALS = 4
LIVE_REPORTS = 10
LIVE_REPORT_INTERVAL = 0.01
BURST_REPORTS = 300


def _value(trial) -> float:
    return 1.0 - abs(trial.params["x"] - 0.7)


def live_objective(trial) -> float:
    """Ten stamped reports, 10 ms apart: latency is bounded by the tick drain."""
    for _ in range(LIVE_REPORTS):
        trial.report(time.monotonic())
        time.sleep(LIVE_REPORT_INTERVAL)
    return _value(trial)


def burst_objective(trial) -> float:
    """300 stamped reports with no pause: the event pipeline bounds throughput."""
    for _ in range(BURST_REPORTS):
        trial.report(time.monotonic())
    return _value(trial)
