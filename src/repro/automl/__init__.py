"""AntTune-style hyper-parameter optimisation (Sec. IV-C, Fig. 8)."""

from repro.automl.algorithms import (
    RACOS,
    BayesianOptimization,
    EvolutionarySearch,
    GridSearch,
    RandomSearch,
    SearchAlgorithm,
)
from repro.automl.eventlog import EventLog
from repro.automl.events import (
    EventBus,
    JobStateChanged,
    Subscription,
    TrialEvent,
    TrialFinished,
    TrialKilled,
    TrialReport,
    TrialStarted,
)
from repro.automl.executors import (
    ProcessPoolTrialExecutor,
    SynchronousExecutor,
    ThreadPoolTrialExecutor,
    TrialExecutor,
    make_executor,
    worker_rng,
)
from repro.automl.presets import apply_params_to_config, pre_designed_model_space
from repro.automl.pruners import MedianPruner, NoPruner, Pruner
from repro.automl.scheduler import (
    AsyncScheduler,
    FairShareGovernor,
    GovernedExecutor,
    RoundScheduler,
    TelemetryMonitor,
    TrialScheduler,
    make_scheduler,
)
from repro.automl.search_space import Choice, IntUniform, LogUniform, ParamSpec, SearchSpace, Uniform
from repro.automl.server import AntTuneClient, AntTuneServer, JobState, TuneJob
from repro.automl.storage import StudyStorage
from repro.automl.transport import TelemetryTransport
from repro.automl.study import Study, StudyConfig
from repro.automl.trial import PrunedTrial, Trial, TrialCancelled, TrialState

# Imported last: the remote layer sits on top of every module above.
from repro.automl.remote import RemoteTuneServer  # noqa: E402

__all__ = [
    "SearchSpace",
    "ParamSpec",
    "Uniform",
    "LogUniform",
    "IntUniform",
    "Choice",
    "Trial",
    "TrialState",
    "PrunedTrial",
    "TrialCancelled",
    "Study",
    "StudyConfig",
    "StudyStorage",
    "TrialExecutor",
    "SynchronousExecutor",
    "ThreadPoolTrialExecutor",
    "ProcessPoolTrialExecutor",
    "worker_rng",
    "make_executor",
    "TrialScheduler",
    "RoundScheduler",
    "AsyncScheduler",
    "make_scheduler",
    "TelemetryMonitor",
    "TelemetryTransport",
    "FairShareGovernor",
    "GovernedExecutor",
    "EventBus",
    "EventLog",
    "Subscription",
    "TrialEvent",
    "TrialStarted",
    "TrialReport",
    "TrialKilled",
    "TrialFinished",
    "JobStateChanged",
    "Pruner",
    "NoPruner",
    "MedianPruner",
    "SearchAlgorithm",
    "RandomSearch",
    "GridSearch",
    "EvolutionarySearch",
    "BayesianOptimization",
    "RACOS",
    "AntTuneServer",
    "AntTuneClient",
    "RemoteTuneServer",
    "JobState",
    "TuneJob",
    "pre_designed_model_space",
    "apply_params_to_config",
]
