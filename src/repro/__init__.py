"""repro — control-based load shedding for stream databases.

A full reproduction of Tu, Liu, Prabhakar & Yao, *Load Shedding in Stream
Databases: A Control-Based Approach* (VLDB 2006): a Borealis-like stream
engine, the feedback-control load-shedding framework, the AURORA and
BASELINE comparators, workload generators, and the experiment harness that
regenerates every figure in the paper's evaluation.

See README.md for a quickstart; the main entry points are:

* :mod:`repro.dsms` — the stream engine substrate,
* :mod:`repro.core` — model, controllers, monitor, actuator, control loop,
* :mod:`repro.workloads` — arrival-rate and cost traces,
* :mod:`repro.experiments` — one runner per paper figure,
* :mod:`repro.service` — the sharded multi-stream service layer,
* :mod:`repro.obs` — live observability: event bus, metrics registry,
  per-period tracing, and health detectors.
"""

__version__ = "1.0.0"

from .errors import (
    ControlError,
    ExperimentError,
    NetworkError,
    ObservabilityError,
    ReproError,
    SchedulingError,
    ServeError,
    ServiceError,
    SheddingError,
    UnstableDesignError,
    WorkloadError,
)

__all__ = [
    "ControlError",
    "ExperimentError",
    "NetworkError",
    "ObservabilityError",
    "ReproError",
    "SchedulingError",
    "ServeError",
    "ServiceError",
    "SheddingError",
    "UnstableDesignError",
    "WorkloadError",
    "__version__",
]
