"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Subclasses are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ControlError(ReproError):
    """Errors from the control-theory toolkit (bad designs, degenerate TFs)."""


class UnstableDesignError(ControlError):
    """A requested controller design would produce an unstable closed loop."""


class NetworkError(ReproError):
    """Structural errors in a query network (cycles, dangling ports, ...)."""


class SchedulingError(ReproError):
    """Errors raised by the engine scheduler."""


class WorkloadError(ReproError):
    """Errors in workload/trace construction (bad parameters, empty traces)."""


class SheddingError(ReproError):
    """Errors in load-shedder configuration or victim selection."""


class BackendError(ReproError):
    """Errors in engine-backend selection (unknown name, missing extras)."""


class ExperimentError(ReproError):
    """Errors in experiment configuration or execution."""


class ServiceError(ReproError):
    """Errors in the sharded service layer (routing, coordination)."""


class ObservabilityError(ReproError):
    """Errors in the observability layer (bus, metrics registry, tracing)."""


class ServeError(ReproError):
    """Errors in the real-time serving front-end (ingestion, wire protocol)."""
