"""Workload generators: arrival-rate traces, cost traces, tuple arrivals.

Reproduces the paper's inputs — the Pareto synthetic stream with its bias
factor, a self-similar web-request trace standing in for LBL-PKT-4, the
step/sinusoid identification signals, and the Fig. 14 time-varying cost
trace with its peak/jump/terrace circumstances.
"""

from .arrivals import (
    Arrival,
    arrivals_from_trace,
    merge_arrivals,
    uniform_values,
)
from .cache import (
    CACHE_MIN_TUPLES,
    cached_arrivals_from_trace,
    trace_cache_dir,
    trace_cache_key,
)
from .costs import (
    Circumstance,
    cost_trace,
    fig14_circumstances,
    fig14_cost_trace,
)
from .pareto import pareto_rate_trace, pareto_rate_trace_with_mean
from .patterns import (
    constant_rate,
    piecewise_rate,
    ramp_rate,
    sinusoid_rate,
    square_rate,
    step_rate,
)
from .skew import hotspot_weights, multi_source_arrivals, skewed_source_traces
from .trace import CostTrace, RateTrace
from .web import load_ita_trace, web_rate_trace

#: replay exports resolved lazily (PEP 562) so `python -m
#: repro.workloads.replay` doesn't re-execute an already-imported module
#: (runpy's "found in sys.modules" warning)
_REPLAY_EXPORTS = frozenset({
    "TraceReplayer",
    "load_citibike_csv",
    "replay_over_socket",
    "replay_schedule",
})


def __getattr__(name):
    if name in _REPLAY_EXPORTS:
        from . import replay
        return getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Arrival",
    "CACHE_MIN_TUPLES",
    "Circumstance",
    "CostTrace",
    "RateTrace",
    "TraceReplayer",
    "arrivals_from_trace",
    "cached_arrivals_from_trace",
    "constant_rate",
    "cost_trace",
    "fig14_circumstances",
    "fig14_cost_trace",
    "hotspot_weights",
    "load_citibike_csv",
    "load_ita_trace",
    "merge_arrivals",
    "multi_source_arrivals",
    "pareto_rate_trace",
    "pareto_rate_trace_with_mean",
    "piecewise_rate",
    "ramp_rate",
    "replay_over_socket",
    "replay_schedule",
    "sinusoid_rate",
    "skewed_source_traces",
    "square_rate",
    "step_rate",
    "trace_cache_dir",
    "trace_cache_key",
    "uniform_values",
]
