"""The paper's figure path ≡ the runtime's shard path, float-for-float.

``run_strategy`` (every figure and ablation) and the service shards
(every runtime and e2e workload) assemble their loop through one
:func:`~repro.service.shard.build_engine` +
:func:`~repro.service.build_loop`. Given the figure path's seeds — engine
and entry coin both ``Random(0)`` — a one-shard lockstep
:class:`~repro.service.StreamService` under an independent coordinator
must reproduce the figure run exactly: period by period, departure by
departure. A change on either side that moves one trajectory and not the
other fails here.
"""

import random

import pytest

from repro.core import STRATEGIES, EntryActuator
from repro.experiments import (
    ExperimentConfig,
    make_cost_trace,
    make_workload,
    run_strategy,
)
from repro.obs import EventBus
from repro.service import (
    EngineShard,
    HeadroomCoordinator,
    RoutingTable,
    StreamService,
    build_loop,
)
from repro.service.shard import build_engine
from repro.workloads import cached_arrivals_from_trace

CFG = ExperimentConfig(duration=120.0)

COMPARED = ("offered", "admitted", "shed_retro", "alpha", "v", "u",
            "delay_estimate", "queue_length", "target", "time", "cost")

#: (offered, entry-dropped) of the Fig. 12 Web trace with the Fig. 14 cost
#: trace at 120 s, per backend: the pin must compare a shedding run
TOTALS = {"full": (27494, 6993), "fluid": (27494, 6964)}


def trajectory(record):
    return [tuple(getattr(p, name) for name in COMPARED)
            for p in record.periods]


@pytest.fixture(scope="module", params=sorted(TOTALS))
def runs(request):
    backend = request.param
    workload = make_workload("web", CFG)
    cost_trace = make_cost_trace(CFG)
    figure = run_strategy("CTRL", workload, CFG, cost_trace,
                          engine_kind=backend)

    engine = build_engine(CFG, backend, headroom=CFG.headroom, seed=0,
                          cost_trace=cost_trace)
    loop = build_loop(CFG, STRATEGIES["CTRL"], engine=engine,
                      actuator=EntryActuator(random.Random(0)),
                      target=CFG.target,
                      estimator=CFG.make_cost_estimator())
    service = StreamService([EngineShard("s0", loop, base_target=CFG.target)],
                            RoutingTable(1),
                            HeadroomCoordinator(mode="independent"),
                            bus=EventBus())
    arrivals = cached_arrivals_from_trace(
        workload, poisson=CFG.poisson_arrivals, seed=CFG.seed)
    shard = service.run(arrivals, CFG.duration).shard_records["s0"]
    return backend, figure, shard


def test_periods_match_float_for_float(runs):
    __, figure, shard = runs
    assert len(figure.periods) == len(shard.periods) == CFG.n_periods
    for k, (a, b) in enumerate(zip(trajectory(figure), trajectory(shard))):
        assert a == b, f"period {k}: figure {a} != shard {b}"


def test_departures_and_totals_match(runs):
    backend, figure, shard = runs
    assert figure.departures == shard.departures
    assert (figure.offered_total, figure.entry_dropped_total) \
        == (shard.offered_total, shard.entry_dropped_total) \
        == TOTALS[backend]
    assert figure.duration == shard.duration
    assert figure.drain_truncated == shard.drain_truncated
