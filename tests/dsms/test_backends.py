"""Backend equivalence: the two engines behind ``make_engine`` agree.

Drives the discrete-event :class:`Engine` — which actually executes the
14-operator plan — and the scalar :class:`VirtualQueueEngine` (Eq. 2's
virtual queue) with identical arrival traces through the same clocking,
then asserts the shared counters (admitted / departed / outstanding) and
the Eq. 11 delay estimates agree within a throughput tolerance. Both
names in the factory's table must also satisfy :class:`EngineProtocol`
and count clock-rewritten arrivals the same way.
"""

import random

import pytest

from repro.dsms import (
    BACKENDS,
    EngineProtocol,
    identification_network,
    make_engine,
)
from repro.errors import BackendError

COST = 1.0 / 190.0
HEADROOM = 0.97


def deterministic_arrivals(rates, period=1.0, seed=0):
    """Evenly spaced arrivals: ``rates[k]`` tuples inside period ``k``.

    Values carry four seeded-random fields so the full network engine's
    predicate/join operators have something to chew on; the fluid engine
    ignores them.
    """
    rng = random.Random(seed)
    out = []
    for k, n in enumerate(rates):
        for j in range(n):
            values = (rng.random(), rng.random(), rng.random(), rng.random())
            out.append((k * period + (j + 0.5) * period / n, values, "src"))
    return out


def drive(engine, arrivals, n_periods, period=1.0):
    """Feed arrivals and advance period by period, sampling the queue."""
    it = iter(arrivals)
    pending = next(it, None)
    q_series = []
    for k in range(n_periods):
        boundary = (k + 1) * period
        while pending is not None and pending[0] < boundary:
            t, values, source = pending
            engine.submit(max(t, engine.now), values, source)
            pending = next(it, None)
        engine.run_until(max(boundary, engine.now))
        q_series.append(engine.outstanding)
    return q_series


def test_full_engine_matches_fluid_throughput():
    """The network engine and the Eq. 2 fluid model see the same overload."""
    rates = [300] * 20  # ~1.6x capacity: a persistent backlog builds
    arrivals = deterministic_arrivals(rates)
    full = make_engine("full", network=identification_network(),
                       headroom=HEADROOM, rng=random.Random(7))
    fluid = make_engine("fluid", cost=COST, headroom=HEADROOM)
    q_full = drive(full, arrivals, len(rates))
    q_fluid = drive(fluid, arrivals, len(rates))
    assert full.admitted_total == fluid.admitted_total == len(arrivals)
    # the network engine's realized cost wanders around 1/capacity, so hold
    # throughput and backlog to a relative band rather than tuple equality
    assert fluid.departed_total == pytest.approx(full.departed_total, rel=0.10)
    assert q_fluid[-1] == pytest.approx(q_full[-1], rel=0.25, abs=50)
    d_full = (q_full[-1] + 1) * COST / HEADROOM
    d_fluid = (q_fluid[-1] + 1) * COST / HEADROOM
    assert d_fluid == pytest.approx(d_full, rel=0.25, abs=0.3)


def build(backend):
    """One engine per table entry, with the keywords its class needs."""
    if backend == "full":
        return make_engine("full", network=identification_network(),
                           headroom=HEADROOM, rng=random.Random(7))
    return make_engine(backend, cost=COST, headroom=HEADROOM)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_backend_satisfies_the_engine_protocol(backend):
    assert isinstance(build(backend), EngineProtocol)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_engines_report_late_arrivals_alike(backend):
    """Both backends count clock-rewritten arrivals the same way."""
    from repro.obs import get_bus

    engine = build(backend)
    engine.submit(1.0, (0.5, 0.5, 0.5, 0.5), "src")
    engine.run_until(5.0)
    seen = []
    bus = get_bus()
    bus.subscribe(seen.append, kinds=("late_arrival",))
    try:
        engine.submit(2.0, (0.5, 0.5, 0.5, 0.5), "src")  # behind the clock
    finally:
        bus.unsubscribe(seen.append)
    assert engine.late_arrivals == 1
    assert len(seen) == 1
    assert seen[0].engine == type(engine).__name__


def test_make_engine_rejects_unknown_backend():
    with pytest.raises(BackendError, match="fluid, full"):
        make_engine("batch")
