"""Golden pins for the discrete-event (``full``) engine: its trajectories
must not move.

The closed-loop pins run the paper's CTRL loop over the web workload and
the Fig. 14 cost trace, under both schedulers; the open-engine pin feeds
the two-source monitoring network (timers, a window join, an aggregate)
and flushes it. Each digest hashes every period's ``(offered, admitted,
queue_length, outflow_rate, delay_estimate)`` and every departure's
``(arrived, departed, shed)``, floats as ``float.hex()``.
"""

import hashlib
import random

import pytest

from repro.dsms import Engine, monitoring_network
from repro.experiments import ExperimentConfig, make_workload, run_strategy
from repro.workloads import fig14_cost_trace


def digest(periods, departures):
    rows = [f"{p.offered},{p.admitted},{p.queue_length},"
            f"{float(p.outflow_rate).hex()},{float(p.delay_estimate).hex()}"
            for p in periods]
    rows += [f"{d.arrived.hex()},{d.departed.hex()},{int(d.shed)}"
             for d in departures]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


@pytest.mark.parametrize("scheduler, dropped, expected", [
    (None, 4118,
     "7e20c1aa65c5a69c1f0d0b5e3525c734ee6fbdee0a4954568134bc94b008c0b7"),
    ("round_robin", 4182,
     "cf55e5af3f31ef373d901254926e34150c9039c453a625d8431d6509618976b4"),
], ids=["default", "round_robin"])
def test_closed_loop_on_the_full_engine(scheduler, dropped, expected):
    cfg = ExperimentConfig(duration=60, engine_backend="full")
    cost = fig14_cost_trace(int(cfg.duration), base_cost=cfg.base_cost,
                            seed=cfg.seed)
    rec = run_strategy("CTRL", make_workload("web", cfg), cfg,
                       cost_trace=cost, scheduler=scheduler)
    assert (rec.offered_total, rec.entry_dropped_total) == (13831, dropped)
    assert digest(rec.periods, rec.departures) == expected


def test_open_monitoring_network_with_timers_and_flush():
    rng = random.Random(3)
    arrivals = sorted(
        [(i / 150.0, (rng.random(), rng.randrange(8)), "flows")
         for i in range(150 * 20)]
        + [(0.05 + i / 12.0, (rng.random(), rng.randrange(8)), "alerts")
           for i in range(12 * 20)])
    engine = Engine(monitoring_network(), headroom=0.97,
                    rng=random.Random(0))
    engine.submit_many(arrivals)
    samples = []
    for k in range(1, 21):
        engine.run_until(float(k))
        queued = sum(len(q) for q in engine.queues.values())
        samples.append(f"{queued},{engine.cpu_used.hex()}")
    engine.flush()
    departures = engine.drain_departures()
    assert (engine.admitted_total, engine.departed_total,
            engine.outstanding) == (3240, 3240, 0)
    text = "\n".join(samples) + "\n" + digest([], departures)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "29ac5629deb269a64380652653171a8a5dd484e1db3a03109b48ece49c844ce7")
