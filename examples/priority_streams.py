#!/usr/bin/env python3
"""Heterogeneous quality guarantees: priority- and value-aware shedding.

The paper's Section 6 sketches two extensions this library implements:
streams with different priorities, and semantic (utility-based) victim
selection. This example runs a telemetry platform with three customer
tiers sharing one engine during a 2x overload, then shows semantic
shedding preserving high-severity events at the same loss ratio.

Run:  python examples/priority_streams.py
"""

import random

from repro.core import (
    ControlLoop,
    DsmsModel,
    EntryActuator,
    EwmaEstimator,
    Monitor,
    PolePlacementController,
    PriorityEntryActuator,
    SemanticEntryActuator,
)
from repro.dsms import MapOperator, QueryNetwork, make_engine
from repro.metrics.report import format_table
from repro.workloads import merge_arrivals

TIERS = {"gold": 3.0, "silver": 2.0, "bronze": 1.0}
RATE_PER_TIER = 250.0   # tuples/s offered by each tier
CAPACITY = 380.0        # total tuples/s the engine sustains at H = 1
DURATION = 90.0


def build_network() -> QueryNetwork:
    net = QueryNetwork("telemetry")
    for tier in TIERS:
        net.add_source(tier)
        net.add_operator(MapOperator(f"{tier}_ingest", 1.0 / CAPACITY),
                         [tier])
    return net


def tier_arrivals(seed: int):
    rng = random.Random(seed)
    streams = []
    for tier in TIERS:
        stream = []
        for k in range(int(DURATION)):
            n = int(RATE_PER_TIER)
            for i in range(n):
                # values: (severity score in [0,1),)
                stream.append((k + i / n, (rng.random(),), tier))
        streams.append(stream)
    return merge_arrivals(*streams)


def run(actuator):
    engine = make_engine("full", network=build_network(), headroom=0.97,
                         rng=random.Random(1))
    model = DsmsModel(cost=1.0 / CAPACITY, headroom=0.97, period=1.0)
    monitor = Monitor(engine, model,
                      cost_estimator=EwmaEstimator(model.cost, 0.2))
    loop = ControlLoop(engine, PolePlacementController(model), monitor,
                       actuator, target=2.0, period=1.0)
    return loop.run(tier_arrivals(seed=2), DURATION)


def main() -> None:
    offered = len(TIERS) * RATE_PER_TIER
    print(f"Three tiers offer {offered:.0f} tuples/s against "
          f"{CAPACITY * 0.97:.0f} tuples/s of capacity — about half must "
          "be shed.\n")

    # 1. priority-aware: gold survives, bronze absorbs the loss
    priority = PriorityEntryActuator(TIERS, rng=random.Random(3))
    rec = run(priority)
    rows = [[tier, f"{TIERS[tier]:.0f}", f"{loss:.1%}"]
            for tier, loss in sorted(priority.loss_by_source().items(),
                                     key=lambda kv: -TIERS[kv[0]])]
    print("Priority-aware shedding (strict priority, water-filled):")
    print(format_table(["tier", "priority", "data lost"], rows))
    q = rec.qos()
    print(f"aggregate: mean delay {q.mean_delay:.2f} s (target 2 s), "
          f"total loss {q.loss_ratio:.1%}\n")

    # 2. semantic: same loss, but the high-severity events survive
    semantic = SemanticEntryActuator(
        utility=lambda v: v[0] if v else 0.0, rng=random.Random(4))
    rec_sem = run(semantic)
    random_baseline = EntryActuator()
    rec_rand = run(random_baseline)
    print("Semantic shedding (drop lowest-severity events first):")
    print(format_table(
        ["shedder", "loss", "severity retained"],
        [["random coin", f"{rec_rand.qos().loss_ratio:.1%}",
          f"{1 - rec_rand.qos().loss_ratio:.1%} (proportional)"],
         ["semantic", f"{rec_sem.qos().loss_ratio:.1%}",
          f"{semantic.utility_retention:.1%} of offered severity-mass"]],
    ))
    print("\nSame delay guarantee, same loss ratio — but the shed tuples")
    print("are the ones the queries cared least about.")


if __name__ == "__main__":
    main()
