"""Ablation — semantic vs statistical shedding ([26]'s distinction).

The Aurora work the paper builds on distinguishes statistical shedding
(random victims) from semantic shedding (victims chosen by a utility
analysis). With utility = the tuple's first value field, the semantic
entry shedder must match the statistical one on every control metric
while retaining substantially more utility mass.
"""

import random

from repro.core import (
    EntryActuator,
    PolePlacementController,
    SemanticEntryActuator,
)
from repro.experiments import make_cost_trace, make_workload
from repro.metrics.report import format_table
from repro.service import build_loop
from repro.service.shard import build_engine
from repro.workloads import arrivals_from_trace


def test_ablation_semantic(benchmark, config, save_report):
    cfg = config.scaled(duration=200.0)
    workload = make_workload("web", cfg)
    cost_trace = make_cost_trace(cfg)

    def run(actuator):
        engine = build_engine(cfg, "full", headroom=cfg.headroom, seed=0,
                              cost_trace=cost_trace)
        loop = build_loop(cfg, PolePlacementController, engine=engine,
                          actuator=actuator, target=cfg.target,
                          estimator=cfg.make_cost_estimator())
        arrivals = arrivals_from_trace(workload, poisson=True, seed=cfg.seed)
        return loop.run(arrivals, cfg.duration)

    def run_both():
        semantic_act = SemanticEntryActuator(
            utility=lambda v: v[0] if v else 0.0, rng=random.Random(1))
        rec_sem = run(semantic_act)
        rec_rand = run(EntryActuator())
        return rec_sem, rec_rand, semantic_act

    rec_sem, rec_rand, semantic_act = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    q_sem, q_rand = rec_sem.qos(), rec_rand.qos()
    rows = [
        ["statistical", f"{q_rand.accumulated_violation:.0f}",
         f"{q_rand.loss_ratio:.3f}", f"{1 - q_rand.loss_ratio:.1%}"],
        ["semantic", f"{q_sem.accumulated_violation:.0f}",
         f"{q_sem.loss_ratio:.3f}",
         f"{semantic_act.utility_retention:.1%}"],
    ]
    save_report("ablation_semantic", "\n".join([
        "Ablation — semantic vs statistical shedding "
        "(same control, more utility retained)",
        format_table(["shedder", "acc_viol (s)", "loss",
                      "utility retained"], rows),
    ]))

    # same delay control and loss...
    assert abs(q_sem.loss_ratio - q_rand.loss_ratio) < 0.05
    assert q_sem.accumulated_violation < 2.0 * q_rand.accumulated_violation
    # ...but clearly better utility retention than the proportional baseline
    assert semantic_act.utility_retention > (1 - q_sem.loss_ratio) + 0.1
