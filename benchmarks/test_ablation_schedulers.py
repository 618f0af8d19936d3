"""Ablation — engine scheduler robustness (Section 5.2 conjecture).

The paper: "It is highly possible that the model is still applicable to a
wide range of scheduling policies that do not consider tuple priorities."
This benchmark closes the loop over the same workload with the depth-first
(virtual-FIFO) scheduler and the Borealis-style round-robin train
scheduler: the controller, designed once, must regulate both.
"""

import statistics

from repro.experiments import Job, run_jobs
from repro.metrics.report import format_table

#: display label -> scheduler spec (repro.dsms.scheduler.make_scheduler)
SCHEDULERS = {
    "depth-first (virtual FIFO)": "depth_first",
    "round-robin trains": "round_robin",
    "round-robin batch=50": "round_robin:50",
}


def test_ablation_schedulers(benchmark, config, save_report):
    cfg = config.scaled(duration=200.0)

    def run_all():
        names = list(SCHEDULERS)
        jobs = [
            Job(strategy="CTRL", config=cfg, workload_kind="web",
                cost_trace=None, scheduler=SCHEDULERS[name], key=name)
            for name in names
        ]
        return dict(zip(names, run_jobs(jobs)))

    records = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    tracking = {}
    for name, rec in records.items():
        q = rec.qos()
        est = [p.delay_estimate for p in rec.periods[20:]]
        tracking[name] = statistics.mean(est)
        rows.append([name, f"{tracking[name]:.2f}", f"{q.loss_ratio:.3f}",
                     f"{q.accumulated_violation:.0f}"])
    save_report("ablation_schedulers", "\n".join([
        "Ablation — scheduler robustness (Section 5.2: the model should "
        "hold for priority-free schedulers)",
        format_table(["scheduler", "mean ŷ (target 2 s)", "loss",
                      "acc_viol (s)"], rows),
    ]))

    for name in SCHEDULERS:
        assert abs(tracking[name] - cfg.target) < 0.6, name
