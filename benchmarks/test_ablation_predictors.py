"""Ablation — inflow prediction for the actuator (Section 6 future work).

The Eq. 13 actuator estimates fin(k+1) with fin(k); on monotone ramps
(the paper's Fig. 8A stress) that estimate is systematically low and the
shedder under-drops for one period at a time. Trend-aware prediction
(Holt) removes that bias; mean-reverting prediction (AR(1)) helps on
bursty traces. CTRL's feedback already corrects the error a period later,
so gains are modest but consistent — prediction sharpens the actuator, it
does not replace feedback.
"""

from repro.core import Ar1Predictor, HoltPredictor, MovingAveragePredictor
from repro.experiments import make_workload, run_strategy
from repro.metrics.report import format_table
from repro.workloads import ramp_rate

PREDICTORS = {
    "last-value (paper)": None,
    "moving-average(5)": MovingAveragePredictor,
    "holt": HoltPredictor,
    "ar1": Ar1Predictor,
}


def _run(workload, cfg, predictor_cls):
    from repro.core import EntryActuator, PolePlacementController
    from repro.experiments import make_cost_trace
    from repro.service import build_loop
    from repro.service.shard import build_engine
    from repro.workloads import arrivals_from_trace

    engine = build_engine(cfg, "full", headroom=cfg.headroom, seed=0,
                          cost_trace=make_cost_trace(cfg))
    loop = build_loop(cfg, PolePlacementController, engine=engine,
                      actuator=EntryActuator(), target=cfg.target,
                      estimator=cfg.make_cost_estimator())
    loop.predictor = predictor_cls() if predictor_cls else None
    arrivals = arrivals_from_trace(workload, poisson=True, seed=cfg.seed)
    return loop.run(arrivals, cfg.duration)


def test_ablation_predictors(benchmark, config, save_report):
    cfg = config.scaled(duration=150.0, use_cost_trace=False)
    ramp = ramp_rate(int(cfg.duration), start=80.0, slope=4.0)  # 80 -> 676
    web = make_workload("web", cfg)

    def run_matrix():
        out = {}
        for name, cls in PREDICTORS.items():
            out[("ramp", name)] = _run(ramp, cfg, cls).qos()
            out[("web", name)] = _run(web, cfg, cls).qos()
        return out

    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    rows = [[wl, name, f"{q.accumulated_violation:.0f}",
             f"{q.loss_ratio:.3f}", f"{q.max_overshoot:.2f}"]
            for (wl, name), q in results.items()]
    save_report("ablation_predictors", "\n".join([
        "Ablation — actuator inflow predictors (ramp = the paper's Fig. 8A "
        "stress)",
        format_table(["workload", "predictor", "acc_viol (s)", "loss",
                      "overshoot (s)"], rows),
    ]))

    # on the ramp, trend-aware prediction must not be worse than last-value
    assert (results[("ramp", "holt")].accumulated_violation
            <= 1.1 * results[("ramp", "last-value (paper)")].accumulated_violation)
    # no predictor destabilizes the loop on the web trace
    for name in PREDICTORS:
        q = results[("web", name)]
        assert q.accumulated_violation < 5 * results[
            ("web", "last-value (paper)")].accumulated_violation + 1e-9
