"""The vectorized grid kernel agrees with the scalar engine path.

Small-grid integration tests for ``repro.experiments.batch_sweep``: the
batch lanes must reproduce the scalar ControlLoop's QoS on every supported
strategy, the cross-check must actually bite when results are wrong, and
the record path must hand back ControlLoop-shaped per-period signals.
"""

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    BATCH_STRATEGIES,
    GridPoint,
    QUICK_CONFIG,
    cross_check_grid,
    run_batch_grid,
    scalar_reference,
)
from repro.metrics.qos import QosMetrics


def small_grid():
    """Two periods x two strategies on the quick config (120 s runs)."""
    return [
        GridPoint(config=QUICK_CONFIG.scaled(period=t), strategy=s,
                  key=f"{s}/T={t}")
        for t in (0.5, 1.0)
        for s in ("CTRL", "BASELINE")
    ]


def test_grid_point_rejects_unknown_strategy():
    with pytest.raises(ExperimentError):
        GridPoint(config=QUICK_CONFIG, strategy="FIFO")


def test_grid_point_target_resolution():
    p = GridPoint(config=QUICK_CONFIG)
    assert p.resolved_target == QUICK_CONFIG.target
    assert GridPoint(config=QUICK_CONFIG, target=3.5).resolved_target == 3.5


def test_batch_grid_matches_scalar_engine_within_tolerance():
    points = small_grid()
    results = run_batch_grid(points)
    assert len(results) == len(points)
    reports = cross_check_grid(points, results)  # raises on >1% divergence
    assert all(r.ok for r in reports)
    for point, res in zip(points, results):
        assert res.point is point
        assert res.offered.sum() == res.qos.offered
        # conservation: everything offered is admitted or shed
        assert res.admitted.sum() == res.qos.offered - res.qos.shed
        assert res.served.sum() >= res.qos.delivered
        assert (res.queue >= 0).all()


def test_all_batch_strategies_run_and_shed_under_overload():
    points = [GridPoint(config=QUICK_CONFIG, strategy=s, key=s)
              for s in BATCH_STRATEGIES]
    results = run_batch_grid(points)
    for res in results:
        # the web workload offers ~1.2x capacity: every policy must shed
        assert res.qos.offered > 0
        assert 0.0 < res.qos.loss_ratio < 1.0
        assert res.qos.delivered > 0


def test_cross_check_raises_on_divergent_results():
    points = small_grid()[:1]
    results = run_batch_grid(points)
    bogus_qos = QosMetrics(
        accumulated_violation=results[0].qos.accumulated_violation * 2 + 50,
        delayed_tuples=results[0].qos.delayed_tuples,
        max_overshoot=results[0].qos.max_overshoot,
        delivered=results[0].qos.delivered,
        shed=results[0].qos.shed,
        offered=results[0].qos.offered,
        mean_delay=results[0].qos.mean_delay,
    )
    tampered = [dataclasses.replace(results[0], qos=bogus_qos)]
    with pytest.raises(ExperimentError, match="cross-check failed"):
        cross_check_grid(points, tampered)


def test_keep_record_builds_control_loop_shaped_record():
    point = GridPoint(config=QUICK_CONFIG, strategy="CTRL",
                      keep_record=True, key="recorded")
    bare = GridPoint(config=QUICK_CONFIG, strategy="CTRL", key="bare")
    recorded, plain = run_batch_grid([point, bare])
    assert plain.record is None
    record = recorded.record
    assert record is not None
    assert len(record.periods) == QUICK_CONFIG.n_periods
    assert record.offered_total == recorded.qos.offered
    # the record's own QoS accounting agrees with the lane QoS
    scalar_qos, _ = scalar_reference(point)
    assert recorded.qos.loss_ratio == pytest.approx(
        scalar_qos.loss_ratio, abs=0.01)
    for pr in record.periods[:5]:
        assert pr.admitted <= pr.offered
        assert pr.queue_length >= 0
        assert pr.cost > 0


def test_results_keyed_independently_of_shared_inputs():
    """Points sharing a workload must not bleed state into each other."""
    lone = run_batch_grid([GridPoint(config=QUICK_CONFIG, key="solo")])[0]
    paired = run_batch_grid([
        GridPoint(config=QUICK_CONFIG, key="a"),
        GridPoint(config=QUICK_CONFIG, strategy="AURORA", key="b"),
    ])
    assert paired[0].qos == lone.qos


@pytest.mark.parametrize("kind,beta,use_trace", [
    ("web", 1.0, True),
    ("pareto", 1.5, True),
    ("web", 1.0, False),
])
def test_analytic_continuation_pins_to_scalar_reference(kind, beta,
                                                        use_trace):
    """The vectorized schedule continuation is the scalar loop, exactly.

    Same completion *count* (the tuple clock must not gain or lose a
    tick) and the same instants to float dust, reconstructed from the
    same saturated-engine starting state on real workloads.
    """
    import numpy as np

    from repro.dsms import make_engine
    from repro.experiments.batch_sweep import (
        _analytic_continuation,
        _build_schedule,
        _point_inputs,
        _reference_continuation,
    )

    config = dataclasses.replace(QUICK_CONFIG, use_cost_trace=use_trace)
    point = GridPoint(config=config, workload_kind=kind, beta=beta)
    __, cost_trace, arrivals = _point_inputs(point)
    schedule = _build_schedule(config, cost_trace, arrivals)
    P = schedule.prefix_periods
    assert P < config.n_periods, "workload never saturated the server"

    # rebuild the event-exact prefix to recover the head-tuple progress
    # the continuation starts from
    T, h, cyc = config.period, config.headroom, config.control_overhead
    mult = (cost_trace.as_multiplier(config.base_cost)
            if cost_trace is not None else None)
    engine = make_engine("fluid", cost=config.base_cost, headroom=h,
                         cost_multiplier=mult)
    it = iter(arrivals)
    pending = next(it, None)
    for k in range(P):
        boundary = (k + 1) * T
        while pending is not None and pending[0] < boundary:
            t = pending[0]
            if t > engine.now:
                engine.run_until(t)
            engine.submit(max(t, k * T, engine.now))
            pending = next(it, None)
        engine.run_until(max(boundary - cyc / h, engine.now))
        if cyc:
            engine.consume_cpu(cyc)
        engine.run_until(max(boundary, engine.now))
    progress = engine._progress

    cpu_ref = np.zeros(config.n_periods)
    cpu_vec = np.zeros(config.n_periods)
    ref = _reference_continuation(config, cost_trace, P, progress, cpu_ref)
    vec = _analytic_continuation(config, cost_trace, P, progress, cpu_vec)

    assert len(vec) == len(ref)
    assert len(ref) > 0
    assert np.allclose(vec, ref, rtol=0.0, atol=1e-8)
    assert np.array_equal(cpu_ref, cpu_vec)
