"""Integration tests for the figure-level experiment harness.

These run shortened versions of each paper experiment and assert the
qualitative shapes the benchmarks later report in full.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    BurstinessSweepResult,
    ExperimentConfig,
    aurora_retuned,
    burstiness_sweep,
    compare_strategies,
    controller_overhead,
    make_workload,
    period_sweep,
    run_strategy,
    schedule_fn,
    setpoint_tracking,
)
from repro.metrics.qos import QosMetrics, relative_metrics

#: short config shared by the harness tests (shapes hold from ~120 s on)
CFG = ExperimentConfig(duration=120.0)


class TestConfigValidation:
    def test_unknown_engine_backend_rejected_at_construction(self):
        with pytest.raises(ExperimentError, match="fluid, full"):
            ExperimentConfig(engine_backend="hologram")

    @pytest.mark.parametrize("knobs", [
        {"capacity": 0.0}, {"period": 0.0}, {"duration": -1.0},
        {"headroom": 0.0}, {"headroom": 1.5},
    ])
    def test_out_of_range_values_rejected(self, knobs):
        with pytest.raises(ExperimentError):
            ExperimentConfig(**knobs)
        with pytest.raises(ExperimentError):
            CFG.scaled(**knobs)


class TestRunner:
    def test_unknown_strategy_rejected(self):
        wl = make_workload("web", CFG)
        with pytest.raises(ExperimentError):
            run_strategy("NOPE", wl, CFG)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ExperimentError):
            make_workload("nope", CFG)

    def test_unknown_actuator_rejected(self):
        wl = make_workload("web", CFG)
        with pytest.raises(ExperimentError):
            run_strategy("CTRL", wl, CFG, actuator="nope")

    def test_record_complete(self):
        wl = make_workload("web", CFG)
        rec = run_strategy("CTRL", wl, CFG)
        assert len(rec.periods) == CFG.n_periods
        assert rec.offered_total > 0


class TestComparison:
    @pytest.fixture(scope="class")
    def web(self):
        return compare_strategies("web", CFG)

    def test_all_strategies_present(self, web):
        assert set(web.metrics) == {"CTRL", "BASELINE", "AURORA"}

    def test_ctrl_beats_aurora_on_violations(self, web):
        """The Fig. 12 headline: CTRL has far fewer delay violations."""
        ctrl = web.metrics["CTRL"]
        aurora = relative_metrics(web.metrics["AURORA"], ctrl)
        assert aurora["accumulated_violation"] > 2.0
        assert relative_metrics(ctrl, ctrl)["accumulated_violation"] == 1.0

    def test_loss_is_comparable(self, web):
        """Fig. 12D: all methods pay roughly the same data loss."""
        losses = [m.loss_ratio for m in web.metrics.values()]
        assert max(losses) - min(losses) < 0.12

    def test_ctrl_transient_tracks_target(self, web):
        y = web.transient("CTRL")[20:110]
        settled = [v for v in y if v > 0]
        mean = sum(settled) / len(settled)
        assert mean == pytest.approx(CFG.target, abs=0.6)

    def test_aurora_transient_diverges_from_target(self, web):
        y_a = web.transient("AURORA")[20:110]
        y_c = web.transient("CTRL")[20:110]
        err_a = sum(abs(v - CFG.target) for v in y_a) / len(y_a)
        err_c = sum(abs(v - CFG.target) for v in y_c) / len(y_c)
        assert err_a > 1.5 * err_c


class TestRobustness:
    def test_fig16_retuned_aurora_pays_more_loss_on_web(self):
        r = aurora_retuned("web", CFG, headroom_override=0.96)
        assert r.relative_loss > 0.95  # never cheaper than CTRL
        # and it is still far worse on violations (the paper: unstable)
        assert (r.aurora_metrics.accumulated_violation
                > 2 * r.ctrl_metrics.accumulated_violation)

    def test_fig17_ctrl_dominates_across_burstiness(self):
        """CTRL beats AURORA on delay violations at every bias factor.

        (The paper's normalized flatness claim is only partially
        reproducible here — see EXPERIMENTS.md: our CTRL's violation floor
        at beta=1.5 is near zero, which inflates its own ratios.)
        """
        betas = (0.25, 1.5)
        ctrl = burstiness_sweep("CTRL", CFG, bias_factors=betas)
        aurora = burstiness_sweep("AURORA", CFG, bias_factors=betas)
        for beta in betas:
            assert (ctrl.metrics[beta].accumulated_violation
                    < aurora.metrics[beta].accumulated_violation)
            assert (ctrl.metrics[beta].max_overshoot
                    < aurora.metrics[beta].max_overshoot)

    def test_fig17_normalizing_without_the_reference_beta_names_it(self):
        def qos(violation):
            return QosMetrics(accumulated_violation=violation,
                              delayed_tuples=10, max_overshoot=0.5,
                              delivered=100, shed=5, offered=105,
                              mean_delay=1.0)

        sweep = BurstinessSweepResult(
            strategy="CTRL", metrics={0.25: qos(4.0), 1.0: qos(2.0)})
        with pytest.raises(ExperimentError,
                           match=r"1\.5.*\[0\.25, 1\.0\]"):
            sweep.normalized()
        with pytest.raises(ExperimentError, match=r"1\.5"):
            sweep.spread()
        assert sweep.normalized(reference_beta=1.0)[0.25][
            "accumulated_violation"] == 2.0


class TestScalarBackendReachesTheEngine:
    """``backend="fluid"`` on the robustness drivers builds a fluid engine;
    a name that is not an engine builds and generates nothing."""

    SHORT = ExperimentConfig(duration=20.0)

    @pytest.fixture
    def built(self, monkeypatch):
        from repro.service import shard

        kinds = []
        make_engine = shard.make_engine

        def spy(backend="full", **kwargs):
            kinds.append(backend)
            return make_engine(backend, **kwargs)

        monkeypatch.setattr(shard, "make_engine", spy)
        return kinds

    def test_aurora_retuned_threads_backend(self, built):
        aurora_retuned("web", self.SHORT, backend="fluid")
        assert built == ["fluid", "fluid"]

    @pytest.mark.parametrize("backend, expected", [
        ("fluid", "fluid"),
        (None, SHORT.engine_backend),   # None still follows the config
    ])
    def test_burstiness_sweep_threads_backend(self, built, backend, expected):
        burstiness_sweep("CTRL", self.SHORT, bias_factors=(1.0,),
                         backend=backend)
        assert built == [expected]

    @pytest.fixture
    def generated(self, monkeypatch):
        """Trace builders the robustness drivers reached, by name."""
        from repro.experiments import robustness

        calls = []

        def spy(name):
            real = getattr(robustness, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("make_workload", "make_cost_trace"):
            monkeypatch.setattr(robustness, name, spy(name))
        return calls

    @pytest.mark.parametrize("backend", ["batch", "nope"])
    def test_unknown_backend_rejected_before_any_work(self, built, generated,
                                                      backend):
        with pytest.raises(ExperimentError, match="unknown engine kind"):
            aurora_retuned("web", self.SHORT, backend=backend)
        with pytest.raises(ExperimentError, match="unknown engine kind"):
            burstiness_sweep("CTRL", self.SHORT, bias_factors=(1.0,),
                             backend=backend)
        with pytest.raises(ExperimentError, match="unknown engine kind"):
            period_sweep(self.SHORT, periods=(1.0,), backend=backend)
        assert built == []
        assert generated == []


class TestSetpoint:
    def test_schedule_fn(self):
        fn = schedule_fn(((0, 1.0), (150, 3.0), (300, 5.0)))
        assert fn(0) == 1.0
        assert fn(149) == 1.0
        assert fn(150) == 3.0
        assert fn(299) == 3.0
        assert fn(350) == 5.0

    def test_schedule_validation(self):
        with pytest.raises(ExperimentError):
            schedule_fn(())
        with pytest.raises(ExperimentError):
            schedule_fn(((10, 1.0),))

    def test_fig18_ctrl_tracks_aurora_does_not(self):
        schedule = ((0, 1.0), (60, 3.0))
        res = setpoint_tracking(CFG, schedule=schedule,
                                strategies=("CTRL", "AURORA"))
        y_ctrl = res.transient("CTRL")
        y_aurora = res.transient("AURORA")
        # after the change, CTRL sits near 3 s
        tail_c = [v for v in y_ctrl[90:118] if v > 0]
        assert sum(tail_c) / len(tail_c) == pytest.approx(3.0, abs=0.8)
        # AURORA's trajectory is indifferent to the schedule
        tail_a = [v for v in y_aurora[90:118] if v > 0]
        assert abs(sum(tail_a) / len(tail_a) - 3.0) > 0.8

    def test_settling_measure(self):
        schedule = ((0, 1.0), (60, 3.0))
        res = setpoint_tracking(CFG, schedule=schedule,
                                strategies=("CTRL",))
        assert res.settling_periods("CTRL", change_at=60) < 30


class TestPeriodSweep:
    def test_fig19_shape(self):
        """Violations blow up at large T; loss is worst at tiny T."""
        sweep = period_sweep(CFG, periods=(0.03125, 0.5, 8.0))
        m = sweep.metrics
        assert m[8.0].accumulated_violation > 2 * m[0.5].accumulated_violation
        assert m[0.03125].loss_ratio > m[0.5].loss_ratio

    def test_relative_to_best_floor_is_one(self):
        sweep = period_sweep(CFG, periods=(0.5, 8.0))
        rel = sweep.relative_to_best()
        for metric in ("accumulated_violation", "loss_ratio"):
            assert min(rel[t][metric] for t in rel) == pytest.approx(1.0)


class TestOverhead:
    def test_microseconds_per_decision_is_tiny(self):
        """The paper: ~20 us on 2006 hardware; modern hosts are faster."""
        r = controller_overhead(iterations=20_000)
        assert r.microseconds_per_decision < 100.0

    def test_iterations_recorded(self):
        r = controller_overhead(iterations=1000)
        assert r.iterations == 1000
        assert r.total_seconds > 0
