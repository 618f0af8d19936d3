"""Tests for runner options: fluid engine, estimator override, CLI."""

import pytest

from repro.core import LastValueEstimator
from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, make_workload, run_strategy
from repro.experiments.__main__ import FIGURES, main

CFG = ExperimentConfig(duration=60.0)


class TestFluidEngine:
    def test_fluid_runs_and_regulates(self):
        wl = make_workload("web", CFG)
        rec = run_strategy("CTRL", wl, CFG, engine_kind="fluid")
        est = [p.delay_estimate for p in rec.periods[20:]]
        assert sum(est) / len(est) == pytest.approx(CFG.target, abs=0.7)

    def test_fluid_agrees_with_full_engine(self):
        wl = make_workload("web", CFG)
        q_fluid = run_strategy("CTRL", wl, CFG, engine_kind="fluid").qos()
        q_full = run_strategy("CTRL", wl, CFG, engine_kind="full").qos()
        assert q_fluid.loss_ratio == pytest.approx(q_full.loss_ratio, abs=0.05)
        assert q_fluid.mean_delay == pytest.approx(q_full.mean_delay,
                                                   rel=0.3, abs=0.3)

    def test_fluid_is_faster(self):
        wl = make_workload("web", CFG)
        rec_fluid = run_strategy("CTRL", wl, CFG, engine_kind="fluid")
        rec_full = run_strategy("CTRL", wl, CFG, engine_kind="full")
        assert rec_fluid.wall_seconds < rec_full.wall_seconds

    def test_fluid_rejects_queue_actuators(self):
        wl = make_workload("web", CFG)
        with pytest.raises(ExperimentError):
            run_strategy("CTRL", wl, CFG, engine_kind="fluid",
                         actuator="queue")

    def test_unknown_engine_kind(self):
        wl = make_workload("web", CFG)
        with pytest.raises(ExperimentError):
            run_strategy("CTRL", wl, CFG, engine_kind="hologram")


class TestAlphaCap:
    @pytest.mark.parametrize("actuator", ["queue", "lsrm"])
    def test_cap_on_an_uncappable_actuator_is_rejected(self, actuator):
        # only the entry actuator has a drop-probability cap; the others
        # used to run to completion with the cap silently ignored
        wl = make_workload("web", CFG)
        with pytest.raises(ExperimentError, match="no cap"):
            run_strategy("CTRL", wl, CFG, actuator=actuator, alpha_cap=0.3)

    @pytest.mark.parametrize("cap", [-0.1, 1.5])
    def test_cap_outside_unit_interval_is_an_experiment_error(self, cap):
        wl = make_workload("web", CFG)
        with pytest.raises(ExperimentError, match="alpha_cap"):
            run_strategy("CTRL", wl, CFG, alpha_cap=cap)


class TestEstimatorOverride:
    def test_factory_used(self):
        wl = make_workload("web", CFG)
        seen = []

        def factory():
            est = LastValueEstimator(CFG.base_cost)
            seen.append(est)
            return est

        run_strategy("CTRL", wl, CFG, estimator_factory=factory)
        assert len(seen) == 1


class TestCli:
    def test_all_figures_registered(self):
        expected = {"fig5", "fig6", "fig7", "fig12", "fig13", "fig14",
                    "fig15", "fig16", "fig17", "fig18", "fig19", "overhead"}
        assert set(FIGURES) == expected

    def test_cli_runs_a_cheap_figure(self, capsys):
        assert main(["fig14", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out
        assert "cost (ms)" in out

    def test_cli_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["fig99"])
