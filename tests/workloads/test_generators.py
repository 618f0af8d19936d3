"""Unit tests for workload generators (Pareto, web, patterns, costs)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads import (
    Circumstance,
    cost_trace,
    fig14_cost_trace,
    pareto_rate_trace,
    pareto_rate_trace_with_mean,
    piecewise_rate,
    ramp_rate,
    sinusoid_rate,
    square_rate,
    step_rate,
    web_rate_trace,
)


class TestPareto:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            pareto_rate_trace(0)
        with pytest.raises(WorkloadError):
            pareto_rate_trace(10, beta=0.0)
        with pytest.raises(WorkloadError):
            pareto_rate_trace(10, scale=0.0)
        with pytest.raises(WorkloadError):
            pareto_rate_trace(10, scale=100.0, cap=50.0)

    def test_determinism_with_seed(self):
        a = pareto_rate_trace(100, seed=7)
        b = pareto_rate_trace(100, seed=7)
        assert list(a) == list(b)

    def test_range_respected(self):
        tr = pareto_rate_trace(2000, beta=1.0, scale=100.0, cap=800.0, seed=1)
        assert min(tr) >= 100.0
        assert max(tr) <= 800.0

    def test_median_matches_closed_form(self):
        tr = pareto_rate_trace(5000, beta=1.0, scale=100.0, cap=1e9, seed=2)
        values = sorted(tr)
        empirical = values[len(values) // 2]
        # the unclipped Pareto median: scale * 2 ** (1 / beta)
        assert empirical == pytest.approx(100.0 * 2.0, rel=0.1)

    def test_smaller_beta_is_burstier(self):
        """The paper's bias factor: smaller beta -> heavier tail (Fig. 17)."""
        bursty = pareto_rate_trace_with_mean(400, beta=0.5, target_mean=200,
                                             seed=3)
        smooth = pareto_rate_trace_with_mean(400, beta=1.5, target_mean=200,
                                             seed=3)
        assert bursty.burstiness() > smooth.burstiness()

    def test_mean_normalization(self):
        tr = pareto_rate_trace_with_mean(1000, beta=1.0, target_mean=250.0,
                                         seed=4)
        assert tr.mean() == pytest.approx(250.0, rel=0.1)

    def test_mean_validation(self):
        with pytest.raises(WorkloadError):
            pareto_rate_trace_with_mean(10, beta=1.0, target_mean=0.0)


class TestWeb:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            web_rate_trace(0)
        with pytest.raises(WorkloadError):
            web_rate_trace(10, n_sources=0)
        with pytest.raises(WorkloadError):
            web_rate_trace(10, on_shape=3.0)

    def test_mean_normalized(self):
        tr = web_rate_trace(400, mean_rate=250.0, seed=5)
        assert tr.mean() == pytest.approx(250.0, rel=1e-6)

    def test_determinism(self):
        assert list(web_rate_trace(50, seed=9)) == list(web_rate_trace(50, seed=9))

    def test_bursts_span_multiple_periods(self):
        """The paper: bursts last longer than 4-5 s -> strong lag-1 correlation."""
        tr = web_rate_trace(400, mean_rate=250.0, seed=6)
        values = list(tr)
        mu = tr.mean()
        num = sum((values[i] - mu) * (values[i + 1] - mu)
                  for i in range(len(values) - 1))
        den = sum((v - mu) ** 2 for v in values)
        lag1 = num / den
        assert lag1 > 0.4

    def test_less_bursty_than_pareto(self):
        """Fig. 13: fluctuations in 'Pareto' are more dramatic than 'Web'."""
        web = web_rate_trace(400, mean_rate=250.0, seed=11)
        par = pareto_rate_trace_with_mean(400, beta=1.0, target_mean=250.0,
                                          seed=11)
        assert web.burstiness() < par.burstiness()


class TestPatterns:
    def test_step(self):
        tr = step_rate(20, 10, low=150.0, high=300.0)
        assert tr.at(5.0) == 150.0
        assert tr.at(15.0) == 300.0

    def test_sinusoid_range(self):
        tr = sinusoid_rate(100, 40, low=0.0, high=400.0)
        assert min(tr) >= -1e-9
        assert max(tr) <= 400.0 + 1e-9

    def test_ramp_clamped_non_negative(self):
        tr = ramp_rate(10, start=-5.0, slope=1.0)
        assert min(tr) >= 0.0

    def test_piecewise(self):
        tr = piecewise_rate([(5, 100.0), (5, 200.0)])
        assert tr.at(2.0) == 100.0
        assert tr.at(7.0) == 200.0

    def test_square(self):
        tr = square_rate(20, 10, low=0.0, high=100.0)
        assert tr.mean() == pytest.approx(50.0)


class TestCosts:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            cost_trace(10, base_cost=0.0)
        with pytest.raises(WorkloadError):
            cost_trace(0, base_cost=0.005)

    def test_unknown_circumstance_kind(self):
        bad = Circumstance("wiggle", 0.0, 10.0, 0.005)
        with pytest.raises(WorkloadError):
            bad.profile(5.0)

    def test_circumstance_zero_outside_support(self):
        c = Circumstance("peak", start=10.0, duration=5.0, height=1.0)
        assert c.profile(9.9) == 0.0
        assert c.profile(15.1) == 0.0
        assert c.profile(12.5) > 0.0

    def test_jump_peak_is_instantaneous(self):
        c = Circumstance("jump_peak", start=10.0, duration=10.0, height=1.0)
        assert c.profile(10.0) == pytest.approx(1.0)
        assert c.profile(19.9) < 0.01

    def test_terrace_holds_then_drops(self):
        c = Circumstance("terrace", start=0.0, duration=10.0, height=1.0)
        assert c.profile(5.0) == pytest.approx(1.0)
        assert c.profile(9.9) == pytest.approx(1.0)
        assert c.profile(10.1) == 0.0

    def test_fig14_shape(self):
        """Small peak ~50s, jump ~125s, terrace 250-350s, base ~5.26 ms."""
        ct = fig14_cost_trace(400, base_cost=1 / 190, seed=0)
        base = 1 / 190
        assert ct.at(20.0) == pytest.approx(base, rel=0.35)
        assert ct.at(52.0) > 1.5 * base          # small peak
        assert ct.at(126.0) > 3.0 * base         # large jump peak
        assert ct.at(300.0) > 1.7 * base         # terrace
        assert ct.at(370.0) == pytest.approx(base, rel=0.35)  # after the drop

    def test_fig14_default_length(self):
        assert len(fig14_cost_trace()) == 400


@settings(max_examples=25)
@given(beta=st.floats(min_value=0.1, max_value=2.0),
       seed=st.integers(min_value=0, max_value=10_000))
def test_pareto_never_below_scale(beta, seed):
    tr = pareto_rate_trace(200, beta=beta, scale=50.0, cap=500.0, seed=seed)
    assert min(tr) >= 50.0
    assert max(tr) <= 500.0
