"""Unit tests for the fast virtual-queue engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dsms import Engine, VirtualQueueEngine, identification_network
from repro.errors import SchedulingError


def feed_uniform(engine, rate, duration, start=0.0):
    for k in range(int(duration)):
        for i in range(int(rate)):
            engine.submit(start + k + i / rate, (), "in")


class TestBasics:
    def test_parameter_validation(self):
        with pytest.raises(SchedulingError):
            VirtualQueueEngine(cost=0.0)
        with pytest.raises(SchedulingError):
            VirtualQueueEngine(headroom=0.0)

    def test_out_of_order_submit_rejected(self):
        e = VirtualQueueEngine()
        e.submit(5.0)
        with pytest.raises(SchedulingError):
            e.submit(2.0)

    def test_run_backwards_rejected(self):
        e = VirtualQueueEngine()
        e.run_until(3.0)
        with pytest.raises(SchedulingError):
            e.run_until(1.0)

    def test_idle_clock_advance(self):
        e = VirtualQueueEngine()
        e.run_until(7.0)
        assert e.now == 7.0


class TestQueueingBehaviour:
    def test_underload_drains(self):
        e = VirtualQueueEngine(cost=1 / 190, headroom=0.97)
        feed_uniform(e, 100, 10)
        e.run_until(11.0)
        assert e.departed_total == 1000
        assert e.outstanding == 0

    def test_overload_integrates(self):
        e = VirtualQueueEngine(cost=1 / 190, headroom=0.97)
        feed_uniform(e, 300, 10)
        e.run_until(10.0)
        # q grows at fin - H/c per second
        expected_q = 10 * (300 - 190 * 0.97)
        assert e.outstanding == pytest.approx(expected_q, rel=0.05)

    def test_service_rate_is_h_over_c(self):
        e = VirtualQueueEngine(cost=1 / 190, headroom=0.97)
        feed_uniform(e, 400, 10)
        e.run_until(10.0)
        assert e.departed_total == pytest.approx(190 * 0.97 * 10, rel=0.02)

    def test_delays_follow_eq2(self):
        """FIFO delay of the k-th queued tuple ≈ (q ahead) * c / H."""
        e = VirtualQueueEngine(cost=1 / 100, headroom=1.0)
        for i in range(50):
            e.submit(0.0)
        e.run_until(10.0)
        deps = e.drain_departures()
        for idx, d in enumerate(deps):
            assert d.delay == pytest.approx((idx + 1) / 100, rel=1e-6)

    def test_cost_multiplier_halves_capacity(self):
        e = VirtualQueueEngine(cost=1 / 190, headroom=0.97,
                               cost_multiplier=lambda t: 2.0)
        feed_uniform(e, 400, 10)
        e.run_until(10.0)
        assert e.departed_total == pytest.approx(0.5 * 190 * 0.97 * 10, rel=0.02)

    def test_partial_service_carries_across_periods(self):
        """Serving across many small periods loses no throughput."""
        e1 = VirtualQueueEngine(cost=0.025, headroom=1.0)
        e2 = VirtualQueueEngine(cost=0.025, headroom=1.0)
        for e in (e1, e2):
            for i in range(100):
                e.submit(0.0)
        e1.run_until(2.0)
        t = 0.0
        while t < 2.0:
            t += 0.03125  # periods smaller than the service time
            e2.run_until(t)
        assert e2.departed_total == e1.departed_total

    def test_effective_cost_tracks_multiplier(self):
        e = VirtualQueueEngine(cost=0.01, headroom=1.0,
                               cost_multiplier=lambda t: 1.0 + t)
        e.submit(0.0)
        e.submit(3.0)
        e.run_until(4.0)
        # each tuple costs c times the multiplier at its service start
        assert [d.delay for d in e.drain_departures()] == pytest.approx(
            [0.01, 0.04])


class TestAgreementWithFullEngine:
    """The fluid abstraction must match the DES engine (paper Eq. 2 claim)."""

    @settings(max_examples=8, deadline=None)
    @given(rate=st.integers(min_value=50, max_value=350))
    def test_departure_counts_agree(self, rate):
        import random
        full = Engine(identification_network(), headroom=0.97)
        rng = random.Random(1)
        fluid = VirtualQueueEngine(cost=1 / 190, headroom=0.97)
        for k in range(10):
            for i in range(rate):
                t = k + i / rate
                full.submit(t, tuple(rng.random() for _ in range(4)), "src")
                fluid.submit(t)
        full.run_until(10.0)
        fluid.run_until(10.0)
        assert full.departed_total == pytest.approx(fluid.departed_total, rel=0.05, abs=20)
        assert full.outstanding == pytest.approx(fluid.outstanding, rel=0.1, abs=30)
