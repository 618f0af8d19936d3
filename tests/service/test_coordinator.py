"""Coordinator rebalancing: sum preservation and clamping."""

import pytest

from repro.errors import ServiceError
from repro.metrics.recorder import PeriodRecord
from repro.service import HeadroomCoordinator
from repro.service.coordinator import _bounded_shares


class FakeLoop:
    period = 1.0


class FakeShard:
    """Duck-typed stand-in for EngineShard (observation + mutation points)."""

    def __init__(self, headroom, base_target=2.0):
        self.headroom = headroom
        self.base_target = base_target
        self.target = base_target
        self.loop = FakeLoop()

    def set_headroom(self, h):
        self.headroom = h


def mk_period(delay_estimate=1.0, queue_length=50, offered=100, cost=1 / 190):
    return PeriodRecord(
        k=0, time=1.0, target=2.0, delay_estimate=delay_estimate,
        queue_length=queue_length, cost=cost, inflow_rate=float(offered),
        outflow_rate=float(offered), offered=offered, admitted=offered,
        shed_retro=0, v=float(offered), u=float(offered), error=0.0,
        alpha=0.0,
    )


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ServiceError):
            HeadroomCoordinator(mode="psychic")

    def test_gain_range(self):
        with pytest.raises(ServiceError):
            HeadroomCoordinator(gain=1.5)

    def test_bounds_ordering(self):
        with pytest.raises(ServiceError):
            HeadroomCoordinator(headroom_floor=0.5, headroom_ceiling=0.4)

    def test_shard_period_mismatch(self):
        coord = HeadroomCoordinator()
        with pytest.raises(ServiceError):
            coord.rebalance(0, [FakeShard(0.2)], [])


class TestIndependentMode:
    def test_touches_nothing(self):
        shards = [FakeShard(0.2425) for __ in range(4)]
        periods = [mk_period(delay_estimate=5.0, queue_length=500)
                   for __ in range(4)]
        coord = HeadroomCoordinator(mode="independent", gain=1.0)
        coord.rebalance(0, shards, periods)
        assert all(s.headroom == 0.2425 for s in shards)
        assert all(s.target == 2.0 for s in shards)
        assert len(coord.history) == 1


class TestHeadroomMode:
    def test_sum_preserved_and_stressed_shard_gains(self):
        shards = [FakeShard(0.2425) for __ in range(4)]
        total = sum(s.headroom for s in shards)
        periods = [mk_period(offered=300, queue_length=400)] + [
            mk_period(offered=50, queue_length=0) for __ in range(3)
        ]
        coord = HeadroomCoordinator(mode="headroom", gain=1.0)
        coord.rebalance(0, shards, periods)
        assert sum(s.headroom for s in shards) == pytest.approx(total)
        assert shards[0].headroom > 0.2425
        assert all(s.headroom < 0.2425 for s in shards[1:])

    def test_gain_zero_is_noop(self):
        shards = [FakeShard(0.2425) for __ in range(4)]
        periods = [mk_period(offered=300)] + [mk_period(offered=10)] * 3
        HeadroomCoordinator(mode="headroom", gain=0.0).rebalance(
            0, shards, periods)
        assert all(s.headroom == pytest.approx(0.2425) for s in shards)

    def test_floor_respected_under_extreme_skew(self):
        shards = [FakeShard(0.2425) for __ in range(4)]
        total = sum(s.headroom for s in shards)
        periods = [mk_period(offered=10000, queue_length=9000)] + [
            mk_period(offered=0, queue_length=0) for __ in range(3)
        ]
        coord = HeadroomCoordinator(mode="headroom", gain=1.0,
                                    headroom_floor=0.05)
        coord.rebalance(0, shards, periods)
        assert sum(s.headroom for s in shards) == pytest.approx(total)
        for s in shards[1:]:
            assert s.headroom >= 0.05 - 1e-9
        assert shards[0].headroom <= coord.headroom_ceiling + 1e-9


class TestBoundedShares:
    def test_identity_when_feasible(self):
        shares = [0.3, 0.4, 0.27]
        out = _bounded_shares(shares, 0.02, 0.97, sum(shares))
        assert out == pytest.approx(shares)

    def test_clamps_and_preserves_sum(self):
        shares = [0.9, 0.05, 0.02]
        out = _bounded_shares(shares, 0.1, 0.5, sum(shares))
        assert sum(out) == pytest.approx(sum(shares))
        assert all(0.1 - 1e-9 <= x <= 0.5 + 1e-9 for x in out)

    def test_infeasible_rejected(self):
        with pytest.raises(ServiceError):
            _bounded_shares([0.5, 0.5], 0.4, 0.45, 1.0)
