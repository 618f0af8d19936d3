"""The sharded service end to end: lockstep run, coordination, aggregate.

The acceptance scenario of the service layer lives here: four shards, one
hotspot source at three times the regular load, and the claim that the
coordinator's headroom rebalancing achieves a lower worst-shard delay
violation than running the same four loops independently.
"""

import random

import pytest

from repro.core import EntryActuator
from repro.errors import ServiceError
from repro.experiments import (
    ExperimentConfig,
    Job,
    build_service_workload,
    run_service_experiment,
    service_comparison,
)
from repro.service import (
    ServiceConfig,
    StreamService,
    build_service,
    make_router,
)

CFG = ExperimentConfig(duration=120.0, seed=11)
SVC = ServiceConfig()  # 4 shards, 4 sources, hotspot x3 on s0


@pytest.fixture(scope="module")
def comparison():
    """One skewed run per mode, shared by the assertions below."""
    return {
        mode: run_service_experiment(CFG, SVC.with_mode(mode))
        for mode in ("independent", "headroom")
    }


class TestAcceptance:
    def test_coordination_beats_independent_on_worst_shard(self, comparison):
        """The PR's core claim, asserted on the canonical skewed scenario."""
        worst = {mode: res.worst_shard("accumulated_violation")[1]
                 for mode, res in comparison.items()}
        assert worst["independent"] > 0, (
            "the hotspot must overload its shard under independent loops"
        )
        assert worst["headroom"] < worst["independent"]

    def test_hotspot_shard_is_the_one_overloaded(self, comparison):
        name, __ = comparison["independent"].worst_shard()
        # s0 (the hotspot) is pinned round-robin onto shard0
        assert name == "shard0"

    def test_headroom_moves_cpu_toward_hotspot(self, comparison):
        history = comparison["headroom"].coordinator_history
        final = history[-1]["headroom"]
        equal = SVC.total_headroom / SVC.n_shards
        assert final[0] > equal
        assert sum(final) == pytest.approx(SVC.total_headroom)

    def test_per_shard_records_cover_every_period(self, comparison):
        n = int(CFG.duration / CFG.period)
        for res in comparison.values():
            assert set(res.shard_records) == set(SVC.shard_names)
            for rec in res.shard_records.values():
                assert len(rec.periods) == n

    def test_aggregate_record_sums_offered(self, comparison):
        res = comparison["independent"]
        assert res.aggregate_qos().offered == sum(
            r.offered_total for r in res.shard_records.values())


class TestComparisonDriver:
    def test_service_jobs_fan_out(self):
        cfg = ExperimentConfig(duration=40.0, seed=5)
        comp = service_comparison(cfg, SVC, workers=2)
        assert set(comp.results) == {"independent", "headroom"}
        violations = comp.worst_shard_violation()
        assert set(violations) == {"independent", "headroom"}
        assert comp.coordination_gain() >= 1.0

    def test_pool_and_serial_runs_agree(self):
        cfg = ExperimentConfig(duration=40.0, seed=5)
        pooled = service_comparison(cfg, SVC, modes=("headroom",),
                                    workers=2).results["headroom"]
        serial = run_service_experiment(cfg, SVC.with_mode("headroom"))
        for name in pooled.shard_records:
            assert (pooled.shard_records[name].periods
                    == serial.shard_records[name].periods)

    def test_service_job_requires_workload_kind(self):
        from repro.errors import ExperimentError
        from repro.workloads import constant_rate
        with pytest.raises(ExperimentError):
            Job(config=CFG, workload=constant_rate(100.0, 10), service=SVC)

    def test_workload_has_hotspot_mass(self):
        arrivals = build_service_workload(CFG, SVC)
        counts = {}
        for __, __, source in arrivals:
            counts[source] = counts.get(source, 0) + 1
        hot = counts["s0"]
        regular = [counts[s] for s in ("s1", "s2", "s3")]
        for r in regular:
            assert hot == pytest.approx(SVC.hotspot_factor * r, rel=0.15)


class TestServiceConstruction:
    def test_build_service_shape(self):
        service = build_service(CFG, SVC)
        assert len(service.shards) == SVC.n_shards
        assert service.period == CFG.period
        headrooms = [s.headroom for s in service.shards]
        assert sum(headrooms) == pytest.approx(SVC.total_headroom)

    def test_router_shard_count_mismatch_rejected(self):
        service = build_service(CFG, SVC)
        with pytest.raises(ServiceError):
            StreamService(service.shards, make_router("hash", 2),
                          service.coordinator)

    def test_duplicate_shard_names_rejected(self):
        service = build_service(CFG, SVC)
        shards = list(service.shards)
        shards[1] = shards[0]
        with pytest.raises(ServiceError):
            StreamService(shards, service.router, service.coordinator)

    def test_non_positive_duration_rejected(self):
        service = build_service(CFG, SVC)
        with pytest.raises(ServiceError):
            service.run([], 0.0)

    def test_failed_run_detaches_every_observer(self, tmp_path):
        """A run that raises must not leave its observers on the process
        bus: every later run in the process would be double-observed and
        pay the armed emit path."""
        from repro.obs import get_bus
        bus = get_bus()
        before = list(bus._subs)
        try:
            service = build_service(CFG, ServiceConfig(
                health=True, sysid=True, flight=8,
                flight_dir=str(tmp_path)))
            assert len(bus._subs) > len(before)  # armed at build
            with pytest.raises(ServiceError):
                # "ghost" is pinned nowhere on the explicit router
                service.run([(0.5, (1.0,), "ghost")], 5.0)
            assert bus._subs == before
        finally:
            bus._subs = before

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            ServiceConfig(n_shards=0)
        with pytest.raises(ServiceError):
            ServiceConfig(hotspot_index=9)
        with pytest.raises(ServiceError):
            ServiceConfig(total_headroom=1.5)
        with pytest.raises(ServiceError):
            # equal split 0.97/64 falls below the default floor
            ServiceConfig(n_shards=64)

    def test_unknown_backend_rejected_at_construction(self):
        # not later, inside build_shard
        with pytest.raises(ServiceError, match="fluid, full"):
            ServiceConfig(backend="hologram")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ServiceError):
            build_service(CFG, ServiceConfig(strategy="MAGIC"))


class TestBoundedEntryShedder:
    """The drop-probability cap (now :class:`EntryActuator`'s own)."""

    def test_cap_bounds_armed_alpha(self):
        act = EntryActuator(random.Random(0), alpha_cap=0.25)
        act.begin_period(10.0, 100.0)  # wants to drop 90%
        assert act.requested_alpha == pytest.approx(0.9)
        assert act.alpha == pytest.approx(0.25)

    def test_invalid_cap_rejected(self):
        from repro.errors import SheddingError
        with pytest.raises(SheddingError):
            EntryActuator(alpha_cap=1.5)
