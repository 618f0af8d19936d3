"""Routing table: stable hashing, explicit pinning, the per-period split."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service import RoutingTable, make_router
from repro.service.service import route


def arrivals_for(sources, per_source=3):
    """A time-ordered arrival list cycling through ``sources``."""
    out = []
    t = 0.0
    for i in range(per_source):
        for s in sources:
            out.append((t, (0.5, 0.5, 0.5, 0.5), s))
            t += 0.1
    return out


def split(table, arrivals):
    """The per-shard lists of the one routing loop every runtime runs."""
    return route(arrivals, table.shard_of, table.n_shards)[0]


class TestHashRouter:
    """``make_router('hash', n)``: a pin-free table on the CRC32 fallback."""

    def test_mapping_is_crc32_mod_shards(self):
        router = make_router("hash", 4)
        for name in ("s0", "alpha", "sensor-17", ""):
            assert router.shard_of(name) == zlib.crc32(
                name.encode("utf-8")) % 4

    def test_mapping_stable_across_instances(self):
        a, b = make_router("hash", 8), make_router("hash", 8)
        names = [f"src{i}" for i in range(50)]
        assert [a.shard_of(n) for n in names] == [b.shard_of(n) for n in names]

    def test_all_sources_of_one_name_land_on_one_shard(self):
        parts = split(make_router("hash", 3),
                      arrivals_for(["a", "b", "c", "d"], 5))
        for part in parts:
            # within one shard, every source's tuples are all there or none
            by_source = {}
            for __, __, s in part:
                by_source[s] = by_source.get(s, 0) + 1
            for count in by_source.values():
                assert count == 5

    def test_partition_preserves_time_order(self):
        parts = split(make_router("hash", 2),
                      arrivals_for(["a", "b", "c"], 10))
        for part in parts:
            times = [t for t, __, __ in part]
            assert times == sorted(times)

    def test_single_shard_gets_everything(self):
        arr = arrivals_for(["x", "y"], 4)
        assert split(make_router("hash", 1), arr) == [arr]

    def test_invalid_shard_count(self):
        with pytest.raises(ServiceError):
            make_router("hash", 0)


class TestExplicitRouter:
    """``make_router('explicit', n, pins)``: pins only, no hash fallback."""

    def test_pinning_followed(self):
        router = make_router("explicit", 2, {"hot": 0, "a": 1, "b": 1})
        assert router.n_shards == 2
        assert router.shard_of("hot") == 0
        assert router.shard_of("b") == 1

    def test_unknown_source_rejected(self):
        router = make_router("explicit", 1, {"a": 0})
        with pytest.raises(ServiceError):
            router.shard_of("mystery")

    def test_unknown_source_rejected_during_partition(self):
        router = make_router("explicit", 1, {"a": 0})
        with pytest.raises(ServiceError):
            split(router, [(0.0, (1,), "mystery")])

    def test_assignment_outside_shard_range_rejected(self):
        with pytest.raises(ServiceError):
            make_router("explicit", 2, {"a": 5})

    def test_empty_assignment_rejected(self):
        with pytest.raises(ServiceError):
            make_router("explicit", 2, {})

    def test_explicit_n_shards_allows_spares(self):
        router = make_router("explicit", 4, {"a": 0})
        parts = split(router, arrivals_for(["a"], 2))
        assert [len(p) for p in parts] == [2, 0, 0, 0]


class TestMakeRouter:
    def test_specs(self):
        hashed = make_router("hash", 3)
        assert type(hashed) is RoutingTable
        assert hashed.hash_fallback and hashed.routes() == {}
        explicit = make_router("explicit", 2, {"a": 0, "b": 1})
        assert type(explicit) is RoutingTable
        assert not explicit.hash_fallback
        assert explicit.routes() == {"a": 0, "b": 1}

    def test_explicit_without_table_rejected(self):
        with pytest.raises(ServiceError):
            make_router("explicit", 2)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ServiceError):
            make_router("range", 2)


SOURCE_NAMES = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=12)


class TestRoutingTableInvariants:
    """Property-style invariants the migration machinery relies on."""

    @settings(max_examples=50, deadline=None)
    @given(sources=st.lists(SOURCE_NAMES, min_size=1, max_size=20),
           n_shards=st.integers(min_value=1, max_value=9))
    def test_hash_routing_stable_under_rebuild(self, sources, n_shards):
        # A shard-count-preserving rebuild (fresh table, or snapshot
        # round-trip) maps every never-pinned source identically.
        a = RoutingTable(n_shards)
        before = [a.shard_of(s) for s in sources]
        b = RoutingTable(n_shards)
        c = RoutingTable.from_snapshot(a.snapshot())
        assert [b.shard_of(s) for s in sources] == before
        assert [c.shard_of(s) for s in sources] == before

    @settings(max_examples=50, deadline=None)
    @given(pins=st.dictionaries(SOURCE_NAMES,
                                st.integers(min_value=0, max_value=5),
                                min_size=1, max_size=10),
           n_shards=st.integers(min_value=6, max_value=9))
    def test_explicit_pins_always_win(self, pins, n_shards):
        table = RoutingTable(n_shards, pins=pins)
        for source, shard in pins.items():
            assert table.shard_of(source) == shard
            assert source in table.routes()

    @settings(max_examples=50, deadline=None)
    @given(moves=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=30))
    def test_source_epochs_strictly_monotone(self, moves):
        table = RoutingTable(4)
        last = {}
        for source, shard in moves:
            epoch = table.pin(source, shard)
            assert epoch > last.get(source, 0)
            assert epoch == table.snapshot()["source_epochs"][source]
            last[source] = epoch
        # the global epoch counts every mutation
        assert table.epoch == len(moves)

    @settings(max_examples=50, deadline=None)
    @given(moves=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=30))
    def test_replica_replay_converges(self, moves):
        primary = RoutingTable(4)
        replica = RoutingTable(4)
        for source, shard in moves:
            epoch = primary.pin(source, shard)
            replica.apply_route(source, shard, epoch)
        assert replica.snapshot() == primary.snapshot()

    def test_apply_route_rejects_stale_epoch(self):
        table = RoutingTable(2)
        table.apply_route("s", 1, epoch=3)
        with pytest.raises(ServiceError):
            table.apply_route("s", 0, epoch=3)     # replayed twice
        with pytest.raises(ServiceError):
            table.apply_route("s", 0, epoch=2)     # out of order
        table.apply_route("s", 0, epoch=4)
        assert table.shard_of("s") == 0

    def test_migrate_validates_current_shard(self):
        table = RoutingTable(3)
        current = table.shard_of("x")
        other = (current + 1) % 3
        with pytest.raises(ServiceError):
            table.migrate("x", from_shard=other, to_shard=current)
        with pytest.raises(ServiceError):
            table.migrate("x", from_shard=current, to_shard=current)
        epoch = table.migrate("x", from_shard=current, to_shard=other)
        assert epoch == 1
        assert table.shard_of("x") == other


class TestRangeCheck:
    def test_out_of_range_mapping_caught(self):
        """Every way a shard index enters a table is range-checked, so
        :func:`route` can index its per-shard lists without a check."""
        table = RoutingTable(2)
        with pytest.raises(ServiceError):
            table.pin("s", 2)  # off by one
        with pytest.raises(ServiceError):
            table.pin("s", -1)
        with pytest.raises(ServiceError):
            table.apply_route("s", 2, epoch=1)
        snapshot = dict(table.snapshot(), pins={"s": 2})
        with pytest.raises(ServiceError):
            RoutingTable.from_snapshot(snapshot)
        assert split(table, [(0.0, (1,), "s")])[table.shard_of("s")]
