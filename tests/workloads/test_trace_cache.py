"""On-disk arrival-trace cache: hits, key sensitivity, and fallbacks."""

import pytest

from repro.workloads import (
    RateTrace,
    arrivals_from_trace,
    cached_arrivals_from_trace,
    trace_cache_dir,
    trace_cache_key,
)
from repro.workloads.cache import CACHE_MIN_TUPLES

# ~600 tuples/s x 10 periods comfortably clears CACHE_MIN_TUPLES
BIG = RateTrace([600.0] * 10, period=1.0)
SMALL = RateTrace([10.0] * 3, period=1.0)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    return tmp_path


def entries(cache_dir):
    return sorted(cache_dir.glob("*.pkl"))


def test_cache_round_trip_is_identical_to_generation(cache_dir):
    direct = arrivals_from_trace(BIG, poisson=True, seed=7)
    first = cached_arrivals_from_trace(BIG, poisson=True, seed=7)   # miss
    second = cached_arrivals_from_trace(BIG, poisson=True, seed=7)  # hit
    assert first == direct
    assert second == direct
    assert len(entries(cache_dir)) == 1


def test_cache_hit_does_not_regenerate(cache_dir, monkeypatch):
    cached_arrivals_from_trace(BIG, seed=1)
    calls = []

    def exploding(*args, **kwargs):  # a hit must never reach generation
        calls.append(1)
        raise AssertionError("regenerated on a cache hit")

    monkeypatch.setattr("repro.workloads.cache.arrivals_from_trace",
                        exploding)
    result = cached_arrivals_from_trace(BIG, seed=1)
    assert not calls
    assert result == arrivals_from_trace(BIG, seed=1)


def test_key_is_sensitive_to_every_input(cache_dir):
    base = trace_cache_key(BIG, "src", 4, False, 42)
    variants = [
        trace_cache_key(BIG, "other", 4, False, 42),
        trace_cache_key(BIG, "src", 2, False, 42),
        trace_cache_key(BIG, "src", 4, True, 42),
        trace_cache_key(BIG, "src", 4, False, 43),
        trace_cache_key(BIG, "src", 4, False, None),
        trace_cache_key(RateTrace([600.0] * 10, period=0.5), "src", 4,
                        False, 42),
        trace_cache_key(RateTrace([600.0] * 9 + [601.0], period=1.0),
                        "src", 4, False, 42),
    ]
    assert len({base, *variants}) == len(variants) + 1


def test_distinct_workloads_get_distinct_entries(cache_dir):
    cached_arrivals_from_trace(BIG, seed=1)
    cached_arrivals_from_trace(BIG, seed=2)
    assert len(entries(cache_dir)) == 2


def test_small_traces_skip_the_cache(cache_dir):
    assert SMALL.total_tuples() < CACHE_MIN_TUPLES
    result = cached_arrivals_from_trace(SMALL, seed=3)
    assert result == arrivals_from_trace(SMALL, seed=3)
    assert not entries(cache_dir)


#: what a torn write, a bad disk or a stray file leaves in an entry
DAMAGE = {
    "not-a-pickle": b"not a pickle",
    "value-error": b"I1x\n.",
    "type-error": b"K\x01K\x02\x86K\x03R.",
    "unicode-error": b"\x80\x03X\x02\x00\x00\x00\xff\xfe.",
    "overflow-error": b"\x80\x04\x8e" + b"\xff" * 8 + b".",
    "another-object": b"\x80\x05K\x01K\x02\x86\x94.",  # unpickles to (1, 2)
    "one-byte-flip": None,  # the real entry, one bit flipped mid-file
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_corrupt_entry_falls_back_and_repairs(cache_dir, monkeypatch, damage):
    good = cached_arrivals_from_trace(BIG, seed=5)
    path = entries(cache_dir)[0]
    entry = path.read_bytes()
    mid = len(entry) // 2
    path.write_bytes(DAMAGE[damage] or
                     entry[:mid] + bytes([entry[mid] ^ 1]) + entry[mid + 1:])
    assert cached_arrivals_from_trace(BIG, seed=5) == good

    def exploding(*args, **kwargs):  # the repaired entry is a hit
        raise AssertionError("regenerated from a repaired entry")

    monkeypatch.setattr("repro.workloads.cache.arrivals_from_trace",
                        exploding)
    assert cached_arrivals_from_trace(BIG, seed=5) == good


def test_cache_disabled_by_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    assert trace_cache_dir() is None
    result = cached_arrivals_from_trace(BIG, seed=9)
    assert result == arrivals_from_trace(BIG, seed=9)

