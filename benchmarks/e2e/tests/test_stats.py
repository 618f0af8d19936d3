"""The rules the benchmark's verdicts rest on (pure helpers, no I/O).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``; not
part of the tier-1 ``testpaths``.
"""

import pytest

import stats


class TestSamplesBeyondRule:
    def test_p90_needs_a_hundred_samples(self):
        assert stats.supported_percentile(100, 90.0) == 90.0
        assert stats.supported_percentile(99, 90.0) < 90.0

    def test_cap_leaves_ten_samples_beyond(self):
        for n in (25, 60, 104, 240, 1000):
            q = stats.supported_percentile(n, 99.0)
            assert n * (1 - q / 100.0) >= 10 - 1e-9
        assert stats.supported_percentile(1000, 99.0) == 99.0
        assert stats.supported_percentile(240, 99.0) == pytest.approx(95.8333,
                                                                      abs=1e-3)

    def test_small_samples_support_only_the_median(self):
        assert stats.supported_percentile(19, 99.0) == 50.0

    def test_tail_reports_the_percentile_it_used(self):
        q, value = stats.tail(list(range(1, 61)), 90.0)
        assert q == pytest.approx(100.0 * 50 / 60)
        assert value == 50

    def test_nearest_rank(self):
        values = [5, 1, 4, 2, 3]
        assert stats.percentile(values, 50.0) == 3
        assert stats.percentile(values, 100.0) == 5
        assert stats.percentile(values, 1.0) == 1
        with pytest.raises(ValueError):
            stats.percentile([], 50.0)


class TestQuietQuarter:
    def test_it_is_the_mean_of_the_fastest_quarter(self):
        assert stats.quiet([8, 1, 7, 2, 6, 3, 5, 4]) == pytest.approx(1.5)
        assert stats.quiet(list(range(1, 105))) == pytest.approx(13.5)

    def test_slow_samples_do_not_move_it(self):
        calm = [10.0, 10.2, 9.8, 10.1] * 4
        noisy = calm[:4] + [v * 2.5 for v in calm[4:]]
        assert stats.quiet(noisy) == pytest.approx(stats.quiet(calm), rel=0.03)

    def test_few_samples_keep_at_least_one(self):
        assert stats.quiet([3.0]) == 3.0
        assert stats.quiet([3.0, 2.0]) == 2.0
        assert stats.quiet([7, 6, 5, 4, 3, 2, 1]) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            stats.quiet([])


def passing_rung(**changes):
    rung = dict(planned=1000, sent=1000, dropped=0, malformed=0,
                late_p95_ms=3.0, decision_ms=[40.0] * 30, period_s=0.125,
                residue=0, arrivals_per_period=125.0)
    rung.update(changes)
    return stats.rung_verdict(**rung)


class TestRungVerdict:
    def test_a_clean_rung_passes(self):
        assert passing_rung() == []

    def test_unsent_tuples_fail(self):
        assert "sent 900 of 1000" in passing_rung(sent=900)[0]

    def test_a_late_generator_fails(self):
        assert "lateness" in passing_rung(late_p95_ms=20.5)[0]
        assert passing_rung(late_p95_ms=20.0) == []

    def test_front_door_losses_fail(self):
        assert passing_rung(dropped=1)
        assert passing_rung(malformed=1)

    def test_slow_decisions_fail(self):
        slow = [40.0] * 26 + [130.0] * 4       # p90 lands on a slow one
        assert "decision p90" in passing_rung(decision_ms=slow)[0]
        assert passing_rung(decision_ms=[40.0] * 28 + [130.0] * 2) == []

    def test_a_growing_backlog_fails(self):
        rising = [40.0] * 10 + [55.0] * 10 + [72.0] * 10
        assert "backlog grows" in passing_rung(decision_ms=rising)[0]
        drifting = [40.0] * 10 + [55.0] * 10 + [71.0] * 10
        assert passing_rung(decision_ms=drifting) == []   # within T/4

    def test_a_slow_stretch_of_the_host_is_not_a_backlog(self):
        # most of the last third is slow, a quarter of it is not
        stalled = [40.0] * 20 + [40.0] * 3 + [90.0] * 7
        assert passing_rung(decision_ms=stalled) == []

    def test_residue_beyond_one_period_fails(self):
        assert passing_rung(residue=125) == []
        assert "left buffered" in passing_rung(residue=126)[0]

    def test_too_few_periods_fail(self):
        assert "periods closed" in passing_rung(decision_ms=[1.0, 2.0])[0]


class TestLagFromCountCurve:
    #: 10 tuples per 5 ms slot
    cumulative = [10, 20, 30, 40]

    def test_a_server_that_keeps_up_has_no_lag(self):
        polls = [(0.005, 10), (0.010, 20), (0.015, 30)]
        assert stats.lag_from_count_curve(polls, 0.005, self.cumulative) \
            == [0.0, 0.0, 0.0]

    def test_lag_is_the_age_of_the_oldest_unaccepted_tuple(self):
        # at 20 ms only slot 0 is in: slot 1's tuples were due at 5 ms
        lags = stats.lag_from_count_curve([(0.020, 10)], 0.005,
                                          self.cumulative)
        assert lags == [pytest.approx(0.015)]

    def test_a_partly_accepted_slot_is_still_owed(self):
        lags = stats.lag_from_count_curve([(0.012, 15)], 0.005,
                                          self.cumulative)
        assert lags == [pytest.approx(0.007)]

    def test_polls_after_everything_arrived_are_skipped(self):
        polls = [(0.020, 40), (0.025, 40)]
        assert stats.lag_from_count_curve(polls, 0.005, self.cumulative) == []


class TestSelfTimes:
    def test_children_are_subtracted_once(self):
        spans = [
            {"id": 1, "parent": None, "busy": 10.0},
            {"id": 2, "parent": 1, "busy": 6.0},
            {"id": 3, "parent": 2, "busy": 4.0},   # grandchild: not 1's
            {"id": 4, "parent": 1, "busy": 1.0},
        ]
        assert stats.self_times(spans) == {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0}

    def test_self_times_sum_to_the_roots(self):
        spans = [
            {"id": 1, "parent": None, "busy": 5.0},
            {"id": 2, "parent": 1, "busy": 2.0},
            {"id": 3, "parent": None, "busy": 7.0},
            {"id": 4, "parent": 3, "busy": 7.0},
        ]
        assert sum(stats.self_times(spans).values()) == pytest.approx(12.0)

    def test_folded_children_cannot_drive_a_parent_negative(self):
        spans = [{"id": 1, "parent": None, "busy": 1.0},
                 {"id": 2, "parent": 1, "busy": 1.2}]
        assert stats.self_times(spans)[1] == 0.0


class TestExactSubsteps:
    def test_binary_fractions_reach_every_boundary(self):
        assert stats.substep(0.125, 4, 1000) == 0.03125
        assert stats.substep(0.25, 4, 1000) == 0.0625

    def test_a_fifth_of_a_quarter_second_never_arrives(self):
        # 0.05 * 5 accumulates to 0.25 - ulp: the ticker would hang
        with pytest.raises(ValueError, match="binary fraction"):
            stats.substep(0.25, 5, 1000)


class TestCompareVerdict:
    def test_within_the_bound_is_ok(self):
        verdict, change, __ = stats.compare_verdict(
            [100, 101, 99], [104, 105, 103], "lower", 0.10)
        assert verdict == "ok" and change == pytest.approx(0.04)

    def test_beyond_the_bound_is_a_regression(self):
        assert stats.compare_verdict([100, 101, 99], [80, 81, 79],
                                     "higher", 0.10)[0] == "regression"
        assert stats.compare_verdict([100, 101, 99], [120, 121, 119],
                                     "higher", 0.10)[0] == "ok"

    def test_a_noisy_baseline_is_unresolved(self):
        noisy = [60, 100, 140, 80, 120]
        assert stats.compare_verdict(noisy, [100] * 5, "lower",
                                     0.10)[0] == "unresolved"

    def test_unless_every_run_is_better(self):
        noisy = [60, 100, 140, 80, 120]
        assert stats.compare_verdict(noisy, [50, 55, 52], "lower",
                                     0.10)[0] == "ok"


def test_schedule_counts_bins_by_slot():
    assert stats.schedule_counts([0.0, 0.001, 0.005, 0.0149], 0.005, 4) \
        == [2, 1, 1, 0]

