"""Pure helpers of the e2e benchmark (no I/O, no clocks, no repro imports).

Everything here is a function of its arguments so ``tests/`` can pin the
rules the benchmark's verdicts rest on: what a gated timing reports, which
percentile a sample may claim, when an open-loop rung passes, how ingest
lag is read off an accepted-count curve, how a span's self time is
computed, and when a control period can be cut into sub-steps a
``ManualClock`` reaches exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quiet(values: Sequence[float]) -> float:
    """Mean of the fastest quarter of a timing sample: the gated statistic.

    On a shared host noise is one-sided: a neighbour, a stolen CPU slice or
    a busy sibling thread only ever make a period *slower*, for seconds at
    a time, and while they do the median of a run sits wherever the slow
    stretches happen to end. The quietest quarter of the samples is the
    program's own speed, and it repeats from run to run as long as a
    quarter of the run was left alone; averaging that quarter is steadier
    than any single order statistic inside it. Medians and tails are
    printed beside it.
    """
    if not values:
        raise ValueError("quiet quarter of an empty sample")
    ordered = sorted(values)
    keep = max(1, (len(ordered) + 2) // 4)
    return sum(ordered[:keep]) / keep


def supported_percentile(n: int, wanted: float = 99.0,
                         min_beyond: int = MIN_BEYOND) -> float:
    """The highest percentile <= ``wanted`` with ``min_beyond`` samples above it.

    With ``n`` samples, percentile ``q`` leaves ``n * (1 - q/100)`` samples
    beyond it; the rule caps ``q`` so that count stays at least
    ``min_beyond``. Fewer than ``2 * min_beyond`` samples support nothing
    above the median.
    """
    if n < 2 * min_beyond:
        return 50.0
    return min(wanted, 100.0 * (n - min_beyond) / n)


def tail(values: Sequence[float], wanted: float) -> Tuple[float, float]:
    """``(percentile used, its value)`` under the samples-beyond rule."""
    q = supported_percentile(len(values), wanted)
    return q, percentile(values, q)


def rung_verdict(*, planned: int, sent: int, dropped: int, malformed: int,
                 late_p95_ms: float, decision_ms: Sequence[float],
                 period_s: float, residue: int,
                 arrivals_per_period: float,
                 late_limit_ms: float = 20.0) -> List[str]:
    """Why an open-loop rung failed; an empty list means it passed.

    A rung passes when the generator held its schedule (everything sent,
    lateness p95 within ``late_limit_ms`` — a server that pushes back makes
    *every* slot late, by seconds, while one 40 ms visitor on the
    generator's CPU puts 1% of a 3 s rung's slots past the limit), the
    front door lost nothing,
    decisions kept up (p90 of boundary -> monitor stamp within one period,
    and the last third of the run no slower than the first third by more
    than a quarter of a period: no growing backlog; thirds are compared by
    their quiet quarter, which a backlog lifts like any other statistic
    and a few slow seconds of the host do not), and what was left in the
    ingest buffer after the last tick is at most one period's arrivals.
    """
    reasons = []
    if sent < planned:
        reasons.append(f"generator sent {sent} of {planned}")
    if late_p95_ms > late_limit_ms:
        reasons.append(f"generator lateness p95 {late_p95_ms:.1f} ms "
                       f"> {late_limit_ms:.0f} ms")
    if dropped or malformed:
        reasons.append(f"front door lost frames (dropped {dropped}, "
                       f"malformed {malformed})")
    period_ms = period_s * 1e3
    if len(decision_ms) < 3:
        reasons.append(f"only {len(decision_ms)} loaded periods closed")
    else:
        p90 = percentile(decision_ms, 90.0)
        if p90 > period_ms:
            reasons.append(f"decision p90 {p90:.1f} ms > period "
                           f"{period_ms:.0f} ms")
        third = len(decision_ms) // 3
        first, last = quiet(decision_ms[:third]), quiet(decision_ms[-third:])
        if last > first + 0.25 * period_ms:
            reasons.append(f"backlog grows: quiet decision {first:.1f} ms "
                           f"-> {last:.1f} ms")
    if residue > arrivals_per_period:
        reasons.append(f"{residue} tuples left buffered after the last tick "
                       f"(> {arrivals_per_period:.0f} per period)")
    return reasons


def lag_from_count_curve(samples: Sequence[Tuple[float, int]],
                         slot_s: float,
                         cumulative: Sequence[int]) -> List[float]:
    """Ingest lag in seconds at each poll of the accepted counter.

    ``samples`` are ``(seconds since the generator's first slot, accepted
    count)`` polls; ``cumulative[i]`` is how many tuples the schedule has
    offered by the end of slot ``i`` (slot ``i`` is due at ``i * slot_s``).
    The lag at a poll is how long ago the schedule offered the first tuple
    the server has *not* yet accepted; zero once it has caught up with
    everything due. Polls after the whole schedule is accepted are skipped.
    """
    lags = []
    total = cumulative[-1] if cumulative else 0
    slot = 0
    for t, accepted in samples:
        if accepted >= total:
            break
        while slot < len(cumulative) and cumulative[slot] <= accepted:
            slot += 1
        due_at = slot * slot_s
        lags.append(max(0.0, t - due_at))
    return lags


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Span id -> busy time minus the busy time of its direct children.

    Each span is a dict with ``id``, ``parent`` (id or None) and ``busy``
    (seconds; for a folded per-tuple span the summed call time). Clamped
    at zero: folded children are timed with their own clock reads, so
    their sum may exceed a short parent by the read cost.
    """
    children: Dict[int, float] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + span["busy"]
    return {span["id"]: max(0.0, span["busy"] - children.get(span["id"], 0.0))
            for span in spans}


def substep(period_s: float, n: int, periods: int) -> float:
    """The sub-step ``period_s / n``, or ValueError if it is not exact.

    The paced conductor advances a ``ManualClock`` ``n`` times per period
    and the ticker wakes on ``now >= (k+1) * period_s``. A sub-step such
    as ``0.05`` accumulates to just under the boundary and the ticker
    never wakes, so the step must add up to every boundary *exactly*.
    """
    step = period_s / n
    now = 0.0
    for k in range(periods):
        for __ in range(n):
            now += step
        if now != (k + 1) * period_s:
            raise ValueError(
                f"{n} sub-steps of {step!r} s reach {now!r}, not the period "
                f"boundary {(k + 1) * period_s!r}: pick a binary fraction")
    return step


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the A/A noise)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else float("inf")


def compare_verdict(a: Sequence[float], b: Sequence[float], better: str,
                    bound: float) -> Tuple[str, float, float]:
    """``(verdict, change, noise)`` for side B against side A.

    ``change`` is B's median worsening as a share of A's median (negative
    = better). ``regression`` when it exceeds ``bound``; ``unresolved``
    when side A's own spread exceeds the bound (unless every B run reads
    better than every A run); otherwise ``ok``.
    """
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    noise = spread(a)
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if noise > bound and not all_better:
        return "unresolved", change, noise
    if change > bound:
        return "regression", change, noise
    return "ok", change, noise


def schedule_counts(times: Sequence[float], slot_s: float,
                    n_slots: int) -> List[int]:
    """Tuples per slot for send ``times`` (slot ``i`` covers
    ``[i * slot_s, (i + 1) * slot_s)``)."""
    counts = [0] * n_slots
    for t in times:
        i = int(t // slot_s)
        if i < n_slots:
            counts[i] += 1
    return counts
