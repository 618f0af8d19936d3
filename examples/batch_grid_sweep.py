#!/usr/bin/env python3
"""Sweeping a tuning grid on the vectorized grid kernel.

The paper's Fig. 19 experiment re-runs the whole closed loop once per
control period — with ``backend="batch"`` the entire grid advances in
lock-step through one stacked numpy recursion instead (one control period
per step for every grid point at once), with an optional per-point
cross-check against the scalar engine. This example sweeps control period
x delay target on the quick config, cross-checks a sample, and prints the
speed/fidelity trade-off. See docs/THEORY.md §8 for why the batch
integration is exact, and README.md's "Engine backends" section.

Run:  python examples/batch_grid_sweep.py
"""

import time

from repro.experiments import (
    QUICK_CONFIG,
    GridPoint,
    cross_check_grid,
    period_sweep,
    run_batch_grid,
    scalar_reference,
)
from repro.metrics.report import format_table


def main() -> int:
    # 1. A 4x3 tuning grid: control period x delay target, CTRL on the
    #    web workload. One run per cell on the scalar path; one stacked
    #    pass for all twelve cells on the batch path.
    periods = (0.25, 0.5, 1.0, 2.0)
    targets = (1.0, 2.0, 4.0)
    points = [
        GridPoint(config=QUICK_CONFIG.scaled(period=t), target=yd,
                  key=f"T={t}/yd={yd}")
        for t in periods for yd in targets
    ]

    start = time.perf_counter()
    results = run_batch_grid(points)
    batch_wall = time.perf_counter() - start

    rows = []
    for res in results:
        rows.append([res.point.key,
                     f"{res.qos.accumulated_violation:.1f}",
                     f"{res.qos.loss_ratio:.3f}",
                     f"{res.qos.mean_delay:.2f}"])
    print(f"Tuning grid ({len(points)} points, "
          f"{QUICK_CONFIG.duration:.0f} s each) in {batch_wall:.2f} s:")
    print(format_table(
        ["point", "violation (s)", "loss ratio", "mean delay (s)"], rows))

    # 2. Cross-check a sample of the grid against the scalar engine: the
    #    batch kernel must agree on violation time and loss ratio within
    #    1% (run_batch_grid is a kernel, not an approximation).
    sample = points[:: len(points) // 4]
    sampled = results[:: len(points) // 4]
    start = time.perf_counter()
    reports = cross_check_grid(sample, sampled)
    scalar_wall = time.perf_counter() - start
    worst = max(max(r.violation_err, r.loss_err) for r in reports)
    print(f"\nCross-check: {len(reports)} sampled points agree with the "
          f"scalar engine\n  worst error {worst:.2%} (tolerance 1%), "
          f"scalar sample took {scalar_wall:.2f} s")

    # 3. The same speedup is one keyword away in the figure experiments.
    start = time.perf_counter()
    sweep = period_sweep(QUICK_CONFIG, periods=(0.5, 1.0, 2.0),
                         backend="batch")
    sweep_wall = time.perf_counter() - start
    best = min(sweep.metrics.items(),
               key=lambda kv: kv[1].accumulated_violation)
    print(f"\nperiod_sweep(..., backend='batch'): {len(sweep.metrics)} "
          f"periods in {sweep_wall:.2f} s; best T = {best[0]} "
          f"({best[1].accumulated_violation:.1f} s violation)")

    # 4. Scalar single-point timing for scale.
    start = time.perf_counter()
    scalar_reference(points[0])
    one = time.perf_counter() - start
    print(f"\nOne scalar run takes {one:.2f} s -> the {len(points)}-point "
          f"grid would cost ~{one * len(points):.1f} s serially vs "
          f"{batch_wall:.2f} s batched "
          f"({one * len(points) / batch_wall:.0f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
