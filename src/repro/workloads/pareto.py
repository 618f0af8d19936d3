"""Long-tailed (Pareto) arrival-rate traces.

The paper's synthetic workload: "the number of data tuples per control
period follows a long-tailed (Pareto) distribution; the skewness of the
arrival rates is regulated by a bias factor beta" (Section 5, citing
Harchol-Balter et al.). Smaller beta means a heavier tail, i.e. burstier
input — the Fig. 17 robustness sweep uses beta in {0.1, 0.25, 0.5, 1,
1.25, 1.5}.

Per period the rate is drawn by inverse-CDF sampling of a Pareto
distribution, ``rate = scale / U**(1/beta)``, clipped to ``cap`` (a physical
limit on how fast sources can emit; the paper's Fig. 13 trace tops out near
800 tuples/s).
"""

from __future__ import annotations

import random
from typing import Optional

from ..errors import WorkloadError
from .trace import RateTrace


def pareto_rate_trace(n_periods: int,
                      beta: float = 1.0,
                      scale: float = 100.0,
                      cap: float = 800.0,
                      period: float = 1.0,
                      seed: Optional[int] = None) -> RateTrace:
    """Draw a per-period Pareto rate trace.

    ``scale`` is the minimum (and modal) rate; the median is
    ``scale * 2**(1/beta)``. Rates are clipped to ``cap``.
    """
    if n_periods < 1:
        raise WorkloadError("need at least one period")
    if beta <= 0:
        raise WorkloadError(f"bias factor beta must be positive, got {beta}")
    if scale <= 0:
        raise WorkloadError(f"scale must be positive, got {scale}")
    if cap < scale:
        raise WorkloadError(f"cap {cap} below scale {scale}")
    rng = random.Random(seed)
    values = []
    for __ in range(n_periods):
        u = rng.random()
        # guard the open interval: u == 0 would blow up
        u = max(u, 1e-12)
        rate = scale / (u ** (1.0 / beta))
        values.append(min(rate, cap))
    return RateTrace(values, period)


def pareto_rate_trace_with_mean(n_periods: int,
                                beta: float,
                                target_mean: float,
                                cap: float = 800.0,
                                period: float = 1.0,
                                seed: Optional[int] = None) -> RateTrace:
    """A Pareto trace rescaled so its empirical mean equals ``target_mean``.

    Used by the Fig. 17 burstiness sweep: traces with different beta must
    carry the same average load, otherwise the sweep confounds burstiness
    with offered load.
    """
    if target_mean <= 0:
        raise WorkloadError("target mean must be positive")
    if target_mean >= cap:
        raise WorkloadError(f"target mean {target_mean} must be below cap {cap}")
    raw = pareto_rate_trace(n_periods, beta=beta, scale=1.0,
                            cap=float("inf"), period=period, seed=seed)
    # fixed-point iteration on the scale: clipping removes tail mass, so a
    # single rescale undershoots badly for heavy tails (small beta)
    factor = target_mean / raw.mean()
    clipped = raw
    for __ in range(100):
        clipped = RateTrace([min(v * factor, cap) for v in raw], period)
        mean = clipped.mean()
        if abs(mean - target_mean) <= 1e-3 * target_mean:
            break
        factor *= target_mean / mean
    return clipped
