"""Vectorized closed-loop grid sweeps: the ``batch`` grid kernel.

The paper's tuning and robustness results (Figs. 16/17/19) are parameter
*grids*: the same feedback loop re-run across control periods, delay
targets, burstiness factors or retuned comparators. The scalar path
simulates every grid point tuple-by-tuple; this module instead advances a
whole stack of grid points one control period per iteration, every lane's
Eq. 2 queue held in one numpy vector, mirroring the scalar loop
signal-for-signal:

* arrivals come from the *same* materialized (and disk-cached) arrival
  lists, binned into per-period offered counts;
* entry shedding follows the deterministic error-diffusion decimation of
  :class:`~repro.core.actuator.SamplingActuator` in closed form
  (``floor`` of the accumulated admit ratio), so the admitted tuples match
  the scalar reference tuple-for-tuple;
* service comes from a precomputed **completion schedule**: an exact
  replay of the :class:`~repro.dsms.fluid.VirtualQueueEngine` tuple clock.
  The schedule opens with a short event-exact prefix simulation (until the
  backlog pins the server busy) and continues analytically segment by
  segment — serving windows minus the control-cycle charge, split at
  cost-trace cells, including the engine's ``max(0, cost - progress)``
  repricing of the in-service tuple at each cost step. While a lane stays
  backlogged (the regime that produces delay violations), its per-period
  completions and completion *times* are exactly the scalar engine's, and
  the schedule is shared by every lane of the same workload;
* monitor (EWMA cost estimate, Eq. 11 delay estimate) and controllers
  (CTRL / BASELINE / AURORA / BACKPRESSURE) are the scalar recursions
  transcribed onto lane vectors.

QoS is computed at the *event* level — per-tuple delays from the exact
admitted-arrival times and scheduled completion times — so the metrics
replicate :func:`~repro.metrics.qos.compute_qos` rather than approximating
it with fluid curves. See THEORY.md §8 for the exactness argument.

:func:`cross_check_grid` re-runs grid points on the scalar
:class:`~repro.dsms.fluid.VirtualQueueEngine` through the real
:class:`~repro.core.loop.ControlLoop` stack (with the deterministic
sampling actuator and in-period cycle charging, so both paths share one
trajectory definition) and asserts violation time and loss ratio agree
within tolerance.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import STRATEGIES, SamplingActuator
from ..core.pole_placement import design_gains
from ..errors import ExperimentError
from ..metrics.qos import QosMetrics
from ..metrics.recorder import PeriodRecord, RunRecord
from ..service.shard import build_engine, build_loop
from ..workloads import cached_arrivals_from_trace
from .config import ExperimentConfig
from .runner import make_cost_trace, make_workload

#: strategies the vectorized controller bank implements
BATCH_STRATEGIES = ("CTRL", "BASELINE", "AURORA", "BACKPRESSURE")

#: queue length at which the schedule switches from the event-exact prefix
#: simulation to the analytic busy-server continuation; at ~64 tuples the
#: probability of the overloaded queue ever draining back below the head
#: tuple is negligible, so the tuple clock stays phase-locked
_SATURATION_BACKLOG = 64


@dataclass(frozen=True)
class GridPoint:
    """One fully-specified closed-loop run inside a batch grid."""

    config: ExperimentConfig
    strategy: str = "CTRL"
    workload_kind: str = "web"
    beta: float = 1.0                        # Pareto bias (workload 'pareto')
    target: Optional[float] = None           # None -> config.target
    headroom_override: Optional[float] = None  # AURORA retune (Fig. 16)
    max_queue: int = 368                     # BACKPRESSURE buffer bound
    keep_record: bool = False                # build a full RunRecord
    key: str = ""

    def __post_init__(self) -> None:
        if self.strategy not in BATCH_STRATEGIES:
            raise ExperimentError(
                f"batch sweeps support strategies {BATCH_STRATEGIES}, "
                f"got {self.strategy!r}"
            )

    @property
    def resolved_target(self) -> float:
        return self.config.target if self.target is None else float(self.target)

    @property
    def label(self) -> str:
        return self.key or (
            f"{self.strategy}/{self.workload_kind}/T={self.config.period}"
        )


@dataclass(frozen=True)
class BatchPointResult:
    """Outcome of one grid point: QoS plus the per-period trajectories."""

    point: GridPoint
    qos: QosMetrics
    offered: "np.ndarray"   # per-period offered counts
    admitted: "np.ndarray"  # per-period admitted counts
    served: "np.ndarray"    # per-period delivered counts
    queue: "np.ndarray"     # q(k) at each period boundary
    record: Optional[RunRecord] = None  # per-period signals (keep_record)


@dataclass(frozen=True)
class CrossCheckReport:
    """Batch-vs-scalar agreement for one grid point."""

    key: str
    batch_qos: QosMetrics
    scalar_qos: QosMetrics
    violation_err: float    # relative, against the scalar reference
    loss_err: float         # absolute difference of loss ratios
    scalar_wall: float      # seconds spent in the scalar reference run
    ok: bool


# --------------------------------------------------------------------- #
# inputs shared by the batch lanes and the scalar reference
# --------------------------------------------------------------------- #
def _input_key(point: GridPoint) -> tuple:
    """Workloads/schedules are shared between lanes with this same key."""
    c = point.config
    return (point.workload_kind, point.beta, c.period, c.duration,
            c.capacity, c.headroom, c.control_overhead, c.mean_rate,
            c.pareto_mean_rate, c.seed, c.use_cost_trace, c.poisson_arrivals)


#: process-local memo of materialized inputs; grids revisit the same few
#: workloads many times (batch lanes + their scalar cross-checks), and
#: regenerating a web trace costs more than simulating it
_INPUTS_MEMO: Dict[tuple, tuple] = {}
_INPUTS_MEMO_MAX = 16


def _point_inputs(point: GridPoint):
    """Workload, cost trace and materialized arrivals for one grid point.

    Memoized on :func:`_input_key` (the callers never mutate the returned
    objects); evicts oldest-first once :data:`_INPUTS_MEMO_MAX` distinct
    workloads are live.
    """
    key = _input_key(point)
    hit = _INPUTS_MEMO.get(key)
    if hit is not None:
        return hit
    config = point.config
    workload = make_workload(point.workload_kind, config, beta=point.beta)
    cost_trace = make_cost_trace(config)
    arrivals = cached_arrivals_from_trace(
        workload, poisson=config.poisson_arrivals, seed=config.seed,
    )
    while len(_INPUTS_MEMO) >= _INPUTS_MEMO_MAX:
        _INPUTS_MEMO.pop(next(iter(_INPUTS_MEMO)))
    _INPUTS_MEMO[key] = (workload, cost_trace, arrivals)
    return _INPUTS_MEMO[key]


def _period_counts(ts: "np.ndarray", period: float,
                   n_periods: int) -> "np.ndarray":
    """Offered tuples per control period (ControlLoop's due-binning)."""
    if not len(ts):
        return np.zeros(n_periods, dtype=np.int64)
    idx = np.floor(ts / period).astype(np.int64)
    idx = np.clip(idx, 0, n_periods - 1)
    return np.bincount(idx, minlength=n_periods)


# --------------------------------------------------------------------- #
# the completion schedule (shared tuple clock of the scalar engine)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Schedule:
    """Busy-server completion schedule for one (workload, config) pair."""

    times: "np.ndarray"     # completion instants, sorted ascending
    cum: "np.ndarray"       # (K+1,) completions by each period boundary
    sat: "np.ndarray"       # (K,) completions inside each period
    cpu: "np.ndarray"       # (K,) service CPU per period while busy
    prefix_periods: int     # periods covered by the event-exact prefix


def _build_schedule(config: ExperimentConfig, cost_trace,
                    arrivals) -> _Schedule:
    """Replay the scalar engine's tuple clock for one workload.

    Phase 1 drives a real :class:`~repro.dsms.fluid.VirtualQueueEngine`
    (admitting everything — during loop start-up every actuator's ratio is
    still 1.0) with the exact ControlLoop clocking until the backlog pins
    the server busy. Phase 2 continues analytically: per serving window
    (period minus the in-period cycle charge), split at cost-trace cells,
    completions tick every ``cost/headroom`` seconds with the engine's
    ``max(0, cost - progress)`` head-tuple repricing at each cost change.
    """
    T = config.period
    K = config.n_periods
    h = config.headroom
    cycle = config.control_overhead
    engine = build_engine(config, "fluid", headroom=h, seed=0,
                          cost_trace=cost_trace)
    cpu = np.zeros(K)
    it = iter(arrivals)
    pending = next(it, None)
    last_cpu = 0.0
    P = 0
    while P < K:
        boundary = (P + 1) * T
        while pending is not None and pending[0] < boundary:
            t = pending[0]
            if t > engine.now:
                engine.run_until(t)
            engine.submit(max(t, P * T, engine.now))
            pending = next(it, None)
        pre = boundary - cycle / h
        engine.run_until(max(pre, engine.now))
        if cycle:
            engine.consume_cpu(cycle)
        engine.run_until(max(boundary, engine.now))
        cpu[P] = engine.cpu_used - last_cpu - cycle
        last_cpu = engine.cpu_used
        P += 1
        if engine.outstanding >= _SATURATION_BACKLOG:
            break
    parts: List["np.ndarray"] = []
    prefix = engine.drain_departures()
    if prefix:
        parts.append(np.fromiter((d.departed for d in prefix), dtype=float,
                                 count=len(prefix)))
    if P < K:
        # continue from the engine's exact head-tuple progress
        cont = _analytic_continuation(config, cost_trace, P,
                                      engine._progress, cpu)
        if len(cont):
            parts.append(cont)
    times = np.concatenate(parts) if parts else np.empty(0)
    boundaries = np.arange(1, K + 1) * T
    cum = np.concatenate(
        [[0], np.searchsorted(times, boundaries, side="right")]
    ).astype(np.int64)
    return _Schedule(times=times, cum=cum, sat=np.diff(cum), cpu=cpu,
                     prefix_periods=P)


def _reference_continuation(config: ExperimentConfig, cost_trace, P: int,
                            p_cpu: float, cpu: "np.ndarray") -> "np.ndarray":
    """Scalar reference for the analytic busy-server continuation.

    The original per-period/per-segment Python loop, kept verbatim as the
    pinning oracle for :func:`_analytic_continuation` — the vectorized
    version must reproduce these completion instants (to float dust) and
    their exact count. Mutates ``cpu[P:]`` like the vectorized path.
    """
    T = config.period
    K = config.n_periods
    h = config.headroom
    cycle = config.control_overhead
    base = config.base_cost
    mult = (cost_trace.as_multiplier(base) if cost_trace is not None
            else None)
    cell = cost_trace.period if cost_trace is not None else None
    seg_t: List[float] = []
    seg_n: List[int] = []
    seg_pitch: List[float] = []
    for k in range(P, K):
        start = k * T
        pre = (k + 1) * T - cycle / h
        cpu[k] = (pre - start) * h
        bounds = [start]
        if cell is not None:
            j = math.floor(start / cell + 1e-9) + 1
            while j * cell < pre - 1e-12:
                bounds.append(j * cell)
                j += 1
        bounds.append(pre)
        for s, e in zip(bounds[:-1], bounds[1:]):
            c = base if mult is None else base * mult(s)
            budget = (e - s) * h
            first = max(0.0, c - p_cpu)
            if budget < first:
                p_cpu += budget
                continue
            n = 1 + int((budget - first) / c + 1e-12)
            p_cpu = max(budget - first - (n - 1) * c, 0.0)
            seg_t.append(s + first / h)
            seg_n.append(n)
            seg_pitch.append(c / h)
    if not seg_n:
        return np.empty(0)
    ns = np.asarray(seg_n)
    rep_t = np.repeat(np.asarray(seg_t), ns)
    rep_p = np.repeat(np.asarray(seg_pitch), ns)
    intra = np.arange(int(ns.sum())) - np.repeat(np.cumsum(ns) - ns, ns)
    return rep_t + intra * rep_p


def _analytic_continuation(config: ExperimentConfig, cost_trace, P: int,
                           p_cpu: float, cpu: "np.ndarray") -> "np.ndarray":
    """Vectorized busy-server continuation (periods ``P..K``).

    Replaces :func:`_reference_continuation`'s per-period loop with array
    construction in three steps:

    1. **segments** — every period contributes one serving window
       ``[k*T, (k+1)*T - cycle/h)`` split at cost-trace cell boundaries;
       segment starts/ends/costs come from one ragged scatter (the
       boundary predicate ``j*cell < pre - 1e-12`` is re-applied exactly,
       so segmentation matches the scalar loop segment-for-segment);
    2. **runs** — consecutive segments with the same per-tuple cost merge
       into runs; within a run completions tick uniformly in *CPU budget*
       coordinates, so each run needs only the head-tuple progress at
       entry. That recursion is inherently sequential but O(#cost
       changes), a few hundred plain-float ops instead of one Python
       iteration per period per segment;
    3. **expansion** — completions materialize via one global
       ``searchsorted`` of their budget coordinates into the segment
       budget prefix-sum, mapping budget back to wall-clock inside the
       owning segment.

    While a lane is saturated this reproduces the scalar engine's tuple
    clock; the pinning test asserts count equality and time agreement
    against :func:`_reference_continuation` on real workloads.
    """
    T = config.period
    K = config.n_periods
    h = config.headroom
    cycle = config.control_overhead
    base = config.base_cost
    ks = np.arange(P, K)
    starts = ks * T
    pres = (ks + 1) * T - cycle / h
    cpu[P:K] = (pres - starts) * h

    # --- 1. segment boundaries at cost-trace cells -------------------- #
    if cost_trace is not None:
        cell = cost_trace.period
        j0 = np.floor(starts / cell + 1e-9).astype(np.int64) + 1
        nb = np.maximum(
            np.ceil((pres - 1e-12) / cell).astype(np.int64) - j0, 0)
        # the scalar predicate is j*cell < pre - 1e-12; undo any off-by-one
        # the ceil rounding introduced at exact-boundary floats
        over = (nb > 0) & ~((j0 + nb - 1) * cell < pres - 1e-12)
        nb = nb - over
        nb = nb + ((j0 + nb) * cell < pres - 1e-12)
    else:
        nb = np.zeros(len(ks), dtype=np.int64)
    nseg = nb + 1
    S = int(nseg.sum())
    first = np.cumsum(nseg) - nseg
    rep = np.repeat(np.arange(len(ks)), nseg)
    intra = np.arange(S) - first[rep]
    seg_s = np.where(intra == 0, starts[rep], 0.0)
    seg_e = np.where(intra == nb[rep], pres[rep], 0.0)
    if cost_trace is not None:
        seg_s = np.where(intra > 0, (j0[rep] + intra - 1) * cell, seg_s)
        seg_e = np.where(intra < nb[rep], (j0[rep] + intra) * cell, seg_e)
        vals = np.asarray(cost_trace.values)
        idx = np.clip((seg_s // cell).astype(np.int64), 0, len(vals) - 1)
        # the same float ops as ``base * mult(s)`` — bit-equal costs
        c = base * (vals[idx] / base)
    else:
        c = np.full(S, base)
    B = (seg_e - seg_s) * h

    # --- 2. equal-cost runs + the O(R) head-tuple recursion ----------- #
    change = np.empty(S, dtype=bool)
    change[0] = True
    np.not_equal(c[1:], c[:-1], out=change[1:])
    run_first = np.flatnonzero(change)
    R = len(run_first)
    run_last = np.concatenate([run_first[1:], [S]]) - 1
    run_c = c[run_first]
    run_L = np.add.reduceat(B, run_first)
    cumB = np.cumsum(B)
    cumBprev = cumB - B
    run_base = cumBprev[run_first]
    q0s = np.empty(R)
    Ms = np.empty(R, dtype=np.int64)
    p = float(p_cpu)
    lc = run_c.tolist()
    lL = run_L.tolist()
    for r in range(R):
        cr = lc[r]
        q0 = p if p < cr else cr
        x = q0 + lL[r]
        M = int(x / cr + 1e-12)
        p = x - M * cr
        if p < 0.0:
            p = 0.0
        q0s[r] = q0
        Ms[r] = M

    # --- 3. expand completions, map budget -> wall-clock -------------- #
    Mtot = int(Ms.sum())
    if Mtot == 0:
        return np.empty(0)
    rrep = np.repeat(np.arange(R), Ms)
    m = np.arange(Mtot) - np.repeat(np.cumsum(Ms) - Ms, Ms)
    u = run_base[rrep] + (m + 1) * run_c[rrep] - q0s[rrep]
    j = np.searchsorted(cumB, u, side="left")
    j = np.clip(j, run_first[rrep], run_last[rrep])
    return seg_s[j] + (u - cumBprev[j]) / h


def _ragged_indices(dst_starts, src_starts, lengths):
    """Index arrays copying ``lengths[i]`` items from each src/dst start."""
    lengths = lengths.astype(np.int64)
    total = int(lengths.sum())
    offs = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return (np.repeat(dst_starts, lengths) + offs,
            np.repeat(src_starts, lengths) + offs)


# --------------------------------------------------------------------- #
# the vectorized closed loop
# --------------------------------------------------------------------- #
def run_batch_grid(points: Sequence[GridPoint]) -> List[BatchPointResult]:
    """Run a whole grid of closed-loop simulations in one stacked loop.

    All points advance together, one control period per iteration, one
    vectorized Lindley step of Eq. 2 per period across every lane;
    results come back in input order. Points may mix control periods and
    strategies freely — shorter runs simply pad out.
    """
    points = list(points)
    if not points:
        raise ExperimentError("batch grid needs at least one point")
    g = len(points)

    inputs: Dict[tuple, tuple] = {}
    schedules: Dict[tuple, _Schedule] = {}
    stamps: Dict[tuple, "np.ndarray"] = {}
    keys = []
    for p in points:
        key = _input_key(p)
        keys.append(key)
        if key not in inputs:
            inputs[key] = _point_inputs(p)
            arrivals = inputs[key][2]
            stamps[key] = np.fromiter((a[0] for a in arrivals), dtype=float,
                                      count=len(arrivals))
            schedules[key] = _build_schedule(p.config, inputs[key][1],
                                             arrivals)

    Ks = np.array([p.config.n_periods for p in points])
    Kmax = int(Ks.max())
    T = np.array([p.config.period for p in points])
    headroom = np.array([p.config.headroom for p in points])
    base_cost = np.array([p.config.base_cost for p in points])
    cycle = np.array([p.config.control_overhead for p in points])
    target = np.array([p.resolved_target for p in points])
    ewma_a = np.maximum(np.array([
        1.0 - math.exp(-p.config.period / p.config.cost_tau) for p in points
    ]), 1e-6)
    gains = design_gains()

    counts = np.zeros((g, Kmax), dtype=np.int64)
    sat = np.zeros((g, Kmax))
    cpu_sched = np.zeros((g, Kmax))
    for i, p in enumerate(points):
        K = int(Ks[i])
        counts[i, :K] = _period_counts(stamps[keys[i]], float(T[i]), K)
        sat[i, :K] = schedules[keys[i]].sat
        cpu_sched[i, :K] = schedules[keys[i]].cpu

    m_ctrl = np.array([p.strategy == "CTRL" for p in points], dtype=float)
    m_base = np.array([p.strategy == "BASELINE" for p in points], dtype=float)
    m_aur = np.array([p.strategy == "AURORA" for p in points], dtype=float)
    m_bp = np.array([p.strategy == "BACKPRESSURE" for p in points],
                    dtype=float)
    h_eff = np.array([
        p.headroom_override if p.headroom_override is not None
        else p.config.headroom for p in points
    ])
    max_queue = np.array([float(p.max_queue) for p in points])

    # per-period average service cost while busy (tracks the cost trace);
    # used to charge CPU for tuples served in under-loaded periods
    avg_cost = np.where(sat > 0, cpu_sched / np.maximum(sat, 1.0),
                        base_cost[:, None])

    q = np.zeros(g)                # Eq. 2 virtual queue per lane
    acc = np.zeros(g)              # error-diffusion accumulator
    allowance = np.full(g, np.inf)
    expected = np.zeros(g)         # inflow estimate (last period's offered)
    cost_est = base_cost.copy()
    e_prev = np.zeros(g)
    u_prev = np.zeros(g)

    adm_h = np.zeros((g, Kmax))
    srv_h = np.zeros((g, Kmax))
    q_h = np.zeros((g, Kmax))
    ratio_h = np.zeros((g, Kmax))
    acc_h = np.zeros((g, Kmax))
    any_records = any(p.keep_record for p in points)
    if any_records:
        extra = {name: np.zeros((g, Kmax)) for name in
                 ("delay", "cost", "v", "u", "err")}

    gain_b0 = gains.b0
    gain_b1 = gains.b1
    gain_a = gains.a
    inv_T = 1.0 / T
    has_ctrl = bool(m_ctrl.any())
    has_base = bool(m_base.any())
    has_aur = bool(m_aur.any())
    has_bp = bool(m_bp.any())
    all_ctrl = has_ctrl and not (has_base or has_aur or has_bp)
    countsf = counts.astype(float)
    old_err = np.seterr(divide="ignore", invalid="ignore")
    try:
        for k in range(Kmax):
            n = countsf[:, k]
            ratio = np.where(expected > 0.0,
                             np.minimum(np.maximum(
                                 allowance / expected, 0.0), 1.0), 1.0)
            acc_h[:, k] = acc
            ratio_h[:, k] = ratio
            total = acc + n * ratio
            admitted = np.minimum(np.floor(total), n)
            acc = np.maximum(total - admitted, 0.0)

            backlog = q + admitted
            q = np.maximum(0.0, backlog - sat[:, k])
            served = backlog - q
            full = served == sat[:, k]
            cpu = np.where(full, cpu_sched[:, k],
                           served * avg_cost[:, k]) + cycle
            measured = cpu / served            # inf/nan when idle: masked
            good = np.isfinite(measured) & (measured > 0.0)
            cost_est = cost_est + ewma_a * np.where(
                good, measured - cost_est, 0.0)
            outflow = served * inv_T
            delay_est = (q + 1.0) * cost_est / headroom

            e = target - delay_est
            if has_ctrl:
                gain = headroom / (cost_est * T)
                u_ctrl = (gain * (gain_b0 * e + gain_b1 * e_prev)
                          - gain_a * u_prev)
                if all_ctrl:
                    v = u_ctrl + outflow
                    u_prev = u_ctrl
                else:
                    v = m_ctrl * (u_ctrl + outflow)
                    u_prev = m_ctrl * u_ctrl + (1.0 - m_ctrl) * u_prev
            else:
                u_ctrl = 0.0
                v = 0.0
            if has_base:
                v = v + m_base * ((target * headroom / cost_est - q) * inv_T
                                  + headroom / cost_est)
            if has_aur:
                v = v + m_aur * (h_eff / cost_est)
            if has_bp:
                v = v + m_bp * ((max_queue - q) * inv_T + outflow)
            e_prev = e
            allowance = np.maximum(v, 0.0) * T
            expected = n

            adm_h[:, k] = admitted
            srv_h[:, k] = served
            q_h[:, k] = q
            if any_records:
                extra["delay"][:, k] = delay_est
                extra["cost"][:, k] = cost_est
                extra["v"][:, k] = v
                extra["u"][:, k] = (m_ctrl * u_ctrl
                                    + m_base * (v - headroom / cost_est)
                                    + m_aur * (v - outflow)
                                    + m_bp * (v - outflow))
                extra["err"][:, k] = (m_ctrl + m_base) * e
    finally:
        np.seterr(**old_err)

    results = []
    for i, point in enumerate(points):
        K = int(Ks[i])
        sch = schedules[keys[i]]
        ts = stamps[keys[i]]
        qos = _lane_qos(point, ts, counts[i, :K], adm_h[i, :K], srv_h[i, :K],
                        sat[i, :K], cpu_sched[i, :K], ratio_h[i, :K],
                        acc_h[i, :K], sch)
        record = None
        if point.keep_record:
            record = _lane_record(point, i, K, counts, adm_h, srv_h, q_h,
                                  ratio_h, extra)
        results.append(BatchPointResult(
            point=point, qos=qos, offered=counts[i, :K].copy(),
            admitted=adm_h[i, :K].copy(), served=srv_h[i, :K].copy(),
            queue=q_h[i, :K].copy(), record=record,
        ))
    return results


def _lane_qos(point: GridPoint, ts, counts, admitted, served, sat, cpu_sched,
              ratio, acc0, sch: _Schedule) -> QosMetrics:
    """Event-level QoS for one lane, replicating ``compute_qos``.

    Admitted arrival times follow from the closed-form error diffusion;
    departure times come from the shared completion schedule wherever the
    lane ran the server saturated (exact), and track arrivals plus one
    service time in the rare under-loaded periods (whose delays sit far
    below the target either way).
    """
    config = point.config
    T = config.period
    K = len(counts)
    N = len(ts)
    yd = point.resolved_target
    offered_total = int(counts.sum())
    admitted_total = int(admitted.sum())
    shed = offered_total - admitted_total

    # exact admitted arrival instants from the error-diffusion state
    pk = np.clip(np.floor(ts / T).astype(np.int64), 0, K - 1)
    offs = np.concatenate([[0], np.cumsum(counts)])
    j = np.arange(N) - offs[pk]
    rho = ratio[pk]
    a0 = acc0[pk]
    adm_mask = np.floor(a0 + (j + 1) * rho) > np.floor(a0 + j * rho)
    arr = ts[adm_mask]
    if len(arr) < admitted_total:  # float-edge stragglers: pad at period end
        missing = admitted_total - len(arr)
        arr = np.sort(np.concatenate([arr, np.full(missing, K * T)]))

    S = int(round(served.sum()))
    if S <= 0:
        return QosMetrics(0.0, 0, 0.0, 0, shed, offered_total, 0.0)
    C = np.concatenate([[0], np.cumsum(served)]).astype(np.int64)
    srv_k = (C[1:] - C[:-1])
    sat_k = sat.astype(np.int64)
    dep = np.empty(S)
    saturated = (srv_k == sat_k) & (srv_k > 0)
    ks = np.nonzero(saturated)[0]
    if len(ks):
        dst, src = _ragged_indices(C[ks], sch.cum[ks], srv_k[ks])
        dep[dst] = sch.times[src]
    # under-loaded periods (the lane shed below the busy schedule): FIFO
    # service recursion dep_j = max(arr_j, dep_{j-1}) + pitch_j, run over
    # each maximal run of consecutive under-loaded periods and seeded with
    # the last completion before the run. With cp = cumsum(pitch) this is
    # dep_j = cp_j + max(seed, cummax(arr_j - cp_{j-1})), pure array math.
    under = ~saturated & (srv_k > 0)
    if under.any():
        pitch_k = np.where(sat_k > 0,
                           cpu_sched / np.maximum(sat_k, 1),
                           config.base_cost) / config.headroom
        edges = np.flatnonzero(np.diff(np.concatenate(
            [[False], under, [False]]).astype(np.int8)))
        for a, b in zip(edges[::2], edges[1::2]):     # periods [a, b) underloaded
            lo, hi = C[a], C[b]
            arr_run = arr[lo:hi]
            cp = np.cumsum(np.repeat(pitch_k[a:b], srv_k[a:b]))
            seed = dep[lo - 1] if lo > 0 else -np.inf
            slack = np.maximum.accumulate(
                arr_run - np.concatenate([[0.0], cp[:-1]]))
            dep[lo:hi] = cp + np.maximum(slack, seed)
    dep = np.maximum.accumulate(np.maximum(dep, arr[:S]))

    duration = K * T
    win = dep <= duration + 1e-9
    delay = dep[win] - arr[:S][win]
    delivered = int(win.sum())
    if delivered == 0:
        return QosMetrics(0.0, 0, 0.0, 0, shed, offered_total, 0.0)
    excess = delay - yd
    over = excess > 0.0
    return QosMetrics(
        accumulated_violation=float(excess[over].sum()),
        delayed_tuples=int(over.sum()),
        max_overshoot=float(max(excess.max(), 0.0)),
        delivered=delivered,
        shed=shed,
        offered=offered_total,
        mean_delay=float(delay.mean()),
    )


def _lane_record(point: GridPoint, i: int, K: int, counts, adm_h, srv_h,
                 q_h, ratio_h, extra) -> RunRecord:
    """Materialize one lane's per-period signals as a RunRecord.

    The record carries the full period series (so plots and the robustness
    dataclasses work unchanged) but no individual departures — use the
    :class:`BatchPointResult`'s precomputed ``qos`` instead of
    ``record.qos()``.
    """
    T = point.config.period
    record = RunRecord(period=T)
    yd = point.resolved_target
    for k in range(K):
        record.periods.append(PeriodRecord(
            k=k, time=(k + 1) * T, target=yd,
            delay_estimate=float(extra["delay"][i, k]),
            queue_length=int(q_h[i, k]),
            cost=float(extra["cost"][i, k]),
            inflow_rate=float(adm_h[i, k] / T),
            outflow_rate=float(srv_h[i, k] / T),
            offered=int(counts[i, k]), admitted=int(adm_h[i, k]),
            shed_retro=0, v=float(extra["v"][i, k]),
            u=float(extra["u"][i, k]), error=float(extra["err"][i, k]),
            alpha=float(1.0 - ratio_h[i, k]),
        ))
    record.duration = K * T
    record.offered_total = int(counts[i, :K].sum())
    record.entry_dropped_total = int(counts[i, :K].sum() - adm_h[i, :K].sum())
    return record


# --------------------------------------------------------------------- #
# scalar cross-check
# --------------------------------------------------------------------- #
def scalar_reference(point: GridPoint) -> Tuple[QosMetrics, float]:
    """Run one grid point on the scalar fluid engine (deterministically).

    Uses the real :class:`~repro.core.loop.ControlLoop` stack over
    :class:`~repro.dsms.fluid.VirtualQueueEngine`, with the deterministic
    :class:`~repro.core.actuator.SamplingActuator` and in-period cycle
    charging — the exact trajectory definition the batch lanes vectorize.
    Returns the QoS metrics and the wall-clock seconds the run took.
    """
    config = point.config
    _, cost_trace, arrivals = _point_inputs(point)
    kwargs = {}
    if point.strategy == "AURORA" and point.headroom_override is not None:
        kwargs["headroom_override"] = point.headroom_override
    if point.strategy == "BACKPRESSURE":
        kwargs["max_queue"] = point.max_queue
    engine = build_engine(config, "fluid", headroom=config.headroom,
                          seed=0, cost_trace=cost_trace)
    loop = build_loop(
        config, STRATEGIES[point.strategy], engine=engine,
        actuator=SamplingActuator(),
        target=point.resolved_target,
        estimator=config.make_cost_estimator(),
        controller_kwargs=kwargs,
        charge_cycle_within_period=True,
    )
    start = _time.perf_counter()
    record = loop.run(arrivals, config.duration)
    wall = _time.perf_counter() - start
    return record.qos(), wall


#: the agreed accuracy of the grid kernel against the scalar fluid engine
#: (THEORY.md §8): 1%, relative for violation time, absolute for loss ratio
CROSS_CHECK_TOLERANCE = 0.01
#: seconds of violation below which the relative error is taken against
#: this floor, so near-zero violations do not blow up the ratio
VIOLATION_FLOOR = 1.0


def cross_check_grid(points: Sequence[GridPoint],
                     results: Sequence[BatchPointResult]
                     ) -> List[CrossCheckReport]:
    """Verify batch results against scalar reference runs, point by point.

    Violation time must agree within ``CROSS_CHECK_TOLERANCE`` relative to
    the scalar value (floored at ``VIOLATION_FLOOR`` seconds); loss ratios
    must agree within it absolutely. Raises
    :class:`~repro.errors.ExperimentError` listing every failing point.
    """
    reports: List[CrossCheckReport] = []
    failures: List[str] = []
    for point, res in zip(points, results):
        scalar_qos, wall = scalar_reference(point)
        denom = max(abs(scalar_qos.accumulated_violation), VIOLATION_FLOOR)
        v_err = abs(res.qos.accumulated_violation
                    - scalar_qos.accumulated_violation) / denom
        l_err = abs(res.qos.loss_ratio - scalar_qos.loss_ratio)
        ok = v_err <= CROSS_CHECK_TOLERANCE and l_err <= CROSS_CHECK_TOLERANCE
        reports.append(CrossCheckReport(
            key=point.label, batch_qos=res.qos, scalar_qos=scalar_qos,
            violation_err=v_err, loss_err=l_err, scalar_wall=wall, ok=ok,
        ))
        if not ok:
            failures.append(
                f"{point.label}: violation err {v_err:.4f} "
                f"(batch {res.qos.accumulated_violation:.3f}s vs scalar "
                f"{scalar_qos.accumulated_violation:.3f}s), loss err "
                f"{l_err:.4f} (batch {res.qos.loss_ratio:.4f} vs scalar "
                f"{scalar_qos.loss_ratio:.4f})"
            )
    if failures:
        raise ExperimentError(
            "batch/scalar cross-check failed on "
            f"{len(failures)}/{len(reports)} grid points:\n  "
            + "\n  ".join(failures)
        )
    return reports
