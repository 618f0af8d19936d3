"""Online system identification: live plant gain and stability margins.

The controller is designed offline against the paper's Section 3 model —
an integrator whose gain ``cT/H`` comes from the *estimated* per-tuple
cost.  At runtime the real plant drifts: the cost EWMA lags cost steps,
workload mix shifts the operator profile, actuation latency adds phase.
The paper's Section 4.3.1 robustness argument ("stable while the real
gain stays within ``1/K`` of the design gain") is evaluated at design
time; this module evaluates it *live*.

Per shard, a forgetting-factor recursive-least-squares estimator folds in
one ``(Δu(k), Δy(k))`` pair per control period — the net tuples the
period pushed into the virtual queue against the queue increment it
produced — and identifies the true service rate ``ŝ = H/ĉ`` (tuples per
second the plant actually works off while busy).  From it:

* ``gain_ratio`` — identified plant gain over the design model's gain,
  exactly the paper's ``K`` (equals ``ĉ / c_est`` — how wrong the
  controller's cost estimate is);
* effective margins — the nominal CTRL open loop ``L(z) = (b0 z + b1) /
  ((z + a)(z - 1))`` is cost-independent (the controller gain ``H/(cT)``
  cancels the design plant gain ``cT/H``), so the *real* open loop is
  ``K * L(z)`` and :func:`repro.control.margins.stability_margins`
  re-evaluates it with the identified gain.  The effective gain margin
  is exact and O(1) every period (``GM_nominal / K``); the phase and
  modulus margins come from a throttled full sweep.
* ``oscillation`` — a limit-cycle score over the recent error signal
  (sign-alternation rate blended with the strongest low-lag
  autocorrelation), the signature of a saturated actuator hunting.

Saturation-awareness: periods where ``alpha`` is pinned at the actuator
limit carry no information about the plant gain (the commanded input
never reached the plant), and periods whose backlog was too small to
keep the server busy end to end say nothing about the service rate (the
integrator model only holds in the overload regime the paper sheds in) —
both are *excluded* from the regression.  See THEORY.md §15 for why
naive closed-loop regression is biased and when a dither on ``u`` is
needed.

Everything here is a pure bus observer: it subscribes to ``period`` (and
``headroom_changed``) events and emits ``sysid`` / ``model_mismatch`` /
``margin_eroded`` events back.  It never touches the control loop, so
runs are float-for-float identical with or without it — which is what
makes the flight recorder's deterministic replay possible.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Optional

from ..control.margins import StabilityMargins, stability_margins
from ..control.rls import rls_step
from ..control.transfer_function import TransferFunction
from .bus import EventBus, get_bus
from .events import MarginEroded, ModelMismatch, SysIdUpdate

#: RLS forgetting factor λ: an effective memory of 1/(1-λ) ≈ 3 informative
#: periods, so a cost step shows in the identified gain within a few periods
FORGETTING = 0.7
#: informative samples folded in before the estimate counts as converged
MIN_SAMPLES = 8
#: ``alpha`` at or above this is pinned at the actuator limit: the commanded
#: input never reached the plant, so the period says nothing about its gain
SATURATION_ALPHA = 0.999
#: periods' worth of departures that must be queued at *both* boundaries of
#: a period for the server to count as busy end to end
BUSY_BACKLOG = 1.0
#: gain ratio K (or 1/K) beyond which the design model counts as mismatched
MISMATCH_RATIO = 1.35
#: effective gain margin / modulus margin below which the margin counts as
#: eroded (the nominal CTRL loop has GM ≈ 5.07 and modulus ≈ 0.80)
GAIN_MARGIN_FLOOR = 3.0
MODULUS_FLOOR = 0.25
#: the full frequency sweep (phase and modulus margins) is re-run every this
#: many periods, on this many grid points; the gain margin is exact and O(1)
MARGIN_SWEEP_EVERY = 8
MARGIN_SWEEP_POINTS = 256
#: error samples the oscillation score looks back over
OSC_WINDOW = 32
#: largest autocorrelation lag (in periods) searched for a limit cycle
OSC_MAX_LAG = 8


class RlsGainEstimator:
    """Forgetting-factor RLS over ``(Δu, Δy)`` period pairs.

    Plant model (the paper's Eq. 2 rearranged): the virtual queue obeys
    ``Δy(k) = Δu(k) - s * T(k)`` while the server is busy, where ``Δu``
    is the net tuples the period pushed into the queue, ``Δy`` the queue
    increment, ``T`` the period length and ``s`` the *true* service rate
    ``H / c_true`` in tuples/second.  The estimator runs scalar RLS on
    ``θ = s`` with regressor ``φ = T`` and target ``Δu - Δy`` — a
    deliberately rank-1 problem: with a near-exact queue identity the
    two-parameter form (admission efficiency + rate) is collinear under
    closed-loop operation, and the collinear direction is precisely the
    closed-loop identification bias THEORY.md §15 describes.

    A forgetting factor ``λ`` < 1 keeps the estimator tracking a drifting
    plant (effective memory ``1/(1-λ)`` samples); the scalar covariance
    is carried explicitly so there is no numpy on the per-period path.
    """

    def __init__(self, forgetting: float = FORGETTING, delta: float = 1e4):
        if not 0.0 < forgetting <= 1.0:
            raise ValueError(f"forgetting factor must be in (0, 1], got {forgetting}")
        if delta <= 0:
            raise ValueError(f"initial covariance must be positive, got {delta}")
        self.forgetting = float(forgetting)
        self.s = 0.0
        self.p = float(delta)
        self.samples = 0

    def update(self, du: float, dy: float, period: float) -> None:
        """Fold one period pair in: regressor ``φ = T``, target ``Δu - Δy``."""
        phi = float(period)
        if phi <= 0:
            return
        target = float(du) - float(dy)    # tuples the server worked off
        self.s, self.p = rls_step(self.s, self.p, phi, target,
                                  self.forgetting)
        self.samples += 1

    @property
    def service_rate(self) -> float:
        """Identified service rate ``H / c_true`` (tuples/second)."""
        return self.s

    def rescale_service(self, factor: float) -> None:
        """Scale the service-rate estimate for a known headroom change.

        ``s = H/c`` is proportional to headroom, so a coordinator
        reallocation is a *known* plant step — scaling the state (instead
        of waiting out the forgetting factor) keeps the cost estimate
        ``ĉ`` continuous through it.
        """
        if factor > 0:
            self.s *= factor


def oscillation_score(errors) -> float:
    """Limit-cycle score in [0, 1] for a recent error window.

    Blends the sign-alternation rate of the error signal with the
    strongest positive autocorrelation at small lags (mean removed): a
    saturated actuator hunting around its limit produces both — rapid
    sign flips and a short, strongly periodic cycle.  Returns 0 for
    windows too short or too quiet to judge.
    """
    xs = [float(e) for e in errors]
    n = len(xs)
    if n < 8:
        return 0.0
    mu = sum(xs) / n
    centered = [x - mu for x in xs]
    var = sum(c * c for c in centered) / n
    if var <= 1e-12:
        return 0.0
    flips = sum(
        1 for a, b in zip(xs, xs[1:])
        if (a - mu) * (b - mu) < 0
    )
    alternation = flips / (n - 1)
    best_rho = 0.0
    for lag in range(1, min(OSC_MAX_LAG, n - 2) + 1):
        acc = sum(centered[i] * centered[i + lag] for i in range(n - lag))
        rho = acc / (var * n)
        if rho > best_rho:
            best_rho = rho
    return min(1.0, 0.5 * alternation + 0.5 * best_rho)


class _ShardSysId:
    """Per-shard estimator state (previous period sample + error window)."""

    __slots__ = ("estimator", "prev_queue", "have_prev", "errors",
                 "excluded", "full_margins", "last_update")

    def __init__(self):
        self.estimator = RlsGainEstimator()
        self.prev_queue = 0.0
        self.have_prev = False
        self.errors: Deque[float] = deque(maxlen=OSC_WINDOW)
        self.excluded = 0
        self.full_margins: Optional[StabilityMargins] = None
        self.last_update: Optional[SysIdUpdate] = None


class SysIdMonitor:
    """Per-shard online plant identification over the event bus.

    Subscribe-and-emit: listens for ``period`` (and ``headroom_changed``)
    events, maintains one :class:`RlsGainEstimator` per shard label, and
    emits a :class:`~repro.obs.events.SysIdUpdate` every period — plus
    :class:`~repro.obs.events.ModelMismatch` /
    :class:`~repro.obs.events.MarginEroded` while those conditions hold.

    The design gain it compares against needs no out-of-band model: Eq. 11
    gives ``H / c_est = (q + 1) / ŷ`` from the period record itself, so
    ``gain_ratio = (q + 1) / (ŷ · ŝ)`` — the monitor works identically
    under the lockstep service and on the live runtime.
    """

    def __init__(self, bus: Optional[EventBus] = None):
        # deferred: repro.core pulls in the engine stack, which imports
        # this package back — resolving the gains at construction time
        # keeps repro.obs importable from inside repro.dsms
        from ..core.pole_placement import paper_gains
        self.bus = bus if bus is not None else get_bus()
        # The nominal CTRL open loop C(z)G(z): the controller gain H/(cT)
        # cancels the design plant gain cT/H, leaving a loop that depends
        # only on the pole-placement coefficients — so one precomputed
        # nominal is valid for every shard, whatever its cost or headroom.
        g = paper_gains()
        self.nominal_open_loop = TransferFunction(
            [g.b0, g.b1],
            [1.0, g.a - 1.0, -g.a],          # (z + a)(z - 1)
        )
        self.nominal_margins = stability_margins(self.nominal_open_loop,
                                                 n_points=2048)
        self._shards: Dict[str, _ShardSysId] = {}
        self._closed = False
        self.bus.subscribe(self._on_event,
                           kinds=("period", "headroom_changed"))

    # ------------------------------------------------------------------ #
    # event handling
    # ------------------------------------------------------------------ #
    def _on_event(self, event) -> None:
        if event.kind == "headroom_changed":
            self._on_headroom(event)
        else:
            self._on_period(event)

    def _state(self, shard: str) -> _ShardSysId:
        state = self._shards.get(shard)
        if state is None:
            state = _ShardSysId()
            self._shards[shard] = state
        return state

    def _on_headroom(self, event) -> None:
        state = self._shards.get(event.shard or "main")
        if state is not None and event.old and event.old > 0:
            state.estimator.rescale_service(event.new / event.old)

    def _on_period(self, event) -> None:
        record = event.record
        if record is None:
            return
        shard = event.shard or "main"
        state = self._state(shard)
        est = state.estimator

        queue = float(record.queue_length)
        # Δu: net tuples the period pushed into the virtual queue —
        # entry-admitted minus the retro-shed culled back out of it.
        du = float(record.admitted) - float(record.shed_retro)
        saturated = record.alpha >= SATURATION_ALPHA
        # busy guard: the integrator model only holds while the server is
        # busy end to end.  Requiring at least one full period's worth of
        # departures queued at *both* boundaries guarantees the queue
        # could not have emptied mid-period even with zero arrivals.
        needed = BUSY_BACKLOG * float(record.outflow_rate) * \
            self._period_of(record)
        idle = (queue < max(needed, 1.0)
                or (state.have_prev and state.prev_queue < max(needed, 1.0)))
        if state.have_prev:
            if saturated or idle:
                state.excluded += 1
            else:
                est.update(du, queue - state.prev_queue,
                           self._period_of(record))
        state.prev_queue = queue
        state.have_prev = True
        state.errors.append(float(record.error))

        converged = est.samples >= MIN_SAMPLES and est.service_rate > 0
        # Eq. 11: y = (q + 1) c_est / H  =>  H / c_est = (q + 1) / y
        ratio = 1.0
        identified_gain = 0.0
        design_gain = 0.0
        if record.delay_estimate > 0:
            design_over = (queue + 1.0) / float(record.delay_estimate)
            design_gain = self._period_of(record) / design_over \
                if design_over > 0 else 0.0
            if converged:
                ratio = design_over / est.service_rate
                identified_gain = self._period_of(record) / est.service_rate
        elif converged:
            identified_gain = self._period_of(record) / est.service_rate

        k_ratio = ratio if converged and ratio > 0 else 1.0
        gm_nom = float(self.nominal_margins.gain_margin)
        gain_margin = gm_nom / k_ratio if math.isfinite(gm_nom) else gm_nom
        if converged and k_ratio > 0 and (
                state.full_margins is None
                or record.k % MARGIN_SWEEP_EVERY == 0):
            state.full_margins = stability_margins(
                k_ratio * self.nominal_open_loop,
                n_points=MARGIN_SWEEP_POINTS)
        full = state.full_margins or self.nominal_margins
        osc = oscillation_score(state.errors)

        mismatch = converged and (
            k_ratio > MISMATCH_RATIO or k_ratio < 1.0 / MISMATCH_RATIO)
        eroded = converged and (
            gain_margin < GAIN_MARGIN_FLOOR
            or full.modulus_margin < MODULUS_FLOOR)

        update = SysIdUpdate(
            k=record.k,
            identified_gain=identified_gain,
            design_gain=design_gain,
            gain_ratio=k_ratio,
            service_rate=est.service_rate,
            gain_margin=float(gain_margin),
            phase_margin_deg=float(full.phase_margin_deg),
            modulus_margin=float(full.modulus_margin),
            oscillation=osc,
            converged=converged,
            saturated=saturated,
            samples=est.samples,
            excluded=state.excluded,
            mismatch=mismatch,
            eroded=eroded,
            shard=shard,
        )
        state.last_update = update
        if self.bus:
            self.bus.emit(update)
            if mismatch:
                self.bus.emit(ModelMismatch(
                    k=record.k, gain_ratio=k_ratio,
                    threshold=MISMATCH_RATIO,
                    identified_gain=identified_gain,
                    design_gain=design_gain, shard=shard))
            if eroded:
                self.bus.emit(MarginEroded(
                    k=record.k, gain_margin=float(gain_margin),
                    gain_margin_floor=GAIN_MARGIN_FLOOR,
                    modulus_margin=float(full.modulus_margin),
                    modulus_floor=MODULUS_FLOOR, shard=shard))

    @staticmethod
    def _period_of(record) -> float:
        """The control period length: recover T from the record's clock."""
        k = record.k
        t = record.time
        return t / (k + 1) if k >= 0 and t > 0 else 1.0

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Per-shard identified state, JSON-able (for results + bundles)."""
        out = {}
        for shard, state in sorted(self._shards.items()):
            est = state.estimator
            last = state.last_update
            out[shard] = {
                "samples": est.samples,
                "excluded": state.excluded,
                "service_rate": est.service_rate,
                "gain_ratio": last.gain_ratio if last else 1.0,
                "identified_gain": last.identified_gain if last else 0.0,
                "design_gain": last.design_gain if last else 0.0,
                "gain_margin": last.gain_margin if last else
                float(self.nominal_margins.gain_margin),
                "phase_margin_deg": last.phase_margin_deg if last else
                float(self.nominal_margins.phase_margin_deg),
                "modulus_margin": last.modulus_margin if last else
                float(self.nominal_margins.modulus_margin),
                "oscillation": last.oscillation if last else 0.0,
                "converged": bool(last.converged) if last else False,
                "mismatch": bool(last.mismatch) if last else False,
                "eroded": bool(last.eroded) if last else False,
            }
        return out

    def close(self) -> None:
        """Detach from the bus (idempotent)."""
        if not self._closed:
            self.bus.unsubscribe(self._on_event)
            self._closed = True

    def __enter__(self) -> "SysIdMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "RlsGainEstimator",
    "SysIdMonitor",
    "oscillation_score",
]
