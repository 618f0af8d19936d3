"""Load-shedding controllers: CTRL (pole placement), and the comparators.

* :class:`PolePlacementController` — the paper's contribution (Eq. 10):
  ``u(k) = H/(cT) [b0 e(k) + b1 e(k-1)] - a u(k-1)``, with the gain
  recomputed each period from the current cost estimate ``c(k)`` so slow
  cost drift is tolerated (Section 4.4.1).
* :class:`BaselineController` — the simple model-only feedback comparator
  (Section 5): admit ``yd H/c - q(k)`` extra tuples plus the service-rate
  feedforward.
* :class:`AuroraOpenLoopController` — the Fig. 1 algorithm used by
  Aurora/STREAM: open loop, admit up to the capacity ``L0 = H/c(k-1)``
  regardless of system state.

Every controller maps a :class:`~repro.core.monitor.Measurement` and the
current target ``yd`` to a desired admission rate ``v`` in tuples/second.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from ..errors import ControlError
from .model import DsmsModel
from .monitor import Measurement
from .pole_placement import ControllerGains, design_gains


@dataclass(frozen=True)
class ControlDecision:
    """One period's actuation command."""

    v: float          # desired admission rate for the next period (tuples/s)
    u: float          # raw controller output (desired queue growth, tuples/s)
    error: float      # e(k) = yd - ŷ(k) (seconds); 0 for open-loop methods


class Controller(abc.ABC):
    """Maps measurements to admission-rate decisions."""

    name = "controller"

    def __init__(self, model: DsmsModel):
        self.model = model

    @abc.abstractmethod
    def decide(self, m: Measurement, target: float) -> ControlDecision:
        """Compute the next period's desired admission rate."""


class PolePlacementController(Controller):
    """The paper's CTRL method (Eq. 10 with pole-placement gains).

    ``anti_windup`` enables back-calculation: when the actuator saturates
    (cannot admit a negative number of tuples, nor more than arrive), the
    stored ``u(k-1)`` is replaced by the value the saturated actuation
    actually realized, preventing state wind-up during long overloads.
    The paper's experiments run without it; it is exposed for the ablation
    study.

    ``feedback`` selects the feedback signal: ``"estimate"`` (default) is
    the paper's Eq. 11 virtual-queue estimate ŷ(k); ``"measured"`` feeds
    back the average *actual* delay of tuples that departed during the
    period — the naive choice Section 4.5.1 rules out, because that
    measurement lags the true output by the delay itself. Exposed so the
    ablation benchmark can demonstrate the point.
    """

    name = "CTRL"

    def __init__(self, model: DsmsModel,
                 gains: Optional[ControllerGains] = None,
                 anti_windup: bool = False,
                 feedback: str = "estimate"):
        super().__init__(model)
        if feedback not in ("estimate", "measured"):
            raise ControlError(f"unknown feedback signal {feedback!r}")
        self.gains = gains or design_gains()
        self.anti_windup = anti_windup
        self.feedback = feedback
        self._e_prev = 0.0
        self._u_prev = 0.0

    def _feedback_signal(self, m: Measurement) -> float:
        if self.feedback == "estimate":
            return m.delay_estimate
        delivered = [d for d in m.departures if not d.shed]
        if not delivered:
            return m.delay_estimate  # nothing departed: fall back
        return sum(d.delay for d in delivered) / len(delivered)

    def decide(self, m: Measurement, target: float) -> ControlDecision:
        if target < 0:
            raise ControlError(f"negative delay target {target}")
        e = target - self._feedback_signal(m)
        gain = self.model.headroom / (m.cost * self.model.period)
        u = (gain * (self.gains.b0 * e + self.gains.b1 * self._e_prev)
             - self.gains.a * self._u_prev)
        v = u + m.outflow_rate
        if self.anti_windup:
            # back-calculate the u the saturated actuator can realize:
            # admissions are confined to [0, fin]
            v_realizable = min(max(v, 0.0), max(m.inflow_rate, 0.0))
            self._u_prev = v_realizable - m.outflow_rate
        else:
            self._u_prev = u
        self._e_prev = e
        return ControlDecision(v=v, u=u, error=e)


class BaselineController(Controller):
    """Model-only feedback (the paper's BASELINE comparator).

    From Eq. 11, a delay of ``yd`` corresponds to ``yd H/c(k)`` outstanding
    tuples, so ``u(k) = (yd H/c - q)/T`` and
    ``v(k) = u(k) + H/c`` (service-rate feedforward). Uses system state but
    no controller dynamics — the paper uses it to show that the *design*
    matters, not just feedback per se.
    """

    name = "BASELINE"

    def decide(self, m: Measurement, target: float) -> ControlDecision:
        if target < 0:
            raise ControlError(f"negative delay target {target}")
        q_target = target * self.model.headroom / m.cost
        u = (q_target - m.queue_length) / self.model.period
        v = u + self.model.headroom / m.cost
        return ControlDecision(v=v, u=u, error=target - m.delay_estimate)


class BackpressureController(Controller):
    """Bounded-buffer backpressure — what mainstream engines do instead.

    Modern stream processors rarely shed load; they apply *backpressure*:
    a bounded buffer of ``max_queue`` tuples admits arrivals while there is
    room and rejects (or blocks) the rest. Expressed in this framework the
    policy is a proportional law toward the buffer bound,
    ``v = (q_max - q)/T + fout`` — structurally the BASELINE formula with
    the queue target fixed by *memory*, not by the delay goal.

    The consequence this library's benchmarks demonstrate: backpressure
    regulates the queue *length*, so the resulting delay ``q_max · c/H``
    silently scales with the per-tuple cost — when cost doubles (Fig. 14's
    events), a backpressured system's latency doubles, while CTRL holds the
    delay and lets the queue-length target move instead.
    """

    name = "BACKPRESSURE"

    def __init__(self, model: DsmsModel, max_queue: int = 368):
        super().__init__(model)
        if max_queue < 1:
            raise ControlError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = max_queue

    def decide(self, m: Measurement, target: float) -> ControlDecision:
        u = (self.max_queue - m.queue_length) / self.model.period
        v = u + m.outflow_rate
        return ControlDecision(v=v, u=u, error=0.0)


class AuroraOpenLoopController(Controller):
    """The Fig. 1 open-loop algorithm (Aurora explicitly, STREAM implicitly).

    Admits up to the CPU capacity ``L0 = H/c(k-1)`` tuples per second: when
    the measured load exceeds ``L0`` the excess is shed, otherwise that much
    more load is allowed in. System output plays no role — the source of
    the instability, mis-convergence, and unnecessary-loss failure modes
    the paper demonstrates (Fig. 8, Section 4.3.2).

    ``headroom_override`` retunes the assumed capacity fraction, used by the
    Fig. 16 experiment (running AURORA with H = 0.96 instead of 0.97).
    """

    name = "AURORA"

    def __init__(self, model: DsmsModel,
                 headroom_override: Optional[float] = None):
        super().__init__(model)
        if headroom_override is not None and not 0.0 < headroom_override <= 1.0:
            raise ControlError(
                f"headroom override must be in (0, 1], got {headroom_override}"
            )
        self.headroom_override = headroom_override

    def decide(self, m: Measurement, target: float) -> ControlDecision:
        h = (self.headroom_override if self.headroom_override is not None
             else self.model.headroom)
        capacity = h / m.cost          # L0 in tuples/s
        return ControlDecision(v=capacity, u=capacity - m.outflow_rate,
                               error=0.0)
