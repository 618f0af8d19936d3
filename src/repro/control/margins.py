"""Frequency-domain robustness margins for discrete loops.

The pole-placement design guarantees *nominal* performance; margins
quantify how much the real plant may deviate before the loop goes
unstable — the quantitative backing for the paper's robustness claims
(Section 4.3.1's `1/K` argument made precise):

* **gain margin** — the factor by which the loop gain can grow before
  instability (how badly can the cost estimate `c(k)` be off?);
* **phase margin** — tolerated extra phase lag (how much extra delay, e.g.
  actuation applied a fraction of a period late?);
* **modulus margin** — the distance from the Nyquist curve to the critical
  point −1, a single number bounding tolerance to *any* combination of
  perturbations.

Evaluated on the open loop ``L(z) = C(z) G(z)`` over ``z = e^{jw}``,
``w ∈ (0, π)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ControlError
from .transfer_function import TransferFunction


@dataclass(frozen=True)
class StabilityMargins:
    """Classical margins of one open loop."""

    gain_margin: float            # multiplicative, inf if never reaches -180°
    gain_crossover: Optional[float]   # rad/sample where |L| = 1
    phase_margin_deg: float       # degrees at the gain crossover
    phase_crossover: Optional[float]  # rad/sample where arg L = -180°
    modulus_margin: float         # min |1 + L(e^{jw})|


def _sweep(open_loop: TransferFunction, n_points: int) -> List[Tuple[float, complex]]:
    out = []
    # include the Nyquist endpoint w = pi (where L is real — the classical
    # phase-crossover location for first-order discrete loops) but not
    # w = 0, where integrator plants blow up
    for i in range(1, n_points + 1):
        w = math.pi * i / n_points
        try:
            out.append((w, open_loop.frequency_response(w)))
        except ZeroDivisionError:
            continue  # pole exactly on the unit circle at this frequency
    if not out:
        raise ControlError("could not evaluate the loop anywhere on the unit circle")
    return out


def stability_margins(open_loop: TransferFunction,
                      n_points: int = 4096) -> StabilityMargins:
    """Compute gain/phase/modulus margins by a dense unit-circle sweep."""
    pts = _sweep(open_loop, n_points)

    # modulus margin: distance of the Nyquist plot to -1
    modulus = min(abs(1 + l) for __, l in pts)

    # gain crossover: |L| passes through 1 (take the first crossing)
    gain_cross = None
    phase_margin = math.inf
    prev_w, prev_l = pts[0]
    for w, l in pts[1:]:
        if (abs(prev_l) - 1.0) * (abs(l) - 1.0) <= 0.0 and abs(prev_l) != abs(l):
            # linear interpolation in |L|
            t = (1.0 - abs(prev_l)) / (abs(l) - abs(prev_l))
            gain_cross = prev_w + t * (w - prev_w)
            phase_at = cmath.phase(prev_l + t * (l - prev_l))
            phase_margin = math.degrees(phase_at) + 180.0
            break
        prev_w, prev_l = w, l

    # phase crossover: arg L passes through -180° (L real and negative)
    phase_cross = None
    gain_margin = math.inf
    prev_w, prev_l = pts[0]
    for w, l in pts[1:]:
        if prev_l.imag * l.imag <= 0.0 and (prev_l.real < 0 or l.real < 0):
            denom = (l.imag - prev_l.imag)
            t = 0.5 if denom == 0 else -prev_l.imag / denom
            crossing = prev_l + t * (l - prev_l)
            if crossing.real < 0:
                phase_cross = prev_w + t * (w - prev_w)
                mag = abs(crossing)
                if mag > 0:
                    gain_margin = 1.0 / mag
                break
        prev_w, prev_l = w, l
    if phase_cross is None:
        # endpoint case: at w = pi the response is real (up to float fuzz);
        # a negative value there IS the classical phase crossover
        w_end, l_end = pts[-1]
        if abs(l_end.imag) <= 1e-9 * (1.0 + abs(l_end)) and l_end.real < 0:
            phase_cross = w_end
            gain_margin = 1.0 / abs(l_end)

    return StabilityMargins(
        gain_margin=gain_margin,
        gain_crossover=gain_cross,
        phase_margin_deg=phase_margin,
        phase_crossover=phase_cross,
        modulus_margin=modulus,
    )
