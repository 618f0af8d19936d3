"""Time-domain simulation of discrete transfer functions.

:class:`DifferenceEquation` turns a proper :class:`TransferFunction` into a
stateful filter implementing the corresponding difference equation — exactly
the inverse-z-transform step the paper performs in Appendix A to turn
``C(z)`` into the control law of Eq. 10.

:func:`simulate` runs a whole input sequence through a transfer function and
returns the output sequence; it is the workhorse for step-response analysis.
"""

from __future__ import annotations

from typing import Iterable, List

from ..errors import ControlError
from .transfer_function import TransferFunction


class DifferenceEquation:
    """Stateful evaluation of ``y`` from ``u`` for a proper TF.

    Given ``H(z) = (b0 z^m + ... + bm) / (z^n + a1 z^{n-1} + ... + an)`` with
    ``m <= n``, the difference equation is::

        y(k) = -a1 y(k-1) - ... - an y(k-n)
               + b0 u(k-(n-m)) + ... + bm u(k-n)

    The object keeps the required input/output history internally; feed one
    sample at a time with :meth:`step`.
    """

    def __init__(self, tf: TransferFunction):
        if not tf.is_proper:
            raise ControlError(
                "cannot simulate an improper transfer function (needs future inputs)"
            )
        den = tf.den.monic()
        scale = tf.den.coeffs[0]
        num = tf.num.scale(1.0 / scale)
        n = den.degree
        m = num.degree
        #: denominator coefficients a1..an (a0 == 1 dropped)
        self._a = list(den.coeffs[1:])
        #: numerator coefficients aligned to lag (n - m) .. n
        self._b = list(num.coeffs)
        self._input_lag = n - m
        self._u_hist: List[float] = [0.0] * (n + 1)
        self._y_hist: List[float] = [0.0] * n
        self._order = n

    @property
    def order(self) -> int:
        return self._order

    def step(self, u: float) -> float:
        """Feed one input sample, return the corresponding output sample."""
        self._u_hist.insert(0, float(u))
        self._u_hist.pop()
        y = 0.0
        for i, b in enumerate(self._b):
            y += b * self._u_hist[self._input_lag + i]
        for i, a in enumerate(self._a):
            y -= a * self._y_hist[i]
        self._y_hist.insert(0, y)
        if self._y_hist:
            self._y_hist.pop()
        return y


def simulate(tf: TransferFunction, inputs: Iterable[float]) -> List[float]:
    """Run ``inputs`` through ``tf`` starting from rest; return outputs."""
    eq = DifferenceEquation(tf)
    return [eq.step(u) for u in inputs]


def step_response(tf: TransferFunction, n: int, amplitude: float = 1.0) -> List[float]:
    """Response to a step of ``amplitude`` over ``n`` samples."""
    if n < 0:
        raise ControlError("sample count must be non-negative")
    return simulate(tf, [amplitude] * n)
