"""Discrete-time (z-domain) rational transfer functions.

A :class:`TransferFunction` is a ratio of two :class:`~repro.control.polynomial.Polynomial`
objects ``num(z)/den(z)``. It supports the block-diagram algebra used in the
paper: series connection (``*``), parallel connection (``+``), and unity or
non-unity negative feedback (:meth:`TransferFunction.feedback`), plus pole /
zero / DC-gain queries used by the analysis module.

The paper's plant (Eq. 4) is ``G(z) = cT / (H (z - 1))`` and its controller
(Eq. 15) is ``C(z) = H (b0 z + b1) / (cT (z + a))``; both are ordinary
instances of this class.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from ..errors import ControlError
from .polynomial import Polynomial, PolynomialLike, as_polynomial


class TransferFunction:
    """A rational transfer function ``num(z) / den(z)``."""

    __slots__ = ("num", "den")

    def __init__(self, num: Union[PolynomialLike, Iterable[float]],
                 den: Union[PolynomialLike, Iterable[float]]):
        self.num = _coerce(num)
        self.den = _coerce(den)
        if self.den.is_zero:
            raise ControlError("transfer function denominator is zero")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def gain(cls, k: float) -> "TransferFunction":
        """A static gain block."""
        return cls(Polynomial([float(k)]), Polynomial.one())

    @classmethod
    def delay(cls, periods: int = 1) -> "TransferFunction":
        """A pure delay ``z**-periods``."""
        if periods < 0:
            raise ControlError("delay must be non-negative")
        return cls(Polynomial.one(), Polynomial.one().shift(periods))

    @classmethod
    def integrator(cls, gain: float = 1.0) -> "TransferFunction":
        """The discrete integrator ``gain / (z - 1)`` (the paper's plant shape)."""
        return cls(Polynomial([float(gain)]), Polynomial([1.0, -1.0]))

    # ------------------------------------------------------------------ #
    # block algebra
    # ------------------------------------------------------------------ #
    def __mul__(self, other: "TFLike") -> "TransferFunction":
        other = as_transfer_function(other)
        return TransferFunction(self.num * other.num, self.den * other.den).simplified()

    def __rmul__(self, other: "TFLike") -> "TransferFunction":
        return self.__mul__(other)

    def __add__(self, other: "TFLike") -> "TransferFunction":
        other = as_transfer_function(other)
        num = self.num * other.den + other.num * self.den
        return TransferFunction(num, self.den * other.den).simplified()

    def __radd__(self, other: "TFLike") -> "TransferFunction":
        return self.__add__(other)

    def __sub__(self, other: "TFLike") -> "TransferFunction":
        other = as_transfer_function(other)
        return self + TransferFunction(-other.num, other.den)

    def __neg__(self) -> "TransferFunction":
        return TransferFunction(-self.num, self.den)

    def __truediv__(self, other: "TFLike") -> "TransferFunction":
        other = as_transfer_function(other)
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero transfer function")
        return TransferFunction(self.num * other.den, self.den * other.num).simplified()

    def feedback(self, other: "TFLike" = 1.0) -> "TransferFunction":
        """Negative feedback: ``self / (1 + self * other)``.

        With the default unity feedback this yields the closed-loop transfer
        function used throughout the paper:
        ``C(z)G(z) / (1 + C(z)G(z))`` when called on the open loop ``C*G``.
        """
        other = as_transfer_function(other)
        num = self.num * other.den
        den = self.den * other.den + self.num * other.num
        return TransferFunction(num, den).simplified()

    def simplified(self) -> "TransferFunction":
        """Cancel exactly-common constant factors (cheap normalization only).

        Full pole/zero cancellation is numerically fragile, so we only
        normalize the denominator to be monic, keeping the overall gain in
        the numerator.
        """
        lead = self.den.coeffs[0]
        if lead == 1.0 or lead == 0.0:
            return self
        return TransferFunction(self.num.scale(1.0 / lead), self.den.scale(1.0 / lead))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def poles(self) -> np.ndarray:
        return self.den.roots()

    def dc_gain(self) -> float:
        """Static gain ``H(1)``; ``inf`` if there is a pole at z = 1."""
        den1 = self.den(1.0)
        if abs(den1) < 1e-12:
            return float("inf")
        return float(np.real(self.num(1.0) / den1))

    def evaluate(self, z: complex) -> complex:
        den = self.den(z)
        if den == 0:
            raise ZeroDivisionError(f"pole at z = {z}")
        return self.num(z) / den

    def frequency_response(self, omega: float) -> complex:
        """Response at normalized frequency ``omega`` rad/sample (z = e^{jw})."""
        return self.evaluate(np.exp(1j * omega))

    @property
    def is_proper(self) -> bool:
        """True when ``deg(num) <= deg(den)`` (physically realizable)."""
        return self.num.degree <= self.den.degree

    # ------------------------------------------------------------------ #
    # formatting
    # ------------------------------------------------------------------ #
    def almost_equal(self, other: "TFLike", tol: float = 1e-9) -> bool:
        """Compare after cross-multiplying (robust to common scaling)."""
        other = as_transfer_function(other)
        return (self.num * other.den).almost_equal(other.num * self.den, tol=tol)

    def __repr__(self) -> str:
        return f"TransferFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


TFLike = Union[TransferFunction, Polynomial, int, float]


def _coerce(value: Union[PolynomialLike, Iterable[float]]) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float)):
        return as_polynomial(value)
    return Polynomial(value)


def as_transfer_function(value: TFLike) -> TransferFunction:
    """Coerce scalars and polynomials to :class:`TransferFunction`."""
    if isinstance(value, TransferFunction):
        return value
    if isinstance(value, (Polynomial, int, float)):
        return TransferFunction(as_polynomial(value), Polynomial.one())
    raise ControlError(f"cannot interpret {value!r} as a transfer function")
