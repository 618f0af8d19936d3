"""Polynomial algebra over the z variable.

A polynomial is represented by a :class:`Polynomial` holding coefficients in
*descending* powers of ``z``: ``Polynomial([1, -1.4, 0.49])`` is
``z^2 - 1.4 z + 0.49``. This matches the way characteristic equations are
written in the paper (Eq. 14, Eq. 17) and in control textbooks.

Only real coefficients are supported for construction; roots may of course be
complex. The class is immutable and hashable on its normalized coefficients.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from ..errors import ControlError

Number = Union[int, float]

#: Coefficients smaller than this (relative to the largest coefficient) are
#: treated as zero when normalizing leading terms.
_EPS = 1e-12


def _trim(coeffs: Sequence[float]) -> Tuple[float, ...]:
    """Strip leading (highest-power) near-zero coefficients."""
    coeffs = [float(c) for c in coeffs]
    if not coeffs:
        return (0.0,)
    scale = max(abs(c) for c in coeffs) or 1.0
    i = 0
    while i < len(coeffs) - 1 and abs(coeffs[i]) <= _EPS * scale:
        i += 1
    return tuple(coeffs[i:])


class Polynomial:
    """An immutable real polynomial in ``z`` (descending powers)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Number]):
        self._coeffs = _trim(list(coeffs))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def one(cls) -> "Polynomial":
        return cls([1.0])

    @classmethod
    def z(cls) -> "Polynomial":
        """The monomial ``z``."""
        return cls([1.0, 0.0])

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def coeffs(self) -> Tuple[float, ...]:
        """Coefficients in descending powers of z."""
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self._coeffs) == 1 and self._coeffs[0] == 0.0

    def monic(self) -> "Polynomial":
        """Scale so the leading coefficient is one."""
        lead = self._coeffs[0]
        if lead == 0.0:
            raise ControlError("cannot make the zero polynomial monic")
        return Polynomial(c / lead for c in self._coeffs)

    def roots(self) -> np.ndarray:
        """Roots of the polynomial (possibly complex)."""
        if self.degree == 0:
            return np.array([])
        return np.roots(self._coeffs)

    # ------------------------------------------------------------------ #
    # evaluation and algebra
    # ------------------------------------------------------------------ #
    def __call__(self, z: complex) -> complex:
        result: complex = 0.0
        for c in self._coeffs:
            result = result * z + c
        return result

    def __add__(self, other: "PolynomialLike") -> "Polynomial":
        other = as_polynomial(other)
        n = max(len(self._coeffs), len(other._coeffs))
        a = (0.0,) * (n - len(self._coeffs)) + self._coeffs
        b = (0.0,) * (n - len(other._coeffs)) + other._coeffs
        return Polynomial(x + y for x, y in zip(a, b))

    def __radd__(self, other: "PolynomialLike") -> "Polynomial":
        return self.__add__(other)

    def __sub__(self, other: "PolynomialLike") -> "Polynomial":
        return self + (-as_polynomial(other))

    def __rsub__(self, other: "PolynomialLike") -> "Polynomial":
        return as_polynomial(other) + (-self)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __mul__(self, other: "PolynomialLike") -> "Polynomial":
        other = as_polynomial(other)
        return Polynomial(np.convolve(self._coeffs, other._coeffs).tolist())

    def __rmul__(self, other: "PolynomialLike") -> "Polynomial":
        return self.__mul__(other)

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial(c * float(factor) for c in self._coeffs)

    def shift(self, powers: int) -> "Polynomial":
        """Multiply by ``z**powers`` (``powers >= 0``)."""
        if powers < 0:
            raise ControlError("shift() takes a non-negative power")
        return Polynomial(self._coeffs + (0.0,) * powers)

    # ------------------------------------------------------------------ #
    # comparison / formatting
    # ------------------------------------------------------------------ #
    def almost_equal(self, other: "PolynomialLike", tol: float = 1e-9) -> bool:
        other = as_polynomial(other)
        n = max(len(self._coeffs), len(other._coeffs))
        a = (0.0,) * (n - len(self._coeffs)) + self._coeffs
        b = (0.0,) * (n - len(other._coeffs)) + other._coeffs
        scale = max(1.0, max(abs(x) for x in a + b))
        return all(abs(x - y) <= tol * scale for x, y in zip(a, b))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Polynomial, int, float)):
            return NotImplemented
        return self.almost_equal(as_polynomial(other), tol=0.0)

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        terms = []
        deg = self.degree
        for i, c in enumerate(self._coeffs):
            if c == 0.0 and deg > 0:
                continue
            power = deg - i
            if power == 0:
                terms.append(f"{c:g}")
            elif power == 1:
                terms.append(f"{c:g} z")
            else:
                terms.append(f"{c:g} z^{power}")
        return " + ".join(terms).replace("+ -", "- ") or "0"


PolynomialLike = Union[Polynomial, int, float]


def as_polynomial(value: PolynomialLike) -> Polynomial:
    """Coerce a scalar or polynomial to :class:`Polynomial`."""
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float)) and math.isfinite(value):
        return Polynomial([float(value)])
    raise ControlError(f"cannot interpret {value!r} as a polynomial")
