"""Truncated power series in z with exact coefficients.

A :class:`ZSeries` is a tuple of coefficients for z^0 .. z^order together
with the truncation order.  Coefficients are exact rationals, the entries
of the solver's one exact domain (Python ints scaled by powers of s, see
:mod:`forestmaps.solver`), or :class:`~forestmaps.upoly.UPoly` values,
which the antiderivative does not divide.  Every division goes through
:func:`~forestmaps.exact.exact_div`, so the ints refuse a remainder where
the rationals divide as rationals.
Truncation bookkeeping is explicit: every binary operation returns a
series truncated at the minimum of the operand orders, and nothing ever
silently extends an order.  The product, derivative and antiderivative run
on the list primitives of :mod:`forestmaps.fast` (``conv_trunc``, ``_diff``
and ``_integrate``), the package's one copy of exact series arithmetic.

All values are immutable after construction and operations are pure, so
series can be shared freely across threads.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .exact import QZERO, rat_to_str
from .fast import _diff, _integrate, conv_trunc
from .upoly import UPoly


class ZSeries:
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: Optional[int] = None, zero=QZERO):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs.extend([zero] * (order + 1 - len(coeffs)))
        elif len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        self.coeffs = tuple(coeffs)
        self.order = order

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(order: int, zero=QZERO) -> "ZSeries":
        return ZSeries([zero] * (order + 1), order, zero)

    @staticmethod
    def const(value, order: int, zero=QZERO) -> "ZSeries":
        s = ZSeries.zero(order, zero)
        return ZSeries([value] + list(s.coeffs[1:]), order, zero)

    @staticmethod
    def z(order: int, zero=QZERO, one=None) -> "ZSeries":
        """The series z, truncated at `order` (requires order >= 1)."""
        if order < 1:
            raise ValueError("order must be >= 1 to represent z")
        s = [zero] * (order + 1)
        s[1] = one if one is not None else zero + 1
        return ZSeries(s, order, zero)

    # -- bookkeeping -------------------------------------------------------

    @property
    def zero_coeff(self):
        return self.coeffs[0] * 0

    def coeff(self, n: int):
        """Coefficient of z^n; raises beyond the valid truncation order."""
        if n < 0:
            raise IndexError("negative z-power")
        if n > self.order:
            raise IndexError(
                "coefficient %d requested beyond truncation order %d" % (n, self.order)
            )
        return self.coeffs[n]

    def truncate(self, order: int) -> "ZSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series (|%d| > |%d|)" % (order, self.order))
        return ZSeries(self.coeffs[: order + 1], order)

    def valuation(self) -> Optional[int]:
        """Index of the first nonzero coefficient, or None if all vanish."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return self.valuation() is None

    def __eq__(self, other) -> bool:
        """Exact equality through the shorter of the two orders."""
        if not isinstance(other, ZSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))

    # equality ignores the order past the shorter series, so no hash can
    # agree with it
    __hash__ = None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "ZSeries") -> "ZSeries":
        n = min(self.order, other.order)
        return ZSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n)

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        n = min(self.order, other.order)
        return ZSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)], n)

    def __neg__(self) -> "ZSeries":
        return ZSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        n = min(self.order, other.order)
        return ZSeries(conv_trunc(self.coeffs, other.coeffs, n), n)

    def scale(self, scalar) -> "ZSeries":
        """Multiply every coefficient by a scalar (rational or UPoly)."""
        return ZSeries([c * scalar for c in self.coeffs], self.order)

    def shift_z(self, k: int) -> "ZSeries":
        """Multiply by z^k, k >= 0; the order bookkeeping keeps the same
        window."""
        return ZSeries([self.zero_coeff] * k + list(self.coeffs), self.order)

    # -- calculus ----------------------------------------------------------

    def differentiate(self) -> "ZSeries":
        """d/dz; the result is valid one order lower."""
        if self.order == 0:
            raise ValueError("cannot differentiate a series known only at order 0")
        return ZSeries(_diff(self.coeffs, 1), self.order - 1)

    def integrate(self, s: int = 1) -> "ZSeries":
        """Antiderivative with zero constant term, valid one order higher.

        For a series of scaled entries, entry n holding the z^n coefficient
        times s^n, pass that s: entry n of the result is s X_{n-1} / n, an
        :func:`~forestmaps.exact.exact_div`.  Rationals divide as
        rationals; ints raise ArithmeticError on a remainder, so a series
        of canonical rationals that holds ints is integrated over Q only
        after ``map_coeffs(Q)``."""
        out = _integrate(self.coeffs, s)
        out[0] = self.zero_coeff
        return ZSeries(out, self.order + 1)

    # -- u-specific operations (symbolic mode) -------------------------------

    def specialize_u(self, value) -> "ZSeries":
        """Evaluate every UPoly coefficient at an exact rational u."""
        out = []
        for c in self.coeffs:
            out.append(c.eval_at(value) if isinstance(c, UPoly) else c)
        return ZSeries(out, self.order)

    def to_mu(self) -> "ZSeries":
        """Re-express u-polynomial coefficients in mu = u + 1."""
        return ZSeries([_as_upoly(c).to_mu() for c in self.coeffs], self.order)

    def map_coeffs(self, fn: Callable) -> "ZSeries":
        return ZSeries([fn(c) for c in self.coeffs], self.order)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        """{"order": N, "coeffs": [[...u-poly strings...] or "p/q", ...]}."""
        coeffs = []
        for c in self.coeffs:
            if isinstance(c, UPoly):
                coeffs.append(c.to_strs())
            else:
                coeffs.append(rat_to_str(c))
        return {"order": self.order, "coeffs": coeffs}

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if isinstance(c, UPoly) and c.degree not in (None, 0):
                cs = "(%s)" % cs
            parts.append("%s*z^%d" % (cs, i))
        body = " + ".join(parts) if parts else "0"
        return "%s + O(z^%d)" % (body, self.order + 1)

    __repr__ = __str__


def _as_upoly(c) -> UPoly:
    return c if isinstance(c, UPoly) else UPoly((c,))
