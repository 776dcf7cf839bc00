"""Truncated power series in z with exact coefficients.

A :class:`ZSeries` is a tuple of coefficients for z^0 .. z^order together
with the truncation order.  Coefficients are exact rationals, or the
entries of the solver's one exact domain (see :mod:`forestmaps.solver`):
Python ints scaled by powers of s at a rational u, and integer
:class:`~forestmaps.upoly.UPoly` values at symbolic u.  Every division
goes through :func:`~forestmaps.exact.exact_div`, so the ints and
polynomials refuse a remainder where the rationals divide as rationals.
Truncation bookkeeping is explicit: every binary operation returns a
series truncated at the minimum of the operand orders, and nothing ever
silently extends an order.

All values are immutable after construction and operations are pure, so
series can be shared freely across threads.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .exact import QZERO, exact_div, rat_to_str
from .upoly import UP_U, UPoly


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
        a, b = self.coeffs, other.coeffs
        va = self.valuation()
        vb = other.valuation()
        if va is None or vb is None:
            return ZSeries.zero(n, self.zero_coeff)
        out = [self.zero_coeff] * (n + 1)
        # a coefficient is zero exactly when it is falsy (UPoly included)
        nonzero_b = [(j, b[j]) for j in range(vb, n + 1) if b[j]]
        for i in range(va, min(len(a), n + 1)):
            ca = a[i]
            if not ca:
                continue
            top = n - i
            for j, cb in nonzero_b:
                if j > top:
                    break
                out[i + j] = out[i + j] + ca * cb
        return ZSeries(out, n)

    def scale(self, scalar) -> "ZSeries":
        """Multiply every coefficient by a scalar (rational or UPoly)."""
        return ZSeries([c * scalar for c in self.coeffs], self.order)

    def shift_z(self, k: int) -> "ZSeries":
        """Multiply by z^k; the order bookkeeping keeps the same window."""
        if k < 0:
            v = self.valuation()
            if v is not None and v < -k:
                raise ValueError("series is not divisible by z^%d" % (-k))
            return ZSeries(list(self.coeffs[-k:]), self.order + k)
        return ZSeries([self.zero_coeff] * k + list(self.coeffs), self.order)

    # -- calculus ----------------------------------------------------------

    def differentiate(self) -> "ZSeries":
        """d/dz; the result is valid one order lower."""
        if self.order == 0:
            raise ValueError("cannot differentiate a series known only at order 0")
        return ZSeries(
            [self.coeffs[i] * i for i in range(1, self.order + 1)], self.order - 1
        )

    def integrate(self, s: int = 1) -> "ZSeries":
        """Antiderivative with zero constant term, valid one order higher.

        For a series of scaled entries, entry n holding the z^n coefficient
        times s^n, pass that s: entry n of the result is s X_{n-1} / n, an
        :func:`~forestmaps.exact.exact_div`.  Rationals divide as
        rationals; ints and UPoly values raise ArithmeticError on a
        remainder, so a series of canonical rationals that holds ints is
        integrated over Q only after ``map_coeffs(Q)``."""
        out = [self.zero_coeff]
        for n, c in enumerate(self.coeffs, 1):
            out.append(exact_div(s * c, n))
        return ZSeries(out, self.order + 1)

    # -- u-specific operations (symbolic mode) -------------------------------

    def divide_by_u(self, power: int = 1) -> "ZSeries":
        """Exact coefficient-wise division by u**power in Z[u]; a remainder
        raises ArithmeticError."""
        d = UP_U ** power
        return ZSeries([exact_div(c, d) for c in self.coeffs], self.order)

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
