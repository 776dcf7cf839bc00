"""Dense polynomials in the component-weight variable u.

A :class:`UPoly` stores a tuple of exact coefficients indexed by the power
of u, trimmed of trailing zeros, each in the canonical form of
:func:`~forestmaps.exact.canon`: ints where integral, ``Q`` otherwise.  The
series of the package count maps, so their coefficients are ints, and
products and sums of ints pay for no gcd.  The degree of
the zero polynomial is the sentinel ``None``.  Instances are immutable and
all arithmetic is exact.

The same class doubles as a polynomial in the shifted variable mu = u + 1:
:meth:`UPoly.to_mu` performs the exact change of variable and the caller
keeps track of which variable the coefficients refer to.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .exact import canon, rat_to_str


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class UPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = _trim([c if type(c) is int else canon(c) for c in coeffs])

    @staticmethod
    def u(power: int = 1, coeff=1) -> "UPoly":
        """The monomial coeff * u**power."""
        return UPoly((0,) * power + (coeff,))

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        # compare against a scalar constant
        if self.is_zero():
            return other == 0
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs])

    def _coerce(self, other) -> Optional["UPoly"]:
        if isinstance(other, UPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UPoly(out)

    def __radd__(self, other):
        if type(other) is int and other == 0:  # sum() starts from int 0
            return self
        return self.__add__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return UPoly()
        if len(b) == 1:
            s = b[0]
            return UPoly([c * s for c in a])
        if len(a) == 1:
            s = a[0]
            return UPoly([c * s for c in b])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = out[i + j] + ca * cb
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def eval_at(self, value):
        """Evaluate at an exact rational value of u (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def subst(self, other: "UPoly") -> "UPoly":
        """Substitute another polynomial for the variable."""
        acc = UPoly()
        for c in reversed(self.coeffs):
            acc = acc * other + UPoly((c,))
        return acc

    def to_mu(self) -> "UPoly":
        """Re-express a polynomial in u as a polynomial in mu = u + 1."""
        return self.subst(UPoly((-1, 1)))  # u = mu - 1

    def from_mu(self) -> "UPoly":
        """Inverse of :meth:`to_mu`."""
        return self.subst(UPoly((1, 1)))  # mu = u + 1

    def nonneg(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def to_strs(self):
        """Serialize as a list of 'p/q' strings indexed by u-power."""
        return [rat_to_str(c) for c in self.coeffs]

    @staticmethod
    def from_strs(strs) -> "UPoly":
        return UPoly(strs)  # the constructor parses 'p/q' strings

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(rat_to_str(c))
            else:
                var = "u" if k == 1 else "u^%d" % k
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append("-" + var)
                else:
                    parts.append("%s*%s" % (rat_to_str(c), var))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return "UPoly(%s)" % (self.coeffs,)


UP_U = UPoly((0, 1))
