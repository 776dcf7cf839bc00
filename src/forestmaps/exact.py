"""Exact rational scalars.

All symbolic computation in this package runs over arbitrary-precision
rationals, ``fractions.Fraction`` (:func:`Q`).  They print as ``"p/q"`` (or
``"p"`` when the denominator is one), which is the exchange format used by
the JSON emitters.

The series of this package count maps, so most exact values are integers.
The polynomial and tree-table layers keep them in one canonical form
(:func:`canon`): a value that is an integer is a Python ``int``, and only a
non-integral value is a ``Q``.  Integer arithmetic needs no gcd, and an int
compares and hashes equal to the same rational.  Int / int true division
gives a float, so every division in those layers keeps a ``Q`` on one side.

At a rational weight u = a/b the exact series engines run on Python ints
instead: entry n of a series holds its z^n coefficient times s^n for a
power s of b, an integer (:func:`scaled`, :func:`unscaled`).  Every
division there goes through :func:`exact_div`, which refuses a remainder.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Union

# Q is always Fraction; perfbench/run.py reports this flag
HAVE_GMPY2 = False


def Q(numerator=0, denominator=1):
    """The rational numerator/denominator; both must be rationals (a float
    is refused with TypeError)."""
    return Fraction(numerator, denominator)


Rat = Union[Fraction, int]  # any numbers.Rational value is accepted

QZERO = Q(0)


def as_rat(x) -> "Rat":
    """Coerce ints, Fractions or 'p/q' strings to the working type."""
    if isinstance(x, str):
        return rat_from_str(x)
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass a rational or a string")
    return Q(x)


def canon(x) -> "Rat":
    """The canonical exact value of x: an ``int`` when it is integral,
    otherwise ``Q(x)``.  Strings are parsed as by :func:`as_rat`."""
    if type(x) is int:
        return x
    x = as_rat(x) if isinstance(x, str) else Q(x)
    return int(x) if x.denominator == 1 else x


def rat_to_str(x) -> str:
    """Serialize as 'numerator/denominator', omitting a unit denominator."""
    return str(Q(x))


def rat_from_str(s: str) -> "Rat":
    """Parse 'p/q', an integer or a decimal exactly; nan, inf and junk
    raise ValueError, a zero denominator ZeroDivisionError."""
    return Q(Fraction(s))


def exact_div(x: int, d: int) -> int:
    """x / d for ints that d divides; a nonzero remainder raises
    ArithmeticError (an explicit check, kept under ``python -O``)."""
    q, r = divmod(x, d)
    if r:
        raise ArithmeticError("inexact division by %s" % (d,))
    return q


def scaled(coeffs, s: int) -> list:
    """Rationals c_n as the ints c_n s^n (exactly, or ArithmeticError)."""
    out, sn = [], 1
    for c in coeffs:
        out.append(exact_div(c.numerator * sn, c.denominator))
        sn *= s
    return out


def unscaled(X, s: int) -> list:
    """Ints X_n as the rationals ``Q(X_n, s^n)``."""
    out, sn = [], 1
    for x in X:
        out.append(Q(x, sn))
        sn *= s
    return out


def factorial_q(n: int) -> "Rat":
    """n! as an exact rational (memoized)."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    while len(_FACTORIALS) <= n:
        _FACTORIALS.append(_FACTORIALS[-1] * len(_FACTORIALS))
    return Q(_FACTORIALS[n])


_FACTORIALS = [1]


def binomial_q(n: int, k: int) -> int:
    """C(n, k) as an int; 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def trinomial_q(a: int, b: int, c: int) -> int:
    """(a+b+c)! / (a! b! c!) as an int."""
    if a < 0 or b < 0 or c < 0:
        return 0
    return comb(a + b + c, a) * comb(b + c, b)
