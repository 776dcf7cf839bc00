"""High-precision evaluation of the tree series near their singularities.

The quartic family Phi, Phi', Phi'', theta, theta' lives on [0, 1/27]; the
cubic family Psi1, Psi2 and their derivatives on [0, 1/64].  Two evaluation
methods are kept deliberately independent:

* direct summation of the exact-coefficient series with a rigorous
  geometric tail majorant (the coefficient ratios increase toward the
  limit 27x resp. 64t from below, so the first neglected term times
  q/(1-q) bounds the tail);
* the hypergeometric route through mpmath's 2F1, whose connection
  machinery at the boundary is the analytic continuation that the singular
  expansions linearize.  Each family comes whole from two 2F1 values:
  :func:`phi_family` and :func:`psi_family` return every member at one
  point, and the root solves keep those tuples per point.

:func:`phi_numeric` and :func:`psi_numeric` read one member by either
method.  The two methods must agree on an overlap window;
:func:`self_check` asserts that.
Precision is always passed explicitly as a :class:`Precision` value and
applied through local mpmath working-precision contexts, never globally.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

from .exact import Q

QUARTIC_BOUNDARY = Q(1, 27)
CUBIC_BOUNDARY = Q(1, 64)
# switchover to the boundary (hypergeometric-continuation) method
SWITCH_EPS = 1e-3


@dataclass(frozen=True)
class Precision:
    working_digits: int = 50
    target_abs_tol: float = 1e-20

    def __post_init__(self):
        import math

        need = -math.log10(self.target_abs_tol)
        if self.working_digits < 2 * need:
            raise ValueError(
                "working_digits=%d is below twice the digits implied by "
                "target_abs_tol=%g" % (self.working_digits, self.target_abs_tol)
            )

    def ctx(self):
        return mp.workdps(self.working_digits)


DEFAULT_PREC = Precision()


def rat_to_mpf(q):
    """The exact rational q (an int or a Fraction) as an mpf at the working
    precision."""
    return mpf(q.numerator) / mpf(q.denominator)


def as_mpf(x):
    """x as an mpf at the working precision; an exact rational (an int or a
    Fraction) is rounded once, at that precision."""
    return rat_to_mpf(x) if isinstance(x, numbers.Rational) else mpf(x)


# ---------------------------------------------------------------------------
# certified series route
# ---------------------------------------------------------------------------

# first index, first coefficient, ratio c_{i+1}/c_i, and limit ratio
_SERIES_DATA = {
    "phi": (2, Q(3), lambda i: Q(3 * i * (3 * i - 1) * (3 * i - 2), i * i * (i + 1)), 27),
    "theta": (2, Q(6),
              lambda i: Q(3 * i * (3 * i - 1) * (3 * i - 2), (i - 1) * (i + 1) ** 2), 27),
    "psi1": (1, Q(1),
             lambda i: Q(4 * i * (4 * i - 1) * (4 * i - 2) * (4 * i - 3),
                         2 * i * (2 * i - 1) * (i + 1) * i), 64),
    "psi2": (1, Q(2),
             lambda i: Q((4 * i + 2) * (4 * i + 1) * 4 * i * (4 * i - 1),
                         (2 * i + 1) * 2 * i * (i + 1) ** 2), 64),
}


def _series_sum(base: str, x, deriv: int, prec: Precision):
    """Sum the exact series (or its derivative) with a certified tail bound.

    Terms are c_i * (i falling deriv) * x^(i-deriv).  The coefficient
    ratios c_{i+1}/c_i increase toward the limit L from below, so the term
    ratio is at most q2 = L x (i+1)/(i+1-deriv) and the tail after t_i is
    bounded by |t_i| q2/(1-q2) once q2 < 1.
    """
    i0, c0, ratio, lim = _SERIES_DATA[base]
    with prec.ctx():
        x = mpf(x)
        q = lim * x
        if q >= 1:
            raise ValueError("argument %s is outside the open disk of radius 1/%d" % (x, lim))
        tol = mpf(prec.target_abs_tol)
        i = max(i0, deriv)
        c = c0
        for j in range(i0, i):
            c = c * ratio(j)
        fall = 1
        for d in range(deriv):
            fall *= i - d
        term = rat_to_mpf(c) * fall * x ** (i - deriv)
        total = mpf(0)
        while True:
            total += term
            q2 = q * (i + 1) / max(i + 1 - deriv, 1)
            if q2 < 1:
                guard = abs(term) * q2 / (1 - q2)
                if guard < tol and i > i0 + 4:
                    return +total, +guard
            r = ratio(i)
            step = rat_to_mpf(r) * x
            if deriv:
                num = den = 1
                for d in range(deriv):
                    num *= i + 1 - d
                    den *= i - d
                step *= mpf(num) / den
            term *= step
            i += 1
            if i > 10_000_000:  # pragma: no cover
                raise RuntimeError("series summation did not reach tolerance")


# ---------------------------------------------------------------------------
# hypergeometric (boundary-capable) route
# ---------------------------------------------------------------------------

def _hyp_quartic(x, prec: Precision):
    """(Phi, Phi', Phi'', theta, theta') at x from two 2F1 values, each
    evaluated once.  At x = 1/27 only Phi and theta are finite; the
    derivatives are returned as +inf there."""
    with prec.ctx():
        x = mpf(x)
        if x == 0:
            return mpf(0), mpf(0), mpf(6), mpf(0), mpf(0)  # Phi''(0) = 2 c_2
        third = mpf(1) / 3
        f = mpmath.hyp2f1(third, 2 * third, 2, 27 * x)
        phi = x * (f - 1)
        if x == mpf(1) / 27:
            # (27x-1) Phi' -> 0 at the boundary, where Phi' diverges
            return phi, mpmath.inf, mpmath.inf, (-42 * phi + 12 * x) / 3, mpmath.inf
        g = mpmath.hyp2f1(1 + third, 1 + 2 * third, 3, 27 * x)
        phip = f - 1 + 3 * x * g
        return (phi, phip, -6 * (phi + x) / (x * (27 * x - 1)),
                (2 * (27 * x - 1) * phip - 42 * phi + 12 * x) / 3,
                4 * phip - 4 * phi / x)


def _hyp_cubic(t, prec: Precision):
    """(Psi1, Psi1', Psi2, Psi2') at t from two 2F1 values, each evaluated
    once.  At t = 1/64 only Psi1 and Psi2 are finite; the derivatives are
    returned as +inf there."""
    with prec.ctx():
        t = mpf(t)
        if t == 0:
            return mpf(0), mpf(1), mpf(0), mpf(2)
        quarter = mpf(1) / 4
        f = mpmath.hyp2f1(quarter, 3 * quarter, 2, 64 * t)
        p1 = t * f
        if t == mpf(1) / 64:
            # (1-64t) Psi1' -> 0 at the boundary, where Psi1' diverges
            return p1, mpmath.inf, (1 - 48 * p1) / 2, mpmath.inf
        g = mpmath.hyp2f1(1 + quarter, 1 + 3 * quarter, 3, 64 * t)
        p1p = f + 6 * t * g
        p2 = (1 - (1 - 64 * t) * p1p - 48 * p1) / 2
        return p1, p1p, p2, (8 * t - 6 * p1 - 16 * t * p2) / (t * (1 - 64 * t))


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

# the members of each family in the order of its tuple, each with the
# series it differentiates and the derivative order
_QUARTIC_MEMBERS = {"phi": ("phi", 0), "phi_prime": ("phi", 1), "phi_second": ("phi", 2),
                    "theta": ("theta", 0), "theta_prime": ("theta", 1)}
_CUBIC_MEMBERS = {"psi1": ("psi1", 0), "psi1_prime": ("psi1", 1),
                  "psi2": ("psi2", 0), "psi2_prime": ("psi2", 1)}


def phi_family(x, prec: Precision = DEFAULT_PREC):
    """(Phi, Phi', Phi'', theta, theta') at x in [0, 1/27] by the
    hypergeometric route, from two 2F1 values; the derivatives are +inf at
    x = 1/27."""
    with prec.ctx():
        return _hyp_quartic(_in_domain(x, QUARTIC_BOUNDARY)[0], prec)


def psi_family(t, prec: Precision = DEFAULT_PREC):
    """(Psi1, Psi1', Psi2, Psi2') at t in [0, 1/64] by the hypergeometric
    route, from two 2F1 values; the derivatives are +inf at t = 1/64."""
    with prec.ctx():
        return _hyp_cubic(_in_domain(t, CUBIC_BOUNDARY)[0], prec)


def phi_numeric(kind: str, x, prec: Precision = DEFAULT_PREC, method: str = "auto"):
    """Evaluate Phi/theta family member at x in [0, 1/27] to target_abs_tol.

    method: 'series' (certified partial sums), 'boundary' (hypergeometric
    continuation, required at and very near 1/27), or 'auto'.
    """
    return _dispatch(kind, x, prec, method, QUARTIC_BOUNDARY, _QUARTIC_MEMBERS, _hyp_quartic)


def psi_numeric(kind: str, t, prec: Precision = DEFAULT_PREC, method: str = "auto"):
    """Evaluate Psi family member at t in [0, 1/64] to target_abs_tol."""
    return _dispatch(kind, t, prec, method, CUBIC_BOUNDARY, _CUBIC_MEMBERS, _hyp_cubic)


def _in_domain(x, boundary):
    """(x, boundary) as mpf at the working precision; x outside
    [0, boundary] is refused.  Exact inputs are honored at the working
    precision, so the closed boundary point compares equal regardless of
    the caller's ambient mpmath context."""
    xm, bd = as_mpf(x), rat_to_mpf(boundary)
    if xm < 0 or xm > bd:
        raise ValueError("argument %s outside [0, %s]" % (x, boundary))
    return xm, bd


def _dispatch(kind, x, prec, method, boundary, members, family):
    if kind not in members:
        raise ValueError("unknown series %r (choose from %s)" % (kind, ", ".join(members)))
    with prec.ctx():
        xm, bd = _in_domain(x, boundary)
        if method == "auto":
            method = "series" if bd - xm > SWITCH_EPS else "boundary"
        if method == "series":
            base, deriv = members[kind]
            return _series_sum(base, xm, deriv, prec)[0]
        if method == "boundary":
            value = family(xm, prec)[list(members).index(kind)]
            if value == mpmath.inf:
                raise ValueError("%s diverges at the boundary" % kind)
            return value
        raise ValueError("unknown method %r" % method)


def self_check(prec: Precision = DEFAULT_PREC, tol: float = 1e-12) -> float:
    """Max |series - boundary| over an overlap window; must stay below tol."""
    worst = 0.0
    with prec.ctx():
        for fn, members, boundary in ((phi_numeric, _QUARTIC_MEMBERS, QUARTIC_BOUNDARY),
                                      (psi_numeric, _CUBIC_MEMBERS, CUBIC_BOUNDARY)):
            bd = rat_to_mpf(boundary)
            for kind in members:
                for frac in (1.2e-3, 1.5e-3, 2e-3):
                    x = bd - mpf(frac)
                    a = fn(kind, x, prec, method="series")
                    b = fn(kind, x, prec, method="boundary")
                    worst = max(worst, abs(float(a - b)))
    if worst > tol:
        raise AssertionError("series/boundary disagreement %.3e > %.0e" % (worst, tol))
    return worst


# closed boundary constants (exact transcendental expressions)

def phi_at_boundary(prec: Precision = DEFAULT_PREC):
    """Phi(1/27) = sqrt(3)/(12 pi) - 1/27."""
    with prec.ctx():
        return mpmath.sqrt(3) / (12 * mpmath.pi) - mpf(1) / 27


def theta_at_boundary(prec: Precision = DEFAULT_PREC):
    """theta(1/27) = 2/3 - 7 sqrt(3)/(6 pi)."""
    with prec.ctx():
        return mpf(2) / 3 - 7 * mpmath.sqrt(3) / (6 * mpmath.pi)


def psi1_at_boundary(prec: Precision = DEFAULT_PREC):
    """Psi1(1/64) = sqrt(2)/(24 pi)."""
    with prec.ctx():
        return mpmath.sqrt(2) / (24 * mpmath.pi)


def psi2_at_boundary(prec: Precision = DEFAULT_PREC):
    """Psi2(1/64) = 1/2 - sqrt(2)/pi."""
    with prec.ctx():
        return mpf(1) / 2 - mpmath.sqrt(2) / mpmath.pi


# leading singular expansions (used as independent test oracles)

def phi_singular_expansion(eps, prec: Precision = DEFAULT_PREC):
    """Phi(1/27 - eps) up to O(eps^2 log eps)."""
    with prec.ctx():
        e = mpf(eps)
        s3 = mpmath.sqrt(3)
        return (
            s3 / (12 * mpmath.pi)
            - mpf(1) / 27
            + s3 / (2 * mpmath.pi) * e * mpmath.log(e)
            + (1 - s3 / (2 * mpmath.pi)) * e
        )


def phi_prime_singular_expansion(eps, prec: Precision = DEFAULT_PREC):
    with prec.ctx():
        e = mpf(eps)
        return -mpmath.sqrt(3) / (2 * mpmath.pi) * mpmath.log(e) - 1


def theta_singular_expansion(eps, prec: Precision = DEFAULT_PREC):
    with prec.ctx():
        e = mpf(eps)
        s3 = mpmath.sqrt(3)
        return (
            mpf(2) / 3
            - 7 * s3 / (6 * mpmath.pi)
            + 2 * s3 / mpmath.pi * e * mpmath.log(e)
            + 7 * s3 / mpmath.pi * e
        )


def theta_prime_singular_expansion(eps, prec: Precision = DEFAULT_PREC):
    with prec.ctx():
        e = mpf(eps)
        s3 = mpmath.sqrt(3)
        return -2 * s3 / mpmath.pi * mpmath.log(e) - 9 * s3 / mpmath.pi


def psi2_singular_expansion(eps, prec: Precision = DEFAULT_PREC):
    with prec.ctx():
        e = mpf(eps)
        s2 = mpmath.sqrt(2)
        return mpf(1) / 2 - s2 / mpmath.pi + 4 * s2 / mpmath.pi * e * mpmath.log(e) \
            + 12 * s2 / mpmath.pi * e
