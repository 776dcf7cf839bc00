"""High-precision evaluation of the tree series near their singularities.

The quartic family Phi, Phi', Phi'', theta, theta' lives on [0, 1/27]; the
cubic family Psi1, Psi2 and their derivatives on [0, 1/64].  Two evaluation
methods are kept deliberately independent:

* direct summation of the exact-coefficient series with a rigorous
  geometric tail majorant (the coefficient ratios increase toward the
  limit 27x resp. 64t from below, so the first neglected term times
  q/(1-q) bounds the tail);
* the hypergeometric route.  Each family comes whole from two 2F1 values
  at z = 27x resp. 64t, F(a, 1-a; 2; z) and F(1+a, 2-a; 3; z) with a = 1/3
  resp. 1/4: :func:`phi_family` and :func:`psi_family` return every member
  at one point, and the root solves keep those tuples per point.  Below
  z = 1/2 the two values are mpmath's 2F1, which sums the series there.
  From z = 1/2 on, where the root solves evaluate and mpmath's 2F1 turns
  to its costly connection formulas, both come from the complete elliptic
  integrals K and E of one AGM (DLMF 19.8), through a quadratic
  transformation for a = 1/4 (DLMF 15.8(iii)) and the signature-3
  transformation of Berndt, Bhargava and Garvan (Trans. AMS 347, 1995,
  Thm 5.6) for a = 1/3.  The AGM starts from the complementary parameter
  1 - m, formed in closed form from w = 1 - z with guard bits.  The
  critical-point searches pass z and w, both formed from one coordinate
  (:func:`phi_family_at`, :func:`psi_family_at`), so the values keep the
  working precision as w -> 0; the members are written in w, with no
  cancelling difference divided by w (Phi'' = 6f/w, Psi2' = 8 Psi1' - 6f).
  Members of the size of z or z^2 take 2 log2(1/z) more guard bits, so
  they keep it as z -> 0.  The exact 2F1 at z = 1 gives Phi(1/27) and
  Psi1(1/64).

:func:`phi_numeric` and :func:`psi_numeric` read one member by either
method.  The two methods must agree on an overlap window; the tests assert
that.
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
# on the boundary route, the kernels at z = 27x resp. 64t below this come
# from two mpmath 2F1 values and from it up from K and E by one AGM.  mpmath
# sums the 2F1 series directly up to z = 0.8 (a pair costs 0.3-1.5 ms at 20
# and 50 digits, growing with z) and transforms it above (5-19 ms a pair);
# one AGM pair costs 0.2-0.7 ms anywhere, but its transformations cancel as
# z -> 0 (the cubic one loses log10(1/sqrt z) digits)
_AGM_FROM = 0.5
# bits carried beyond the working precision by the kernels: 1 - x/boundary
# is then exact, and they cover the digits the AGM route loses, up to two at
# z = 1/2 and log10 K(m) in E = K (1 - sum) toward z = 1
_GUARD_BITS = 20


@dataclass(frozen=True)
class Precision:
    """The working digits of a floating computation.  Every residual the
    numerics report is held to :attr:`target_abs_tol`, which follows from
    them, so all callers at the same digits share one target."""

    working_digits: int = 50

    @property
    def target_abs_tol(self) -> float:
        """10^-(working_digits // 2 - 2): 1e-23 at the default 50 digits."""
        return 10.0 ** -(self.working_digits // 2 - 2)

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

def _agm_ke(mc):
    """(K(m), E(m)) from the complementary parameter mc = 1 - m in (0, 1], by
    the arithmetic-geometric mean of 1 and sqrt(mc) (DLMF 19.8.1, 19.8.6):
    K = pi / (2 M) and E = K (1 - sum 2^(n-1) c_n^2) with c_0^2 = m.  mc
    comes in closed form, so K keeps its relative accuracy as m -> 1."""
    a, g = mpf(1), mpmath.sqrt(mc)
    total, weight = (1 - mc) / 2, 1
    # c_(n+1) = c_n^2 / (4 a_(n+1)), so once c_n falls below sqrt(eps) a_n
    # the mean and the sum are exact to eps; c_n at least halves every step
    tol = mpmath.ldexp(1, -(mp.prec // 2))
    while True:
        c = (a - g) / 2
        a, g = (a + g) / 2, mpmath.sqrt(a * g)
        total += weight * c * c
        weight *= 2
        if c <= tol * a:
            k = mpmath.pi / (2 * a)
            return k, k * (1 - total)


# Newton steps allowed in _cubic_v; from its start, 4 to 8 are taken on
# (0, 1/2] at 12 to 300 digits
_NEWTON_STEPS = 40


def _cubic_v(w):
    """The root v in (0, 2) of v^2 (9 - 4v) = 4w (3 - v)^3, the parameter v =
    2 - y of the signature-3 transformation at 1 - z = w in (0, 1/2], by
    Newton's method from the leading terms v = sqrt(12w) (1 - 5v/18 + ...).
    Its residual is formed from two terms of the size of v^2, so v keeps its
    relative accuracy as w -> 0."""
    r = mpmath.sqrt(12 * w)
    v = r / (1 + 5 * r / 18)
    tol = mpmath.ldexp(1, -(mp.prec // 2))
    for _ in range(_NEWTON_STEPS):
        step = ((v * v * (9 - 4 * v) - 4 * w * (3 - v) ** 3)
                / (6 * v * (3 - 2 * v) + 12 * w * (3 - v) ** 2))
        v -= step
        if abs(step) <= tol * v:  # converging quadratically: v is now exact
            return v
    raise ValueError("the signature-3 parameter did not converge at 1 - z = %s" % w)


def _agm_2f1(den: int, z, w):
    """(F(a, 1-a; 2; z), F(1+a, 2-a; 3; z)) for a = 1/den in {1/3, 1/4}, at
    z in [1/2, 1) with w = 1 - z exact, from K and E by one AGM.

    Both come from G = F(a, 1-a; 1; z) and H = (1-z) G'(z): with A = a(1-a),
    F(a, 1-a; 2; z) = H / A and F(1+a, 2-a; 3; z) = 2 (A G - H) / (z A^2).

    * a = 1/4, a quadratic transformation (DLMF 15.8(iii)): G = (2/pi) K(m)
      / sqrt(1 + sqrt z) with m = 2 sqrt z / (1 + sqrt z), 1 - m = w / (1 +
      sqrt z)^2, and H = (2/pi) sqrt(1 + sqrt z) (E - (1 - sqrt z) K) / (4z).
    * a = 1/3, the signature-3 transformation (Berndt, Bhargava and Garvan,
      Trans. AMS 347, 1995, Thm 5.6): with y = p(1+p) and v = 2 - y,
      z = 27 y^2 / (4 (1+y)^3), w = v^2 (4y+1) / (4 (1+y)^3) and G = (1+y)
      (2/pi) K(m) / sqrt(1+2p) with 1 - m = q (1+p)^3 / (1+2p), q = 1 - p =
      2v / (3 + sqrt(1+4y)).  H = -(dG/dp) / (d ln(1-z)/dp), which reads
      (2/pi) (1+y) (v K + (1+y) (1+2p) (E - (1-m) K) / y^2) / (9 sqrt(1+2p)).

    dK/dm = (E - (1-m) K) / (2 m (1-m)) is DLMF 19.4.1, written in the
    parameter.  The differences E - (1-m) K and A G - H lose up to two
    digits at z = 1/2, which the caller's guard bits cover, and none toward
    z = 1.
    """
    if den == 4:
        s = mpmath.sqrt(z)
        k, e = _agm_ke(w / (1 + s) ** 2)
        r = mpmath.sqrt(1 + s)
        big_g = 2 * k / (mpmath.pi * r)
        big_h = r * (e - w / (1 + s) * k) / (2 * mpmath.pi * z)
    else:
        v = _cubic_v(w)
        y = 2 - v
        s = mpmath.sqrt(1 + 4 * y)  # 1 + 2p
        mc = 2 * v / (3 + s) * ((1 + s) / 2) ** 3 / s
        k, e = _agm_ke(mc)
        c = 2 * (1 + y) / (mpmath.pi * mpmath.sqrt(s))
        big_g = c * k
        big_h = c * (v * k + (1 + y) * s * (e - mc * k) / (y * y)) / 9
    a2 = mpf(den - 1) / den ** 2
    return big_h / a2, 2 * (a2 * big_g - big_h) / (z * a2 * a2)


def _kernel_2f1(den: int, z):
    """The pair of :func:`_agm_2f1` as two mpmath 2F1 values, for z below
    _AGM_FROM."""
    a = mpf(1) / den
    b = (den - 1) * a
    return mpmath.hyp2f1(a, b, 2, z), mpmath.hyp2f1(1 + a, 1 + b, 3, z)


def _family(members, den: int, z, w):
    """members(z, w, f, g) for the 2F1 pair (f, g) of a = 1/den at z in
    (0, 1), with w = 1 - z given by the caller.

    The family is formed with guard bits and rounded once to the working
    precision.  From z = 1/2 on, on the AGM route, _GUARD_BITS cover the
    digits the route loses.  Below, f - 1 (in Phi and Phi') and 1 - w Psi1'
    (in Psi2) are of the size of z and theta of z^2, formed from terms of
    the size of 1, so the argument adds 2 log2(1/z) bits, and w is formed
    as 1 - z, exact at those bits: a w rounded apart from z would carry its
    rounding, amplified by 1/z, into those members."""
    with mp.workprec(mp.prec + _GUARD_BITS - 2 * min(0, mpmath.mag(z))):
        if z < _AGM_FROM:
            family = members(z, 1 - z, *_kernel_2f1(den, z))
        else:
            family = members(z, w, *_agm_2f1(den, z, w))
    return tuple(+m for m in family)


def _quartic_members(z, w, f, g):
    x = z / 27
    phi, phip = x * (f - 1), f - 1 + 3 * x * g
    return (phi, phip, 6 * f / w, (12 * x - 2 * w * phip - 42 * phi) / 3, 12 * x * g)


def _cubic_members(z, w, f, g):
    t = z / 64
    p1, p1p = t * f, f + 6 * t * g
    return (p1, p1p, (1 - w * p1p - 48 * p1) / 2, 8 * p1p - 6 * f,
            t * (f - 1), f - 1 + 6 * t * g)


def _boundary_coordinates(x, boundary):
    """(z, w) = (x / boundary, 1 - z) for x in [0, boundary], refused
    outside; the closed boundary point gives (1, 0).  Both are exact for x
    at the working precision: z takes at most 5 bits more than x, and
    1 - z is exact from z = 1/2 on (Sterbenz)."""
    xm, bd = _in_domain(x, boundary)
    if xm == bd:
        return mpf(1), mpf(0)
    with mp.workprec(mp.prec + _GUARD_BITS):
        z = boundary.denominator * xm
        return z, 1 - z


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

# the members of each family in the order of its tuple, each with the
# series it differentiates and the derivative order
_QUARTIC_MEMBERS = {"phi": ("phi", 0), "phi_prime": ("phi", 1), "phi_second": ("phi", 2),
                    "theta": ("theta", 0), "theta_prime": ("theta", 1)}
_CUBIC_MEMBERS = {"psi1": ("psi1", 0), "psi1_prime": ("psi1", 1),
                  "psi2": ("psi2", 0), "psi2_prime": ("psi2", 1)}


def phi_family_at(z, w, prec: Precision = DEFAULT_PREC):
    """(Phi, Phi', Phi'', theta, theta') at x = z/27, from the 2F1 pair at
    z in [0, 1] with w = 1 - z given, so that both keep their relative
    accuracy at either end.  The derivatives are +inf at z = 1."""
    with prec.ctx():
        if z == 0:
            return mpf(0), mpf(0), mpf(6), mpf(0), mpf(0)  # Phi''(0) = 2 c_2
        if w == 0:
            # w Phi' -> 0 at the boundary, where Phi' diverges
            x = mpf(1) / 27
            phi = x * (mpmath.hyp2f1(mpf(1) / 3, mpf(2) / 3, 2, 1) - 1)
            return phi, mpmath.inf, mpmath.inf, (12 * x - 42 * phi) / 3, mpmath.inf
        return _family(_quartic_members, 3, z, w)


def psi_family_at(z, w, prec: Precision = DEFAULT_PREC):
    """(Psi1, Psi1', Psi2, Psi2', Psi1 - t, Psi1' - 1) at t = z/64, from the
    2F1 pair at z in [0, 1] with w = 1 - z given.  The last two are the
    members less their first terms, which the reduced cubic kernels read
    and which cannot be formed from Psi1 ~ t and Psi1' ~ 1 at small t.  The
    derivatives are +inf at z = 1."""
    with prec.ctx():
        if z == 0:
            return mpf(0), mpf(1), mpf(0), mpf(2), mpf(0), mpf(0)
        if w == 0:
            # w Psi1' -> 0 at the boundary, where Psi1' diverges
            t = mpf(1) / 64
            p1 = t * mpmath.hyp2f1(mpf(1) / 4, mpf(3) / 4, 2, 1)
            return p1, mpmath.inf, (1 - 48 * p1) / 2, mpmath.inf, p1 - t, mpmath.inf
        return _family(_cubic_members, 4, z, w)


def phi_family(x, prec: Precision = DEFAULT_PREC):
    """(Phi, Phi', Phi'', theta, theta') at x in [0, 1/27] by the
    hypergeometric route, from two 2F1 values; the derivatives are +inf at
    x = 1/27."""
    with prec.ctx():
        return phi_family_at(*_boundary_coordinates(x, QUARTIC_BOUNDARY), prec)


def psi_family(t, prec: Precision = DEFAULT_PREC):
    """(Psi1, Psi1', Psi2, Psi2') at t in [0, 1/64] by the hypergeometric
    route, from two 2F1 values; the derivatives are +inf at t = 1/64."""
    with prec.ctx():
        return psi_family_at(*_boundary_coordinates(t, CUBIC_BOUNDARY), prec)[:4]


def phi_numeric(kind: str, x, prec: Precision = DEFAULT_PREC, method: str = "auto"):
    """Evaluate Phi/theta family member at x in [0, 1/27] to target_abs_tol.

    method: 'series' (certified partial sums), 'boundary' (hypergeometric
    continuation, required at and very near 1/27), or 'auto'.
    """
    return _dispatch(kind, x, prec, method, QUARTIC_BOUNDARY, _QUARTIC_MEMBERS, phi_family)


def psi_numeric(kind: str, t, prec: Precision = DEFAULT_PREC, method: str = "auto"):
    """Evaluate Psi family member at t in [0, 1/64] to target_abs_tol."""
    return _dispatch(kind, t, prec, method, CUBIC_BOUNDARY, _CUBIC_MEMBERS, psi_family)


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
