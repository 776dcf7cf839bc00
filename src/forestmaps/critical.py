"""Radii of convergence, critical points and asymptotic constants.

The radius of the forested-map series F(z, u) is located by the failure
mode of the implicit system:

* quartic, u > 0: smooth-implicit-schema critical point, 1 = u Phi'(tau)
  with tau in (0, 1/27), then rho = tau - u Phi(tau);
* quartic, u <= 0: the solution runs into the singularity of Phi at 1/27,
  giving the affine law rho = (1+u)/27 - u sqrt(3)/(12 pi);
* cubic, u > 0: a two-step characteristic system; the inner series S~ is
  handled first (its own critical condition via the Psi2 reduction), then
  the outer inversion equation for R;
* cubic, u <= 0: the orbit reaches the critical parabola 64 x = (1-4y)^2;
  everything is algebraic in delta = sqrt(1 - 4 sigma) and rho has a closed
  form, which degenerates to 0/0 at u = -1 and takes its closed limit
  pi^2/384 there (:func:`cubic_rho_at_minus_one` extrapolates the closed
  form to it independently).

Each search for a critical point is one call of :func:`_root` in s =
ln(z/w), z = 27x (quartic) or 64t (cubic) and w = 1 - z: the point lies
exponentially close to the boundary for small u and close to 0 for large
u, and s gives the kernels both z and w without cancellation.  It brackets
the root of a decreasing value on a proven-monotone interval by doubling
steps, evaluating each point once, and solves it by Brent's zeroin
(:func:`_zeroin`): interpolation steps that never leave the bracket,
bisection when they stall, a stop relative in z and in w, and one secant
polish through the final bracket.  Every returned root carries its
residual, and :func:`radius` and :func:`s_tilde_radius_cubic` refuse a
result whose residuals miss the target of the working digits.  Every
public function converts u once, with :func:`hyp.as_mpf`, so a float, an
mpf and an exact rational are all accepted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Dict, NamedTuple, Optional

import mpmath
from mpmath import mpf

from .hyp import (CUBIC_BOUNDARY, DEFAULT_PREC, QUARTIC_BOUNDARY, Precision, as_mpf,
                  phi_family, phi_family_at, psi_family_at, psi_numeric, rat_to_mpf)

# the sign of u -> (regime, subexponential class, (a, b) of the coefficient
# law f_n ~ c_u rho^-n n^-a (ln n)^-b)
REGIMES = {1: ("positive_u", "n^{-5/2}", (2.5, 0)),
           0: ("zero_u", "n^{-3}", (3.0, 0)),
           -1: ("negative_u", "n^{-3}ln^{-2}n", (3.0, 2))}


@dataclass
class SingularProfile:
    p: int
    u: float
    rho: float
    tau: float
    sigma: float
    regime: str
    c_u: Optional[float]
    subexp_class: str
    residuals: Dict[str, float] = field(default_factory=dict)


# the walk's ends stay within 2^(_BRACKET_STEPS + 1) of its start: w or z
# down to e^-131071, so u from about 4e-5 (1/27 - tau ~ e^(-3.6/u)) up to
# e^131071, and a bound on the guard bits of the kernels at small z
_BRACKET_STEPS = 16


def _boundary_pair(s):
    """(z, w) = (1/(1 + e^-s), 1/(1 + e^s)), so that z/w = e^s and z + w = 1,
    each to the relative working precision at either end."""
    return 1 / (1 + mpmath.exp(-s)), 1 / (1 + mpmath.exp(s))


def _root(f, prec: Precision, top=None):
    """The root of a value that decreases through zero, searched in
    s = ln(z/w) and solved by :func:`_zeroin`.  f(z, w) returns (value,
    data) at the point (z, w) = :func:`_boundary_pair` (s); returns (z, s,
    residual, data) at the root.

    f is evaluated once per point: the bracket ends and the data at the
    root are read from a memo kept for this solve.  The bracket starts at
    [-1, 1], or at [top - 1, top] when the root lies below a known top with
    value <= 0.  It moves down while its low end is negative or, without a
    top, up while its high end is positive, by steps that double, at most
    _BRACKET_STEPS times (u = inf never brackets)."""
    value = cache(lambda s: f(*_boundary_pair(s)))
    with prec.ctx():
        lo, hi = (mpf(-1), mpf(1)) if top is None else (top - 1, top)
        steps = 0
        while value(lo)[0] < 0 or (top is None and value(hi)[0] > 0):
            if steps == _BRACKET_STEPS:
                raise ValueError(
                    "could not bracket the root: f keeps its sign on s in [%s, %s] "
                    "after %d steps" % (mpmath.nstr(lo, 5), mpmath.nstr(hi, 5), steps))
            steps += 1
            lo, hi = (lo - 2 ** steps, lo) if value(lo)[0] < 0 else (hi, hi + 2 ** steps)
        root, residual = _zeroin(lambda s: value(s)[0], lo, hi, prec)
        return _boundary_pair(root)[0], root, residual, value(root)[1]


def _zeroin(f, lo, hi, prec: Precision):
    """Root of f on a sign-changing bracket [lo, hi] by Brent's zeroin,
    then one secant polish.  Returns (root, residual).  A caller that has
    already evaluated f at an end passes a memoized f, so that no point is
    evaluated twice.

    Each step takes an inverse-quadratic or secant step inside the current
    bracket and falls back to bisection whenever that step would leave the
    bracket or shrink it too slowly (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4).  The roots this module hunts can sit
    exponentially close to a logarithmic singularity of f, where f is
    log-flat in the distance to the endpoint and interpolation helps
    little; the bracket guarantees convergence there.  Once the evaluations
    left only just cover bisection to the goal, only bisection steps are
    taken, so the width goal is met within the same evaluation cap as plain
    bisection.

    The stop is Brent's, on the bracket width: |hi - lo| < 10^-digits
    (10^4 + 4 |b|), b the current best end.  The critical-point searches
    run in s = ln(z/w), where an absolute width in s is a relative one both
    in z and in w = 1 - z; the term in |b| only stops a search whose ends
    are too large for the working precision to resolve that width.  The
    polish is the secant through the final bracket ends; it is kept only if
    it lies in the bracket and lowers |f|, so f is never evaluated outside
    [lo, hi]."""
    with prec.ctx():
        a, b = mpf(lo), mpf(hi)
        fa, fb = f(a), f(b)
        if not (fa > 0 > fb or fa < 0 < fb):
            raise ValueError("root is not bracketed: f(%s)=%s f(%s)=%s" % (a, fa, b, fb))
        eps = mpf(10) ** -prec.working_digits
        # the evaluations plain bisection is allowed, less both ends and the
        # polish
        left = int(prec.working_digits * 3.4) + 30 - 3
        c, fc = a, fa
        d = e = b - a
        while True:
            if fb * fc > 0:  # the root lies between a and b: restart c there
                c, fc = a, fa
                d = e = b - a
            if abs(fc) < abs(fb):  # keep b the end with the smaller |f|
                a, b, c = b, c, b
                fa, fb, fc = fb, fc, fb
            goal = eps * (10 ** 4 + 4 * abs(b))
            if fb == 0 or abs(c - b) < goal or left == 0:
                break
            tol = goal / 2
            xm = (c - b) / 2
            if (abs(e) >= tol and abs(fa) > abs(fb)
                    and left > mpmath.log(abs(c - b) / goal, 2) + 1):
                s = fb / fa
                if a == c:  # secant
                    p, q = 2 * xm * s, 1 - s
                else:  # inverse quadratic interpolation through a, b, c
                    q, r = fa / fc, fb / fc
                    p = s * (2 * xm * q * (q - r) - (b - a) * (r - 1))
                    q = (q - 1) * (r - 1) * (s - 1)
                if p > 0:
                    q = -q
                p = abs(p)
                # accept a step that stays within 3/4 of the bracket and is
                # less than half the step before last; otherwise bisect
                if 2 * p < min(3 * xm * q - abs(tol * q), abs(e * q)):
                    e, d = d, p / q
                else:
                    d = e = xm
            else:
                d = e = xm
            a, fa = b, fb
            b += d if abs(d) > tol else mpmath.sign(xm) * tol
            fb = f(b)
            left -= 1
        x, fx = b, fb
        if fb != 0:
            x_sec = b - fb * (c - b) / (fc - fb)
            if min(b, c) <= x_sec <= max(b, c):
                f_sec = f(x_sec)
                if abs(f_sec) < abs(fb):
                    x, fx = x_sec, f_sec
        return x, abs(fx)


# ---------------------------------------------------------------------------
# quartic radius
# ---------------------------------------------------------------------------

def quartic_tau(u, prec: Precision = DEFAULT_PREC):
    """The critical point tau in (0, 1/27) solving 1 = u Phi'(tau), u > 0.
    Returns (tau, residual, phi_family(tau))."""
    if u <= 0:
        raise ValueError("the characteristic condition applies only for u > 0")
    with prec.ctx():
        um = as_mpf(u)

        def f(z, w):
            family = phi_family_at(z, w, prec)
            return 1 - um * family[1], family

        # Phi' increases from 0 to +infinity on (0, 1/27)
        z, _, residual, family = _root(f, prec)
        return z / 27, residual, family


# Each critical point is solved once per process.  An entry is keyed by the
# solver, u rounded at the working precision and the working digits;
# entries are tuples of mpf and float, which no caller can alter.
_SOLVES: Dict[tuple, tuple] = {}


def _solved(solver, u, prec: Precision) -> tuple:
    """solver(u, prec), computed on the first request for its key."""
    with prec.ctx():
        um = as_mpf(u)
    key = (solver.__name__, um, prec.working_digits)
    if key not in _SOLVES:
        _SOLVES[key] = solver(um, prec)
    return _SOLVES[key]


def quartic_critical_point(u, prec: Precision = DEFAULT_PREC):
    """(rho, tau, phi_family(tau)) for p = 4 at full working precision:
    for u > 0, tau solves 1 = u Phi'(tau) and rho = tau - u Phi(tau); for
    u <= 0, tau = 1/27 and rho follows the affine law."""
    with prec.ctx():
        um = as_mpf(u)
        if um > 0:
            tau, _, family = _solved(quartic_tau, um, prec)
            return tau - um * family[0], tau, family
        return quartic_affine_rho(um), mpf(1) / 27, phi_family(QUARTIC_BOUNDARY, prec)


def quartic_affine_rho(u):
    """The radius (1+u)/27 - u sqrt(3)/(12 pi) of u <= 0 (continued to any
    u) at the working precision."""
    um = as_mpf(u)
    return (1 + um) / 27 - um * mpmath.sqrt(3) / (12 * mpmath.pi)


def radius(p: int, u, prec: Precision = DEFAULT_PREC) -> SingularProfile:
    """Radius of convergence of F(z, u) with its critical data, p in {3, 4}.

    u is a float or an exact rational; a rational is rounded once, at the
    working precision.  Each call returns a new profile.  Raises ValueError
    when a residual exceeds prec.target_abs_tol, the target that follows
    from the working digits, and when u or rho lies outside the range of a
    float, which the profile holds them as."""
    with prec.ctx():
        um = as_mpf(u)
        if not um >= -1:
            raise ValueError("u must be >= -1")
        if p == 4:
            rho, tau, sigma, c_u, residuals = _radius_quartic(um, prec)
        elif p == 3:
            rho, tau, sigma, c_u, residuals = _radius_cubic(um, prec)
        else:
            raise ValueError("radius is implemented for p in {3, 4}")
    for name, res in residuals.items():
        _check_residual(um, name, res, prec)
    if not (math.isfinite(um) and float(rho) > 0):
        raise ValueError("u=%s: rho = %s lies outside the range of a float"
                         % (mpmath.nstr(um, 5), mpmath.nstr(rho, 5)))
    regime, subexp_class, _ = REGIMES[(um > 0) - (um < 0)]
    return SingularProfile(
        p=p, u=float(um), rho=float(rho), tau=float(tau), sigma=float(sigma),
        regime=regime, c_u=c_u, subexp_class=subexp_class, residuals=residuals)


def _check_residual(um, name: str, res, prec: Precision) -> None:
    """ValueError unless the residual `name` at u = um meets prec.target_abs_tol."""
    if not res <= prec.target_abs_tol:
        raise ValueError(
            "u=%s: residual %r = %.3g exceeds the target %.0e; raise the "
            "working digits (--digits)" % (um, name, res, prec.target_abs_tol))


def _radius_quartic(um, prec: Precision):
    """(rho, tau, sigma, c_u, residuals) of p = 4."""
    rho, tau, _ = quartic_critical_point(um, prec)
    res = _solved(quartic_tau, um, prec)[1] if um > 0 else 0
    c_u = asymptotic_constant(4, um, prec)
    # c_u ~ 7.8e-3/u^3 leaves the normal floats from about u = 1e102 on, where
    # a float would hold 0.0 or a subnormal with few bits; report none there
    c_u = float(c_u) if c_u >= sys.float_info.min else None
    return rho, tau, 0, c_u, {"char": float(res)}


# ---------------------------------------------------------------------------
# cubic characteristic data
# ---------------------------------------------------------------------------

def _cubic_root(um, power: int = 1):
    """sqrt(pi^2 (1 - u^2) + 8 u^2), the radical of the closed cubic forms,
    to an odd power."""
    return (mpmath.pi ** 2 * (1 - um * um) + 8 * um * um) ** (mpf(power) / 2)


def cubic_delta_negative(u, prec: Precision = DEFAULT_PREC):
    """delta = sqrt(1 - 4 sigma) on the critical parabola, -1 < u <= 0."""
    with prec.ctx():
        um = as_mpf(u)
        return (2 * mpmath.sqrt(2) * um + _cubic_root(um)) / (mpmath.pi * (1 + um))


def cubic_rho_closed(u, prec: Precision = DEFAULT_PREC):
    """Closed algebraic form of the cubic radius for u in (-1, 0]."""
    with prec.ctx():
        um = as_mpf(u)
        pi = mpmath.pi
        num = (
            3 * (1 - um ** 2) ** 2 * pi ** 4
            + 96 * um ** 2 * pi ** 2 * (1 - um ** 2)
            + 512 * um ** 4
            + 16 * um * mpmath.sqrt(2) * _cubic_root(um, 3)
        )
        return num / (192 * pi ** 4 * (1 + um) ** 3)


_RICHARDSON_STEPS = 12


def cubic_rho_at_minus_one(prec: Precision = DEFAULT_PREC):
    """Limit of the closed cubic radius as u -> -1, by Richardson
    extrapolation: independent evidence for the closed limit pi^2/384.

    The closed form is 0/0 at u = -1; the limit is evaluated on the nodes
    u = -1 + h/2^k and extrapolated polynomially in h.  The cancellation at
    the nodes and the extrapolation lose about 13 digits (the cubic radius
    at 20 digits was off by 5e-8), so the table carries 20 guard digits.
    """
    guarded = replace(prec, working_digits=prec.working_digits + 20)
    with guarded.ctx():
        h0 = mpf(1) / 64
        table = [cubic_rho_closed(-1 + h0 / 2 ** k, guarded) for k in range(_RICHARDSON_STEPS)]
        # Richardson for an expansion in powers of h
        for j in range(1, _RICHARDSON_STEPS):
            for k in range(_RICHARDSON_STEPS - 1, j - 1, -1):
                table[k] = (2 ** j * table[k] - table[k - 1]) / (2 ** j - 1)
    with prec.ctx():
        return +table[-1]


class _PhiReduced(NamedTuple):
    phi1: object
    phi2: object
    phi1_x: object
    phi1_y: object
    phi2_x: object
    phi2_y: object


def _phi_reduced(t, d, e, psi) -> _PhiReduced:
    """Phi1, Phi2 and their partials in (x, y) at the reduced coordinate
    (t, d), i.e. x = t d^4 and y = (1 - d^2)/4, from e = 1 - d and
    psi = psi_family_at(64t, 1 - 64t).

    Through t = x/(1-4y)^2 and d = sqrt(1-4y) the two kernels reduce to
        Phi1 = d^3 Psi1(t) - x,    Phi2 = d Psi2(t) + (1-d)^2/4.
    Each is written without a difference that cancels: Psi1 and Psi1'
    enter less their first terms t and 1, Phi1 = d^3 (Psi1 - t d) and
    Phi1_x = (Psi1' - d)/d, and Phi1_y = 8 t d Psi1' - 6 d Psi1 is t d
    Psi2', since Psi2' = 8 Psi1' - 6 Psi1/t.
    """
    _, _, p2, p2p, p1_tail, p1p_tail = psi
    return _PhiReduced(
        phi1=d ** 3 * (p1_tail + t * e),
        phi2=d * p2 + e * e / 4,
        phi1_x=(p1p_tail + e) / d,
        phi1_y=t * d * p2p,
        phi2_x=p2p / d ** 3,
        phi2_y=(e - 2 * p2 + 8 * t * p2p) / d,
    )


def _s_tilde_delta(u, p2):
    """(d, 1 - d) for delta = sqrt(1 - 4 S~) on the S~ curve at the reduced
    coordinate t, from p2 = Psi2(t) (u > 0).

    Eliminating x from the fixed point y = u Phi2(x, y) leaves the
    quadratic (1+u) d^2 - 2u(1 - 2 Psi2(t)) d - (1-u) = 0, whose positive
    root starts at d = 1 for t = 0 and decreases.  1 - d ~ 1/u is written
    so that it does not cancel at large u.  The discriminant is 64 (u t
    Psi2')^2 plus the inner characteristic, >= 0 up to the inner point, the
    top of the outer search; there the sum is ~ 4/u^2 and may round below
    0, which is read as 0.
    """
    r = mpmath.sqrt(max(0, 1 - 4 * u * u * p2 * (1 - p2)))
    return (u * (1 - 2 * p2) + r) / (1 + u), 4 * u * p2 / (1 + 2 * u * p2 + r)


def s_tilde_characteristic(u, prec: Precision = DEFAULT_PREC):
    """Solve the inner (S~) critical system for u > 0.

    Returns (rho_tilde, s_tilde_value, s_crit, delta, residual, psi): the
    radius of S~, its value there, the critical point in the search
    coordinate s = ln(64t/(1 - 64t)), the reduced coordinate delta, and
    psi_family_at there.  The scalar characteristic in t = x/(1-4y)^2,
        1 = u^2 (4 Psi2(t) - 4 Psi2(t)^2 + 64 t^2 Psi2'(t)^2),
    has an increasing right side, so the bracketed zeroin is safe.
    """
    if u <= 0:
        raise ValueError("the inner characteristic applies only for u > 0")
    with prec.ctx():
        um = as_mpf(u)

        def f(z, w):
            psi = psi_family_at(z, w, prec)
            t, p2, p2p = z / 64, psi[2], psi[3]
            return 1 - um * um * (4 * p2 - 4 * p2 * p2 + 64 * t * t * p2p * p2p), psi

        z, s_crit, res, psi = _root(f, prec)
        t_crit, p2, p2p = z / 64, psi[2], psi[3]
        delta = um * (1 - 2 * p2 + 8 * t_crit * p2p) / (1 + um)
        e = (1 + 2 * um * (p2 - 4 * t_crit * p2p)) / (1 + um)  # 1 - delta ~ 1/u
        rho_t = t_crit * delta ** 4
        s_val = e * (1 + delta) / 4
        # residual of the y-characteristic 1 = u dPhi2/dy at (rho_t, s_val)
        char = abs(1 - um * _phi_reduced(t_crit, delta, e, psi).phi2_y)
        return rho_t, s_val, s_crit, delta, float(max(res, char)), psi


def cubic_characteristic_positive(u, prec: Precision = DEFAULT_PREC):
    """Two-step solve of the cubic characteristic system for u > 0.

    Step 1 handles the S~ subsystem: its critical point is the top of the
    search window and the quadratic of :func:`_s_tilde_delta` walks the
    curve (x, S~(x)) in the reduced coordinate t.  Step 2 solves the outer
    condition, written without the S~ derivative as
        (1 - u Phi1_x)(1 - u Phi2_y) = u^2 Phi1_y Phi2_x
    at (x, y) = (t d^4, (1-d^2)/4); the left side changes sign exactly once
    on (0, t_inner) by the monotonicity of the two steps.  Returns
    (rho, tau, sigma, residuals), the residuals as (name, value) pairs.
    """
    with prec.ctx():
        um = as_mpf(u)
        _, _, s_inner, _, res_inner, psi_inner = _solved(s_tilde_characteristic, um, prec)
        inner = _boundary_pair(s_inner)

        def h(z, w):
            # the top of the bracket is the inner point, whose psi the inner
            # solve returns
            psi = psi_inner if (z, w) == inner else psi_family_at(z, w, prec)
            t = z / 64
            d, e = _s_tilde_delta(um, psi[2])
            ph = _phi_reduced(t, d, e, psi)
            return ((1 - um * ph.phi1_x) * (1 - um * ph.phi2_y)
                    - um * um * ph.phi1_y * ph.phi2_x), (t, d, e, ph)

        _, _, res_outer, (t, d, e, ph) = _root(h, prec, top=s_inner)
        tau, sigma = t * d ** 4, e * (1 + d) / 4
        rho = tau - um * ph.phi1
        sp = um * ph.phi2_x / (1 - um * ph.phi2_y)
        char_sform = abs(1 - um * (ph.phi1_x + sp * ph.phi1_y))
        residuals = (("char", float(res_outer)), ("inner", res_inner),
                     ("char_via_stilde_prime", float(char_sform)),
                     ("fixed_point", float(abs(sigma - um * ph.phi2))))
        return rho, tau, sigma, residuals


def _radius_cubic(um, prec: Precision):
    """(rho, tau, sigma, c_u, residuals) of p = 3; no c_u is exposed."""
    if um > 0:
        rho, tau, sigma, residuals = _solved(cubic_characteristic_positive, um, prec)
        return rho, tau, sigma, None, dict(residuals)
    if um == 0:
        return mpf(1) / 64, mpf(1) / 64, 0, None, {"char": 0.0}
    rho, tau, sigma, delta = _cubic_negative_point(um, prec)
    # consistency of the closed form with rho = tau - u Phi1(tau, sigma);
    # the point lies on the parabola, t = 1/64, where only Psi1 is finite
    phi1 = delta ** 3 * psi_numeric("psi1", CUBIC_BOUNDARY, prec, "boundary") - tau
    return rho, tau, sigma, None, {
        "parabola": float(abs(64 * tau - (1 - 4 * sigma) ** 2)),
        "rho_vs_phi1": float(abs(rho - (tau - um * phi1)))}


def _cubic_negative_point(um, prec: Precision):
    """(rho, tau, sigma, delta) on the critical parabola for -1 <= u <= 0,
    tau = delta^4/64 and sigma = (1 - delta^2)/4.  The closed forms are 0/0
    at u = -1, where both take their closed limits: delta = pi/(2 sqrt 2)
    by l'Hopital, and rho = pi^2/384."""
    with prec.ctx():
        if um == -1:
            rho, delta = mpmath.pi ** 2 / 384, mpmath.pi / (2 * mpmath.sqrt(2))
        else:
            rho, delta = cubic_rho_closed(um, prec), cubic_delta_negative(um, prec)
        return rho, delta ** 4 / 64, (1 - delta ** 2) / 4, delta


# ---------------------------------------------------------------------------
# asymptotic constants
# ---------------------------------------------------------------------------

def asymptotic_constant(p: int, u, prec: Precision = DEFAULT_PREC):
    """The constant c_u in f_n(u) ~ c_u rho^-n n^-a (ln n)^-b, p = 4.

    u > 0: theta'(tau) sqrt(rho^3 / (2 pi u Phi''(tau)))
    u = 0: 2 / (243 sqrt(3) pi)
    u < 0: 72 sqrt(3) pi (1/u)^2 rho^3

    The u = 0 constant follows from the explicit spanning-tree coefficients
    by Stirling (equivalently, from [z^n] of the (1-27z)ln(1-27z) part of
    theta's boundary behaviour divided by n); the exact coefficients pin it
    unambiguously, and the n = 500 ratio check in the acceptance suite
    verifies it to a fraction of a percent.

    For p = 3 only the singular-expansion coefficient beta is available
    (see :func:`cubic_beta`); requesting an n-asymptotic constant raises.
    """
    if p == 3:
        raise ValueError(
            "no n-asymptotic constant is exposed for p = 3; for u < 0 the "
            "singular-expansion coefficient is cubic_beta(u)"
        )
    if p != 4:
        raise ValueError("asymptotic constants are implemented for p = 4")
    with prec.ctx():
        um = as_mpf(u)
        if um == 0:
            return 2 / (243 * mpmath.sqrt(3) * mpmath.pi)
        rho, _, family = quartic_critical_point(um, prec)
        if um > 0:
            _, _, pp, _, tp = family
            return tp * mpmath.sqrt(rho ** 3 / (2 * mpmath.pi * um * pp))
        return 72 * mpmath.sqrt(3) * mpmath.pi * (1 / um) ** 2 * rho ** 3


def cubic_beta(u, prec: Precision = DEFAULT_PREC):
    """Coefficient of (rho-z)/ln(rho-z) in the cubic singular expansion,
    beta = (4u - 3 sqrt(2) sqrt(pi^2 (1-u^2) + 8u^2)) / (2u^2), u in [-1, 0)."""
    if not -1 <= u < 0:
        raise ValueError("beta is stated for u in [-1, 0)")
    with prec.ctx():
        um = as_mpf(u)
        return (4 * um - 3 * mpmath.sqrt(2) * _cubic_root(um)) / (2 * um * um)


def cubic_expansion_data(u, prec: Precision = DEFAULT_PREC) -> dict:
    """Closed ingredients of the cubic u < 0 expansion at the radius.

    Returns rho, the critical values (tau = R(rho), sigma = S(rho)), the
    boundary value fprime_at_rho of F', the linear coefficient alpha
    (= -F''(rho^-)), and beta, both from the delta-parametrization.
    """
    if not -1 <= u < 0:
        raise ValueError("the expansion data applies for u in [-1, 0)")
    with prec.ctx():
        um = as_mpf(u)
        rho, tau, sigma, delta = _cubic_negative_point(um, prec)
        root = _cubic_root(um)
        a_s = 4 * mpmath.pi / (delta * root)
        a_r = mpmath.pi * delta / (2 * root)
        b_s = -2 * mpmath.sqrt(2) * mpmath.pi / (um * delta)
        b_r = -mpmath.sqrt(2) * mpmath.pi * delta / (4 * um)
        ub = 1 / um
        fprime_rho = 2 * rho * ub + ub * sigma - (1 + ub) * (2 * tau + sigma ** 2)
        # S'(rho-) = -a_s and R'(rho-) = +a_r in F'' = 2/u + S'/u - (1+1/u)(2R' + 2SS')
        fsecond_rho = 2 * ub - ub * a_s - (1 + ub) * (2 * a_r - 2 * sigma * a_s)
        alpha = -fsecond_rho
        beta_from_rs = ub * b_s - (1 + ub) * (2 * b_r + 2 * sigma * b_s)
        return {
            "rho": rho, "tau": tau, "sigma": sigma, "delta": delta,
            "fprime_rho": fprime_rho, "alpha": alpha,
            "beta": cubic_beta(u, prec), "beta_from_rs": beta_from_rs,
        }


def s_tilde_radius_cubic(u, prec: Precision = DEFAULT_PREC, series_order: int = 80) -> dict:
    """Radius of the inner series S~ for an exact rational u > 0, by curve
    continuation.

    The truncated specialized-u expansion of S~ traces the curve
    (x, S~(x)); along it the derivative blocker 1 - u dPhi2/dy (evaluated
    through the Psi2 reduction) decreases through zero at the radius, below
    1/64.  The crossing is one :func:`_root` solve in s = ln(z/w), z = 64x;
    a point past the critical parabola (where S~ may exceed 1/4) reads -1.
    Raises ValueError when the residual exceeds prec.target_abs_tol, as where
    the series has not converged at the radius and the crossing is the jump
    at the parabola.  The closed :func:`s_tilde_characteristic` checks the
    result; their difference, the truncation bias, is reported.
    """
    if u <= 0:
        raise ValueError("the S~ radius workflow applies for u > 0")
    from .exact import as_rat
    from .solver import solve_s_tilde

    uq = as_rat(u)  # floats are refused: 0.1 would be solved at its binary expansion
    coeffs = solve_s_tilde(3, series_order, uq).coeffs
    with prec.ctx():
        um = as_mpf(uq)
        horner = [rat_to_mpf(c) for c in reversed(coeffs)]

        def g(z, w):
            x = z / 64
            delta2 = 1 - 4 * mpmath.polyval(horner, x)
            if delta2 <= 0 or z >= delta2 ** 2:
                return mpf(-1), None  # past the critical parabola
            d = mpmath.sqrt(delta2)
            t = x / d ** 4
            psi = psi_family_at(64 * t, 1 - 64 * t, prec)
            return 1 - um * _phi_reduced(t, d, 1 - d, psi).phi2_y, None

        z, _, residual, _ = _root(g, prec)
        _check_residual(um, "s_tilde_radius", residual, prec)
        rho_series = z / 64
        rho_closed = _solved(s_tilde_characteristic, um, prec)[0]
        return {
            "rho_tilde": float(rho_series),
            "rho_tilde_closed": float(rho_closed),
            "series_order": series_order,
            "residual": float(residual),
            "closed_vs_series": float(abs(rho_series - rho_closed)),
        }
