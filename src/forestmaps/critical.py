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
  form, which degenerates to 0/0 at u = -1 and is evaluated there by
  Richardson extrapolation in 1 + u.

Root-finding is Brent's zeroin on proven-monotone brackets: interpolation
steps that never leave the bracket, bisection when they stall, an absolute
stop on the bracket width and one secant polish through the final bracket.
Every returned root carries its residual, and :func:`radius` refuses a
profile whose residuals miss the target tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from numbers import Rational
from typing import Dict, NamedTuple, Optional

import mpmath
from mpmath import mpf

from .hyp import (CUBIC_BOUNDARY, DEFAULT_PREC, Precision, phi_numeric, psi_family,
                  psi_numeric, rat_to_mpf)

REGIMES = {1: "positive_u", 0: "zero_u", -1: "negative_u"}
SUBEXP = {1: "n^{-5/2}", 0: "n^{-3}", -1: "n^{-3}ln^{-2}n"}


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


def _sign_regime(u) -> int:
    if u > 0:
        return 1
    if u == 0:
        return 0
    return -1


# the brackets close once lo ~ 1/u (quartic) or ~ 1/u^2 (cubic); 400 steps
# reach 400 decades below the start, past that for any u that is resolved
_BRACKET_STEPS = 400


def _bracket_below(f, lo, shrink, name: str):
    """Shrink lo by `shrink` until f(lo) >= 0 and return (lo, f(lo));
    refuses after a bounded number of steps instead of searching forever
    (u = inf never brackets)."""
    for _ in range(_BRACKET_STEPS):
        f_lo = f(lo)
        if not f_lo < 0:
            return lo, f_lo
        lo /= shrink
    raise ValueError(
        "could not bracket the %s: f stays negative down to %s after %d "
        "steps" % (name, mpmath.nstr(lo, 5), _BRACKET_STEPS)
    )


def _bracket_above(f, hi, end, what: str, prec: Precision):
    """Move hi halfway to `end` until f(hi) <= 0 and return (hi, f(hi)).
    Refuses, with the advice to raise the digits, once hi would come closer
    to end than 10^(8 - digits) relative, the margin of :func:`quartic_tau`:
    closer in, f is no longer resolved at the working precision."""
    closest = end * mpf(10) ** (8 - prec.working_digits)
    f_hi = f(hi)
    while f_hi > 0:
        hi = (hi + end) / 2
        if end - hi < closest:
            raise ValueError(
                "%s than the working precision resolves; raise the working "
                "digits (--digits)" % what)
        f_hi = f(hi)
    return hi, f_hi


def _zeroin(f, lo, hi, prec: Precision, f_lo=None, f_hi=None):
    """Root of f on a sign-changing bracket [lo, hi] by Brent's zeroin,
    then one secant polish.  Returns (root, residual).  A caller that has
    already evaluated f at an end passes the value as f_lo or f_hi, so that
    no point is evaluated twice.

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

    The stop is absolute, on the bracket width: hi - lo < 10^(4 - digits)
    max(1, |hi|).  A stop relative to the root would accept a spurious tiny
    root made by cancellation in f (quartic_tau at u = 1e300 would return
    tau = 3e-301, against the true 1/(6u)); the absolute stop leaves such
    an input to the residual check, which refuses it.  The polish is the
    secant through the final bracket ends; it is kept only if it lies in
    the bracket and lowers |f|, so f is never evaluated outside [lo, hi]."""
    with prec.ctx():
        a, b = mpf(lo), mpf(hi)
        fa = f(a) if f_lo is None else f_lo
        fb = f(b) if f_hi is None else f_hi
        if not (fa > 0 > fb or fa < 0 < fb):
            raise ValueError("root is not bracketed: f(%s)=%s f(%s)=%s" % (a, fa, b, fb))
        width_goal = mpf(10) ** (-prec.working_digits + 4)
        # the evaluations plain bisection is allowed, less both ends (evaluated
        # here or by the caller) and the polish
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
            goal = width_goal * max(1, abs(max(b, c)))
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
    """The critical point tau in (0, 1/27) solving 1 = u Phi'(tau), u > 0."""
    if u <= 0:
        raise ValueError("the characteristic condition applies only for u > 0")
    with prec.ctx():
        u = mpf(u)
        b = mpf(1) / 27

        def f(x):
            return 1 - u * phi_numeric("phi_prime", x, prec, "boundary")

        # Phi' increases from 0 to +infinity on (0, 1/27)
        hi = b * (1 - mpf(10) ** (-prec.working_digits + 8))
        f_hi = f(hi)
        if f_hi >= 0:
            raise ValueError(
                "u=%s puts the critical point closer to 1/27 than the working "
                "precision resolves; raise working_digits" % u
            )
        lo, f_lo = _bracket_below(f, mpf(10) ** (-6), 100, "quartic critical point")
        return _zeroin(f, lo, hi, prec, f_lo, f_hi)


# Each critical point is solved once per process.  The solvers read only
# the working digits from a Precision, so an entry is keyed by the solver,
# u rounded at the working precision and the working digits; entries are
# tuples of mpf and float, which no caller can alter.
_SOLVES: Dict[tuple, tuple] = {}


def _solved(solver, u, prec: Precision) -> tuple:
    """solver(u, prec), computed on the first request for its key."""
    with prec.ctx():
        key = (solver.__name__, mpf(u), prec.working_digits)
    if key not in _SOLVES:
        _SOLVES[key] = solver(u, prec)
    return _SOLVES[key]


def quartic_critical_point(u, prec: Precision = DEFAULT_PREC):
    """(rho, tau) for p = 4 at full working precision: for u > 0, tau
    solves 1 = u Phi'(tau) and rho = tau - u Phi(tau); for u <= 0,
    tau = 1/27 and rho follows the affine law."""
    with prec.ctx():
        um = mpf(u)
        if um > 0:
            tau = _solved(quartic_tau, um, prec)[0]
            return tau - um * phi_numeric("phi", tau, prec, "boundary"), tau
        return (1 + um) / 27 - um * mpmath.sqrt(3) / (12 * mpmath.pi), mpf(1) / 27


def radius(p: int, u, prec: Precision = DEFAULT_PREC) -> SingularProfile:
    """Radius of convergence of F(z, u) with its critical data, p in {3, 4}.

    u is a float or an exact rational; a rational is rounded once, at the
    working precision.  Each call returns a new profile.  Raises ValueError
    when a residual exceeds prec.target_abs_tol."""
    if u < -1:
        raise ValueError("u must be >= -1")
    if isinstance(u, Rational) and not isinstance(u, int):
        with prec.ctx():
            u = rat_to_mpf(u)
    if p == 4:
        prof = _radius_quartic(u, prec)
    elif p == 3:
        prof = _radius_cubic(u, prec)
    else:
        raise ValueError("radius is implemented for p in {3, 4}")
    for name, res in prof.residuals.items():
        if not res <= prec.target_abs_tol:
            raise ValueError(
                "u=%s: residual %r = %.3g exceeds the target %.0e; raise "
                "the working digits (--digits)"
                % (u, name, res, prec.target_abs_tol))
    return prof


def _radius_quartic(u, prec: Precision) -> SingularProfile:
    with prec.ctx():
        um = mpf(u)
        reg = _sign_regime(um)
        rho, tau = quartic_critical_point(um, prec)
        res = _solved(quartic_tau, um, prec)[1] if um > 0 else 0
        return SingularProfile(
            p=4, u=float(um), rho=float(rho), tau=float(tau), sigma=0.0,
            regime=REGIMES[reg], c_u=float(asymptotic_constant(4, um, prec)),
            subexp_class=SUBEXP[reg], residuals={"char": float(res)},
        )


def quartic_rho_exact(u, prec: Precision = DEFAULT_PREC):
    """mpf radius for p = 4 (full working precision, for tight comparisons)."""
    return quartic_critical_point(u, prec)[0]


# ---------------------------------------------------------------------------
# cubic characteristic data
# ---------------------------------------------------------------------------

def cubic_delta_negative(u, prec: Precision = DEFAULT_PREC):
    """delta = sqrt(1 - 4 sigma) on the critical parabola, -1 < u <= 0."""
    with prec.ctx():
        um = mpf(u)
        return (2 * mpmath.sqrt(2) * um
                + mpmath.sqrt(mpmath.pi ** 2 * (1 - um * um) + 8 * um * um)) \
            / (mpmath.pi * (1 + um))


def cubic_rho_closed(u, prec: Precision = DEFAULT_PREC):
    """Closed algebraic form of the cubic radius for u in (-1, 0]."""
    with prec.ctx():
        um = mpf(u)
        pi = mpmath.pi
        num = (
            3 * (1 - um ** 2) ** 2 * pi ** 4
            + 96 * um ** 2 * pi ** 2 * (1 - um ** 2)
            + 512 * um ** 4
            + 16 * um * mpmath.sqrt(2) * (pi ** 2 * (1 - um ** 2) + 8 * um ** 2) ** mpf(1.5)
        )
        return num / (192 * pi ** 4 * (1 + um) ** 3)


def _limit_at_minus_one(fn, prec: Precision, steps: int = 12):
    """Limit of fn(u, prec) as u -> -1 via Richardson extrapolation.

    The closed forms are 0/0 at u = -1; the limit is evaluated on the nodes
    u = -1 + h/2^k and extrapolated polynomially in h.  The cancellation at
    the nodes and the extrapolation lose about 13 digits (the cubic radius
    at 20 digits was off by 5e-8), so the table carries 20 guard digits.
    """
    guarded = replace(prec, working_digits=prec.working_digits + 20)
    with guarded.ctx():
        h0 = mpf(1) / 64
        table = [fn(-1 + h0 / 2 ** k, guarded) for k in range(steps)]
        # Richardson for an expansion in powers of h
        for j in range(1, steps):
            for k in range(steps - 1, j - 1, -1):
                table[k] = (2 ** j * table[k] - table[k - 1]) / (2 ** j - 1)
    with prec.ctx():
        return +table[-1]


def cubic_rho_at_minus_one(prec: Precision = DEFAULT_PREC, steps: int = 12):
    """Limit of the closed cubic radius as u -> -1."""
    return _limit_at_minus_one(cubic_rho_closed, prec, steps)


class _PhiReduced(NamedTuple):
    phi1: object
    phi2: object
    phi1_x: object
    phi1_y: object
    phi2_x: object
    phi2_y: object


def _phi_reduced(t, d, psi) -> _PhiReduced:
    """Phi1, Phi2 and their partials in (x, y) at the reduced coordinate
    (t, d), i.e. x = t d^4 and y = (1 - d^2)/4, from psi = psi_family(t).

    Through t = x/(1-4y)^2 and d = sqrt(1-4y) the two kernels reduce to
        Phi1 = d^3 Psi1(t) - x,    Phi2 = d Psi2(t) + (1-d)^2/4.
    """
    p1, p1p, p2, p2p = psi
    return _PhiReduced(
        phi1=d ** 3 * p1 - t * d ** 4,
        phi2=d * p2 + (1 - d) ** 2 / 4,
        phi1_x=p1p / d - 1,
        phi1_y=-6 * d * p1 + 8 * t * d * p1p,
        phi2_x=p2p / d ** 3,
        phi2_y=(1 - d - 2 * p2 + 8 * t * p2p) / d,
    )


def _s_tilde_delta(u, p2):
    """delta = sqrt(1 - 4 S~) on the S~ curve at the reduced coordinate t,
    from p2 = Psi2(t) (u > 0).

    Eliminating x from the fixed point y = u Phi2(x, y) leaves the
    quadratic (1+u) d^2 - 2u(1 - 2 Psi2(t)) d - (1-u) = 0, whose positive
    root starts at d = 1 for t = 0 and decreases.
    """
    a = u * (1 - 2 * p2)
    disc = a * a + 1 - u * u
    if disc < 0:
        raise ValueError(
            "u=%s leaves the S~ curve (negative discriminant %s); raise the "
            "working digits" % (mpmath.nstr(u, 5), mpmath.nstr(disc, 5)))
    return (a + mpmath.sqrt(disc)) / (1 + u)


def s_tilde_characteristic(u, prec: Precision = DEFAULT_PREC):
    """Solve the inner (S~) critical system for u > 0.

    Returns (rho_tilde, s_tilde_value, t_crit, delta, residual): the radius
    of S~, its value there, and the reduced coordinates.  The scalar
    characteristic in t = x/(1-4y)^2,
        1 = u^2 (4 Psi2(t) - 4 Psi2(t)^2 + 64 t^2 Psi2'(t)^2),
    has an increasing right side, so the bracketed zeroin is safe.
    """
    if u <= 0:
        raise ValueError("the inner characteristic applies only for u > 0")
    with prec.ctx():
        um = mpf(u)
        b = mpf(1) / 64
        # kept per point: the search has evaluated the root it returns
        psi_at = cache(lambda t: psi_family(t, prec))

        def f(t):
            _, _, p2, p2p = psi_at(t)
            return 1 - um * um * (4 * p2 - 4 * p2 * p2 + 64 * t * t * p2p * p2p)

        hi = b * (1 - mpf(10) ** (-min(30, prec.working_digits - 10)))
        lo, f_lo = _bracket_below(f, b / 1000, 10, "inner critical point")
        hi, f_hi = _bracket_above(f, hi, b, "u=%s puts the inner critical point "
                                  "closer to 1/64" % mpmath.nstr(um, 5), prec)
        t_crit, res = _zeroin(f, lo, hi, prec, f_lo, f_hi)
        psi = psi_at(t_crit)
        _, _, p2, p2p = psi
        delta = um * (1 - 2 * p2 + 8 * t_crit * p2p) / (1 + um)
        rho_t = t_crit * delta ** 4
        s_val = (1 - delta ** 2) / 4
        # residual of the y-characteristic 1 = u dPhi2/dy at (rho_t, s_val)
        char = abs(1 - um * _phi_reduced(t_crit, delta, psi).phi2_y)
        return rho_t, s_val, t_crit, delta, float(max(res, char))


def cubic_characteristic_positive(u, prec: Precision = DEFAULT_PREC):
    """Two-step solve of the cubic characteristic system for u > 0.

    Step 1 handles the S~ subsystem: its critical point bounds the search
    window and the quadratic of :func:`_s_tilde_delta` walks the curve
    (x, S~(x)) in the reduced coordinate t.  Step 2 solves the outer
    condition, written without the S~ derivative as
        (1 - u Phi1_x)(1 - u Phi2_y) = u^2 Phi1_y Phi2_x
    at (x, y) = (t d^4, (1-d^2)/4); the left side changes sign exactly once
    on (0, t_inner) by the monotonicity of the two steps.  Returns
    (rho, tau, sigma, residuals), the residuals as (name, value) pairs.
    """
    with prec.ctx():
        um = mpf(u)
        _, _, t_inner, _, res_inner = _solved(s_tilde_characteristic, u, prec)

        @cache  # per point: the search has evaluated the root it returns
        def on_curve(t):
            psi = psi_family(t, prec)
            d = _s_tilde_delta(um, psi[2])
            return d, _phi_reduced(t, d, psi)

        def h(t):
            ph = on_curve(t)[1]
            return (1 - um * ph.phi1_x) * (1 - um * ph.phi2_y) \
                - um * um * ph.phi1_y * ph.phi2_x

        lo, h_lo = _bracket_below(h, t_inner / 1000, 10, "outer characteristic root")
        hi = t_inner * (1 - mpf(10) ** (-min(25, prec.working_digits - 12)))
        hi, h_hi = _bracket_above(h, hi, t_inner, "u=%s puts the outer characteristic "
                                  "root closer to the inner critical point"
                                  % mpmath.nstr(um, 5), prec)

        t_star, res_outer = _zeroin(h, lo, hi, prec, h_lo, h_hi)
        d, ph = on_curve(t_star)
        tau, sigma = t_star * d ** 4, (1 - d * d) / 4
        rho = tau - um * ph.phi1
        sp = um * ph.phi2_x / (1 - um * ph.phi2_y)
        char_sform = abs(1 - um * (ph.phi1_x + sp * ph.phi1_y))
        residuals = (("char", float(res_outer)), ("inner", res_inner),
                     ("char_via_stilde_prime", float(char_sform)),
                     ("fixed_point", float(abs(sigma - um * ph.phi2))))
        return rho, tau, sigma, residuals


def _radius_cubic(u, prec: Precision) -> SingularProfile:
    with prec.ctx():
        um = mpf(u)
        reg = _sign_regime(um)
        if um > 0:
            rho, tau, sigma, residuals = _solved(cubic_characteristic_positive, um, prec)
            residuals = dict(residuals)
        elif um == 0:
            rho = mpf(1) / 64
            tau, sigma = rho, mpf(0)
            residuals = {"char": 0.0}
        else:
            rho, tau, sigma, delta = _cubic_negative_point(um, prec)
            # consistency of the closed form with rho = tau - u Phi1(tau, sigma);
            # the point lies on the parabola, t = 1/64, where only Psi1 is finite
            phi1 = delta ** 3 * psi_numeric("psi1", CUBIC_BOUNDARY, prec, "boundary") - tau
            res = abs(rho - (tau - um * phi1))
            residuals = {"parabola": float(abs(64 * tau - (1 - 4 * sigma) ** 2)),
                         "rho_vs_phi1": float(res)}
        return SingularProfile(
            p=3, u=float(um), rho=float(rho), tau=float(tau), sigma=float(sigma),
            regime=REGIMES[reg], c_u=None, subexp_class=SUBEXP[reg],
            residuals=residuals,
        )


def _cubic_negative_point(um, prec: Precision):
    """(rho, tau, sigma, delta) on the critical parabola for -1 <= u <= 0,
    tau = delta^4/64 and sigma = (1 - delta^2)/4.  The closed forms are 0/0
    at u = -1, where both take the Richardson limit."""
    with prec.ctx():
        if um == -1:
            rho = cubic_rho_at_minus_one(prec)
            delta = _limit_at_minus_one(cubic_delta_negative, prec)
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
        um = mpf(u)
        if um == 0:
            return 2 / (243 * mpmath.sqrt(3) * mpmath.pi)
        rho, tau = quartic_critical_point(um, prec)
        if um > 0:
            tp = phi_numeric("theta_prime", tau, prec, "boundary")
            pp = phi_numeric("phi_second", tau, prec, "boundary")
            return tp * mpmath.sqrt(rho ** 3 / (2 * mpmath.pi * um * pp))
        return 72 * mpmath.sqrt(3) * mpmath.pi * (1 / um) ** 2 * rho ** 3


def cubic_beta(u, prec: Precision = DEFAULT_PREC):
    """Coefficient of (rho-z)/ln(rho-z) in the cubic singular expansion,
    beta = (4u - 3 sqrt(2) sqrt(pi^2 (1-u^2) + 8u^2)) / (2u^2), u in [-1, 0)."""
    if not -1 <= u < 0:
        raise ValueError("beta is stated for u in [-1, 0)")
    with prec.ctx():
        um = mpf(u)
        return (4 * um - 3 * mpmath.sqrt(2)
                * mpmath.sqrt(mpmath.pi ** 2 * (1 - um * um) + 8 * um * um)) / (2 * um * um)


def cubic_expansion_data(u, prec: Precision = DEFAULT_PREC) -> dict:
    """Closed ingredients of the cubic u < 0 expansion at the radius.

    Returns rho, the critical values (tau = R(rho), sigma = S(rho)), the
    boundary value fprime_at_rho of F', the linear coefficient alpha
    (= -F''(rho^-)), and beta, both from the delta-parametrization.
    """
    if not -1 <= u < 0:
        raise ValueError("the expansion data applies for u in [-1, 0)")
    with prec.ctx():
        um = mpf(u)
        rho, tau, sigma, delta = _cubic_negative_point(um, prec)
        root = mpmath.sqrt(mpmath.pi ** 2 * (1 - um * um) + 8 * um * um)
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
    (z, S~(z)); along it the derivative blocker 1 - u dPhi2/dy (evaluated
    through the Psi2 reduction) decreases through zero at the radius.  The
    crossing is bracketed on a walk up the curve and solved by the bracketed
    zeroin to the evaluator's full precision.  The closed characteristic
    solve of :func:`s_tilde_characteristic` cross-checks the result; the
    difference reflects the series truncation and is reported, not asserted
    to be tiny.
    """
    if u <= 0:
        raise ValueError("the S~ radius workflow applies for u > 0")
    from .exact import as_rat
    from .solver import solve_s_tilde

    uq = as_rat(u)  # floats are refused: 0.1 would be solved at its binary expansion
    coeffs = solve_s_tilde(3, series_order, uq).coeffs
    with prec.ctx():
        um = rat_to_mpf(uq)

        def s_at(z):
            acc = mpf(0)
            for c in reversed(coeffs):
                acc = acc * z + rat_to_mpf(c)
            return acc

        def g(z):
            y = s_at(z)
            if 64 * z >= (1 - 4 * y) ** 2:
                return mpf(-1)  # past the critical parabola
            d = mpmath.sqrt(1 - 4 * y)
            t = z / d ** 4
            return 1 - um * _phi_reduced(t, d, psi_family(t, prec)).phi2_y

        # the bracket's low end is the walk's last point with g > 0, or one
        # step below a first point that is already past the crossing
        z = mpf(1) / 640
        lo, g_lo, g_z = z / mpf("1.05"), None, g(z)
        while g_z > 0:
            lo, g_lo = z, g_z
            z *= mpf("1.05")
            if z > mpf(1) / 4:
                raise ValueError("no crossing found; is u too small for the order?")
            g_z = g(z)
        rho_series, residual = _zeroin(g, lo, z, prec, g_lo, g_z)
        rho_closed = _solved(s_tilde_characteristic, um, prec)[0]
        return {
            "rho_tilde": float(rho_series),
            "rho_tilde_closed": float(rho_closed),
            "series_order": series_order,
            "residual": float(residual),
            "closed_vs_series": float(abs(rho_series - rho_closed)),
        }


def cubic_a1_residual(u, prec: Precision = DEFAULT_PREC):
    """The closed delta must annihilate a1 = (1+u)/4 d^2 - u sqrt(2)/pi d + (u-1)/4."""
    with prec.ctx():
        um = mpf(u)
        d = _cubic_negative_point(um, prec)[3]
        return abs((1 + um) / 4 * d * d - um * mpmath.sqrt(2) / mpmath.pi * d + (um - 1) / 4)
