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

Root-finding is bisection on proven-monotone brackets refined by Newton
steps; every returned root carries its residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import mpmath
from mpmath import mp, mpf

from .exact import Q
from .hyp import DEFAULT_PREC, Precision, phi_numeric, psi_numeric

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
    """Shrink lo by `shrink` until f(lo) >= 0; refuses after a bounded
    number of steps instead of searching forever (u = inf never brackets)."""
    for _ in range(_BRACKET_STEPS):
        if not f(lo) < 0:
            return lo
        lo /= shrink
    raise ValueError(
        "could not bracket the %s: f stays negative down to %s after %d "
        "steps" % (name, mpmath.nstr(lo, 5), _BRACKET_STEPS)
    )


def _bisect_newton(f, df, lo, hi, prec: Precision):
    """Root of f on a sign-changing bracket [lo, hi], then one Newton polish.

    Bisection runs to full working precision: the roots this module hunts
    can sit exponentially close to a logarithmic singularity of f, where
    Newton steps are useless (f is log-flat in the distance to the
    endpoint), so guaranteed bracketing does the work and Newton only
    polishes.  Returns (root, residual)."""
    with prec.ctx():
        lo, hi = mpf(lo), mpf(hi)
        flo = f(lo)
        fhi = f(hi)
        if not (flo > 0 > fhi or flo < 0 < fhi):
            raise ValueError("root is not bracketed: f(%s)=%s f(%s)=%s" % (lo, flo, hi, fhi))
        sign = 1 if flo > 0 else -1
        width_goal = mpf(10) ** (-prec.working_digits + 4)
        steps = int(prec.working_digits * 3.4) + 30
        for _ in range(steps):
            mid = (lo + hi) / 2
            if sign * f(mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < width_goal * max(1, abs(hi)):
                break
        x = (lo + hi) / 2
        fx = f(x)
        d = df(x)
        if d != 0:
            x_new = x - fx / d
            if lo <= x_new <= hi and abs(f(x_new)) < abs(fx):
                x = x_new
        return x, abs(f(x))


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

        def df(x):
            return -u * phi_numeric("phi_second", x, prec, "boundary")

        # Phi' increases from 0 to +infinity on (0, 1/27)
        hi = b * (1 - mpf(10) ** (-prec.working_digits + 8))
        if f(hi) >= 0:
            raise ValueError(
                "u=%s puts the critical point closer to 1/27 than the working "
                "precision resolves; raise working_digits" % u
            )
        lo = _bracket_below(f, mpf(10) ** (-6), 100, "quartic critical point")
        tau, res = _bisect_newton(f, df, lo, hi, prec)
        return tau, res


_RADIUS_CACHE: Dict[tuple, SingularProfile] = {}


def radius(p: int, u, prec: Precision = DEFAULT_PREC) -> SingularProfile:
    """Radius of convergence of F(z, u) with its critical data, p in {3, 4}."""
    if u < -1:
        raise ValueError("u must be >= -1")
    key = (p, float(u), prec.working_digits)
    if key not in _RADIUS_CACHE:
        if p == 4:
            _RADIUS_CACHE[key] = _radius_quartic(u, prec)
        elif p == 3:
            _RADIUS_CACHE[key] = _radius_cubic(u, prec)
        else:
            raise ValueError("radius is implemented for p in {3, 4}")
    # each caller gets its own profile, so mutating one cannot alter the cache
    prof = _RADIUS_CACHE[key]
    return replace(prof, residuals=dict(prof.residuals))


def _radius_quartic(u, prec: Precision) -> SingularProfile:
    with prec.ctx():
        um = mpf(u)
        reg = _sign_regime(um)
        if um > 0:
            tau, res = quartic_tau(um, prec)
            phi_tau = phi_numeric("phi", tau, prec, "boundary")
            rho = tau - um * phi_tau
            residuals = {"char": float(res)}
            c_u = asymptotic_constant(4, u, prec, _profile=(rho, tau))
        else:
            tau = mpf(1) / 27
            rho = (1 + um) / 27 - um * mpmath.sqrt(3) / (12 * mpmath.pi)
            residuals = {"char": 0.0}
            c_u = asymptotic_constant(4, u, prec, _profile=(rho, tau))
        return SingularProfile(
            p=4, u=float(um), rho=float(rho), tau=float(tau), sigma=0.0,
            regime=REGIMES[reg], c_u=float(c_u), subexp_class=SUBEXP[reg],
            residuals=residuals,
        )


def quartic_rho_exact(u, prec: Precision = DEFAULT_PREC):
    """mpf radius for p = 4 (full working precision, for tight comparisons)."""
    with prec.ctx():
        um = mpf(u)
        if um > 0:
            tau, _ = quartic_tau(um, prec)
            return tau - um * phi_numeric("phi", tau, prec, "boundary")
        return (1 + um) / 27 - um * mpmath.sqrt(3) / (12 * mpmath.pi)


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
    u = -1 + h/2^k and extrapolated polynomially in h.
    """
    with prec.ctx():
        h0 = mpf(1) / 64
        table = [fn(-1 + h0 / 2 ** k, prec) for k in range(steps)]
        # Richardson for an expansion in powers of h
        for j in range(1, steps):
            for k in range(steps - 1, j - 1, -1):
                table[k] = (2 ** j * table[k] - table[k - 1]) / (2 ** j - 1)
        return table[-1]


def cubic_rho_at_minus_one(prec: Precision = DEFAULT_PREC, steps: int = 12):
    """Limit of the closed cubic radius as u -> -1."""
    return _limit_at_minus_one(cubic_rho_closed, prec, steps)


def s_tilde_characteristic(u, prec: Precision = DEFAULT_PREC):
    """Solve the inner (S~) critical system for u > 0.

    Returns (rho_tilde, s_tilde_value, t_crit, delta, residual): the radius
    of S~, its value there, and the reduced coordinates.  The scalar
    characteristic in t = x/(1-4y)^2,
        1 = u^2 (4 Psi2(t) - 4 Psi2(t)^2 + 64 t^2 Psi2'(t)^2),
    has an increasing right side, so bisection is safe.
    """
    if u <= 0:
        raise ValueError("the inner characteristic applies only for u > 0")
    with prec.ctx():
        um = mpf(u)
        b = mpf(1) / 64

        def rhs(t):
            p2 = psi_numeric("psi2", t, prec, "boundary")
            p2p = psi_numeric("psi2_prime", t, prec, "boundary")
            return um * um * (4 * p2 - 4 * p2 * p2 + 64 * t * t * p2p * p2p)

        def f(t):
            return 1 - rhs(t)

        hi = b * (1 - mpf(10) ** (-min(30, prec.working_digits - 10)))
        lo = _bracket_below(f, b / 1000, 10, "inner critical point")
        tries = 0
        while f(hi) > 0:
            hi = (hi + b) / 2
            tries += 1
            if tries > 3 * prec.working_digits:
                raise ValueError(
                    "u=%s puts the inner critical point closer to 1/64 than "
                    "the working precision resolves; raise working_digits" % u
                )
        def df(t):
            eps = mpf(10) ** (-prec.working_digits // 3)
            return (f(t + eps) - f(t - eps)) / (2 * eps)
        t_crit, res = _bisect_newton(f, df, lo, hi, prec)
        p2 = psi_numeric("psi2", t_crit, prec, "boundary")
        p2p = psi_numeric("psi2_prime", t_crit, prec, "boundary")
        delta = um * (1 - 2 * p2 + 8 * t_crit * p2p) / (1 + um)
        rho_t = t_crit * delta ** 4
        s_val = (1 - delta ** 2) / 4
        # residual of the y-characteristic 1 = u dPhi2/dy at (rho_t, s_val)
        char = abs(1 - um * phi2_y(rho_t, s_val, prec))
        return rho_t, s_val, t_crit, delta, float(max(res, char))


# partial derivatives of Phi1, Phi2 through the Psi reduction

def _txd(x, y):
    d = mpmath.sqrt(1 - 4 * y)
    return x / d ** 4, d


def phi1_value(x, y, prec: Precision = DEFAULT_PREC):
    t, d = _txd(mpf(x), mpf(y))
    return d ** 3 * psi_numeric("psi1", t, prec, "boundary") - mpf(x)


def phi2_value(x, y, prec: Precision = DEFAULT_PREC):
    t, d = _txd(mpf(x), mpf(y))
    return d * psi_numeric("psi2", t, prec, "boundary") + (1 - d) ** 2 / 4


def phi1_x(x, y, prec: Precision = DEFAULT_PREC):
    t, d = _txd(mpf(x), mpf(y))
    return psi_numeric("psi1_prime", t, prec, "boundary") / d - 1


def phi1_y(x, y, prec: Precision = DEFAULT_PREC):
    t, d = _txd(mpf(x), mpf(y))
    p1 = psi_numeric("psi1", t, prec, "boundary")
    p1p = psi_numeric("psi1_prime", t, prec, "boundary")
    return -6 * d * p1 + 8 * t * d * p1p


def phi2_x(x, y, prec: Precision = DEFAULT_PREC):
    t, d = _txd(mpf(x), mpf(y))
    return psi_numeric("psi2_prime", t, prec, "boundary") / d ** 3


def phi2_y(x, y, prec: Precision = DEFAULT_PREC):
    t, d = _txd(mpf(x), mpf(y))
    p2 = psi_numeric("psi2", t, prec, "boundary")
    p2p = psi_numeric("psi2_prime", t, prec, "boundary")
    return (1 - d - 2 * p2 + 8 * t * p2p) / d


def s_tilde_at(x, u, s_hint=None, prec: Precision = DEFAULT_PREC):
    """Pointwise S~(x) for u > 0: the smallest fixed point y = u Phi2(x, y)."""
    with prec.ctx():
        um, xm = mpf(u), mpf(x)

        def g(y):
            return y - um * phi2_value(xm, y, prec)

        hi = s_hint if s_hint is not None else mpf(1) / 4 - mpf("1e-10")
        # g(0) < 0 and g grows through 0 before the critical value
        lo = mpf(0)
        if g(hi) < 0:
            raise ValueError("no fixed point below the hint; x beyond the S~ radius?")
        for _ in range(int(prec.working_digits * 3.5) + 40):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def cubic_delta_of_t(u, t, prec: Precision = DEFAULT_PREC):
    """delta = sqrt(1 - 4 S~) along the S~ curve, parametrized by the
    reduced coordinate t = x / (1-4y)^2 (u > 0).

    Eliminating x from the fixed point y = u Phi2(x, y) leaves the
    quadratic (1+u) d^2 - 2u(1 - 2 Psi2(t)) d - (1-u) = 0, whose positive
    root starts at d = 1 for t = 0 and decreases.
    """
    with prec.ctx():
        um, tm = mpf(u), mpf(t)
        p2 = psi_numeric("psi2", tm, prec, "boundary")
        a = um * (1 - 2 * p2)
        return (a + mpmath.sqrt(a * a + 1 - um * um)) / (1 + um)


def cubic_characteristic_positive(u, prec: Precision = DEFAULT_PREC):
    """Two-step solve of the cubic characteristic system for u > 0.

    Step 1 handles the S~ subsystem: its critical point bounds the search
    window and the quadratic of :func:`cubic_delta_of_t` walks the curve
    (x, S~(x)) in the reduced coordinate t.  Step 2 solves the outer
    condition, written without the S~ derivative as
        (1 - u Phi1_x)(1 - u Phi2_y) = u^2 Phi1_y Phi2_x
    at (x, y) = (t d^4, (1-d^2)/4); the left side changes sign exactly once
    on (0, t_inner) by the monotonicity of the two steps.  Returns
    (rho, tau, sigma, diagnostics).
    """
    with prec.ctx():
        um = mpf(u)
        rho_t, s_val, t_inner, _delta_inner, res_inner = s_tilde_characteristic(u, prec)

        def point(t):
            d = cubic_delta_of_t(um, t, prec)
            return t * d ** 4, (1 - d * d) / 4

        def h(t):
            x, y = point(t)
            return (1 - um * phi1_x(x, y, prec)) * (1 - um * phi2_y(x, y, prec)) \
                - um * um * phi1_y(x, y, prec) * phi2_x(x, y, prec)

        lo = _bracket_below(h, t_inner / 1000, 10, "outer characteristic root")
        hi = t_inner * (1 - mpf(10) ** (-min(25, prec.working_digits - 12)))
        tries = 0
        while h(hi) > 0:  # pragma: no cover - h < 0 near the inner point
            hi = (hi + t_inner) / 2
            tries += 1
            if tries > 200:
                raise ValueError("failed to bracket the outer characteristic root")

        def dh(t):
            eps = abs(t) * mpf(10) ** (-prec.working_digits // 3)
            return (h(t + eps) - h(t - eps)) / (2 * eps)

        t_star, res_outer = _bisect_newton(h, dh, lo, hi, prec)
        tau, sigma = point(t_star)
        rho = tau - um * phi1_value(tau, sigma, prec)
        sp = um * phi2_x(tau, sigma, prec) / (1 - um * phi2_y(tau, sigma, prec))
        char_sform = abs(1 - um * (phi1_x(tau, sigma, prec)
                                   + sp * phi1_y(tau, sigma, prec)))
        diags = {
            "inner": res_inner,
            "outer": float(res_outer),
            "char_via_stilde_prime": float(char_sform),
            "fixed_point": float(abs(sigma - um * phi2_value(tau, sigma, prec))),
            "rho_tilde": float(rho_t),
        }
        return rho, tau, sigma, diags


def _radius_cubic(u, prec: Precision) -> SingularProfile:
    with prec.ctx():
        um = mpf(u)
        reg = _sign_regime(um)
        if um > 0:
            rho, tau, sigma, diags = cubic_characteristic_positive(um, prec)
            residuals = {"char": diags["outer"], "inner": diags["inner"],
                         "char_via_stilde_prime": diags["char_via_stilde_prime"],
                         "fixed_point": diags["fixed_point"]}
            c_u = None
        elif um == 0:
            rho = mpf(1) / 64
            tau, sigma = rho, mpf(0)
            residuals = {"char": 0.0}
            c_u = None
        else:
            if um == -1:
                rho = cubic_rho_at_minus_one(prec)
            else:
                rho = cubic_rho_closed(um, prec)
            delta = _cubic_delta_limit(um, prec)
            sigma = (1 - delta ** 2) / 4
            tau = delta ** 4 / 64
            # consistency of the closed form with rho = tau - u Phi1(tau, sigma)
            res = abs(rho - (tau - um * phi1_value(tau, sigma, prec)))
            residuals = {"parabola": float(abs(64 * tau - (1 - 4 * sigma) ** 2)),
                         "rho_vs_phi1": float(res)}
            c_u = None
        return SingularProfile(
            p=3, u=float(um), rho=float(rho), tau=float(tau), sigma=float(sigma),
            regime=REGIMES[reg], c_u=c_u, subexp_class=SUBEXP[reg],
            residuals=residuals,
        )


def _cubic_delta_limit(u, prec: Precision):
    with prec.ctx():
        um = mpf(u)
        if um != -1:
            return cubic_delta_negative(um, prec)
        # 0/0 at -1: same Richardson treatment as the radius
        return _limit_at_minus_one(cubic_delta_negative, prec)


# ---------------------------------------------------------------------------
# asymptotic constants
# ---------------------------------------------------------------------------

def asymptotic_constant(p: int, u, prec: Precision = DEFAULT_PREC, _profile=None):
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
        if um > 0:
            if _profile is None:
                tau, _ = quartic_tau(um, prec)
                rho = tau - um * phi_numeric("phi", tau, prec, "boundary")
            else:
                rho, tau = _profile
            tp = phi_numeric("theta_prime", tau, prec, "boundary")
            pp = phi_numeric("phi_second", tau, prec, "boundary")
            return tp * mpmath.sqrt(rho ** 3 / (2 * mpmath.pi * um * pp))
        rho = _profile[0] if _profile is not None else quartic_rho_exact(um, prec)
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
        delta = _cubic_delta_limit(um, prec)
        sigma = (1 - delta ** 2) / 4
        tau = delta ** 4 / 64
        rho = cubic_rho_at_minus_one(prec) if um == -1 else cubic_rho_closed(um, prec)
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
    """Radius of the inner series S~ for u > 0, by curve continuation.

    The truncated specialized-u expansion of S~ traces the curve
    (z, S~(z)); along it the derivative blocker 1 - u dPhi2/dy (evaluated
    through the Psi2 reduction) decreases through zero at the radius.  The
    crossing is bracketed on a walk up the curve and bisected to the
    evaluator's full precision.  The closed characteristic solve of
    :func:`s_tilde_characteristic` cross-checks the result; the difference
    reflects the series truncation and is reported, not asserted to be
    tiny.
    """
    if u <= 0:
        raise ValueError("the S~ radius workflow applies for u > 0")
    from fractions import Fraction

    from .exact import Q as _Q
    from .solver import solve_s_tilde

    st = solve_s_tilde(3, series_order, _Q(Fraction(u)))
    coeffs = [c for c in st.coeffs]
    with prec.ctx():
        um = mpf(u)

        def s_at(z):
            acc = mpf(0)
            for c in reversed(coeffs):
                acc = acc * z + mpf(c.numerator) / mpf(c.denominator)
            return acc

        def g(z):
            y = s_at(z)
            if 64 * z >= (1 - 4 * y) ** 2:
                return mpf(-1)  # past the critical parabola
            return 1 - um * phi2_y(z, y, prec)

        z = mpf(1) / 640
        while g(z) > 0:
            z *= mpf("1.05")
            if z > mpf(1) / 4:
                raise ValueError("no crossing found; is u too small for the order?")
        lo, hi = z / mpf("1.05"), z
        for _ in range(int(prec.working_digits * 3.4) + 20):
            mid = (lo + hi) / 2
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        rho_series = (lo + hi) / 2
        residual = abs(g(rho_series))
        rho_closed = s_tilde_characteristic(u, prec)[0]
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
        d = _cubic_delta_limit(um, prec)
        return abs((1 + um) / 4 * d * d - um * mpmath.sqrt(2) / mpmath.pi * d + (um - 1) / 4)
