"""Exact verification of the hypergeometric identities and the nonlinear
differential equations satisfied by the map series.

The three long differential equations are transcribed once into JSON data
files (one term per monomial in z, u and the derivatives of the target
series) so the transcription can be audited line by line; the verdict of
this module is the zero-residual test itself.  A residual that fails only
at the boundary of the tested order usually points at a transcription slip
rather than a solver bug.

The cubic W equation is stated for W = 2G - z/u, which is a Laurent object
in u.  It is evaluated through the substitution W -> (uW)/u with uW = 2uG - z
polynomial: each term of total derivative multiplicity m picks up u^(-m),
and the whole residual is multiplied by the global minimal power, an
injective rescaling that preserves exact vanishing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, Tuple

from .exact import Q, canon
from .series import ZSeries
from .solver import solve, solve_rs
from .trees import (
    biv_add,
    biv_mul,
    biv_scale,
    lambda_series,
    phi_from_psi,
    phi_theta_tables,
    psi_series,
    table_column,
)
from .upoly import UPoly, UP_U

IDENTITY_NAMES = (
    "phi_second_order_ode",
    "theta_from_phi",
    "lambda_from_phi",
    "psi_first_order_system",
    "theta_bivariate_decomposition",
    "phi1_psi_reduction",
    "phi2_psi_reduction",
    "cubic_rs_derivative_rational",
)

# each DE, with the valence and the solver series it constrains
_DE_SOLVES = {"quartic_fprime": (4, "Fprime"), "quartic_h": (4, "H"), "cubic_w": (3, "G")}
DE_NAMES = tuple(_DE_SOLVES)


@dataclass
class ResidualReport:
    identity_name: str
    tested_order: int
    valid_order: int  # residual coefficients are proven zero through this order
    is_zero: bool
    detail: str = ""
    residual: object = None  # the residual itself (ZSeries, or dict for tables)

    def __str__(self):
        flag = "zero residual" if self.is_zero else "NONZERO residual"
        return "%-34s order<=%-3d %s (%s)" % (
            self.identity_name,
            self.valid_order,
            flag,
            self.detail or "exact",
        )


def _qseries(coeffs, order=None) -> ZSeries:
    return ZSeries(list(coeffs), order if order is not None else len(coeffs) - 1)


def check_identity(name: str, order: int) -> ResidualReport:
    """Verify one named exact identity through the given truncation order."""
    if order < 2:
        raise ValueError("order must be >= 2")

    def poly(*coeffs):
        # small polynomial factor, padded to the ambient truncation order
        return ZSeries([Q(c) for c in coeffs], order)

    if name == "phi_second_order_ode":
        phi = _qseries(table_column("phi1", 4, order))
        a = poly(0, -1, 27)  # x(27x - 1)
        res = a * phi.differentiate().differentiate() + phi.scale(Q(6)) + poly(0, 6)
        return _report(name, order, res)
    if name == "theta_from_phi":
        phi, theta = (_qseries(table_column(t, 4, order)) for t in ("phi1", "theta"))
        res = theta.scale(Q(3)) - poly(-2, 54) * phi.differentiate() \
            + phi.scale(Q(42)) - poly(0, 12)
        return _report(name, order, res)
    if name == "lambda_from_phi":
        phi = _qseries(table_column("phi1", 4, order))
        lam = _qseries(lambda_series(order))
        res = lam.scale(Q(30)) - poly(0, -1, 27) * phi.differentiate() \
            - poly(1, -24) * phi - poly(0, 0, 3)
        return _report(name, order, res)
    if name == "psi_first_order_system":
        ps = psi_series(order)
        psi1, psi2 = _qseries(ps["psi1"]), _qseries(ps["psi2"])
        one_m = poly(1, -64)
        r1 = one_m * psi1.differentiate() + psi1.scale(Q(48)) + psi2.scale(Q(2)) - poly(1)
        r2 = (one_m * psi2.differentiate()).shift_z(1).truncate(order - 1) \
            + psi1.scale(Q(6)).truncate(order - 1) \
            + psi2.scale(Q(16)).shift_z(1).truncate(order - 1) - poly(0, 8).truncate(order - 1)
        ok = r1.is_zero() and r2.is_zero()
        return ResidualReport(name, order, min(r1.order, r2.order), ok,
                              "two relations" if ok else "failure",
                              residual=(r1, r2))
    if name == "theta_bivariate_decomposition":
        tabs = phi_theta_tables(3, order)
        rhs = biv_add(
            biv_scale(tabs["phi1"], Q(-2)),
            biv_mul({(0, 0): Q(1), (0, 1): Q(-1)}, tabs["phi2"], order),
        )
        rhs = biv_add(rhs, {(1, 0): Q(-2), (0, 2): Q(-1)})
        diff = biv_add(tabs["theta"], biv_scale(rhs, Q(-1)))
        return ResidualReport(name, order, order, not diff,
                              "bivariate, total degree <= %d" % order,
                              residual=diff)
    if name in ("phi1_psi_reduction", "phi2_psi_reduction"):
        which = 1 if name.startswith("phi1") else 2
        tabs = phi_theta_tables(3, order)
        raw = tabs["phi1"] if which == 1 else tabs["phi2"]
        diff = biv_add(phi_from_psi(which, order), biv_scale(raw, Q(-1)))
        return ResidualReport(name, order, order, not diff,
                              "bivariate, total degree <= %d" % order,
                              residual=diff)
    if name == "cubic_rs_derivative_rational":
        return _check_cubic_rs(order)
    raise ValueError("unknown identity %r" % name)


def _report(name, order, res: ZSeries) -> ResidualReport:
    return ResidualReport(name, order, res.order, res.is_zero(), residual=res)


def _check_cubic_rs(order: int) -> ResidualReport:
    """The rational expressions for R', S' with common denominator D.

    D R' - R (48z - 1 + 16(u+1)R + 2(3+u)S - 8(u+1)S^2) = 0
    D S' + 2 (3z + (u-3)R - 12zS + 4(u+1)RS) = 0
    D = 36z^2 + (24z - 1 + 24uz)R + 4(u+1)RS - 4(u+1)^2 RS^2 + 4(u+1)^2 R^2

    (The S' relation carries the opposite sign from the R' one; with a plus
    on the 2(...) group both residuals vanish identically, and that is the
    form asserted here.)  (R, S) come from the table sweep,
    :func:`~forestmaps.solver.solve_rs`: the cubic recurrence of
    :mod:`forestmaps.fast` is derived from these relations, so it cannot
    check them.
    """
    R, S = solve_rs(3, order + 1)
    z = ZSeries.z(order + 1, UPoly())
    u = UP_U
    up1 = UPoly((1, 1))
    Rp, Sp = R.differentiate(), S.differentiate()
    RS = R * S
    D = (
        (z * z).scale(Q(36))
        + (z.scale(Q(24)) - ZSeries.const(UPoly((1,)), order + 1, UPoly())
           + z.scale(UPoly((0, 24)))) * R
        + RS.scale(up1 * 4)
        - (RS * S).scale(up1 * up1 * 4)
        + (R * R).scale(up1 * up1 * 4)
    )
    A = (
        z.scale(Q(48)) - ZSeries.const(UPoly((1,)), order + 1, UPoly())
        + R.scale(up1 * 16) + S.scale(UPoly((6, 2))) - (S * S).scale(up1 * 8)
    )
    B = z.scale(Q(3)) + R.scale(UPoly((-3, 1))) - (z * S).scale(Q(12)) + RS.scale(up1 * 4)
    res1 = D * Rp - R * A
    res2 = D * Sp + B.scale(Q(2))
    ok = res1.is_zero() and res2.is_zero()
    return ResidualReport(
        "cubic_rs_derivative_rational", order, min(res1.order, res2.order), ok,
        "R' and S' relations, u symbolic", residual=(res1, res2),
    )


# ---------------------------------------------------------------------------
# differential equations from data files
# ---------------------------------------------------------------------------

def load_de(name: str) -> dict:
    if name not in DE_NAMES:
        raise ValueError("unknown differential equation %r" % name)
    path = resources.files("forestmaps.data").joinpath("de_%s.json" % name)
    with path.open() as f:
        de = json.load(f)
    for term in de["terms"]:
        term["coeff"] = canon(term["coeff"])
    return de


def de_residual(de: dict, target: ZSeries, u_value=UP_U) -> ZSeries:
    """Evaluate the terms of a loaded DE on the target series.

    u_value is the weight as a ring element of the target's coefficients:
    the polynomial u (the default) or an exact rational.  For the W
    equation the target passed in must be uW (see module docstring); the
    u-exponent bookkeeping is applied here.
    """
    max_d = max((max(t["derivs"]) for t in de["terms"] if t["derivs"]), default=0)
    derivs = [target]
    for _ in range(max_d):
        derivs.append(derivs[-1].differentiate())
    scaled = de["target"] == "w"
    shift = 0
    if scaled:
        shift = -min(t["u_pow"] - len(t["derivs"]) for t in de["terms"])
    order = derivs[-1].order if max_d else target.order
    zero = target.zero_coeff
    prod_cache: Dict[Tuple[int, ...], ZSeries] = {(): ZSeries.const(zero + 1, order, zero)}

    def product(ders: Tuple[int, ...]) -> ZSeries:
        if ders in prod_cache:
            return prod_cache[ders]
        val = product(ders[:-1]) * derivs[ders[-1]]
        prod_cache[ders] = val
        return val

    total = ZSeries.zero(order, zero)
    for t in de["terms"]:
        ders = tuple(t["derivs"])
        u_pow = t["u_pow"] + (shift - len(ders) if scaled else 0)
        if u_pow < 0:
            raise AssertionError("u exponent bookkeeping went negative")
        val = product(ders).scale(t["coeff"])
        if u_pow:
            val = val.scale(u_value ** u_pow)
        if t["z_pow"]:
            val = val.shift_z(t["z_pow"]).truncate(total.order)
        total = total + val
    return total


def de_target_series(name: str, order: int, u_mode=None) -> Tuple[object, ZSeries]:
    """(u, the series the named DE constrains), u the weight as a ring
    element of its coefficients (uW = 2uG - z stands in for W)."""
    if name not in _DE_SOLVES:
        raise ValueError("unknown differential equation %r" % name)
    p, field = _DE_SOLVES[name]
    out = solve(p, order, u_mode, (field,))
    target, u = getattr(out, field), out.u
    if name == "cubic_w":
        target = target.scale(2 * u) - ZSeries.z(order, u * 0)
    return u, target


def check_de(name: str, order: int, u_mode=None) -> ResidualReport:
    """Verify a named differential equation on solver output.

    A second-order equation tested on series known through z^order yields a
    residual proven zero through z^(order-2); the report records that.
    """
    if order < 4:
        raise ValueError("order must be >= 4 to test a second-order equation")
    de = load_de(name)
    u, target = de_target_series(name, order, u_mode)
    res = de_residual(de, target, u_value=u)
    mode = "u symbolic" if isinstance(u, UPoly) else "u = %s" % u
    return ResidualReport(name, order, res.order, res.is_zero(), mode, residual=res)


def perturb(series: ZSeries, n: int, amount=1) -> ZSeries:
    """Return a copy with z^n bumped by `amount` (negative-control helper)."""
    coeffs = list(series.coeffs)
    coeffs[n] = coeffs[n] + amount
    return ZSeries(coeffs, series.order)
