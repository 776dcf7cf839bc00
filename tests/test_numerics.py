"""Hypergeometric evaluators, radii and critical constants."""

import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from forestmaps.critical import (
    cubic_a1_residual,
    cubic_beta,
    cubic_expansion_data,
    cubic_rho_at_minus_one,
    cubic_rho_closed,
    quartic_rho_exact,
    quartic_tau,
    radius,
    s_tilde_characteristic,
    s_tilde_radius_cubic,
)
from forestmaps.hyp import (
    Precision,
    phi_at_boundary,
    phi_numeric,
    phi_prime_singular_expansion,
    phi_singular_expansion,
    psi1_at_boundary,
    psi2_at_boundary,
    psi2_singular_expansion,
    psi_family,
    psi_numeric,
    self_check,
    theta_at_boundary,
    theta_prime_singular_expansion,
    theta_singular_expansion,
)

PREC = Precision(50, 1e-20)


def test_precision_invariant():
    with pytest.raises(ValueError):
        Precision(20, 1e-20)  # needs >= 2x the implied digits


def test_boundary_values():
    with PREC.ctx():
        assert abs(phi_numeric("phi", mpf(1) / 27, PREC) - phi_at_boundary(PREC)) < mpf("1e-40")
        assert abs(phi_numeric("theta", mpf(1) / 27, PREC) - theta_at_boundary(PREC)) < mpf("1e-40")
        assert abs(psi_numeric("psi1", mpf(1) / 64, PREC) - psi1_at_boundary(PREC)) < mpf("1e-40")
        assert abs(psi_numeric("psi2", mpf(1) / 64, PREC) - psi2_at_boundary(PREC)) < mpf("1e-40")
        assert float(phi_at_boundary(PREC)) == pytest.approx(0.0089070, abs=1e-6)
        assert float(psi1_at_boundary(PREC)) == pytest.approx(0.0187566, abs=2e-6)
        assert float(psi2_at_boundary(PREC)) == pytest.approx(0.0498418, abs=2e-6)


def test_domain_guards():
    from forestmaps.exact import Q

    with pytest.raises(ValueError):
        phi_numeric("phi", 0.05, PREC)  # beyond 1/27
    with pytest.raises(ValueError):
        phi_numeric("phi_prime", Q(1, 27), PREC)  # divergent at boundary
    with pytest.raises(ValueError):
        psi_numeric("psi2_prime", Q(1, 64), PREC)


def test_series_and_boundary_methods_agree():
    assert self_check(PREC, tol=1e-12) < 1e-12


QUARTIC_KINDS = ("phi", "phi_prime", "phi_second", "theta", "theta_prime")
CUBIC_KINDS = ("psi1", "psi1_prime", "psi2", "psi2_prime")


def test_series_and_boundary_methods_agree_at_zero():
    for kinds, fn in ((QUARTIC_KINDS, phi_numeric), (CUBIC_KINDS, psi_numeric)):
        for kind in kinds:
            assert fn(kind, 0, PREC, "boundary") == fn(kind, 0, PREC, "series"), kind


@pytest.fixture
def hyp2f1_calls(monkeypatch):
    calls = []
    hyp2f1 = mpmath.hyp2f1

    def counted(*args, **kwargs):
        calls.append(args)
        return hyp2f1(*args, **kwargs)

    monkeypatch.setattr(mpmath, "hyp2f1", counted)
    return calls


def test_each_family_member_takes_at_most_two_2f1(hyp2f1_calls):
    for kinds, fn, bd in ((QUARTIC_KINDS, phi_numeric, mpf(1) / 27),
                          (CUBIC_KINDS, psi_numeric, mpf(1) / 64)):
        for kind in kinds:
            for x in (bd / 7, bd / 2, bd * (1 - mpf("1e-6"))):
                del hyp2f1_calls[:]
                fn(kind, x, PREC, "boundary")
                assert len(hyp2f1_calls) <= 2, (kind, x)


def test_psi_family_is_the_four_members_from_two_2f1(hyp2f1_calls):
    bd = Fraction(1, 64)
    for t in (0, mpf(1) / 448, mpf(1) / 128, mpf(1) / 64 * (1 - mpf("1e-6")), bd):
        del hyp2f1_calls[:]
        family = psi_family(t, PREC)
        assert len(hyp2f1_calls) <= 2
        for kind, value in zip(CUBIC_KINDS, family):
            if t == bd and kind.endswith("prime"):
                assert value == mpmath.inf
            else:
                assert value == psi_numeric(kind, t, PREC, "boundary"), (kind, t)
    for t in (-mpf("1e-30"), Fraction(1, 63)):
        with pytest.raises(ValueError, match="outside"):
            psi_family(t, PREC)


def test_cubic_radius_2f1_budget(hyp2f1_calls, monkeypatch):
    from forestmaps import critical

    monkeypatch.setattr(critical, "_SOLVES", {})
    radius(3, 1.5, Precision(20, 1e-8))
    # one psi_family evaluation, two 2F1 values, per point of the inner and
    # the outer search: 50 calls (218 by plain bisection)
    assert len(hyp2f1_calls) <= 50


def test_quartic_tau_2f1_budget(hyp2f1_calls):
    quartic_tau(0.57, PREC)
    # two 2F1 values per evaluation of Phi': 46 calls (310 by plain bisection)
    assert len(hyp2f1_calls) <= 46


@pytest.mark.parametrize("solver,spied", [
    ("quartic_tau", "phi_numeric"),
    ("s_tilde_characteristic", "psi_family"),
    ("cubic_characteristic_positive", "psi_family"),
    ("s_tilde_radius_cubic", "psi_family"),
])
def test_root_solves_evaluate_no_point_twice(monkeypatch, solver, spied):
    from forestmaps import critical

    monkeypatch.setattr(critical, "_SOLVES", {})
    evaluate, points = getattr(critical, spied), []

    def spy(*args):
        points.append(args[1] if spied == "phi_numeric" else args[0])
        return evaluate(*args)

    monkeypatch.setattr(critical, spied, spy)
    if solver == "s_tilde_radius_cubic":  # an exact u, and a short series
        critical.s_tilde_radius_cubic(1, Precision(20, 1e-8), 25)
    else:
        getattr(critical, solver)(1.5, PREC)
    # the bracket ends found while bracketing, or on the S~ radius walk, are
    # passed on to the search, and each solve reads its data at the root
    # from the search's evaluation (the cubic solves include the S~ solve)
    assert len(points) == len(set(points))


def _log_flat(a, digits):
    """1 + a ln(b - x) with b = 1/27, log-flat at b like Phi' near 1/27; its
    root b - exp(-1/a) is exponentially close to b for small a.  The bracket
    ends where quartic_tau's does, 10^(8 - digits) relative below b."""
    b = mpf(1) / 27
    return (lambda x: 1 + a * mpmath.log(b - x), b - mpmath.exp(-1 / a),
            mpf(0), b * (1 - mpf(10) ** (8 - digits)))


# case -> digits -> (f, root, lo, hi), built at the working precision
ROOT_CASES = {
    "linear": lambda digits: (lambda x: mpf(3) / 10 - x, mpf(3) / 10, mpf(0), mpf(1)),
    "steep": lambda digits: (lambda x: mpmath.exp(200 * (x - mpf(1) / 7)) - 1,
                             mpf(1) / 7, mpf(0), mpf(1)),
    # flat at its root, where interpolation crawls and the cap binds
    "triple_root": lambda digits: (lambda x: (mpf(1) / 3 - x) ** 3, mpf(1) / 3,
                                   mpf(0), mpf(1)),
    "log_flat": lambda digits: _log_flat(mpf(2) / digits, digits),
    # the root within e^-(2 digits - 10) of b, just inside the bracket
    "log_flat_near_end": lambda digits: _log_flat(1 / mpf(2 * digits - 10), digits),
}


@pytest.mark.parametrize("digits,tol", [(20, 1e-8), (50, 1e-20)])
@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_root_finder_keeps_the_bracket_and_the_cap(case, digits, tol):
    from forestmaps.critical import _zeroin

    prec = Precision(digits, tol)
    with prec.ctx():
        f, root, lo, hi = ROOT_CASES[case](digits)
        points = []

        def spy(x):
            points.append(x)
            return f(x)

        x, residual = _zeroin(spy, lo, hi, prec)
        assert abs(x - root) < mpf(10) ** (4 - digits)
        assert residual == abs(f(x))
        assert all(lo <= p <= hi for p in points)
        assert len(points) <= int(digits * 3.4) + 30
        with pytest.raises(ValueError, match="not bracketed"):
            _zeroin(f, lo, (lo + root) / 2, prec)


def test_singular_expansions_are_leading_order():
    # the displayed expansions carry O(eps^2 ln eps) / O(eps ln eps) errors
    with PREC.ctx():
        for eps in (1e-6, 1e-8):
            e = mpf(eps)
            a = phi_numeric("phi", mpf(1) / 27 - e, PREC, "boundary")
            assert abs(a - phi_singular_expansion(e, PREC)) < 40 * e ** 2 * abs(mpmath.log(e))
            b = phi_numeric("phi_prime", mpf(1) / 27 - e, PREC, "boundary")
            assert abs(b - phi_prime_singular_expansion(e, PREC)) < 40 * e * abs(mpmath.log(e))
            c = phi_numeric("theta", mpf(1) / 27 - e, PREC, "boundary")
            assert abs(c - theta_singular_expansion(e, PREC)) < 160 * e ** 2 * abs(mpmath.log(e))
            d = phi_numeric("theta_prime", mpf(1) / 27 - e, PREC, "boundary")
            assert abs(d - theta_prime_singular_expansion(e, PREC)) < 40 * e * abs(mpmath.log(e))
            f = psi_numeric("psi2", mpf(1) / 64 - e, PREC, "boundary")
            assert abs(f - psi2_singular_expansion(e, PREC)) < 60 * e ** 2 * abs(mpmath.log(e))


def test_quartic_radius_values():
    with PREC.ctx():
        assert abs(quartic_rho_exact(mpf(-1), PREC)
                   - mpmath.sqrt(3) / (12 * mpmath.pi)) < mpf("1e-45")
        assert abs(quartic_rho_exact(mpf(0), PREC) - mpf(1) / 27) < mpf("1e-45")
    prof = radius(4, 1, PREC)
    assert prof.residuals["char"] < 1e-12
    assert 0 < prof.tau < 1 / 27 and prof.rho < prof.tau
    assert prof.subexp_class == "n^{-5/2}"
    assert radius(4, -0.25, PREC).subexp_class == "n^{-3}ln^{-2}n"


def test_quartic_tau_approach_rate():
    # 1/27 - tau_u ~ exp(-2 pi (1 + 1/u)/sqrt(3)) as u -> 0+
    prec = Precision(120, 1e-50)
    with prec.ctx():
        tau, _ = quartic_tau(mpf("0.1"), prec)
        gap = mpf(1) / 27 - tau
        pred = mpmath.exp(-2 * mpmath.pi * 11 / mpmath.sqrt(3))
        assert 0.5 < float(gap / pred) < 2.0


def test_cubic_radius_values():
    with PREC.ctx():
        assert abs(cubic_rho_closed(0, PREC) - mpf(1) / 64) < mpf("1e-45")
        assert abs(cubic_rho_at_minus_one(PREC) - mpmath.pi ** 2 / 384) < mpf("1e-12")
    prof = radius(3, -0.5, PREC)
    assert prof.residuals["rho_vs_phi1"] < 1e-30
    assert prof.residuals["parabola"] < 1e-30
    # the 0/0 limit at u = -1 keeps full float accuracy at 20 digits
    assert abs(radius(3, -1, Precision(20, 1e-8)).rho - float(mpmath.pi ** 2 / 384)) < 1e-17


def test_cubic_positive_u_against_coefficient_ratios():
    from forestmaps.exact import Q
    from forestmaps.fast import cubic_rs_coeffs

    prof = radius(3, 1, PREC)
    R, _ = cubic_rs_coeffs(Q(1), 260)
    r1, r2 = float(R[129] / R[130]), float(R[258] / R[259])
    assert abs(prof.rho / (2 * r2 - r1) - 1) < 0.01
    assert prof.residuals["char"] < 1e-12
    assert prof.residuals["char_via_stilde_prime"] < 1e-12


def test_radius_refuses_an_unbracketable_u():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="could not bracket"):
        radius(4, float("inf"), PREC)
    assert time.perf_counter() - t0 < 5


def test_radius_profiles_are_not_shared():
    from forestmaps import critical

    radius(4, 0.5, PREC).residuals["char"] = 99
    assert radius(4, 0.5, PREC).residuals["char"] < 1e-12
    # the memoized cubic solve holds only numbers and (name, value) pairs
    prec = Precision(20, 1e-8)
    radius(3, 1.5, prec).residuals["char"] = 99
    _, _, _, residuals = critical._solved(critical.cubic_characteristic_positive, 1.5, prec)
    with pytest.raises(TypeError):
        residuals[0] = ("char", 99)
    assert radius(3, 1.5, prec).residuals == dict(residuals)
    assert dict(residuals)["char"] < 1e-8


def test_radius_takes_an_exact_u():
    from forestmaps import critical

    critical._SOLVES.clear()
    exact = radius(4, Fraction(1, 2), PREC)
    critical._SOLVES.clear()
    assert exact == radius(4, 0.5, PREC)
    # Fraction(1, 3) and its float are distinct memo keys
    third = radius(4, Fraction(1, 3), PREC)
    assert third.u == 1 / 3 and third.residuals["char"] < 1e-12


def test_radius_decreasing_grids():
    for p in (3, 4):
        rho = [radius(p, u, PREC).rho for u in (-1, -0.5, 0, 0.5, 1, 2)]
        assert all(a > b for a, b in zip(rho, rho[1:]))


def test_s_tilde_characteristic_and_continuation():
    rho_t, s_val, t_c, delta, res = s_tilde_characteristic(1, PREC)
    assert float(rho_t) == pytest.approx(0.010320, abs=2e-5)
    assert res < 1e-12
    cont = s_tilde_radius_cubic(1, PREC, series_order=60)
    assert 0.0098 <= cont["rho_tilde"] <= 0.0108
    assert cont["residual"] < 1e-12
    # truncation bias of the continuation against the closed solve
    assert cont["closed_vs_series"] < 5e-4


def test_s_tilde_series_is_solved_at_the_exact_u(monkeypatch):
    from forestmaps import solver

    seen = []
    solve = solver.solve_s_tilde

    def spy(p, order, u):
        seen.append(u)
        return solve(p, order, u)

    monkeypatch.setattr(solver, "solve_s_tilde", spy)
    prec = Precision(20, 1e-8)
    cont = s_tilde_radius_cubic(Fraction(3, 10), prec, series_order=8)
    assert seen == [Fraction(3, 10)]
    assert 0.0135 < cont["rho_tilde"] < 0.0145 and cont["residual"] < 1e-12
    with pytest.raises(TypeError):
        s_tilde_radius_cubic(0.3, prec, series_order=8)


def test_s_tilde_radius_tends_to_1_over_64():
    vals = [float(s_tilde_characteristic(u, PREC)[0]) for u in (1, 0.5, 0.3)]
    assert vals[0] < vals[1] < vals[2] < 1 / 64


def test_cubic_delta_annihilates_a1():
    for u in (-0.25, -0.5, -0.9, -1):
        assert float(cubic_a1_residual(u, PREC)) < 1e-30


def test_cubic_beta_and_expansion_consistency():
    with PREC.ctx():
        b = cubic_beta(-0.5, PREC)
        assert float(b) == pytest.approx(-30.0184288, abs=1e-6)
        data = cubic_expansion_data(-0.5, PREC)
        assert abs(data["beta"] - data["beta_from_rs"]) < mpf("1e-30")
    with pytest.raises(ValueError):
        cubic_beta(0.5)


def test_asymptotic_constant_guards():
    from forestmaps.critical import asymptotic_constant

    with pytest.raises(ValueError):
        asymptotic_constant(3, -0.5, PREC)
    with PREC.ctx():
        c = asymptotic_constant(4, -1, PREC)
        assert float(c) == pytest.approx(0.0379954, abs=1e-6)
        c0 = asymptotic_constant(4, 0, PREC)
        assert float(c0) == pytest.approx(2 / (243 * 3 ** 0.5 * 3.14159265), rel=1e-6)
