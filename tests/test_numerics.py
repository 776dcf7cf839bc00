"""Hypergeometric evaluators, radii and critical constants."""

import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from forestmaps import critical, hyp
from forestmaps.asymptotics import quartic_smoothness_gap
from forestmaps.critical import (
    _cubic_negative_point,
    cubic_beta,
    cubic_expansion_data,
    cubic_rho_at_minus_one,
    cubic_rho_closed,
    quartic_critical_point,
    quartic_tau,
    radius,
    s_tilde_characteristic,
    s_tilde_radius_cubic,
)
from forestmaps.hyp import (
    _CUBIC_MEMBERS,
    _QUARTIC_MEMBERS,
    CUBIC_BOUNDARY,
    DEFAULT_PREC,
    QUARTIC_BOUNDARY,
    Precision,
    as_mpf,
    phi_family,
    phi_numeric,
    psi_family,
    psi_family_at,
    psi_numeric,
    rat_to_mpf,
)

from oracles import phi_at_boundary, psi1_at_boundary, psi2_at_boundary, theta_at_boundary

PREC = Precision(50)


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


def test_series_and_boundary_methods_agree():
    assert self_check(PREC, tol=1e-12) < 1e-12


QUARTIC_KINDS = ("phi", "phi_prime", "phi_second", "theta", "theta_prime")
CUBIC_KINDS = ("psi1", "psi1_prime", "psi2", "psi2_prime")


def test_series_and_boundary_methods_agree_at_zero():
    for kinds, fn in ((QUARTIC_KINDS, phi_numeric), (CUBIC_KINDS, psi_numeric)):
        for kind in kinds:
            assert fn(kind, 0, PREC, "boundary") == fn(kind, 0, PREC, "series"), kind


@pytest.fixture
def kernel_calls(monkeypatch):
    """The kernel evaluations made: a family point takes one AGM pair
    (hyp._agm_2f1) from z = 27x resp. 64t = 1/2 up, and two mpmath 2F1
    values below it and at z = 1."""
    calls = []
    for owner, name in ((mpmath, "hyp2f1"), (hyp, "_agm_2f1")):
        def counted(*args, _evaluate=getattr(owner, name), **kwargs):
            calls.append(args)
            return _evaluate(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _kernel_cost(scale, x):
    """Kernel evaluations of one family point at z = scale x, formed as
    the evaluator forms it."""
    with PREC.ctx():
        z = scale * as_mpf(x)
    return 0 if z == 0 else 1 if z == 1 else 2 if z < hyp._AGM_FROM else 1


def test_each_family_member_takes_at_most_two_2f1(kernel_calls):
    for kinds, fn, scale in ((QUARTIC_KINDS, phi_numeric, 27), (CUBIC_KINDS, psi_numeric, 64)):
        for kind in kinds:
            for x in (1 / mpf(7 * scale), 1 / mpf(2 * scale), (1 - mpf("1e-6")) / scale):
                del kernel_calls[:]
                fn(kind, x, PREC, "boundary")
                assert len(kernel_calls) == _kernel_cost(scale, x), (kind, x)


def test_psi_family_is_the_four_members_from_two_2f1(kernel_calls):
    bd = Fraction(1, 64)
    for t in (0, mpf(1) / 448, mpf(1) / 128, mpf(1) / 64 * (1 - mpf("1e-6")), bd):
        del kernel_calls[:]
        family = psi_family(t, PREC)
        assert len(kernel_calls) == _kernel_cost(64, t)
        for kind, value in zip(CUBIC_KINDS, family):
            if t == bd and kind.endswith("prime"):
                assert value == mpmath.inf
            else:
                assert value == psi_numeric(kind, t, PREC, "boundary"), (kind, t)
    for t in (-mpf("1e-30"), Fraction(1, 63)):
        with pytest.raises(ValueError, match="outside"):
            psi_family(t, PREC)


def test_phi_family_is_the_five_members_from_two_2f1(kernel_calls):
    bd = Fraction(1, 27)
    for x in (0, mpf(1) / 189, mpf(1) / 54, mpf(1) / 27 * (1 - mpf("1e-6")), bd):
        del kernel_calls[:]
        family = phi_family(x, PREC)
        assert len(kernel_calls) == _kernel_cost(27, x)
        for kind, value in zip(QUARTIC_KINDS, family):
            if x == bd and kind.endswith(("prime", "second")):
                assert value == mpmath.inf
            else:
                assert value == phi_numeric(kind, x, PREC, "boundary"), (kind, x)
    # away from the boundary the certified series route agrees
    for x in (mpf(1) / 189, mpf(1) / 54):
        for kind, value in zip(QUARTIC_KINDS, phi_family(x, PREC)):
            assert abs(value - phi_numeric(kind, x, PREC, "series")) < mpf("1e-19"), (kind, x)
    for x in (-mpf("1e-30"), Fraction(1, 26)):
        with pytest.raises(ValueError, match="outside"):
            phi_family(x, PREC)


def test_quartic_readers_reuse_the_search(kernel_calls, monkeypatch):
    from forestmaps import critical
    from forestmaps.critical import asymptotic_constant
    from forestmaps.randmodel import component_slope, kappa, s_limit_law

    monkeypatch.setattr(critical, "_SOLVES", {})
    for u in (mpf("0.5"), mpf("1.37")):
        critical._solved(quartic_tau, u, PREC)
        del kernel_calls[:]
        radius(4, u, PREC)
        asymptotic_constant(4, u, PREC)
        kappa(u, PREC)
        component_slope(u, PREC)
        s_limit_law(u, 3, PREC)
        # every reader takes the family at tau from the search
        assert kernel_calls == [], u


def test_cubic_radius_2f1_budget(kernel_calls, monkeypatch):
    from forestmaps import critical

    monkeypatch.setattr(critical, "_SOLVES", {})
    radius(3, 1.5, Precision(20))
    # one psi_family_at evaluation per point of the inner and the outer
    # search in s = ln(z/w), 21 points: 19 by one AGM pair and 2 below
    # z = 1/2 by two 2F1 values, 23 kernel evaluations (218 by plain
    # bisection)
    assert len(kernel_calls) <= 23


def test_quartic_tau_2f1_budget(kernel_calls):
    quartic_tau(0.57, PREC)
    # one phi_family_at evaluation per point of the search in s = ln(z/w),
    # 12 points: 11 by one AGM pair and 1 below z = 1/2 by two 2F1 values,
    # 13 kernel evaluations (310 by plain bisection)
    assert len(kernel_calls) <= 13


# z = 27x resp. 64t, or 1 - z: one point on each side of the switch to the
# AGM route at z = 1/2, and its grid up to 1 - z = 1e-14
KERNEL_POINTS = ("0.49", "0.5", "0.51", "0.7", "0.9", "0.99",
                 "1-1e-3", "1-1e-6", "1-1e-9", "1-1e-14")


@pytest.mark.parametrize("digits", [20, 50])
@pytest.mark.parametrize("point", KERNEL_POINTS)
def test_kernel_2f1_values_match_mpmath_at_double_digits(point, digits):
    prec = Precision(digits)
    for scale, family, den in ((27, phi_family, 3), (64, psi_family, 4)):
        with prec.ctx():
            z = 1 - mpf(point[2:]) if point.startswith("1-") else mpf(point)
            x = z / scale  # e.g. x = (1 - 10^-14)/27, rounded at the working digits
            members = family(x, prec)
        with mpmath.workdps(2 * digits):
            # F(a, 1-a; 2; z) and F(1+a, 2-a; 3; z) read back from the members
            if den == 3:
                f = 1 + members[0] / x
                g = (members[1] - members[0] / x) / (3 * x)
            else:
                f = members[0] / x
                g = (members[1] - f) / (6 * x)
            a = mpf(1) / den
            for value, exact in ((f, mpmath.hyp2f1(a, 1 - a, 2, scale * x)),
                                 (g, mpmath.hyp2f1(1 + a, 2 - a, 3, scale * x))):
                assert abs(value / exact - 1) <= mpf(10) ** (3 - digits), (den, value, exact)


def _family_pair(den, x, digits):
    """(family at x by the evaluator, the same family from the 2F1 pair at
    x by mpmath), the latter at twice the digits plus 2 log10(1/z),
    so that its members of the size of z^2 keep them."""
    prec = Precision(digits)
    scale = 27 if den == 3 else 64
    with prec.ctx():
        xm = mpf(x)
        family = (phi_family(xm, prec) if den == 3
                  else psi_family_at(*hyp._boundary_coordinates(xm, hyp.CUBIC_BOUNDARY), prec))
    with mpmath.workdps(2 * digits - 2 * int(mpmath.log10(scale * xm))):
        z = scale * xm
        a = mpf(1) / den
        f, g = mpmath.hyp2f1(a, 1 - a, 2, z), mpmath.hyp2f1(1 + a, 2 - a, 3, z)
        if den == 3:
            phi, phip = xm * (f - 1), f - 1 + 3 * xm * g
            ref = (phi, phip, -6 * (phi + xm) / (xm * (27 * xm - 1)),
                   (2 * (27 * xm - 1) * phip - 42 * phi + 12 * xm) / 3, 4 * phip - 4 * phi / xm)
        else:
            p1, p1p = xm * f, f + 6 * xm * g
            p2 = (1 - (1 - 64 * xm) * p1p - 48 * p1) / 2
            ref = (p1, p1p, p2, (8 * xm - 6 * p1 - 16 * xm * p2) / (xm * (1 - 64 * xm)),
                   p1 - xm, p1p - 1)
    return family, ref


# z = 27x resp. 64t: where the forms the members had before they were
# written in w (Phi'' and Psi2' divided by w, theta' = 4 Phi' - 4 Phi/x)
# do not cancel, and down to z = 1e-200, where f - 1, Psi2 and the tails
# Psi1 - t and Psi1' - 1 are 200 digits below the terms they are formed of
@pytest.mark.parametrize("digits", [20, 50])
@pytest.mark.parametrize("z", ["0.9", "0.6", "0.3", "0.1", "1e-5", "1e-30", "1e-200"])
def test_members_keep_the_working_precision_at_small_z(z, digits):
    for den, scale in ((3, 27), (4, 64)):
        family, ref = _family_pair(den, mpf(z) / scale, digits)
        for member, (value, exact) in enumerate(zip(family, ref)):
            assert abs(value / exact - 1) <= mpf(10) ** (3 - digits), (den, member)


def test_reduced_kernels_match_their_old_forms():
    # Phi1, Phi1_x and Phi1_y of _phi_reduced against their forms in Psi1
    # and Psi1' at double the digits, and (d, 1 - d) of _s_tilde_delta
    # against the root of the quadratic
    for digits in (20, 50):
        prec = Precision(digits)
        for z, u in (("0.2", "0.7"), ("0.7", "1.5"), ("0.95", "0.3")):
            with prec.ctx():
                zm = mpf(z)
                psi = psi_family_at(zm, 1 - zm, prec)
                d, e = critical._s_tilde_delta(mpf(u), psi[2])
                new = critical._phi_reduced(zm / 64, d, e, psi)
            with mpmath.workdps(2 * digits):
                t, um = zm / 64, mpf(u)
                p1, p1p, p2 = psi_family_at(zm, 1 - zm, Precision(2 * digits))[:3]
                a = um * (1 - 2 * p2)
                d2 = (a + mpmath.sqrt(a * a + 1 - um * um)) / (1 + um)
                old = (d2 ** 3 * p1 - t * d2 ** 4, p1p / d2 - 1,
                       -6 * d2 * p1 + 8 * t * d2 * p1p)
                for value, exact in zip((d, 1 - e) + tuple(new[i] for i in (0, 2, 3)),
                                        (d2, d2) + old):
                    assert abs(value / exact - 1) <= mpf(10) ** (3 - digits), (z, u)


@pytest.mark.parametrize("solver,spied", [
    ("quartic_tau", "phi_family"),
    ("s_tilde_characteristic", "psi_family"),
    ("cubic_characteristic_positive", "psi_family"),
    ("s_tilde_radius_cubic", "psi_family"),
])
def test_root_solves_evaluate_no_point_twice(monkeypatch, solver, spied):
    from forestmaps import critical

    monkeypatch.setattr(critical, "_SOLVES", {})
    # the solves evaluate each family at a pair (z, w), by phi_family_at or
    # psi_family_at
    evaluate, points = getattr(critical, spied + "_at"), []

    def spy(z, w, prec):
        points.append((z, w))
        return evaluate(z, w, prec)

    monkeypatch.setattr(critical, spied + "_at", spy)
    if solver == "s_tilde_radius_cubic":  # an exact u, and a short series
        critical.s_tilde_radius_cubic(1, Precision(20), 25)
    else:
        getattr(critical, solver)(1.5, PREC)
    # the bracket ends found while bracketing are passed on to the search,
    # and each solve reads its data at the root from the search's evaluation
    # (the cubic solves and the S~ continuation include the S~ solve)
    assert len(points) == len(set(points))


PREC20 = Precision(20)


def _in_ctx(fn):
    def call(u):
        with PREC20.ctx():
            return fn(u)
    return call


def cubic_a1_residual(u, prec: Precision = DEFAULT_PREC):
    """The closed delta must annihilate a1 = (1+u)/4 d^2 - u sqrt(2)/pi d + (u-1)/4."""
    with prec.ctx():
        um = as_mpf(u)
        d = _cubic_negative_point(um, prec)[3]
        return abs((1 + um) / 4 * d * d - um * mpmath.sqrt(2) / mpmath.pi * d + (um - 1) / 4)


# every public function of critical that reads u, quartic_smoothness_gap and
# cubic_a1_residual; s_tilde_radius_cubic is left out: it takes only an exact u
U_READERS = {
    "radius_p4": (lambda u: radius(4, u, PREC20), Fraction(1, 3)),
    "radius_p3": (lambda u: radius(3, u, PREC20), Fraction(1, 3)),
    "radius_p3_negative": (lambda u: radius(3, u, PREC20), Fraction(-1, 3)),
    "quartic_tau": (lambda u: quartic_tau(u, PREC20), Fraction(1, 3)),
    "quartic_critical_point": (lambda u: quartic_critical_point(u, PREC20), Fraction(1, 3)),
    "quartic_affine_rho": (_in_ctx(critical.quartic_affine_rho), Fraction(-1, 3)),
    "asymptotic_constant": (lambda u: critical.asymptotic_constant(4, u, PREC20),
                            Fraction(1, 3)),
    "cubic_delta_negative": (lambda u: critical.cubic_delta_negative(u, PREC20),
                             Fraction(-1, 3)),
    "cubic_rho_closed": (lambda u: cubic_rho_closed(u, PREC20), Fraction(-1, 3)),
    "s_tilde_characteristic": (lambda u: s_tilde_characteristic(u, PREC20), Fraction(1, 3)),
    "cubic_characteristic_positive": (
        lambda u: critical.cubic_characteristic_positive(u, PREC20), Fraction(1, 3)),
    "cubic_beta": (lambda u: cubic_beta(u, PREC20), Fraction(-1, 3)),
    "cubic_expansion_data": (lambda u: cubic_expansion_data(u, PREC20), Fraction(-1, 3)),
    "cubic_a1_residual": (lambda u: cubic_a1_residual(u, PREC20), Fraction(-1, 3)),
    "quartic_smoothness_gap": (lambda u: quartic_smoothness_gap(u, PREC20), Fraction(1, 3)),
}


@pytest.mark.parametrize("name", sorted(U_READERS))
def test_an_exact_u_reads_as_its_mpf(name):
    call, u = U_READERS[name]
    with PREC20.ctx():
        um = as_mpf(u)
    assert call(u) == call(um)


def test_root_refusals():
    from forestmaps.critical import _boundary_pair, _root

    with PREC20.ctx():
        # negative everywhere: the walk moves down 16 times, then refuses
        with pytest.raises(ValueError, match=r"^could not bracket the root: f keeps its sign "
                                             r"on s in \[-1.3107e\+5, -65535.0\] after 16 "
                                             r"steps$"):
            _root(lambda z, w: (-1 - z, None), PREC20)
        # the data comes from the evaluation at the root, and no point is
        # evaluated twice
        points = []

        def f(z, w):
            points.append(z)
            return mpf(1) / 3 - z, 2 * z

        z, s, residual, data = _root(f, PREC20)
        assert abs(z - mpf(1) / 3) < mpf("1e-16") and data == 2 * z
        assert residual == abs(mpf(1) / 3 - z) and z == _boundary_pair(s)[0]
        assert len(points) == len(set(points))
        # roots next to either end are solved relative to their distance
        # from it: w = e^-700 and z = 1e-300
        _, s, _, _ = _root(lambda z, w: (mpmath.log(w) + 700, None), PREC20)
        assert abs(_boundary_pair(s)[1] / mpmath.exp(-700) - 1) < mpf("1e-16")
        z, _, _, _ = _root(lambda z, w: (mpf(-300) - mpmath.log10(z), None), PREC20)
        assert abs(z / mpf("1e-300") - 1) < mpf("1e-16")
        # below a top, the walk starts at [top - 1, top], moves down only and
        # never evaluates above the top
        top = mpf(5)
        for root in (mpf("0.9"), mpf("0.99")):  # s = 2.2 and 4.6
            points = []

            def g(z, w):
                points.append(z)
                return root - z, None

            z, s, _, _ = _root(g, PREC20, top=top)
            assert abs(z - root) < mpf("1e-16") and s < top
            assert max(points) <= _boundary_pair(top)[0]
        with pytest.raises(ValueError, match="not bracketed"):
            _root(g, PREC20, top=mpf(1))  # g(top) > 0


def _log_flat(a, digits):
    """1 + a ln(b - x) with b = 1/27, log-flat at b like Phi' near 1/27; its
    root b - exp(-1/a) is exponentially close to b for small a.  The bracket
    ends 10^(8 - digits) relative below b."""
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

    prec = Precision(digits)
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
        assert abs(quartic_critical_point(mpf(-1), PREC)[0]
                   - mpmath.sqrt(3) / (12 * mpmath.pi)) < mpf("1e-45")
        assert abs(quartic_critical_point(mpf(0), PREC)[0] - mpf(1) / 27) < mpf("1e-45")
    prof = radius(4, 1, PREC)
    assert prof.residuals["char"] < 1e-12
    assert 0 < prof.tau < 1 / 27 and prof.rho < prof.tau
    assert prof.subexp_class == "n^{-5/2}"
    assert radius(4, -0.25, PREC).subexp_class == "n^{-3}ln^{-2}n"


def test_quartic_tau_approach_rate():
    # 1/27 - tau_u ~ exp(-2 pi (1 + 1/u)/sqrt(3)) as u -> 0+
    prec = Precision(120)
    with prec.ctx():
        tau, _, _ = quartic_tau(mpf("0.1"), prec)
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
    assert abs(radius(3, -1, Precision(20)).rho - float(mpmath.pi ** 2 / 384)) < 1e-17


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


@settings(max_examples=16, deadline=None)
@given(case=st.one_of(st.tuples(st.just(4), st.floats(-2, 300)),
                      st.tuples(st.just(3), st.floats(math.log10(0.02), 10))))
def test_tau_at_20_digits_matches_40(case):
    # u log-uniform, from critical points next to the boundary to ones
    # next to 0; radius refuses a tau whose residual misses its target
    p, exponent = case
    u = 10.0 ** exponent
    tau20 = radius(p, u, Precision(20)).tau
    assert abs(tau20 / radius(p, u, Precision(40)).tau - 1) <= 1e-15


def test_radius_refuses_a_profile_outside_floats():
    # rho ~ 1/(12 u^2) underflows a float from u ~ 1e154 on (p = 3), and
    # u = 1e400 overflows one; the profile would print 0.0 and Infinity
    for p, u in ((3, 10 ** 200), (4, 10 ** 400)):
        with pytest.raises(ValueError, match="outside the range of a float"):
            radius(p, u, PREC20)


def test_radius_profiles_are_not_shared():
    from forestmaps import critical

    radius(4, 0.5, PREC).residuals["char"] = 99
    assert radius(4, 0.5, PREC).residuals["char"] < 1e-12
    # the memoized cubic solve holds only numbers and (name, value) pairs
    prec = Precision(20)
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
    rho_t, _, _, _, res, _ = s_tilde_characteristic(1, PREC)
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
    prec = Precision(20)
    cont = s_tilde_radius_cubic(Fraction(3, 10), prec, series_order=8)
    assert seen == [Fraction(3, 10)]
    assert 0.0135 < cont["rho_tilde"] < 0.0145 and cont["residual"] < 1e-12
    with pytest.raises(TypeError):
        s_tilde_radius_cubic(0.3, prec, series_order=8)


@pytest.mark.parametrize("digits", [20, 50])
@pytest.mark.parametrize("u", [10, 100, 1000])
def test_s_tilde_radius_resolves_at_large_u(u, digits):
    # the radius lies far below the first bracket of the search, where the
    # truncated S~ exceeds 1/4; the default order is the CLI's
    cont = s_tilde_radius_cubic(u, Precision(digits))
    # the truncation bias of the series
    assert abs(cont["rho_tilde"] / cont["rho_tilde_closed"] - 1) < 0.03


@pytest.mark.parametrize("u,digits,passes", [
    (Fraction(1, 20), 20, False), (Fraction(1, 20), 50, False),
    (Fraction(1, 10), 20, False), (Fraction(1, 10), 50, True), (Fraction(4, 25), 20, True),
])
def test_s_tilde_residual_is_gated(u, digits, passes):
    # where the truncated series has not converged at the radius at these
    # digits, the residual of the crossing misses their target
    prec = Precision(digits)
    if passes:
        assert s_tilde_radius_cubic(u, prec)["residual"] <= prec.target_abs_tol
    else:
        with pytest.raises(ValueError, match="residual 's_tilde_radius'"):
            s_tilde_radius_cubic(u, prec)


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
