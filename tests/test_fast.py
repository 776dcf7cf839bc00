"""High-order engines against the sweep solver and each other."""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestmaps.exact import Q, exact_div, scaled, unscaled
from forestmaps.fast import (
    _cubic_fprime,
    _cubic_rs,
    _div,
    _quartic_bundle,
    _quartic_r,
    cubic_fprime_coeffs,
    cubic_fprime_float,
    cubic_rs_coeffs,
    quartic_fseries_float,
    quartic_r_coeffs,
    quartic_series,
)
from forestmaps.series import ZSeries
from forestmaps.solver import series_f, solve_rs
from forestmaps.trees import phi_theta_tables
from forestmaps.upoly import UPoly


@pytest.mark.parametrize("u", [Q(1), Q(-1, 2), Q(7, 5)])
def test_quartic_recurrence_matches_sweep(u):
    R = quartic_r_coeffs(u, 14)
    Rs, _ = solve_rs(4, 14, u)
    assert all(R[i] == Rs.coeff(i) for i in range(15))


@pytest.mark.parametrize("u", [Q(1), Q(-1, 2), Q(3)])
def test_cubic_recurrence_matches_sweep(u):
    R, S = cubic_rs_coeffs(u, 12)
    Rs, Ss = solve_rs(3, 12, u)
    assert all(R[i] == Rs.coeff(i) for i in range(13))
    assert all(S[i] == Ss.coeff(i) for i in range(13))


def test_quartic_bundle_matches_solver():
    u = Q(-1, 2)
    ser = quartic_series(u, 12)
    f, fp = series_f(4, 12, u)
    assert all(ser["f"][i] == f.coeff(i) for i in range(13))
    assert all(ser["fprime"][i] == fp.coeff(i) for i in range(12))


def test_quartic_fzu_matches_symbolic_derivative():
    # d/du of the symbolic coefficients, specialized, is the second route
    fp = series_f(4, 10)[1]
    dudiff = fp.map_coeffs(
        lambda c: UPoly([c.coeffs[k] * k for k in range(1, len(c.coeffs))])
        if c.coeffs else c
    )
    for u in (Q(1), Q(2, 3)):
        fzu = quartic_series(u, 11)["fzu"]
        spec = dudiff.specialize_u(u)
        assert all(spec.coeff(i) == fzu[i] for i in range(10))


def test_cubic_fprime_matches_solver():
    u = Q(1)
    fpl = cubic_fprime_coeffs(u, 12)
    _, fp = series_f(3, 12, u)
    assert all(fpl[i] == fp.coeff(i) for i in range(12))


def test_u_zero_paths():
    R = quartic_r_coeffs(Q(0), 8)
    assert R[1] == 1 and all(R[i] == 0 for i in (0, 2, 3, 4))
    ser = quartic_series(Q(0), 8)
    f0, _ = series_f(4, 8, 0)
    assert all(ser["f"][i] == f0.coeff(i) for i in range(9))
    fpl = cubic_fprime_coeffs(Q(0), 8)
    _, fp0 = series_f(3, 8, 0)
    assert all(fpl[i] == fp0.coeff(i) for i in range(9))


def _spectral_compare(float_arr, exact_list, scale, lo, hi):
    worst = 0.0
    for i in range(lo, hi):
        ex = float(Q(exact_list[i])) * scale ** i
        if ex:
            worst = max(worst, abs(float_arr[i] - ex) / abs(ex))
    return worst


def test_float_engines_track_exact_prefix():
    s = 0.0414
    bun = quartic_fseries_float(-0.5, 80, s)
    fe = quartic_series(Q(-1, 2), 80)
    assert _spectral_compare(bun["R"], fe["R"], s, 1, 81) < 1e-11
    assert _spectral_compare(bun["fprime"], fe["fprime"], s, 3, 79) < 1e-10
    s3 = 0.02
    Rf, Sf = _cubic_rs(-0.5, 1.0, 60, s3)
    Re, Se = cubic_rs_coeffs(Q(-1, 2), 60)
    assert _spectral_compare(Rf, Re, s3, 1, 61) < 1e-11
    assert _spectral_compare(Sf, Se, s3, 1, 61) < 1e-11
    fpf = cubic_fprime_float(-0.5, 60, s3)
    fpe = cubic_fprime_coeffs(Q(-1, 2), 60)
    assert _spectral_compare(fpf, fpe, s3, 2, 61) < 1e-10


def test_float_engines_refuse_non_finite_coefficients():
    # a scale past the radius overflows float64: 2539 entries of each
    # quartic array and 3764 cubic ones would come back NaN
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="order 4000 and scale 0.05"):
            quartic_fseries_float(0.7, 4000, 0.05)
        with pytest.raises(ValueError, match="order 4000 and scale 0.2"):
            cubic_fprime_float(0.7, 4000, 0.2)


@st.composite
def small_rationals(draw):
    """u = a/b with b <= 99 and -b <= a <= 3b, i.e. u in [-1, 3]."""
    b = draw(st.integers(1, 99))
    return Q(draw(st.integers(-b, 3 * b)), b)


@settings(max_examples=6, deadline=None)
@given(u=small_rationals())
def test_one_recurrence_serves_both_fields(u):
    # exact field: the sweep solver is the independent route
    R4 = quartic_r_coeffs(u, 10)
    Rs4, _ = solve_rs(4, 10, u)
    assert R4 == [Rs4.coeff(i) for i in range(11)]
    R3, S3 = cubic_rs_coeffs(u, 10)
    Rs3, Ss3 = solve_rs(3, 10, u)
    assert R3 == [Rs3.coeff(i) for i in range(11)]
    assert S3 == [Ss3.coeff(i) for i in range(11)]
    # float64 field: the same recurrences on float(u) track the exact values
    s, s3 = 0.0414, 0.02
    assert _spectral_compare(_quartic_r(float(u), 1.0, 40, s), quartic_r_coeffs(u, 40), s, 1, 41) < 1e-11
    Rf, Sf = _cubic_rs(float(u), 1.0, 40, s3)
    Re, Se = cubic_rs_coeffs(u, 40)
    assert _spectral_compare(Rf, Re, s3, 1, 41) < 1e-11
    assert _spectral_compare(Sf, Se, s3, 1, 41) < 1e-11


# -- the integer engines: every value against the symbolic sweep, specialized


def _du(c):
    """d/du of a coefficient of the symbolic sweep."""
    return UPoly([c.coeffs[k] * k for k in range(1, len(c.coeffs))]) if c.coeffs else c


@cache
def _symbolic_sweep():
    """The sweep solver at symbolic u: p = 4 through z^11, p = 3 through
    z^10, with W = (R - z)/u, V = Phi'(R) and F''_zu = d/du F'."""
    R4, S4 = solve_rs(4, 11)
    F4, Fp4 = series_f(4, 11, rs=(R4, S4))
    phi = phi_theta_tables(4, 11)["phi_x"]
    z = ZSeries.z(11, UPoly(), UPoly((1,)))
    R3, S3 = solve_rs(3, 10)
    _, Fp3 = series_f(3, 10, rs=(R3, S3))
    return {
        4: {
            "R": R4,
            "W": (R4 - z).divide_by_u(),
            "V": R4.compose_outer([k * phi[k] for k in range(1, len(phi))]),
            "fprime": Fp4,
            "f": F4,
            "fzu": Fp4.map_coeffs(_du),
        },
        3: {"R": R3, "S": S3, "fprime": Fp3},
    }


def _check_integer_engines(u):
    sweep = _symbolic_sweep()
    got = {4: quartic_series(u, 11), 3: dict(zip("RS", cubic_rs_coeffs(u, 10)))}
    got[3]["fprime"] = cubic_fprime_coeffs(u, 10)
    assert quartic_r_coeffs(u, 11) == got[4]["R"]
    for p, names in ((4, ("R", "W", "V", "fprime", "f", "fzu")), (3, ("R", "S", "fprime"))):
        for name in names:
            values = got[p][name]
            ref = sweep[p][name].specialize_u(u)
            assert values[:10] == [ref.coeff(i) for i in range(10)], (p, name)
            assert all(type(x) is type(Q(1)) for x in values), (p, name)


@pytest.mark.parametrize("u", [Q(0), Q(-1), Q(1), Q(5), Q(-1, 2)])
def test_integer_engines_match_sweep(u):
    _check_integer_engines(u)


@settings(max_examples=25, deadline=None)
@given(a=st.integers(-10**6, 10**6), b=st.integers(1, 10**6))
def test_integer_engines_match_sweep_at_large_denominators(a, b):
    _check_integer_engines(Q(a, b))


def test_exact_division_checks_the_remainder():
    assert exact_div(-91, 7) == -13 and exact_div(2**80, -2**78) == -4
    for x, d in ((7, 2), (-7, 2), (1, 2**80)):
        with pytest.raises(ArithmeticError):
            exact_div(x, d)
    assert scaled([Q(1), Q(-1, 3), Q(5, 9)], 3) == [1, -1, 5]
    assert unscaled([1, -1, 5], 3) == [1, Q(-1, 3), Q(5, 9)]
    with pytest.raises(ArithmeticError):
        scaled([Q(1), Q(1, 2)], 3)
    # the engines' scalar division passes ints on to exact_div
    assert _div(-91, 7) == -13
    with pytest.raises(ArithmeticError):
        _div(7, 2)
    # floats divide as they are
    assert _div(1.0, 3) == 1.0 / 3 and _div(np.ones(2), 4)[1] == 0.25


def test_corrupted_operand_is_refused():
    a, b = 47, 89
    R = _quartic_r(a, b, 20, b)
    assert type(R) is list and all(type(x) is int for x in R)
    _quartic_bundle(R, a, b, b)
    R[7] += 1
    with pytest.raises(ArithmeticError):
        _quartic_bundle(R, a, b, b)
    R3, S3 = _cubic_rs(a, b, 20, b * b)
    assert type(S3) is list
    S3[5] += 1
    with pytest.raises(ArithmeticError):
        _cubic_fprime(R3, S3, a, b, b * b)
