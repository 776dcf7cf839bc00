"""Tests of the benchmark's own parts: every check passes on a known-good
value and fails when one value is perturbed; inputs follow the seed; the
tracer wraps every binding and restores them.

    python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Coefficients printed in the paper and spanning-tree counts at u = 0.
F3 = [[], [], [], ["6", "4"], ["140", "234", "144", "32"]]
F4_U0 = {3: 2, 4: 20, 5: 252, 6: 3696}


def test_strict_loads_refuses_non_finite():
    assert checks.strict_loads('{"rho": 0.5}') == {"rho": 0.5}
    for bad in ('{"rho": NaN}', '{"rho": Infinity}', '{"rho": -Infinity}'):
        with pytest.raises(ValueError):
            checks.strict_loads(bad)


def test_printed_cubic():
    assert checks.check_printed_cubic(F3) == []
    assert checks.check_printed_cubic(F3[:3] + [["6", "5"]] + F3[4:])
    assert checks.check_printed_cubic(F3[:4] + [["140", "234", "144", "33"]])


def test_u0_closed_form():
    F4 = [[], [], []] + [[str(F4_U0[n]), "1"] for n in range(3, 7)]
    assert checks.check_u0_closed_form(4, F4) == []
    assert checks.check_u0_closed_form(3, F3) == []
    F4[5] = ["253", "1"]
    assert checks.check_u0_closed_form(4, F4)


def test_mu_substitution():
    # 6 + 4u = 2 + 4 mu, and back
    assert checks.shift_poly([Fraction(6), Fraction(4)], -1) == [2, 4]
    assert checks.shift_poly([Fraction(2), Fraction(4)], 1) == [6, 4]
    assert checks.check_mu_nonneg("F", F3) == []
    assert checks.check_mu_nonneg("F", F3[:3] + [["6", "7"]])  # -1 + 7 mu


def test_mu_rows():
    rows = [{"z_power": 3, "mu_coeffs": ["2", "4"]}]
    assert checks.check_mu_rows("F", rows, F3) == []
    assert checks.check_mu_rows("F", [{"z_power": 3, "mu_coeffs": ["3", "4"]}], F3)
    assert checks.check_mu_rows("F", [{"z_power": 3, "mu_coeffs": ["-2", "10"]}],
                                [[], [], [], ["8", "10"]])


def test_r_minus_z_over_u():
    R = [[], ["1"], ["0", "2"], ["0", "3", "5"]]
    assert checks.r_minus_z_over_u(R) == [[], [], ["2"], ["3", "5"]]
    with pytest.raises(ValueError):
        checks.r_minus_z_over_u([[], ["1"], ["1", "2"]])


def test_oracle():
    good = {"n_faces": 3, "polynomial_in_u": ["6", "4"], "matches_solver": True}
    assert checks.check_oracle("o", good, F3) == []
    assert checks.check_oracle("o", dict(good, polynomial_in_u=["6", "3"]), F3)
    assert checks.check_oracle("o", dict(good, matches_solver=False), F3)


def test_residuals():
    good = {"all_zero": True, "checks": [{"name": "cubic_w", "zero_residual": True}]}
    assert checks.check_residuals("v", good, ["cubic_w"]) == []
    assert checks.check_residuals("v", good, ["cubic_w", "quartic_h"])
    bad = {"all_zero": True, "checks": [{"name": "cubic_w", "zero_residual": False}]}
    assert checks.check_residuals("v", bad, ["cubic_w"])
    assert checks.check_residuals("v", dict(good, all_zero=False), ["cubic_w"])


def test_positive_integral():
    # p = 3, u = 47/83: [z^3]F = 686/83 and [z^4]F = 185539706/83^3
    F = ["0", "0", "0", "686/83", "185539706/571787"]
    u = Fraction(47, 83)
    assert checks.check_positive_integral("F", 3, u, F) == []
    assert checks.check_positive_integral("F", 3, u, F[:3] + ["686/89", F[4]])
    assert checks.check_positive_integral("F", 3, u, F[:3] + ["-686/83", F[4]])
    assert checks.check_positive_integral("F", 4, Fraction(-59, 86), ["0", "0", "0", "2"]) == []


def test_prefix():
    assert checks.check_prefix("R", ["0", "1", "3/2"], [0, 1, Fraction(3, 2), 7]) == []
    assert checks.check_prefix("R", ["0", "1", "3/2"], [0, 1, Fraction(5, 2)])
    assert checks.f_from_fprime([0, 0, 6]) == [0, 0, 0, 2]


def test_ratios():
    rows = [{"n": 40, "ratio": 1.86}, {"n": 80, "ratio": 1.6}, {"n": 120, "ratio": 1.49}]
    assert checks.check_ratios(rows, (40, 80, 120)) == []
    assert checks.check_ratios_approach(rows) == []
    assert checks.check_ratios_approach(rows[:2] + [{"n": 120, "ratio": 1.7}])
    assert checks.check_ratios(rows, (40, 80, 160))
    assert checks.check_ratios(rows[:2] + [{"n": 120, "ratio": -1.0}], (40, 80, 120))


def test_finite_n_kappa_size_law():
    res = {"kappa": 0.72, "size_law_limit": [0.28],
           "finite_n": [{"n": 40, "E_components": "23/2", "E_active_over_n": 0.62}]}
    assert checks.check_finite_n(res, (40,)) == []
    assert checks.check_kappa(res) == [] and checks.check_size_law(res) == []
    assert checks.check_finite_n(dict(res, finite_n=[dict(res["finite_n"][0],
                                                          E_active_over_n=1.2)]), (40,))
    assert checks.check_finite_n(res, (40, 80))
    assert checks.check_kappa(dict(res, kappa=1.5))
    assert checks.check_size_law(dict(res, size_law_limit=[0.7, 0.4]))


def _profiles(rhos, regimes):
    return [{"rho": r, "regime": g} for r, g in zip(rhos, regimes)]


def test_radii():
    grid = ["-1", "-0.5", "0", "0.5"]
    rhos = [checks.CLOSED_RADII[(4, "-1")], 0.0415, 1 / 27, 0.03]
    regimes = ["negative_u", "negative_u", "zero_u", "positive_u"]
    assert checks.check_radii(4, grid, _profiles(rhos, regimes)) == []
    assert checks.check_radii(4, grid, _profiles([rhos[0] + 2e-6] + rhos[1:], regimes))
    assert checks.check_radii(4, grid, _profiles(rhos[:3] + [0.04], regimes))
    assert checks.check_radii(4, grid, _profiles(rhos, regimes[:3] + ["zero_u"]))
    assert checks.check_radii(4, grid, _profiles(rhos[:3], regimes))


def test_log_probe():
    rows = [{"z_frac": 0.9, "deviation": 0.7, "tail_bound": 1e-190},
            {"z_frac": 0.99, "deviation": 0.54, "tail_bound": 1e-21},
            {"z_frac": 0.995, "deviation": 0.51, "tail_bound": 1e-11}]
    fracs = (0.9, 0.99, 0.995)
    assert checks.check_log_probe({"rows": rows}, fracs, 1e-6) == []
    assert checks.check_log_probe({"rows": rows[:2] + [dict(rows[2], deviation=0.6)]},
                                  fracs, 1e-6)
    assert checks.check_log_probe({"rows": rows[:2] + [dict(rows[2], tail_bound=2e-6)]},
                                  fracs, 1e-6)


def test_beta_fit():
    rows = [{"z_frac": 0.9, "beta_pointwise": -12.6},
            {"z_frac": 0.99, "beta_pointwise": -13.1},
            {"z_frac": 0.999, "beta_pointwise": -13.3}]
    fracs = (0.9, 0.99, 0.999)
    assert checks.check_beta_fit({"beta_closed": -15.2, "beta_rows": rows}, fracs) == []
    assert checks.check_beta_fit({"beta_closed": -15.2,
                                  "beta_rows": rows[:2] + [dict(rows[2], beta_pointwise=-12.0)]},
                                 fracs)


def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS:
        a, b = workloads.build_round(w, 7, 1), workloads.build_round(w, 7, 1)
        assert a == b
        assert {t.name for t in a.tasks} == {t.name for t in workloads.build_round(w, 8, 0).tasks}
    u = workloads.build_round("specialized", 7, 1).params
    assert u != workloads.build_round("specialized", 7, 2).params
    for key in ("cubic_pos", "ratios"):
        assert 40 <= u[key].numerator <= 59 and 80 <= u[key].denominator <= 99
    for key in ("cubic_neg", "quartic_neg"):
        assert -59 <= u[key].numerator <= -40 and 80 <= u[key].denominator <= 99
    grid = workloads.build_round("numeric", 7, 1).params["grid3"]
    assert grid[0] == "-1" and grid[2] == "0" and 1.2 <= float(grid[3]) <= 1.8


def test_tracer_wraps_every_binding_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    from forestmaps import critical, fast, hyp

    original = critical.psi_numeric
    t = tracer.Tracer()
    t.install()
    try:
        assert critical.psi_numeric is hyp.psi_numeric is not original
        fast.quartic_series(Fraction(1, 2), 6)
    finally:
        t.uninstall()
    assert critical.psi_numeric is original is hyp.psi_numeric
    stats = t.snapshot()["stats"]
    assert stats["fast.quartic_series.calls"] == 1
    assert stats["fast.quartic_r_coeffs.calls"] == 1
    assert stats["fast.conv_trunc.calls"] >= 1
    assert 0 <= stats["fast.quartic_series.self_s"]
    assert "forestmaps.critical.psi_numeric" in t.snapshot()["bindings"]["hyp.psi_numeric"]
