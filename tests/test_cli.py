"""Command-line interface: outputs, determinism, exit codes."""

import functools
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestmaps.cli import main
from forestmaps.exact import Q
from forestmaps.series import ZSeries
from forestmaps.upoly import UPoly


def run_cli(capsys, *argv):
    main(list(argv))
    out = capsys.readouterr().out
    return out


def test_coeffs_json(capsys):
    out = run_cli(capsys, "coeffs", "--p", "3", "--order", "4", "--u", "symbolic")
    doc = json.loads(out)
    f = doc["result"]["series"]["F"]
    assert f["coeffs"][3] == ["6", "4"]
    assert f["coeffs"][4] == ["140", "234", "144", "32"]


def test_coeffs_specialized(capsys):
    out = run_cli(capsys, "coeffs", "--p", "4", "--order", "5", "--u", "1/2",
                  "--series", "F,R")
    doc = json.loads(out)
    assert doc["result"]["series"]["R"]["coeffs"][2] == "3/2"


def test_byte_determinism(capsys):
    a = run_cli(capsys, "coeffs", "--p", "3", "--order", "4", "--u", "symbolic")
    b = run_cli(capsys, "coeffs", "--p", "3", "--order", "4", "--u", "symbolic")
    assert a == b


def test_oracle_compare(capsys):
    out = run_cli(capsys, "oracle", "--p", "4", "--faces", "3", "--compare",
                  "--dump-maps")
    doc = json.loads(out)["result"]
    assert doc["matches_solver"] is True
    assert doc["polynomial_in_u"] == ["2"]
    assert len(doc["maps"]) == 2


def test_verify_subset(capsys):
    out = run_cli(capsys, "verify", "--order", "10", "--de-order", "8",
                  "--only", "phi_second_order_ode,quartic_h")
    doc = json.loads(out)["result"]
    assert doc["all_zero"] is True
    assert {c["name"] for c in doc["checks"]} == {
        "phi_second_order_ode", "quartic_h"}


def test_radius_csv(capsys):
    out = run_cli(capsys, "--format", "csv", "radius", "--p", "4", "--u=-1,0")
    lines = out.strip().splitlines()
    assert lines[0] == "u,rho,tau,sigma,c_u"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == pytest.approx(0.0459440746, abs=1e-9)


def test_random_json(capsys):
    out = run_cli(capsys, "random", "--u", "1", "--k-max", "3", "--n-list", "50")
    doc = json.loads(out)["result"]
    assert doc["kappa"] == pytest.approx(0.564, abs=0.01)
    assert len(doc["size_law_limit"]) == 3


def test_mu_expand(capsys):
    out = run_cli(capsys, "mu-expand", "--p", "3", "--order", "6",
                  "--series", "R-z")
    doc = json.loads(out)["result"]
    assert doc["all_nonnegative"] is True
    assert doc["rows"][2]["mu_coeffs"] == ["2", "4"]


def test_exit_code_scale_guard(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--p", "3", "--faces", "6"])
    assert exc.value.code == 3


def test_exit_code_bad_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--p", "3", "--order", "70", "--u", "symbolic"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--p", "3", "--order", "4", "--u", "zzz"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("coeffs", "--p", "4", "--order", "61", "--u", "symbolic"),
    ("mu-expand", "--p", "4", "--order", "61", "--series", "F"),
    ("verify", "--order", "60", "--only", "cubic_rs_derivative_rational"),
    ("verify", "--de-order", "61", "--only", "quartic_h"),
], ids=" ".join)
def test_symbolic_order_limit_is_a_flag_error(capsys, argv):
    # the solver refuses symbolic u above order 60 once, for every command
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "error: symbolic u is limited to order 60 (cost grows quartically); "
        "specialize u for longer series\n")


@pytest.mark.parametrize("argv", [
    ("coeffs", "--p", "3", "--order", "61", "--u", "0", "--series", "G,H"),
    ("verify", "--u", "0", "--de-order", "61", "--only", "cubic_w,quartic_h"),
], ids=" ".join)
def test_u_zero_is_not_held_to_the_symbolic_order_limit(capsys, argv):
    main(list(argv))
    assert capsys.readouterr().err == ""


def test_exit_code_numeric(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asymptotics", "--mode", "log-probe", "--u=-1/2",
              "--fracs", "0.999", "--order", "400", "--tol", "1e-30"])
    assert exc.value.code == 4


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    main(["--output", str(path), "coeffs", "--p", "4", "--order", "3",
          "--u", "symbolic"])
    doc = json.loads(path.read_text())
    assert doc["result"]["series"]["F"]["coeffs"][3] == ["2"]


def test_radius_accepts_rationals(capsys):
    out = run_cli(capsys, "radius", "--p", "4", "--u", "1/3")
    (prof,) = json.loads(out)["result"]["profiles"]
    assert prof["u"] == 1 / 3 and prof["regime"] == "positive_u"


def test_radius_of_an_exact_u_matches_the_cli(capsys):
    from fractions import Fraction

    from forestmaps.critical import radius
    from forestmaps.hyp import Precision

    out = run_cli(capsys, "--digits", "50", "radius", "--p", "4", "--u", "1/3")
    (prof,) = json.loads(out)["result"]["profiles"]
    prec = Precision(50)
    assert abs(radius(4, Fraction(1, 3), prec).rho - prof["rho"]) <= prec.target_abs_tol


def test_one_residual_target_per_digits():
    # the acceptance suite, the library defaults and the command line gate
    # residuals alike at the same working digits
    from forestmaps import acceptance, cli
    from forestmaps.hyp import DEFAULT_PREC

    args = cli.build_parser().parse_args(["--digits", "50", "radius", "--p", "4", "--u", "1"])
    precs = (acceptance.PREC, DEFAULT_PREC, cli._precision(args))
    assert {prec.target_abs_tol for prec in precs} == {1e-23}


def test_s_tilde_residual_above_the_target_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--digits", "20", "radius", "--p", "3", "--u=0.05", "--s-tilde"])
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert "residual 's_tilde_radius'" in err and "--digits" in err


@pytest.mark.parametrize("argv", [
    ("radius", "--p", "4", "--u", "nan"),
    ("radius", "--p", "4", "--u", "inf"),
    ("radius", "--p", "4", "--u=-2"),
    ("--digits", "20", "asymptotics", "--mode", "ratios", "--p", "4", "--u=-2",
     "--n-list", "20,40,80"),
    ("random", "--u=-2"),
    ("asymptotics", "--mode", "log-probe", "--u=-2"),
    ("asymptotics", "--mode", "log-probe", "--u", "0"),
    ("asymptotics", "--mode", "beta-fit", "--u=-2"),
    ("asymptotics", "--mode", "beta-fit", "--u", "1/2"),
    ("radius", "--p", "3", "--u=0.5,-inf"),
    ("coeffs", "--p", "4", "--order", "3", "--u", "nan"),
    ("asymptotics", "--mode", "ratios", "--u", "inf"),
    ("random", "--u", "nan"),
], ids=" ".join)
def test_bad_u_is_a_flag_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "NaN" not in captured.out + captured.err


# unparsable entries of any comma-list flag
JUNK_TEXT = ["", "abc", "1.5e", "0x1", "-", "1/2", " ", "\u00bd"]
JUNK = st.sampled_from(JUNK_TEXT)
# (argv before the list, the list flag, a valid entry, an entry out of range)
LIST_FLAGS = [
    (("asymptotics", "--mode", "ratios", "--p", "4", "--u", "0"), "--n-list",
     st.integers(3, 500).map(str), st.integers(max_value=2).map(str)),
    (("random", "--u", "1"), "--n-list",
     st.integers(3, 500).map(str), st.integers(max_value=2).map(str)),
    (("asymptotics", "--mode", "log-probe", "--u=-1/2"), "--fracs",
     st.floats(0.01, 0.99).map(repr),
     st.floats(allow_nan=True).filter(lambda x: not 0 < x < 1).map(repr)),
    (("asymptotics", "--mode", "beta-fit", "--u=-1/2"), "--fracs",
     st.floats(0.01, 0.99).map(repr),
     st.floats(allow_nan=True).filter(lambda x: not 0 < x < 1).map(repr)),
    (("repro",), "--criteria",
     st.integers(1, 12).map(str), st.integers().filter(lambda n: not 1 <= n <= 12).map(str)),
]


@settings(max_examples=150, deadline=1000)
@given(case=st.sampled_from(LIST_FLAGS), data=st.data())
def test_bad_list_entries_are_flag_errors(case, data):
    import forestmaps.acceptance  # noqa: F401 (imported once, outside the deadline)

    head, flag, good, bad = case
    items = data.draw(st.lists(good, max_size=3))
    items.insert(data.draw(st.integers(0, len(items))), data.draw(bad | JUNK))
    text = ",".join(items) or ","  # an empty flag means "none" where allowed
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stdout(out), redirect_stderr(err):
        main([*head, "%s=%s" % (flag, text)])
    assert exc.value.code == 2
    assert out.getvalue() == "" and err.getvalue().startswith("error: " + flag)
    assert "Traceback" not in err.getvalue() and "NaN" not in err.getvalue()


INFINITE = st.sampled_from(["inf", "-inf", "nan"])
# (argv with {} for the value, values out of the flag's range); "--" is no
# value of any flag, and text that is no number is a parse error.  The list
# flags, whose junk entries test_bad_list_entries_are_flag_errors draws, only
# take "--" here.
NUMERIC_FLAGS = [
    (("--digits={}", "radius", "--p", "3", "--u", "1"), st.integers(max_value=11)),
    (("random", "--u", "1", "--k-max={}"), st.integers(max_value=0)),
    (("coeffs", "--p", "3", "--order={}"), st.integers(max_value=2)),
    (("coeffs", "--p", "3", "--series", "R,S", "--order={}"), st.integers(max_value=0)),
    (("coeffs", "--order", "4", "--p={}"), st.integers(max_value=2)),
    (("mu-expand", "--order={}"), st.integers(max_value=0)),
    (("mu-expand", "--series", "F", "--order={}"), st.integers(max_value=2)),
    (("mu-expand", "--p={}"), st.integers(max_value=2)),
    (("verify", "--order={}"), st.integers(max_value=1)),
    (("verify", "--de-order={}"), st.integers(max_value=3)),
    (("oracle", "--p", "3", "--faces={}"), st.integers(max_value=2)),
    (("oracle", "--faces", "3", "--p={}"), st.integers(max_value=2)),
    (("radius", "--u", "1", "--p={}"), st.integers().filter(lambda p: p not in (3, 4))),
    (("asymptotics", "--mode", "ratios", "--u", "1", "--p={}"),
     st.integers().filter(lambda p: p != 4)),
    (("asymptotics", "--mode", "log-probe", "--u=-1/2", "--tol={}"),
     st.floats(max_value=0).map(repr) | INFINITE),
    (("asymptotics", "--mode", "log-probe", "--u=-1/2", "--order={}"),
     st.integers(max_value=150)),
    (("asymptotics", "--mode", "beta-fit", "--u=-1/2", "--order={}"),
     st.integers(max_value=118)),
    (("asymptotics", "--mode", "ratios", "--u", "0", "--n-list={}"), None),
    (("asymptotics", "--mode", "log-probe", "--u=-1/2", "--fracs={}"), None),
    (("random", "--u", "1", "--n-list={}"), None),
    (("repro", "--criteria={}"), None),
]


@settings(max_examples=200, deadline=1000)
@given(case=st.sampled_from(NUMERIC_FLAGS), data=st.data())
def test_out_of_range_numbers_are_flag_errors(case, data):
    import forestmaps.acceptance  # noqa: F401 (imported once, outside the deadline)

    template, bad = case
    value = data.draw(st.just("--") if bad is None else bad.map(str) | st.just("--") | JUNK)
    argv = [arg.format(value) for arg in template]
    flag = next(arg for arg in template if "{}" in arg).split("=")[0]
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stdout(out), redirect_stderr(err):
        main(argv)
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue() and "NaN" not in err.getvalue()
    # argparse refuses what is no number; the range checks name the flag
    assert err.getvalue().startswith(("error: " + flag, "usage: "))


@pytest.mark.parametrize("value", JUNK_TEXT + ["11", "0", "-50", "12.5", "inf", "nan", "--"])
def test_bad_digits_variable_is_a_flag_error(capsys, monkeypatch, value):
    monkeypatch.setenv("FORESTMAPS_DIGITS", value)
    with pytest.raises(SystemExit) as exc:
        main(["radius", "--p", "4", "--u", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FORESTMAPS_DIGITS: cannot use ")


@pytest.mark.parametrize("argv", [
    ("radius", "--p", "4", "--u", "1", "--s-tilde"),
    ("radius", "--p", "3", "--u=1,0", "--s-tilde"),
    ("radius", "--p", "3", "--u=-1/2", "--s-tilde"),
], ids=" ".join)
def test_s_tilde_is_refused_before_any_radius(capsys, monkeypatch, argv):
    from forestmaps import critical

    calls = []
    monkeypatch.setattr(critical, "radius", lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2 and calls == []
    assert "--s-tilde applies to p=3 with u > 0" in capsys.readouterr().err


def test_random_builds_the_finite_n_series_once(capsys, monkeypatch):
    from forestmaps import fast, randmodel

    argv = ("random", "--u=91/43", "--k-max", "1", "--n-list", "40,80")
    # the bundle the finite-n readers build on their own
    alone = {"finite_n": randmodel.finite_n_expectations(Q(91, 43), [40, 80]),
             "root_size": randmodel.finite_n_root_size(Q(91, 43), 80, 1)}
    calls = []

    def spy(u, order, _build=fast.quartic_series):
        calls.append((u, order))
        return _build(u, order)

    for module in (fast, randmodel):
        monkeypatch.setattr(module, "quartic_series", spy)
    doc = json.loads(run_cli(capsys, *argv))["result"]
    assert calls == [(Q(91, 43), 80)]
    assert doc["size_law_finite_n"]["values"] == alone["root_size"]
    assert [r["E_active_over_n"] for r in doc["finite_n"]] == [
        r["E_active_over_n"] for r in alone["finite_n"]]


@pytest.mark.parametrize("argv, builds", [
    pytest.param(argv, builds, id=" ".join(argv)) for argv, builds in (
        (("asymptotics", "--mode", "log-probe", "--u=-1/2"), 0),
        (("asymptotics", "--mode", "ratios", "--p", "4", "--u=53/91", "--n-list", "40,80"), 0),
        (("random", "--u=91/43", "--k-max", "1", "--n-list", "40,80"), 1),
    )
])
def test_fzu_is_built_only_where_it_is_read(capsys, monkeypatch, argv, builds):
    # imported first, so that the spy replaces the name each of them binds
    from forestmaps import asymptotics, fast, randmodel  # noqa: F401

    calls = []
    build = fast.quartic_fzu

    @functools.wraps(build)
    def spy(*args):
        calls.append(args)
        return build(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("forestmaps.") and vars(module).get("quartic_fzu") is build:
            monkeypatch.setattr(module, "quartic_fzu", spy)
    run_cli(capsys, *argv)
    assert len(calls) == builds


def test_cubic_radius_at_minus_one_resolves_at_100_digits(capsys):
    import mpmath

    out = run_cli(capsys, "--digits", "100", "radius", "--p", "3", "--u=-1")
    (prof,) = json.loads(out)["result"]["profiles"]
    assert prof["residuals"]["rho_vs_phi1"] <= 1e-48
    assert prof["rho"] == float(mpmath.pi ** 2 / 384)


def test_radius_keeps_an_exact_u_exact(capsys, monkeypatch):
    from forestmaps import critical
    from forestmaps.hyp import Precision

    monkeypatch.setattr(critical, "_SOLVES", {})
    out = run_cli(capsys, "--digits", "50", "radius", "--p", "4", "--u=1/3")
    (prof,) = json.loads(out)["result"]["profiles"]
    exact = critical.radius(4, Fraction(1, 3), Precision(50))
    assert prof == {name: getattr(exact, name) for name in prof}


# tau ~ 1/(6u) at u = 1e10 and ~ 1/(12u^2) at u = 1e5: 20 digits print all
# the digits of 30 only if the searches stop relative to tau
@pytest.mark.parametrize("p,u", [("3", "0.3"), ("4", "1e10"), ("3", "1e5")])
def test_radius_at_20_digits_matches_30(capsys, p, u):
    rhos = [json.loads(run_cli(capsys, "--digits", d, "radius", "--p", p,
                               "--u", u))["result"]["profiles"][0]["rho"]
            for d in ("20", "30")]
    assert rhos[0] == rhos[1]


# c_u ~ 7.8e-3/u^3 falls below the normal floats from about u = 1e102 on
@pytest.mark.parametrize("u,c_u", [("1e300", None), ("1e10", 7.835966434898296e-33)])
def test_quartic_c_u_is_null_below_the_normal_floats(capsys, u, c_u):
    out = run_cli(capsys, "--digits", "20", "radius", "--p", "4", "--u", u)
    assert json.loads(out)["result"]["profiles"][0]["c_u"] == c_u


# critical points exponentially close to the boundary (small u) or to 0
# (large u): 1 - 27 tau is 2e-158 at u = 0.01, and tau ~ 1/(6u)
RESOLVED = ([("--digits", "20", "radius", "--p", "4", "--u", u)
             for u in ("0.005", "0.01", "0.05", "0.1", "1e10", "1e30", "1e300")]
            + [("--digits", "20", "radius", "--p", "3", "--u", u)
               for u in ("0.02", "0.05", "0.1", "0.16", "1e5", "1e10")]
            + [("radius", "--p", "4", "--u", "1e300")])


@pytest.mark.parametrize("argv", RESOLVED, ids=" ".join)
def test_radius_near_either_end_matches_120_digits(capsys, argv):
    from forestmaps.critical import radius
    from forestmaps.hyp import Precision

    (prof,) = json.loads(run_cli(capsys, *argv))["result"]["profiles"]
    p, u = int(argv[-3]), Fraction(argv[-1])
    ref = radius(p, u, Precision(120))
    for name in ("rho", "tau"):
        assert abs(prof[name] / getattr(ref, name) - 1) <= 1e-15, name


@pytest.mark.parametrize("p,u", [(3, "symbolic"), (3, "0"), (3, "3/7"), (4, "symbolic"),
                                 (4, "1"), (5, "-2/5")])
def test_coeffs_builds_each_series_as_solve_does(capsys, p, u):
    from forestmaps.solver import solve

    out = solve(p, 6, None if u == "symbolic" else Q(Fraction(u)))
    table = {"F": out.F, "Fprime": out.Fprime, "R": out.R, "S": out.S,
             "Stilde": out.S_tilde, "H": out.H}
    if p == 3:
        table["G"] = out.G
    for name, ser in table.items():
        doc = json.loads(run_cli(capsys, "coeffs", "--p", str(p), "--order", "6",
                                 "--u=" + u, "--series", name))
        assert doc["result"]["series"] == {name: ser.to_json()}


@pytest.mark.parametrize("p", [3, 4, 5])
def test_mu_expand_matches_solve(capsys, p):
    from forestmaps.solver import solve

    out = solve(p, 6)
    table = {"R-z": (out.R - ZSeries.z(6, UPoly(), UPoly((1,)))).divide_by_u(),
             "S": out.S.divide_by_u(),
             "Stilde": out.S_tilde.divide_by_u() if p % 2 else out.S_tilde,
             "F": out.F}
    for name, ser in table.items():
        doc = json.loads(run_cli(capsys, "mu-expand", "--p", str(p), "--order", "6",
                                 "--series", name))
        assert [r["mu_coeffs"] for r in doc["result"]["rows"]] == \
            [c.to_strs() for c in ser.to_mu().coeffs]


@pytest.mark.parametrize("argv,message", [
    (["coeffs", "--p", "4", "--series", "F,G"], "unknown series 'G' (choose from F,Fprime,H,R,S,Stilde)"),
    (["coeffs", "--p", "3", "--series", "R,X"], "unknown series 'X' (choose from F,Fprime,G,H,R,S,Stilde)"),
    (["mu-expand", "--p", "3", "--series", "G"], "unknown series 'G' for mu expansion"),
])
def test_series_names_are_checked_before_any_solve(capsys, monkeypatch, argv, message):
    from forestmaps import solver

    def refuse(*args, **kwargs):
        raise AssertionError("solved before the series names were checked")

    for name in ("solve", "solve_rs", "solve_s_tilde", "series_f", "series_g", "series_h"):
        monkeypatch.setattr(solver, name, refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--order", "6"] + argv[1:])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def _heavy_imports(*steps):
    """Run the steps in order in one fresh interpreter; after each, the
    sorted list of numpy and mpmath, as far as they are imported by then."""
    report = "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'mpmath'}))"
    code = "\n".join(["import sys"] + [line for step in steps for line in (step, report)])
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_symbolic_commands_do_not_import_numpy(tmp_path):
    # the symbolic path runs on UPoly alone and the rational sweep on Python
    # ints, not through fast.py; numpy would add ~10 MB of RSS and mpmath,
    # which only the numerics need, ~50 ms of start-up
    commands = "\n".join([
        "from forestmaps import cli",
        "for argv in (['coeffs', '--p', '3', '--order', '6', '--u', 'symbolic',",
        "              '--series', 'F,G,H,Stilde'],",
        "             ['coeffs', '--p', '3', '--order', '8', '--u=3/7',",
        "              '--series', 'F,R,S,G,H'],",
        "             ['coeffs', '--p', '4', '--order', '8', '--u=-5/9', '--series', 'F,H'],",
        "             ['mu-expand', '--p', '3', '--order', '6'],",
        "             ['verify', '--only', 'cubic_w', '--de-order', '6'],",
        "             ['oracle', '--p', '3', '--faces', '3', '--compare']):",
        "    cli.main(['--output', %r] + argv)" % str(tmp_path / "out.json"),
    ])
    assert _heavy_imports("import forestmaps", commands) == ["[]", "[]"]


def test_exact_engines_do_not_import_numpy(tmp_path):
    # the exact fast.py engines run on lists of Python ints; only their
    # float64 twins need numpy
    engines = "\n".join([
        "from fractions import Fraction",
        "from forestmaps import fast",
        "for u in (Fraction(47, 89), Fraction(-53, 91), 0):",
        "    fast.cubic_rs_coeffs(u, 12), fast.cubic_fprime_coeffs(u, 12)",
        "    fast.quartic_r_coeffs(u, 12), fast.quartic_series(u, 12)",
    ])
    random = ("from forestmaps import cli\n"
              "cli.main(['--output', %r, 'random', '--u=91/43', '--k-max', '1', "
              "'--n-list', '40,80'])" % str(tmp_path / "out.json"))
    assert _heavy_imports(engines, random) == ["[]", "['mpmath']"]


SOLVERS = ("quartic_tau", "s_tilde_characteristic", "cubic_characteristic_positive")


@pytest.fixture
def solves(monkeypatch):
    """Solves of each critical-point solver from an empty memo on; a spy
    replaces each solver in every module that binds it."""
    from forestmaps import critical

    monkeypatch.setattr(critical, "_SOLVES", {})
    counts = dict.fromkeys(SOLVERS, 0)
    modules = [m for name, m in sys.modules.items() if name.startswith("forestmaps.")]
    for name in SOLVERS:
        solver = getattr(critical, name)

        @functools.wraps(solver)
        def spy(*args, _solver=solver, _name=name):
            counts[_name] += 1
            return _solver(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is solver:
                    monkeypatch.setattr(module, attr, spy)
    return counts


@pytest.mark.parametrize("argv, solver", [
    (("random", "--u=67/100", "--k-max", "2", "--n-list", ""), "quartic_tau"),
    (("asymptotics", "--mode", "ratios", "--p", "4", "--u=53/91", "--n-list", "40,80"),
     "quartic_tau"),
    # the count does not depend on the digits; 20 halve the time of 50
    (("--digits", "20", "radius", "--p", "3", "--u", "1", "--s-tilde"),
     "s_tilde_characteristic"),
])
def test_each_critical_point_is_solved_once(capsys, solves, argv, solver):
    run_cli(capsys, *argv)
    assert solves[solver] == 1


@pytest.mark.parametrize("argv", [
    ("--digits", "20", "radius", "--p", "3", "--u=-1,0,1.5"),
    ("--digits", "20", "radius", "--p", "4", "--u=-1,0,1/2"),
    ("--digits", "20", "random", "--u=67/100", "--k-max", "2", "--n-list", ""),
    ("--digits", "20", "asymptotics", "--mode", "ratios", "--p", "4", "--u=53/91",
     "--n-list", "40,80"),
])
def test_warm_memo_prints_what_a_cold_one_does(capsys, monkeypatch, argv):
    from forestmaps import critical

    def run():
        main(list(argv))
        return capsys.readouterr()

    monkeypatch.setattr(critical, "_SOLVES", {})
    cold = run()
    warm = run()
    critical._SOLVES.clear()
    assert warm == cold == run()
