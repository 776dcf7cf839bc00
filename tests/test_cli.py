"""Command-line interface: outputs, determinism, exit codes."""

import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
    prec = Precision(50, 1e-23)
    assert abs(radius(4, Fraction(1, 3), prec).rho - prof["rho"]) <= prec.target_abs_tol


@pytest.mark.parametrize("argv", [
    ("radius", "--p", "4", "--u", "nan"),
    ("radius", "--p", "4", "--u", "inf"),
    ("radius", "--p", "4", "--u=-2"),
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


def test_cubic_radius_at_20_digits_matches_30(capsys):
    rhos = [json.loads(run_cli(capsys, "--digits", d, "radius", "--p", "3",
                               "--u", "0.3"))["result"]["profiles"][0]["rho"]
            for d in ("20", "30")]
    assert rhos[0] == rhos[1]


@pytest.mark.parametrize("argv", [
    ("--digits", "20", "radius", "--p", "3", "--u", "0.05"),
    ("--digits", "20", "radius", "--p", "3", "--u", "0.1"),
    ("--digits", "20", "radius", "--p", "3", "--u", "1e10"),
    ("radius", "--p", "4", "--u", "1e300"),
], ids=" ".join)
def test_unresolved_radius_is_a_numeric_failure(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "NaN" not in captured.err
    assert "digits" in captured.err


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
