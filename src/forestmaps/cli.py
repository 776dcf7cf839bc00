"""Command-line front end.

Every pipeline is reachable as a subcommand with machine-readable output:

  coeffs       exact series tables (F, F', R, S, S~, G, H)
  oracle       exhaustive map enumeration and comparison against the solver
  verify       identity / differential-equation residual checks
  radius       radii, critical points, inner S~ radius
  asymptotics  coefficient-ratio tables, the logarithmic probe, the cubic
               expansion fit
  random       Boltzmann-model constants and finite-n expectations
  mu-expand    (u+1)-positivity tables
  repro        the full acceptance suite

Exact values are serialized as rational strings, never floats; numeric
outputs carry residual or tail-bound fields.  Identical invocations produce
byte-identical output (the header carries only the package version).  Exit
codes: 2 flag errors (symbolic u above the solver's order limit, --n-list
above MAX_N, and random's --n-list and --k-max at u <= 0 included), 3
scale-guard refusals, 4 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from typing import Optional

from . import __version__
from .exact import rat_from_str, rat_to_str
from .maps import ScaleGuardError, enumerate_maps, oracle_f

EXIT_BAD_FLAGS = 2
EXIT_SCALE_GUARD = 3
EXIT_NUMERIC = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_u(text: str, symbolic: bool = False):
    """An exact rational from a decimal or 'p/q' (nan, inf and junk are
    refused); 'symbolic' -> None where the subcommand allows it."""
    if symbolic and text == "symbolic":
        return None
    try:
        return rat_from_str(text)
    except (ValueError, ZeroDivisionError):
        raise _flag_error("--u", text, "%sa decimal or 'p/q'"
                          % ("'symbolic', " if symbolic else ""))


def _flag_error(flag: str, value, need: str) -> CliError:
    return CliError("%s: cannot use %r (%s)" % (flag, value, need), EXIT_BAD_FLAGS)


def _parse_u_in(text: str, negative: bool = False):
    """A rational u >= -1, and below 0 where `negative`: the range the
    subcommand's laws hold in.  Anything else is a flag error."""
    u = _parse_u(text)
    if u < -1 or (negative and u >= 0):
        raise _flag_error("--u", text, "a rational in [-1, 0)" if negative
                          else "a rational >= -1")
    return u


def _comma_list(text: str, flag: str, parse, valid, need: str) -> list:
    """The comma-separated values of a flag, each converted by `parse` and
    kept only if `valid`; anything else is a flag error that says what the
    flag needs."""
    values = []
    for item in text.split(","):
        try:
            value = parse(item)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not valid(value):
            raise _flag_error(flag, item, need)
        values.append(value)
    return values


def _in_range(args, name: str, least: int, most: Optional[int] = None) -> None:
    """A flag error unless the integer flag `name` is at least `least` and,
    where `most` is given, at most `most`."""
    value = getattr(args, name)
    if value < least or (most is not None and value > most):
        need = ("an integer >= %d" % least if most is None
                else "an integer from %d to %d" % (least, most))
        raise _flag_error("--" + name.replace("_", "-"), value, need)


# the fewest working digits: the residual target of Precision is then
# 10^-4, and looser targets would pass profiles resolved to a few digits
MIN_DIGITS = 12


# the largest n of --n-list.  Both readers take f_n from the exact quartic
# series through max(n), whose cost grows like n^3.6: at n = 1000 a call took
# 8-16 s, at 1500 38 s, and at 4000 none returned within 10 minutes (2-core
# Intel Xeon, Python 3.11)
MAX_N = 1000

# the largest --k-max of random.  The size law alone is cheap (0.45 s at
# k = 1000), but each k of the finite-n rows convolves one more power of R
# through max(n): at n = 500, k = 5 / 50 / 200 took 2.1 / 6.2 / 17.1 s, and
# at n = 1000, k = 5 / 20 / 50 took 19 / 45 / 80 s (2-core Intel Xeon,
# Python 3.11)
MAX_K = 50


def _n_list(text: str) -> list:
    # no map has fewer than 3 faces
    return _comma_list(text, "--n-list", int, lambda n: 3 <= n <= MAX_N,
                       "integers from 3 to %d" % MAX_N)


def _precision(args):
    from .hyp import Precision

    need = "an integer >= %d" % MIN_DIGITS
    digits = args.digits
    if digits is None:
        text = os.environ.get("FORESTMAPS_DIGITS", "50")
        try:
            digits = int(text)
        except ValueError:
            raise _flag_error("FORESTMAPS_DIGITS", text, need)
    if digits < MIN_DIGITS:
        raise _flag_error("FORESTMAPS_DIGITS" if args.digits is None else "--digits",
                          digits, need)
    return Precision(digits)


def _emit(args, payload: dict, csv_rows=None, csv_header=None):
    if args.format == "csv":
        if csv_rows is None:
            raise CliError("this subcommand has no CSV form; use --format json",
                           EXIT_BAD_FLAGS)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        doc = {
            "tool": "forestmaps",
            "version": __version__,
            "command": args.command,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "output") and v is not None},
            "result": payload,
        }
        text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeffs(args):
    from .solver import solve

    _in_range(args, "p", 3)
    u = _parse_u(args.u, symbolic=True)
    wanted = [s.strip() for s in args.series.split(",")]
    names = ["F", "Fprime", "R", "S", "Stilde", "H"] + (["G"] if args.p == 3 else [])
    for name in wanted:
        if name not in names:
            raise CliError("unknown series %r (choose from %s)"
                           % (name, ",".join(sorted(names))), EXIT_BAD_FLAGS)
    # F, F', G and H start at z^3: no map has fewer than 3 faces
    _in_range(args, "order", 3 if set(wanted) - {"R", "S", "Stilde"} else 1)
    fields = [{"Stilde": "S_tilde"}.get(name, name) for name in wanted]
    out = solve(args.p, args.order, u, fields)
    payload = {"p": args.p, "order": args.order,
               "series": {name: getattr(out, field).to_json()
                          for name, field in zip(wanted, fields)}}
    _emit(args, payload)


def cmd_oracle(args):
    _in_range(args, "p", 3)
    _in_range(args, "faces", 3)  # no map has fewer than 3 faces
    poly = oracle_f(args.p, args.faces, args.variant)
    payload = {
        "p": args.p,
        "n_faces": args.faces,
        "variant": args.variant,
        "polynomial_in_u": poly.to_strs(),
    }
    if args.compare:
        from .solver import solve

        name = "H" if args.variant == "root_edge_outside" else "F"
        ref = getattr(solve(args.p, args.faces, names=(name,)), name).coeff(args.faces)
        payload["solver_coefficient"] = ref.to_strs()
        payload["matches_solver"] = bool(poly == ref)
    if args.dump_maps:
        payload["maps"] = [m.to_json() for m in enumerate_maps(args.p, args.faces)]
    _emit(args, payload)


def cmd_verify(args):
    from .deverify import DE_NAMES, IDENTITY_NAMES, check_de, check_identity

    _in_range(args, "order", 2)
    _in_range(args, "de_order", 4)  # the equations are of second order
    u = _parse_u(args.u, symbolic=True)
    only = set(args.only.split(",")) if args.only else None
    checks = ([(name, check_identity, (args.order,)) for name in IDENTITY_NAMES]
              + [(name, check_de, (args.de_order, u)) for name in DE_NAMES])
    rows = [check(name, *rest) for name, check, rest in checks
            if not only or name in only]
    if only and not rows:
        raise CliError("no identity or equation matches %r" % args.only,
                       EXIT_BAD_FLAGS)
    payload = {
        "all_zero": all(r.is_zero for r in rows),
        "checks": [
            {"name": r.identity_name, "tested_order": r.tested_order,
             "valid_order": r.valid_order, "zero_residual": r.is_zero,
             "detail": r.detail}
            for r in rows
        ],
    }
    _emit(args, payload,
          csv_rows=[(r.identity_name, r.valid_order, r.is_zero) for r in rows],
          csv_header=("name", "valid_order", "zero_residual"))
    if not payload["all_zero"]:
        sys.exit(1)


def cmd_radius(args):
    from .critical import radius, s_tilde_radius_cubic

    prec = _precision(args)
    us = _comma_list(args.u, "--u", rat_from_str, lambda u: u >= -1, "rationals >= -1")
    if args.s_tilde and (args.p != 3 or any(u <= 0 for u in us)):
        raise CliError("--s-tilde applies to p=3 with u > 0", EXIT_BAD_FLAGS)
    profiles = []
    for u in us:
        rec = asdict(radius(args.p, u, prec))
        del rec["p"]
        if args.s_tilde:
            rec["s_tilde_radius"] = s_tilde_radius_cubic(u, prec)
        profiles.append(rec)
    _emit(args, {"profiles": profiles},
          csv_rows=[(r["u"], r["rho"], r["tau"], r["sigma"], r["c_u"])
                    for r in profiles],
          csv_header=("u", "rho", "tau", "sigma", "c_u"))


def cmd_asymptotics(args):
    from .asymptotics import (MAX_ORDER, MIN_ORDER, coefficient_asymptotic_check,
                              cubic_beta_fit, log_singularity_probe)

    prec = _precision(args)
    if not 0 < args.tol < float("inf"):
        raise _flag_error("--tol", args.tol, "a positive number")
    if args.mode in MIN_ORDER and args.order is not None:
        _in_range(args, "order", MIN_ORDER[args.mode], MAX_ORDER)
    if args.mode == "ratios":
        if args.p != 4:  # c_u is exposed only for p = 4
            raise _flag_error("--p", args.p, "4, the quartic family")
        rows = coefficient_asymptotic_check(args.p, _parse_u_in(args.u), _n_list(args.n_list),
                                            prec)
        payload = {"rows": [{"n": r["n"], "ratio": r["ratio"]} for r in rows]}
        _emit(args, payload,
              csv_rows=[(r["n"], rat_to_str(r["f_n"]), r["ratio"]) for r in rows],
              csv_header=("n", "f_n", "ratio"))
        return
    fracs = tuple(_comma_list(args.fracs, "--fracs", float, lambda x: 0 < x < 1,
                              "z/rho values in (0, 1)"))
    if args.mode == "beta-fit" and len(set(fracs)) < 2:
        # two unknowns, alpha and beta, need two equations
        raise _flag_error("--fracs", args.fracs, "at least two distinct z/rho values")
    if args.mode == "log-probe":
        res = log_singularity_probe(_parse_u_in(args.u, negative=True), fracs, prec,
                                    order=args.order, tol=args.tol)
        _emit(args, res,
              csv_rows=[(r["z_frac"], r["lhs"], r["rhs"], r["deviation"],
                         r["tail_bound"]) for r in res["rows"]],
              csv_header=("z_over_rho", "lhs", "rhs", "deviation", "tail_bound"))
        return
    # beta-fit, the last of the modes argparse admits
    res = cubic_beta_fit(_parse_u_in(args.u, negative=True), fracs,
                         4000 if args.order is None else args.order, prec)
    _emit(args, res,
          csv_rows=[(r["z_frac"], r["fprime"], r["beta_pointwise"]) for r in res["beta_rows"]],
          csv_header=("z_over_rho", "fprime", "beta_pointwise"))


def cmd_random(args):
    from .fast import quartic_series
    from .randmodel import (component_slope, finite_n_expectations,
                            finite_n_root_size, kappa, s_limit_law)

    prec = _precision(args)
    if args.k_max is not None:
        _in_range(args, "k_max", 1, MAX_K)
    u = _parse_u_in(args.u)
    ns = _n_list(args.n_list) if args.n_list else []
    if u <= 0 and (ns or args.k_max is not None):
        # the size law and the finite-n rows exist only for u > 0
        flag, value = ("--n-list", args.n_list) if ns else ("--k-max", args.k_max)
        raise _flag_error(flag, value, "only for u > 0")
    payload = {"u": rat_to_str(u), "kappa": kappa(u, prec)}
    if u > 0:
        # the defaults, which the config then shows
        if args.n_list is None:
            args.n_list, ns = "100,200", [100, 200]
        if args.k_max is None:
            args.k_max = 5
        payload["component_slope"] = component_slope(u, prec)
        law = s_limit_law(u, args.k_max, prec)
        payload["size_law_limit"] = law
        if ns:
            series = quartic_series(u, max(ns))  # both finite-n readers use it
            payload["finite_n"] = [
                {"n": r["n"], "E_active_over_n": r["E_active_over_n"],
                 "E_components": rat_to_str(r["E_components"])}
                for r in finite_n_expectations(u, ns, series)
            ]
            fin = finite_n_root_size(u, max(ns), args.k_max, series)
            payload["size_law_finite_n"] = {"n": max(ns), "values": fin}
            rows = [(k + 1, law[k], fin[k]) for k in range(args.k_max)]
        else:
            rows = [(k + 1, law[k], "") for k in range(args.k_max)]
        _emit(args, payload, csv_rows=rows,
              csv_header=("k", "limit_prob", "finite_n_prob"))
    else:
        _emit(args, payload, csv_rows=[(args.u, "", payload["kappa"])],
              csv_header=("u", "slope", "kappa"))


def cmd_mu_expand(args):
    from .solver import solve

    p, order, name = args.p, args.order, args.series
    # the series divided by u, W1 = (R - z)/u, W2 = S/u, W~ = S~/u, are
    # the sweep's own; F is not divided
    field = {"R-z": "W1", "S": "W2", "Stilde": "W_tilde", "F": "F"}.get(name)
    if field is None:
        raise CliError("unknown series %r for mu expansion" % name,
                       EXIT_BAD_FLAGS)
    _in_range(args, "p", 3)
    _in_range(args, "order", 3 if name == "F" else 1)
    ser = getattr(solve(p, order, None, (field,)), field)
    mu = ser.to_mu()
    rows = []
    all_nonneg = True
    for n, c in enumerate(mu.coeffs):
        rows.append({"z_power": n, "mu_coeffs": c.to_strs()})
        all_nonneg &= c.nonneg()
    _emit(args, {"series": args.series, "divided_by_u": args.series != "F",
                 "all_nonnegative": all_nonneg, "rows": rows})


def cmd_repro(args):
    from .acceptance import CRITERIA, run_all

    numbers = None
    if args.criteria:
        numbers = _comma_list(args.criteria, "--criteria", int,
                              lambda n: 1 <= n <= len(CRITERIA),
                              "criterion numbers 1-%d" % len(CRITERIA))
    results = run_all(verbose=True, numbers=numbers)
    passed = sum(1 for r in results if r.passed)
    print("%d/%d criteria passed" % (passed, len(results)))
    if passed != len(results):
        sys.exit(1)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="forestmaps",
        description="exact series, oracles and singularity numerics for "
                    "regular planar maps carrying spanning forests",
    )
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--output", help="write to a file instead of stdout")
    ap.add_argument("--digits", type=int, default=None,
                    help="working precision in digits (default: "
                         "FORESTMAPS_DIGITS or 50)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="exact series tables")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--u", default="symbolic")
    p.add_argument("--series", default="F")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("oracle", help="exhaustive enumeration of small maps")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--faces", type=int, required=True)
    p.add_argument("--variant", default="all_forests",
                   choices=("all_forests", "tree_rooted_activity",
                            "root_edge_outside"))
    p.add_argument("--compare", action="store_true",
                   help="also compute the solver coefficient and compare")
    p.add_argument("--dump-maps", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="identity and DE residual checks")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--de-order", type=int, default=12)
    p.add_argument("--u", default="symbolic")
    p.add_argument("--only", help="comma-separated check names")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("radius", help="radii and critical data")
    p.add_argument("--p", type=int, required=True, choices=(3, 4))
    p.add_argument("--u", required=True, help="value or comma-separated grid")
    p.add_argument("--s-tilde", action="store_true",
                   help="include the inner S~ radius workflow (p=3, u>0)")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("asymptotics", help="ratio tables and singular probes")
    p.add_argument("--mode", required=True,
                   choices=("ratios", "log-probe", "beta-fit"))
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--u", required=True)
    p.add_argument("--n-list", default="50,100,200,400")
    p.add_argument("--fracs", default="0.9,0.99,0.999")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--order", type=int, default=None,
                   help="series truncation (log-probe default: sized from --tol)")
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("random", help="Boltzmann-model statistics")
    p.add_argument("--u", required=True)
    p.add_argument("--k-max", type=int, help="u > 0 only (default: 5)")
    p.add_argument("--n-list", help="u > 0 only (default: 100,200)")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("mu-expand", help="(u+1)-positivity tables")
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--series", default="R-z",
                   help="one of R-z, S, Stilde, F (the first three are "
                        "divided by u before expanding)")
    p.set_defaults(func=cmd_mu_expand)

    p = sub.add_parser("repro", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    p.set_defaults(func=cmd_repro)

    return ap


def main(argv: Optional[list] = None) -> None:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for name, value in sorted(vars(args).items()):
            if isinstance(value, list):  # argparse reads --flag=-- as an empty list
                raise _flag_error("--" + name.replace("_", "-"), "--", "a value")
        args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(exc.code)
    except ScaleGuardError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        sys.exit(EXIT_SCALE_GUARD)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        from .solver import SymbolicOrderError  # imported only on failure

        if isinstance(exc, SymbolicOrderError):
            print("error: %s" % exc, file=sys.stderr)
            sys.exit(EXIT_BAD_FLAGS)
        print("numeric failure: %s" % exc, file=sys.stderr)
        sys.exit(EXIT_NUMERIC)


if __name__ == "__main__":
    main()
