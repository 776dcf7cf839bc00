"""Correctness checks on the outputs of one round.

Every check compares against an independent computation or a property
stated by the paper, never against a stored copy of earlier output:
closed forms evaluated here with ``math``, a ``u = mu - 1`` substitution
done here, agreement between independent routes of the program (sweep
solver, recurrence engines, brute-force oracle), positivity and
integrality laws, monotonicity of radii and probes.  Each check returns a
list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Sequence

CLOSED_RADII = {
    (4, "-1"): math.sqrt(3) / (12 * math.pi),
    (4, "0"): 1 / 27,
    (3, "-1"): math.pi ** 2 / 384,
    (3, "0"): 1 / 64,
}
RADIUS_TOL = 1e-6
REGIME = {1: "positive_u", 0: "zero_u", -1: "negative_u"}


def _refuse(token):
    raise ValueError("non-finite number %s in JSON output" % token)


def strict_loads(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_refuse)


def poly(strs: Sequence[str]) -> List[Fraction]:
    return [Fraction(s) for s in strs]


def _trim(cs: List[Fraction]) -> List[Fraction]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def shift_poly(cs: Sequence[Fraction], shift: int) -> List[Fraction]:
    """Coefficients of P(x + shift) from those of P(x)."""
    out = [Fraction(0)] * len(cs)
    for k, c in enumerate(cs):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * shift ** (k - j)
    return _trim(out)


def spanning_tree_count(p: int, n: int) -> int:
    """[z^n]F at u = 0: rooted p-valent maps with a spanning tree, l = v_n
    vertices, p((p-1)l)! / ((l-1)! (1+(p-2)l/2)! (2+(p-2)l/2)!)."""
    l = 2 * (n - 2) // (p - 2)
    h = (p - 2) * l // 2
    return (p * math.factorial((p - 1) * l)
            // (math.factorial(l - 1) * math.factorial(1 + h) * math.factorial(2 + h)))


# -- symbolic -------------------------------------------------------------------

def check_printed_cubic(F) -> List[str]:
    """The p = 3 coefficients printed in the paper."""
    want = {3: [6, 4], 4: [140, 234, 144, 32]}
    return ["[z^%d]F = %s, expected %s" % (n, F[n], w)
            for n, w in want.items() if poly(F[n]) != w]


def check_u0_closed_form(p: int, F) -> List[str]:
    errs = []
    for n in range(3, len(F)):
        got = poly(F[n])[0] if F[n] else 0
        if got != spanning_tree_count(p, n):
            errs.append("p=%d [z^%d]F(u=0) = %s, closed form %d"
                        % (p, n, got, spanning_tree_count(p, n)))
    return errs


def check_mu_nonneg(label: str, polys) -> List[str]:
    """After u = mu - 1 every coefficient is nonnegative."""
    return ["%s[%d] has a negative coefficient in mu" % (label, n)
            for n, c in enumerate(polys) if any(x < 0 for x in shift_poly(poly(c), -1))]


def check_mu_rows(label: str, rows, u_polys) -> List[str]:
    """mu-expand rows are nonnegative and map back to the u-polynomials."""
    errs = []
    for row in rows:
        n = row["z_power"]
        mu = poly(row["mu_coeffs"])
        if any(c < 0 for c in mu):
            errs.append("%s: mu row %d is not nonnegative" % (label, n))
        if n < len(u_polys) and shift_poly(mu, 1) != _trim(poly(u_polys[n])):
            errs.append("%s: mu row %d does not map back to u" % (label, n))
    return errs


def r_minus_z_over_u(R) -> List[List[str]]:
    """(R - z)/u from the u-polynomial coefficients of R, as strings."""
    out = []
    for n, c in enumerate(R):
        cs = poly(c)
        if n == 1:
            cs = _trim([cs[0] - 1] + cs[1:]) if cs else [Fraction(-1)]
        if cs and cs[0] != 0:
            raise ValueError("R - z is not divisible by u at z^%d" % n)
        out.append([str(x) for x in cs[1:]])
    return out


def check_oracle(label: str, oracle, series) -> List[str]:
    """The brute-force polynomial equals the series coefficient."""
    n = oracle["n_faces"]
    errs = []
    if _trim(poly(oracle["polynomial_in_u"])) != _trim(poly(series[n])):
        errs.append("%s: oracle polynomial differs from [z^%d] of the series" % (label, n))
    if oracle.get("matches_solver") is not True:
        errs.append("%s: the program reports no match" % label)
    return errs


def check_residuals(label: str, verify, names: Sequence[str]) -> List[str]:
    checks = verify["checks"]
    errs = []
    if sorted(c["name"] for c in checks) != sorted(names):
        errs.append("%s: checked %s, asked for %s"
                    % (label, [c["name"] for c in checks], list(names)))
    errs += ["%s: %s residual is not zero" % (label, c["name"])
             for c in checks if c["zero_residual"] is not True]
    if verify["all_zero"] is not True:
        errs.append("%s: all_zero is false" % label)
    return errs


# -- specialized ------------------------------------------------------------------

def check_positive_integral(label: str, p: int, u: Fraction, F) -> List[str]:
    """[z^n]F > 0 and b^(v_n - 1) [z^n]F is an integer for n >= 3, where
    u = a/b and v_n = 2(n-2)/(p-2) is the vertex count."""
    b = Fraction(u).denominator
    errs = []
    for n in range(3, len(F)):
        c = Fraction(F[n])
        v = 2 * (n - 2) // (p - 2)
        if c <= 0:
            errs.append("%s: [z^%d]F = %s is not positive" % (label, n, c))
        elif (c * b ** (v - 1)).denominator != 1:
            errs.append("%s: b^(v-1) [z^%d]F is not an integer" % (label, n))
    return errs


def check_prefix(label: str, a, b) -> List[str]:
    m = min(len(a), len(b))
    bad = [n for n in range(m) if Fraction(a[n]) != Fraction(b[n])]
    if bad:
        return ["%s: routes disagree first at z^%d" % (label, bad[0])]
    return [] if m >= 2 else ["%s: no shared prefix" % label]


def f_from_fprime(fp) -> List[Fraction]:
    return [Fraction(0)] + [Fraction(c) / (n + 1) for n, c in enumerate(fp)]


def check_ratios(rows, ns: Sequence[int]) -> List[str]:
    errs = []
    if [r["n"] for r in rows] != list(ns):
        errs.append("ratio rows %s, asked for %s" % ([r["n"] for r in rows], list(ns)))
    errs += ["ratio at n=%d is %r" % (r["n"], r["ratio"])
             for r in rows if not r["ratio"] > 0]
    return errs


def check_finite_n(result, ns: Sequence[int]) -> List[str]:
    rows = result.get("finite_n", [])
    errs = []
    if [r["n"] for r in rows] != list(ns):
        errs.append("finite-n rows %s, asked for %s" % ([r["n"] for r in rows], list(ns)))
    for r in rows:
        if not Fraction(r["E_components"]) > 0 or not 0 < r["E_active_over_n"] < 1:
            errs.append("finite-n expectations at n=%d out of range" % r["n"])
    return errs


# -- numeric ------------------------------------------------------------------------

def check_radii(p: int, grid: Sequence[str], profiles) -> List[str]:
    errs = []
    if len(profiles) != len(grid):
        return ["p=%d: %d profiles for %d grid points" % (p, len(profiles), len(grid))]
    for text, prof in zip(grid, profiles):
        want = CLOSED_RADII.get((p, text))
        if want is not None and not abs(prof["rho"] - want) <= RADIUS_TOL:
            errs.append("p=%d rho(%s) = %r, closed form %r" % (p, text, prof["rho"], want))
        u = float(text)
        sign = (u > 0) - (u < 0)
        if prof["regime"] != REGIME[sign]:
            errs.append("p=%d u=%s labelled %s" % (p, text, prof["regime"]))
    pairs = sorted((float(t), prof["rho"]) for t, prof in zip(grid, profiles))
    for (u0, r0), (u1, r1) in zip(pairs, pairs[1:]):
        if not r1 < r0:
            errs.append("p=%d rho does not decrease from u=%s to u=%s" % (p, u0, u1))
    return errs


def check_log_probe(result, fracs: Sequence[float], tol: float) -> List[str]:
    rows = result["rows"]
    errs = []
    if [r["z_frac"] for r in rows] != list(fracs):
        errs.append("probe rows at %s, asked for %s" % ([r["z_frac"] for r in rows], list(fracs)))
    errs += ["tail bound %r at z/rho=%s is not below %r" % (r["tail_bound"], r["z_frac"], tol)
             for r in rows if not r["tail_bound"] < tol]
    for a, b in zip(rows, rows[1:]):
        if not b["deviation"] < a["deviation"]:
            errs.append("deviation does not shrink from z/rho=%s to %s"
                        % (a["z_frac"], b["z_frac"]))
    return errs


def check_ratios_approach(rows) -> List[str]:
    """The ratio to the predicted asymptotic approaches 1 monotonically."""
    return ["ratio moves away from 1 from n=%d to n=%d" % (a["n"], b["n"])
            for a, b in zip(rows, rows[1:])
            if not abs(b["ratio"] - 1) < abs(a["ratio"] - 1)]


def check_beta_fit(result, fracs: Sequence[float]) -> List[str]:
    """Pointwise beta estimates approach the closed beta as z -> rho."""
    rows = result["beta_rows"]
    errs = []
    if [r["z_frac"] for r in rows] != list(fracs):
        errs.append("beta rows at %s, asked for %s" % ([r["z_frac"] for r in rows], list(fracs)))
    gaps = [abs(r["beta_pointwise"] - result["beta_closed"]) for r in rows]
    errs += ["pointwise beta moves away from the closed beta at z/rho=%s" % b["z_frac"]
             for a, b, ga, gb in zip(rows, rows[1:], gaps, gaps[1:]) if not gb < ga]
    return errs


def check_kappa(result) -> List[str]:
    k = result["kappa"]
    return [] if 0 < k < 1 else ["kappa = %r outside (0, 1)" % k]


def check_size_law(result) -> List[str]:
    law = result["size_law_limit"]
    return [] if all(0 < x < 1 for x in law) and sum(law) < 1 else \
        ["root-component size law %r is not a sub-probability" % law]


# -- one round --------------------------------------------------------------------

def load_outputs(rnd, outputs) -> Dict[str, object]:
    """CLI outputs are files: parse them strictly and keep their "result"."""
    loaded = {}
    for task in rnd.tasks:
        if task.name not in outputs:
            continue
        out = outputs[task.name]
        if task.target == "cli":
            with open(out) as f:
                out = strict_loads(f.read())["result"]
        loaded[task.name] = out
    return loaded


def _symbolic(rnd, out) -> List[str]:
    from workloads import VERIFY

    series = {p: out["coeffs_p%d" % p]["series"] for p in (3, 4) if "coeffs_p%d" % p in out}
    errs = []
    for p, s in series.items():
        errs += check_u0_closed_form(p, s["F"]["coeffs"])
        errs += check_mu_nonneg("p=%d F" % p, s["F"]["coeffs"])
    if 3 in series:
        errs += check_printed_cubic(series[3]["F"]["coeffs"])
    if 3 in series and "mu_p3_rz" in out:
        rz = out["mu_p3_rz"]
        errs += check_mu_rows("mu_p3_rz", rz["rows"], r_minus_z_over_u(series[3]["R"]["coeffs"]))
        if rz["all_nonnegative"] is not True:
            errs.append("mu_p3_rz: the program reports a negative coefficient")
    if 4 in series and "mu_p4_f" in out:
        errs += check_mu_rows("mu_p4_f", out["mu_p4_f"]["rows"], series[4]["F"]["coeffs"])
    for name, res in out.items():
        if name.startswith("oracle_") and res["p"] in series:
            key = "H" if res["variant"] == "root_edge_outside" else "F"
            errs += check_oracle(name, res, series[res["p"]][key]["coeffs"])
    for name, (_, names) in VERIFY.items():
        if name in out:
            errs += check_residuals(name, out[name], names)
    return errs


def _specialized(rnd, out) -> List[str]:
    from workloads import FINITE_NS, RATIO_NS

    u = rnd.params
    errs = []

    def sweep(name, key):
        return out[name]["series"][key]["coeffs"]

    for name, p, key in (("sweep_p3_pos", 3, "cubic_pos"), ("sweep_p3_neg", 3, "cubic_neg"),
                         ("sweep_p4_big", 4, "quartic_big"), ("sweep_p4_neg", 4, "quartic_neg")):
        if name in out:
            errs += check_positive_integral(name, p, u[key], sweep(name, "F"))
    if "fast_cubic_fprime" in out:
        fp = out["fast_cubic_fprime"]
        errs += check_positive_integral("fast_cubic_fprime", 3, u["cubic_neg"], f_from_fprime(fp))
        if "sweep_p3_neg" in out:
            errs += check_prefix("cubic F'", sweep("sweep_p3_neg", "Fprime"), fp)
    if "fast_quartic_series" in out:
        f = out["fast_quartic_series"]["f"]
        errs += check_positive_integral("fast_quartic_series", 4, u["quartic_neg"], f)
        if "sweep_p4_neg" in out:
            errs += check_prefix("quartic F", sweep("sweep_p4_neg", "F"), f)
    if "fast_cubic_rs" in out and "sweep_p3_pos" in out:
        R, S = out["fast_cubic_rs"]
        errs += check_prefix("cubic R", sweep("sweep_p3_pos", "R"), R)
        errs += check_prefix("cubic S", sweep("sweep_p3_pos", "S"), S)
    if "fast_quartic_r" in out and "sweep_p4_big" in out:
        errs += check_prefix("quartic R", sweep("sweep_p4_big", "R"), out["fast_quartic_r"])
    if "ratios_p4" in out:
        rows = out["ratios_p4"]["rows"]
        errs += check_ratios(rows, RATIO_NS) + check_ratios_approach(rows)
    if "random_finite_n" in out:
        res = out["random_finite_n"]
        errs += check_finite_n(res, FINITE_NS) + check_kappa(res) + check_size_law(res)
    return errs


def _numeric(rnd, out) -> List[str]:
    from workloads import BETA_FRACS, PROBE_FRACS, PROBE_TOL

    errs = []
    for p in (4, 3):
        if "radius_p%d" % p in out:
            errs += check_radii(p, rnd.params["grid%d" % p], out["radius_p%d" % p]["profiles"])
    if "log_probe" in out:
        errs += check_log_probe(out["log_probe"], PROBE_FRACS, PROBE_TOL)
    if "beta_fit" in out:
        errs += check_beta_fit(out["beta_fit"], BETA_FRACS)
    if "random_kappa" in out:
        errs += check_kappa(out["random_kappa"]) + check_size_law(out["random_kappa"])
    return errs


_ROUND_CHECKS = {"symbolic": _symbolic, "specialized": _specialized, "numeric": _numeric}


def check_round(rnd, outputs) -> List[str]:
    """Every check that the outputs of the tasks that did not fail allow."""
    try:
        return _ROUND_CHECKS[rnd.workload](rnd, load_outputs(rnd, outputs))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return ["malformed output: %r" % (exc,)]
