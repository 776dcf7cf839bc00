"""Task lists of the three workloads, drawn from a seed.

A round is one fixed list of distinct tasks, run in a fresh interpreter as
one closed-loop caller.  Most tasks are ``cli.main`` calls with the output
written to a file; the rest call public functions that no subcommand
reaches.  The seed and the round index choose the ``u`` values inside fixed
strata (sign of ``u`` and the digit size of its numerator and denominator)
and the order of the tasks; the sizes of the tasks never depend on the seed,
so the work per round stays the same from seed to seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple

WORKLOADS = ("symbolic", "specialized", "numeric")

# Modules whose public functions each workload calls; set-up imports them.
MODULES = {
    "symbolic": ("cli", "solver", "maps", "deverify", "upoly", "series", "trees"),
    "specialized": ("cli", "solver", "fast", "asymptotics", "randmodel"),
    "numeric": ("cli", "critical", "hyp", "asymptotics", "randmodel", "fast"),
}


class Task(NamedTuple):
    """One call: ``target`` is "cli" (``args`` is the argv, without
    ``--output``) or "module.function" (``args`` are its positional
    arguments)."""

    name: str
    target: str
    args: tuple


class Round(NamedTuple):
    workload: str
    seed: int
    index: int
    params: Dict[str, object]
    tasks: List[Task]


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, index))


def _rational(rng, num_range, den_range, sign=1) -> Fraction:
    """a/b with a, b drawn from fixed digit bands, in lowest terms."""
    while True:
        a = rng.randint(*num_range)
        b = rng.randint(*den_range)
        if math.gcd(a, b) == 1:
            return Fraction(sign * a, b)


def _decimal(rng, lo: int, hi: int) -> str:
    """A two-decimal value k/100 with lo <= k <= hi, as the CLI reads it."""
    k = rng.randint(lo, hi)
    return "%s%d.%02d" % ("-" if k < 0 else "", abs(k) // 100, abs(k) % 100)


def _q(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


# -- symbolic: u stays a variable ----------------------------------------------

SYMBOLIC_ORDER = {3: 9, 4: 12}
# verify tasks: their order flags and the residual checks they ask for
VERIFY = {
    "verify_cubic_w": (("--de-order", "8"), ("cubic_w",)),
    "verify_quartic_des": (("--de-order", "10"), ("quartic_fprime", "quartic_h")),
    "verify_identities": (("--order", "12"), (
        "phi_second_order_ode", "psi_first_order_system", "theta_from_phi",
        "lambda_from_phi", "phi1_psi_reduction", "phi2_psi_reduction",
        "theta_bivariate_decomposition")),
    "verify_cubic_rs": (("--order", "9"), ("cubic_rs_derivative_rational",)),
}


def _symbolic(rng) -> tuple:
    o3, o4 = SYMBOLIC_ORDER[3], SYMBOLIC_ORDER[4]
    tasks = [
        Task("coeffs_p3", "cli", ("coeffs", "--p", "3", "--order", str(o3),
                                  "--u", "symbolic", "--series", "F,H,R")),
        Task("coeffs_p4", "cli", ("coeffs", "--p", "4", "--order", str(o4),
                                  "--u", "symbolic", "--series", "F,H")),
        Task("mu_p3_rz", "cli", ("mu-expand", "--p", "3", "--order", "8",
                                 "--series", "R-z")),
        Task("mu_p4_f", "cli", ("mu-expand", "--p", "4", "--order", str(o4),
                                "--series", "F")),
        Task("oracle_p3_f4_activity", "cli", ("oracle", "--p", "3", "--faces", "4",
                                              "--variant", "tree_rooted_activity",
                                              "--compare")),
        Task("oracle_p3_f3_outside", "cli", ("oracle", "--p", "3", "--faces", "3",
                                             "--variant", "root_edge_outside",
                                             "--compare")),
        Task("oracle_p4_f4_forests", "cli", ("oracle", "--p", "4", "--faces", "4",
                                             "--compare")),
        Task("oracle_p4_f4_activity", "cli", ("oracle", "--p", "4", "--faces", "4",
                                              "--variant", "tree_rooted_activity",
                                              "--compare")),
    ]
    tasks += [Task(name, "cli", ("verify", "--only", ",".join(checks)) + order)
              for name, (order, checks) in VERIFY.items()]
    return {}, tasks


# -- specialized: u a fixed exact rational --------------------------------------

# two-digit numerators and denominators from narrow bands, so that the size
# of every Fraction (which sets the cost of the exact engines) varies little
BAND_LO, BAND_HI = (40, 59), (80, 99)
SWEEP_ORDER = {3: 14, 4: 24}
FAST_ORDER = {"cubic_rs": 90, "cubic_fprime": 90, "quartic_r": 140, "quartic_series": 100}
RATIO_NS = (40, 80, 120)
FINITE_NS = (40, 80)


def _specialized(rng) -> tuple:
    u = {
        "cubic_pos": _rational(rng, BAND_LO, BAND_HI),
        "cubic_neg": _rational(rng, BAND_LO, BAND_HI, -1),
        "quartic_big": _rational(rng, BAND_HI, BAND_LO),
        "quartic_neg": _rational(rng, BAND_LO, BAND_HI, -1),
        "ratios": _rational(rng, BAND_LO, BAND_HI),
        "random": _rational(rng, BAND_HI, BAND_LO),
    }

    def sweep(name, p, key, series):
        return Task(name, "cli", ("coeffs", "--p", str(p), "--order",
                                  str(SWEEP_ORDER[p]), "--u=" + _q(u[key]),
                                  "--series", series))

    tasks = [
        sweep("sweep_p3_pos", 3, "cubic_pos", "F,R,S"),
        sweep("sweep_p3_neg", 3, "cubic_neg", "F,Fprime"),
        sweep("sweep_p4_big", 4, "quartic_big", "F,R"),
        sweep("sweep_p4_neg", 4, "quartic_neg", "F"),
        Task("fast_cubic_rs", "fast.cubic_rs_coeffs",
             (u["cubic_pos"], FAST_ORDER["cubic_rs"])),
        Task("fast_cubic_fprime", "fast.cubic_fprime_coeffs",
             (u["cubic_neg"], FAST_ORDER["cubic_fprime"])),
        Task("fast_quartic_r", "fast.quartic_r_coeffs",
             (u["quartic_big"], FAST_ORDER["quartic_r"])),
        Task("fast_quartic_series", "fast.quartic_series",
             (u["quartic_neg"], FAST_ORDER["quartic_series"])),
        Task("ratios_p4", "cli", ("--digits", "20", "asymptotics", "--mode",
                                  "ratios", "--p", "4",
                                  "--u=" + _q(u["ratios"]), "--n-list",
                                  ",".join(map(str, RATIO_NS)))),
        Task("random_finite_n", "cli", ("--digits", "20", "random",
                                        "--u=" + _q(u["random"]),
                                        "--k-max", "1", "--n-list",
                                        ",".join(map(str, FINITE_NS)))),
    ]
    return u, tasks


# -- numeric: singularity analysis at working precision ------------------------

PROBE_FRACS = (0.9, 0.99, 0.995)
PROBE_TOL = 1e-6
BETA_FRACS = (0.9, 0.99, 0.999)
BETA_ORDER = 2000


def _numeric(rng) -> tuple:
    grid4 = ["-1", _decimal(rng, -95, -5), "0", _decimal(rng, 30, 70),
             _decimal(rng, 120, 180)]
    grid3 = ["-1", _decimal(rng, -95, -5), "0", _decimal(rng, 120, 180)]
    # one-digit numerator and denominator for the float-engine probes
    probe = _rational(rng, (4, 6), (7, 9), -1)
    beta = _rational(rng, (4, 6), (7, 9), -1)
    rand_u = _rational(rng, (50, 90), (100, 100))
    params = {"grid4": grid4, "grid3": grid3, "probe": probe, "beta": beta,
              "random": rand_u}
    tasks = [
        Task("radius_p4", "cli", ("--digits", "50", "radius", "--p", "4",
                                  "--u=" + ",".join(grid4))),
        Task("radius_p3", "cli", ("--digits", "20", "radius", "--p", "3",
                                  "--u=" + ",".join(grid3))),
        Task("log_probe", "cli", ("--digits", "50", "asymptotics", "--mode",
                                  "log-probe", "--u=" + _q(probe), "--fracs",
                                  ",".join(map(str, PROBE_FRACS)),
                                  "--tol", repr(PROBE_TOL))),
        Task("beta_fit", "cli", ("--digits", "50", "asymptotics", "--mode",
                                 "beta-fit", "--u=" + _q(beta), "--fracs",
                                 ",".join(map(str, BETA_FRACS)), "--order",
                                 str(BETA_ORDER))),
        Task("random_kappa", "cli", ("--digits", "50", "random",
                                     "--u=" + _q(rand_u), "--k-max", "2",
                                     "--n-list", "")),
    ]
    return params, tasks


_BUILDERS = {"symbolic": _symbolic, "specialized": _specialized, "numeric": _numeric}


def build_round(workload: str, seed: int, index: int) -> Round:
    """The inputs of round ``index`` of a run with ``seed``."""
    rng = _rng(workload, seed, index)
    params, tasks = _BUILDERS[workload](rng)
    rng.shuffle(tasks)
    return Round(workload, seed, index, params, tasks)
