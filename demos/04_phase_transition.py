"""Singularity analysis: radii, the phase transition, three regimes.

The number f_n(u) of forested maps with n faces behaves like
c_u rho_u^-n times a subexponential factor that changes at u = 0:
n^(-5/2) for u > 0 (the universal planar-map exponent), n^(-3) at u = 0,
and n^(-3) (ln n)^(-2) for u in [-1, 0) -- a logarithmic regime whose
generating-function signature is probed directly here.
"""

from forestmaps.asymptotics import (
    coefficient_asymptotic_check,
    log_singularity_probe,
    quartic_smoothness_gap,
)
from forestmaps.critical import radius, s_tilde_radius_cubic
from forestmaps.exact import Q
from forestmaps.hyp import Precision

PREC = Precision(50)

print("=== radii across u (both valencies) ===")
print("   u      rho(p=4)    rho(p=3)    regime")
for u in (-1, -0.5, 0, 0.5, 1, 2):
    p4 = radius(4, u, PREC)
    p3 = radius(3, u, PREC)
    print("%5.1f   %.7f   %.7f   %s" % (u, p4.rho, p3.rho, p4.subexp_class))
print()
print("rho(4,-1) = sqrt(3)/(12 pi), rho(3,-1) = pi^2/384: transcendental radii")
print("for maps weighted by internally inactive spanning trees.")
print()

print("=== cubic u=1: the two-step characteristic system ===")
prof = radius(3, 1, PREC)
print("tau = R(rho) = %.6f, sigma = S(rho) = %.6f, rho = %.7f"
      % (prof.tau, prof.sigma, prof.rho))
st = s_tilde_radius_cubic(1, PREC)
print("inner S~ radius: %.6f (series continuation), %.6f (closed solve)"
      % (st["rho_tilde"], st["rho_tilde_closed"]))
print("the (R, S) orbit stops strictly before the S~ curve:",
      prof.tau < st["rho_tilde"])
print()

print("=== coefficient ratios approach the predicted laws ===")
print("u = 0 (exact spanning-tree counts):")
for row in coefficient_asymptotic_check(4, 0, [100, 250, 500], PREC):
    print("   n=%4d  f_n rho^n n^3 / c_0 = %.5f" % (row["n"], row["ratio"]))
print("u = 1 (n^{-5/2} regime, slow polynomial approach):")
for row in coefficient_asymptotic_check(4, 1, [50, 100, 200], PREC):
    print("   n=%4d  ratio = %.5f" % (row["n"], row["ratio"]))
print()

print("=== the logarithmic regime, u = -1/2 ===")
res = log_singularity_probe(Q(-1, 2), (0.9, 0.99, 0.999), PREC)
print("%d-term series; float engine vs exact prefix: %.1e" %
      (res["order"], res["prefix_rel_err"]))
for r in res["rows"]:
    print("   z/rho=%.3f  F''+4/u = %9.5f   C/ln(1-z/rho) = %9.5f   dev %.3f"
          % (r["z_frac"], r["lhs"], r["rhs"], r["deviation"]))
print("the O(1/ln) deviation shrinks as z -> rho: the law's signature.")
print()

print("=== how smooth is the transition at u = 0? ===")
g = quartic_smoothness_gap(0.05)
print("|rho(0.05) - affine law| = %.2e  <  exp(-2 pi/(sqrt(3) 0.05)) = %.2e"
      % (g["gap"], g["bound"]))
print("(infinitely differentiable but not analytic at 0)")
