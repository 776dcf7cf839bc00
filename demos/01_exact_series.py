"""Walk through the exact series pipeline.

A p-valent planar map with a spanning forest gets weight z per face and u
per non-root tree.  The generating function F(z, u) comes from a pair of
implicitly defined series (R, S); this script solves them order by order,
prints the first coefficients, and shows the (u+1)-positivity that makes
the whole range u >= -1 combinatorially meaningful.
"""

from forestmaps.solver import solve

print("=== cubic maps (p = 3), symbolic u ===")
out = solve(3, 6)
print("R =", out.R)
print()
print("F =", out.F)
print()
print("The z^3 coefficient 6 + 4u says: ten forested cubic maps with 3 faces,")
print("six carrying a spanning tree and four a two-component forest.")
print()

print("=== leaf-rooted and root-edge-outside variants ===")
print("G =", out.G)
print("H =", out.H)
print()

print("=== the shifted variable mu = u + 1 ===")
for label, series in (("(R - z)/u", out.W1), ("S / u", out.W2), ("S~ / u", out.W_tilde)):
    mu = series.to_mu()
    flag = all(c.nonneg() for c in mu.coeffs)
    print("%-10s in mu: %s" % (label, mu))
    print("           all mu-coefficients nonnegative:", flag)
print()
print("Nonnegativity in mu is what lets u run down to -1: it rewrites the")
print("forest weights as weights on tree-rooted maps by internal activity.")
