"""Brute-force census of small maps: the ground truth behind the algebra.

Rooted p-valent planar maps are pairs of permutations on darts (vertex
rotation, edge involution).  Enumerating them exhaustively and summing over
spanning forests must reproduce the series coefficients; summing activity
weights over spanning trees must reproduce the Tutte polynomial.
"""

from forestmaps.maps import (
    activity_poly,
    enumerate_maps,
    forest_poly,
    oracle_f,
    tutte_poly,
)
from forestmaps.solver import solve

print("=== rooted cubic maps with 3 faces ===")
maps33 = enumerate_maps(3, 3)
print("distinct rooted maps:", len(maps33))
for m in maps33:
    print("  sigma=%s  forest polynomial: %s" % (m.sigma, forest_poly(m)))
print("sum:", oracle_f(3, 3), " (solver says", solve(3, 4, names=("F",)).F.coeff(3), ")")
print()

print("=== Bernardi activities recover the Tutte polynomial ===")
m = maps33[0]
print("map:", m.sigma)
print("tutte  :", sorted(tutte_poly(m).items()))
print("tour   :", sorted(activity_poly(m).items()))
print()

print("=== the three oracle variants agree where they must ===")
for p, n in ((3, 3), (3, 4), (4, 3), (4, 4)):
    forests = oracle_f(p, n, "all_forests")
    active = oracle_f(p, n, "tree_rooted_activity")
    print("p=%d faces=%d  forests: %-30s activities: %s  equal: %s"
          % (p, n, forests, active, forests == active))
