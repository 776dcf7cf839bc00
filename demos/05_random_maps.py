"""Large random forested maps under the Boltzmann measures (p = 4).

Weight a forested map by u^(components - 1), or a tree-rooted map by
(u+1)^(internal activity); at size n the component count grows linearly,
the root component stays finite with an explicit limit law, and the
activity density kappa_u interpolates smoothly through the u = 0
transition.  Limits come from the critical point; finite-n values from
exact series, so the approach is visible.
"""

from forestmaps.exact import Q
from forestmaps.hyp import Precision
from forestmaps.randmodel import (
    component_slope,
    finite_n_expectations,
    finite_n_root_size,
    kappa,
    s_limit_law,
    s_limit_law_tail_bound,
)

PREC = Precision(50)

print("=== density of forest components, E[C_n]/n -> u Phi(tau)/rho ===")
for u in (0.25, 0.5, 1, 2):
    print("   u=%.2f  slope = %.6f" % (u, component_slope(u, PREC)))
print()

print("=== internally active edges, E[I_n]/n -> kappa_u ===")
for u in (-1, -0.5, 0, 0.5, 1):
    print("   u=%4.1f  kappa = %.6f" % (u, kappa(u, PREC)))
print()

k1 = kappa(1, PREC)
print("finite-n check at u = 1 (exact series):")
for row in finite_n_expectations(Q(1), [50, 100, 200]):
    val = row["E_active_over_n"]
    print("   n=%3d  E[I_n]/n = %.6f   (limit %.6f, off by %.2f%%)"
          % (row["n"], val, k1, 100 * abs(val / k1 - 1)))
print()

print("=== size of the root component at u = 1 ===")
law = s_limit_law(1, 6, PREC)
fin = finite_n_root_size(Q(1), 200, 6)
print("   k    limit P(S=k)    P(S_200=k)")
for k in range(6):
    print("   %d    %.6f        %.6f" % (k + 1, law[k], fin[k]))
print("tail beyond k=40: <", s_limit_law_tail_bound(1, 40, PREC))
print()
print("At u = 0 the forest must be a spanning tree: one component that")
print("swallows the whole map; for u > 0 the root tree stays finite.")
