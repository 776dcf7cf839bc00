"""The map series are differentially algebraic; verify it exactly.

The quartic series F' satisfies a second-order polynomial differential
equation of degree 7, the root-edge-outside series H one of degree 3, and
the quasi-cubic W = 2G - z/u one of degree 5.  Each is stored as a list of
monomial terms in a JSON data file and evaluated on solver output with
exact coefficients: the residual must vanish identically, including in u.
"""

from forestmaps.deverify import (
    DE_NAMES,
    IDENTITY_NAMES,
    check_de,
    check_identity,
    de_residual,
    de_target_series,
    load_de,
    perturb,
)

print("=== hypergeometric-side identities ===")
for name in IDENTITY_NAMES:
    order = 12 if name == "cubic_rs_derivative_rational" else 18
    print(" ", check_identity(name, order))
print()

print("=== the three differential equations, u symbolic ===")
for name in DE_NAMES:
    print(" ", check_de(name, 12))
print()

print("=== sensitivity: a single corrupted coefficient must be caught ===")
de = load_de("quartic_fprime")
_, target = de_target_series("quartic_fprime", 9)
print("residual on true series:      zero =", de_residual(de, target).is_zero())
bad = perturb(target, 4)
print("residual after bumping z^4:   zero =", de_residual(de, bad).is_zero())
