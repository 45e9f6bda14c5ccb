"""Residuated chains and the recognition of Girard structures.

Contrasts the Lukasiewicz chain (involutive, Girard) with the Godel
chain (residuated, not Girard) and shows the three independent Girard
recognitions agreeing on both.  Ends with a six-element orthomodular
lattice carrying a unital multiplication whose linear negation equals
the orthocomplement.
"""
import numpy as np

from girardlab import (
    check_boolean_idempotent_criterion,
    check_dualizer_join_formula,
    check_quantale,
    check_unit_downset_boolean,
    find_cyclic_dualizing,
    girard_equivalences,
    godel_chain,
    lukasiewicz_chain,
    residuated_structure,
)
from girardlab.catalog import mo2_subspace_model

# ---------------------------------------------------------------------------
# Residua are derived from the table, never postulated.
# ---------------------------------------------------------------------------
print("== Lukasiewicz 3-chain ==")
luk = lukasiewicz_chain(3)
print(f"elements: {luk.poset.labels}")
print(f"product table (index form):\n{np.asarray(luk.mul)}")
print(f"residuum table:\n{np.asarray(luk.rres)}")
print(f"flags: {luk.flags}")

# 1/2 * 1/2 collapses to 0; the structure is integral but not idempotent.
assert luk.mul[1, 1] == 0

# ---------------------------------------------------------------------------
# Girard recognition, three independent ways.
# ---------------------------------------------------------------------------
for s, name in ((luk, "Lukasiewicz"), (godel_chain(3), "Godel")):
    report = girard_equivalences(s)
    certs = report.certificates
    print(f"\n== {name} 3-chain ==")
    print(f"cyclic dualizing elements: {[c.d for c in certs]}")
    print(f"recognition agreement: {report.agreement}")
    if certs:
        cert = certs[0]
        print(f"negation: {cert.neg}, unit: {cert.e}")
        print(f"join-of-self-products formula: {check_dualizer_join_formula(s, cert, certs)}")
    print(f"Boolean iff idempotent with bottom dualizer: "
          f"{check_boolean_idempotent_criterion(s, certs)}")

# The Godel chain fails because double negation collapses: 1/2 -> 0 is 0,
# and 0 -> 0 is 1, so negation is not involutive.
g = godel_chain(3)
print(f"\nGodel double negation of 1/2: {g.rres[g.rres[1, 0], 0]} (should be 1 to be Girard)")

# ---------------------------------------------------------------------------
# A finite orthomodular non-Boolean example: MO2 with the multiplication
# inherited from subspaces of the plane.  The unit is an atom and one of
# its two linear negations is exactly the orthocomplement.
# ---------------------------------------------------------------------------
print("\n== MO2 with the subspace product ==")
o, mul = mo2_subspace_model()
s = residuated_structure(o.lattice, np.array(mul))
print(f"flags: {s.flags}")
print(f"quantale laws: {check_quantale(o.lattice, s.mul)}")
certs = find_cyclic_dualizing(s)
for c in certs:
    matches = "the orthocomplement" if c.neg == o.ortho else "a second inversion"
    print(f"dualizer d={o.label(c.d)}: negation is {matches}")
print(f"unit downset inside one block: {check_unit_downset_boolean(o, s)}")
