"""Tour of the finite-table engine: posets, lattices, ortholattices.

Builds a handful of classic small structures and runs every law check on
them, printing the verdicts.  Run as `python demos/finite_law_checking.py`.
"""
from girardlab import (
    blocks,
    check_inversion,
    check_ortholattice,
    check_orthomodular,
    compatible,
    downset_oml,
    hasse_covers,
    is_boolean,
    is_complemented,
    is_distributive,
    validate_poset,
)
from girardlab.catalog import benzene_o6, boolean_ortho, diamond_m3, horizontal_sum_mo
from girardlab.render import export_dot

# ---------------------------------------------------------------------------
# Posets are explicit boolean matrices; validation names the broken axiom.
# ---------------------------------------------------------------------------
print("== poset validation ==")
good = validate_poset([[True, True], [False, True]], labels=["0", "1"])
print(f"2-chain accepted, covers: {hasse_covers(good)}")

try:
    validate_poset([[True, True], [True, True]])
except Exception as exc:
    print(f"cycle rejected: {exc}")

# ---------------------------------------------------------------------------
# M3, the diamond: complemented but famously not distributive.
# ---------------------------------------------------------------------------
print("\n== M3, the diamond ==")
m3 = diamond_m3()
print(f"distributive?  {is_distributive(m3)}")
report, comps = is_complemented(m3)
print(f"complemented?  {report}  complements={comps}")
print(f"boolean?       {is_boolean(m3)}")
print("note the witness: three distinct atoms violate distributivity")

# Its Hasse diagram, ready for graphviz:
print(export_dot(m3))

# ---------------------------------------------------------------------------
# Orthocomplements.  The benzene ring O6 satisfies every ortholattice
# axiom yet fails orthomodularity in all three equivalent forms.
# ---------------------------------------------------------------------------
print("== O6, the benzene ring ==")
o6 = benzene_o6()
print(f"ortholattice?  {check_ortholattice(o6.lattice, o6.ortho)}")
for r in check_orthomodular(o6):
    print(f"  {r}")
a, b = 1, 2
print(f"the witness pair is a <= b with a' /\\ b = 0, so a \\/ (a' /\\ b) stays a")

# ---------------------------------------------------------------------------
# MO2: the smallest orthomodular lattice that is not Boolean.
# Blocks are its maximal Boolean subalgebras.
# ---------------------------------------------------------------------------
print("\n== MO2 ==")
mo2 = horizontal_sum_mo(2)
print(f"orthomodular?  {[str(r.verdict) for r in check_orthomodular(mo2)]}")
print(f"blocks: {blocks(mo2)}")
print(f"a compatible with a'? {compatible(mo2, 1, 2)}")
print(f"a compatible with b?  {compatible(mo2, 1, 3)}")

down = downset_oml(mo2, 1)
print(f"downset at the atom a: {down.n} elements, ortho map {down.ortho}")

# ---------------------------------------------------------------------------
# Boolean cubes: complement is the unique orthocomplement, and it is an
# inversion (involutive and order-reversing).
# ---------------------------------------------------------------------------
print("\n== Boolean cube 2^3 ==")
b3 = boolean_ortho(3)
print(f"ortholattice?  {check_ortholattice(b3.lattice, b3.ortho)}")
print(f"inversion?     {check_inversion(b3.lattice, b3.ortho)}")
print(f"single block:  {blocks(b3)}")
