"""Exhaustive search: integral residuations force Boolean algebras.

Enumerates all small lattices up to isomorphism, searches every
complemented one for integral residuated multiplications, and shows the
verdict: a multiplication exists exactly when the lattice is Boolean,
and then it can only be the meet.  The non-integral story is different,
as a budgeted search on MO2 demonstrates.
"""
from girardlab import (
    confirm_boolean_forcing,
    enumerate_lattices,
    search_integral_residuation,
    search_unital_residuation,
)
from girardlab.catalog import boolean_cube, chain, diamond_m3, horizontal_sum_mo
from girardlab.girard import check_unit_downset_boolean

# ---------------------------------------------------------------------------
# How many lattices are there?  (One representative per isomorphism class.)
# ---------------------------------------------------------------------------
result = enumerate_lattices(7)
print("lattices per size:", result.counts)

print("complemented:     ",
      {n: sum(len(rows) == n for rows in result.complemented_posets) for n in result.counts})

# ---------------------------------------------------------------------------
# Integral searches on individual lattices.
# ---------------------------------------------------------------------------
for lat, name in ((boolean_cube(2), "2^2"), (diamond_m3(), "M3"), (chain(3), "3-chain")):
    res = search_integral_residuation(lat)
    tables = [t.tolist() for t in res.found]
    print(f"\n{name}: {len(res.found)} integral multiplication(s), "
          f"exhausted={res.exhausted}")
    for t in tables:
        print(f"  {t}")

# The 3-chain is not complemented, and indeed carries two integral
# multiplications: the meet and the Lukasiewicz product.

# ---------------------------------------------------------------------------
# The full sweep: every complemented lattice on up to 7 elements.
# ---------------------------------------------------------------------------
print()
print(confirm_boolean_forcing(result))

# ---------------------------------------------------------------------------
# Dropping integrality changes everything.  MO2 is orthomodular and not
# Boolean, yet admits hundreds of unital multiplications (248 at full
# exploration, which takes 22027 search nodes, well within the default
# budget of 200000); a smaller budget already finds several, each with
# its unit sitting inside one block.  The search reads only the lattice;
# the block proposition is a fact about the ortholattice, checked here
# once per unit seen.
# ---------------------------------------------------------------------------
mo2 = horizontal_sum_mo(2)
res = search_unital_residuation(mo2.lattice, budget=50_000)
print(f"\nMO2 unital search: found={len(res.found)} exhausted={res.exhausted}")
units = sorted({s.flags.unit for s in res.structures})
print(f"units seen so far: {units}")
by_unit = {s.flags.unit: s for s in res.structures}
print("every hit satisfies the unit-downset block conclusions:",
      all(check_unit_downset_boolean(mo2, s).passed for s in by_unit.values()))

# The unital search runs on any lattice: M3 has no integral table, but
# an atom can serve as a unit.
res = search_unital_residuation(diamond_m3(), budget=None)
print(f"\nM3 unital search: found={len(res.found)} exhausted={res.exhausted}, "
      f"units {sorted({s.flags.unit for s in res.structures})}")
