"""Exhaustive enumeration of small lattices and residuation searches.

Lattices are enumerated up to isomorphism by canonical augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  The
children of a lattice P are P + c, with a new coatom c above a down-set
d of P.  Deleting a coatom, which is meet-irreducible, from a finite
lattice leaves a lattice, so every lattice is a child.  A child is
grown only when c has the largest down-set among its coatoms (see
_grow), and each orbit of masks d under the automorphisms of P gives
only its least.  When c is the only coatom with that down-set size, the
child is kept outright; when another coatom ties with c, it is kept
unless an earlier kept tie child of its size is isomorphic to it.  Each
class is kept exactly once, given one parent per class of the size
below:
- kept: a lattice L has a coatom c with the largest down-set; L - c is
  a lattice, isomorphic to a parent P, so L is isomorphic to a child
  P + c on some d.  sigma in Aut(P) maps d to the least mask of its
  orbit and extends to an isomorphism of the children that fixes c.
  Whether c ties is a property of the class, so that child is kept, or
  an isomorphic one before it;
- once: tie children are kept once per isomorphism class.  An
  isomorphism of two kept children without ties maps the one coatom
  with the largest down-set to the other, so it restricts to an
  isomorphism of their parents, which are then one parent P, and to an
  automorphism of P that maps one d to the other.  Both are least in
  their orbit, so they are equal.
Isomorphic posets have the same sorted classes, each element's (up-set
size, down-set size), so the kept tie children are bucketed by them and
a new one is tested only against its bucket, up to the first
isomorphism found.  One routine (orders._order_automorphism) gives the
automorphisms and those isomorphisms, here and in the unital search.
Within a size the lattices come in generation order.  The enumerator
keeps each lattice as the up-set bitmasks of its order, and builds its
FiniteLattice only when the result's lattices are first read, so a run
that only counts builds none.  A grown order is a lattice by
construction, so its FinitePoset is built directly and frozen: only
orders from outside are validated.  _grow lists the down-sets d that
hold the bottom directly, by an include/exclude pass over the elements,
so it visits no mask that is not a down-set.  The Boolean-forcing sweep
(confirm_boolean_forcing) works in that order too: complementation is
tested on the bitmasks (_complemented), then only the complemented
lattices are built, and only those are searched.  Counting them builds
nothing.

Residuation searches backtrack only over products of join-irreducible
pairs: a residuated multiplication preserves joins, so it is determined
by those values and the search stays exhaustive.  One searcher serves
both modes, one unit at a time: the unit e bounds each product,
x*y <= y when x <= e and x*y <= x when y <= e, so integral mode is the
search with its one unit at the top, where the bound is the meet.
Unital mode searches only the least unit of each orbit under the order
automorphisms of the lattice (see _search).  An order automorphism sigma
carries the unit law, associativity and residuation, so the tables for
the unit sigma[e] are those for e relabelled by sigma; the ortho map is
never read, so the automorphisms need not preserve it.  Units are taken
in index order, the searches share the budget, a mapped unit costs no
node, and the run stops at the first search that runs out of budget.
A node costs a few list lookups: monotonicity is one lower bound
precomputed per cell, and each irreducible's row is join-extended when
it completes (see _IrreducibleTableSearch).  A completed row also
finalises the full table rows of the elements whose irreducibles all
have rows by then, and two laws every solution satisfies prune on them:
L, the join law in the left argument, and A, associativity on pairs of
irreducibles.  Both read only rows of the current branch.  The value of
a row's last cell changes only the row's entries above the last
irreducible, so the row checks that read none of them, all but the
unit column, run once per visit of that cell, before its values, and
the rest once per value.
When a check of the visit fails, no value passes: the visit charges the
nodes its value loop would count and visits nothing.  Every
solution a search emits is re-verified through derive_residua, which
shares no code with the searcher's pruning.  A leaf is one check: the
two-sided unit law, then associativity, then residuated_structure.
Adjointness makes each one-sided product a left adjoint, so a table that
passes preserves joins in each argument and needs no separate join scan.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Dict, List, Optional, Tuple

import numpy as np

from .girard import check_unit_downset_boolean
from .orders import FiniteLattice, FinitePoset, _frozen, _masks, _order_automorphism, \
    _order_classes, compute_lattice, hasse_covers, is_distributive
from .ortho import OrthoLattice, is_orthomodular
from .reports import InputError, LawReport, law_fail, law_pass
from .residuation import ResiduatedStructure, ResiduationError, check_associative, \
    residuated_structure

MAX_ENUM = 10
DEFAULT_BUDGET = 200_000  # nodes of a unital search, and of the CLI's searches


# ---------------------------------------------------------------------------
# posets as tuples of upset bitmasks: rows[i] has bit j set iff i <= j
# ---------------------------------------------------------------------------

def _down_masks(rows: Tuple[int, ...]) -> List[int]:
    n = len(rows)
    return [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]


def canonical_key(rows: Tuple[int, ...]) -> tuple:
    """The minimum lexicographic relation encoding over the relabelings
    that keep each element's class, its (up-set size, down-set size).
    The classes are isomorphism invariants, so the minimum ranges over a
    set of permutations that always contains the isomorphisms; isomorphic
    posets share the key.  The encoding fixes the whole relabelled
    relation, so posets that share the key are isomorphic.

    The enumerator does not call it: it tests tie children for
    isomorphism directly.  It stays as the complete invariant the tests
    compare enumerations by, and perfbench/spans.py traces it by name."""
    n = len(rows)
    cls, members = _order_classes(rows)
    slot_class = sorted(cls)

    best: Optional[tuple] = None
    perm: List[int] = []
    used = [False] * n

    def rec(p: int, prefix: tuple):
        nonlocal best
        if p == n:
            if best is None or prefix < best:
                best = prefix
            return
        for cand in members[slot_class[p]]:
            if used[cand]:
                continue
            step = 0
            for q in range(p):
                step = step << 2 | (rows[cand] >> perm[q] & 1) << 1 | (rows[perm[q]] >> cand & 1)
            new_prefix = prefix + (step,)
            if best is not None and new_prefix > best[: p + 1]:
                continue
            used[cand] = True
            perm.append(cand)
            rec(p + 1, new_prefix)
            perm.pop()
            used[cand] = False

    rec(0, ())
    # rec reaches itself through its closure; deleting the name frees that
    # cycle now rather than at a collection
    del rec
    return best


def _grow(rows: Tuple[int, ...]):
    """(d, child, tie) for the one-larger lattices with a new coatom c
    that has the greatest down-set among the child's coatoms, in
    increasing order of d.  c sits under the top, element 0 of every
    grown lattice, above a down-closed set d of non-top elements, and d
    is its mask.  The child's other coatoms are the parent's coatoms
    outside d, with their parent down-sets, and c's down-set has |d| + 1
    elements; tie is True when one of those others has as many.  This
    test is cheap, so it runs first.  The module docstring shows how the
    tie flag and the orbits of d keep each class once.

    The child is a lattice exactly when d holds the bottom (any d when
    the parent has one element) and the join of any two members of d is
    in d or is the top, because:
    - the child has a bottom exactly when d holds the parent's, and a
      finite poset with a bottom is a lattice when all pairs have joins;
    - c \\/ x is c when x is in d, and the top otherwise;
    - a pair not wholly inside d keeps its parent join: c bounds neither;
    - for x, y in d with parent join j, the join is j if j is in d and c
      if j is the top; else j and c are two minimal upper bounds.
    Both tests are invariant under the parent's automorphisms, so the
    masks yielded are a union of orbits of them.

    The down-sets that hold the bottom and leave out the top are listed
    directly, each once: every other element in turn joins d with its
    down-set or is left out with its up-set, unless an earlier choice
    placed it already.  Neither choice contradicts an earlier one, as an
    element below a member is a member and one above an excluded element
    is excluded.
    """
    n = len(rows)
    downs = _down_masks(rows)
    up_of = {r: i for i, r in enumerate(rows)}
    bottom, new_bit = rows.index((1 << n) - 1), 1 << n
    # the parent's coatoms, the greatest down-set first
    coatoms = sorted((downs[i].bit_count(), i) for i in range(1, n) if rows[i] == 1 << i | 1)[::-1]
    # each incomparable pair as the mask of the two, with its join; a
    # comparable pair in d joins to its greater member, which is in d
    pairs = [(1 << x | 1 << y, up_of[rows[x] & rows[y]]) for x in range(n) for y in range(x)
             if not (rows[x] >> y & 1 or rows[y] >> x & 1)]
    # (d, out): the members so far, down-closed, and the elements left
    # out, up-closed; the top is out, and the bottom in unless it is the top
    masks = [(0 if n == 1 else 1 << bottom, 1)]
    for x in range(1, n):
        placed = []
        for d, out in masks:
            if (d | out) >> x & 1:
                placed.append((d, out))
            else:
                placed += [(d | downs[x], out), (d, out | rows[x])]
        masks = placed
    for d in sorted(d for d, _ in masks):
        size, rival = d.bit_count() + 1, 0
        for s, x in coatoms:
            if not d >> x & 1:
                rival = s
                break
        if size < rival:
            continue
        allowed = d | 1  # d and the top
        if all(allowed >> j & 1 for both, j in pairs if d & both == both):
            child = tuple(rows[i] | (new_bit if d >> i & 1 else 0) for i in range(n))
            yield d, child + (new_bit | 1,), size == rival


def _rows_to_lattice(rows: Tuple[int, ...]) -> FiniteLattice:
    n = len(rows)
    leq = (np.array(rows)[:, None] >> np.arange(n) & 1).astype(bool)
    return compute_lattice(FinitePoset(n, _frozen(leq), None))


def _complemented(rows: Tuple[int, ...]) -> bool:
    """Whether every element of the enumerated lattice has a complement.
    Element 0 is the top and b the bottom, so y complements x exactly
    when the top is their only common upper bound and b their only
    common lower bound."""
    downs = _down_masks(rows)
    top, bottom = rows[0], downs[rows.index((1 << len(rows)) - 1)]
    return all(any(rx & ry == top and dx & dy == bottom for ry, dy in zip(rows, downs))
               for rx, dx in zip(rows, downs))


@dataclass
class EnumerationResult:
    """posets holds each lattice as its up-set bitmasks, and
    complemented_posets those of the complemented ones, in the same
    order.  lattices and complemented build their FiniteLattice forms
    when first read, each from its own masks."""
    posets: List[Tuple[int, ...]]
    counts: Dict[int, int]

    @cached_property
    def lattices(self) -> List[FiniteLattice]:
        return [_rows_to_lattice(rows) for rows in self.posets]

    @cached_property
    def complemented_posets(self) -> List[Tuple[int, ...]]:
        return [rows for rows in self.posets if _complemented(rows)]

    @cached_property
    def complemented(self) -> List[FiniteLattice]:
        return [_rows_to_lattice(rows) for rows in self.complemented_posets]


def _orbit_least(rows: Tuple[int, ...]):
    """(child, tie) from _grow for the least mask d of each orbit under
    the parent's automorphisms, in increasing order of d."""
    grown = list(_grow(rows))
    # the masks grown are a union of orbits, so a lone mask is one
    autos = list(_order_automorphism(rows)) if len(grown) > 1 else [list(range(len(rows)))]
    seen = set()
    for d, child, tie in grown:  # by increasing d, so each orbit's least comes first
        if d not in seen:
            members = [i for i in range(len(rows)) if d >> i & 1]
            seen.update(sum(1 << sigma[i] for i in members) for sigma in autos)
            yield child, tie


def enumerate_lattices(max_n: int) -> EnumerationResult:
    """All lattices on at most max_n elements, one per isomorphism class,
    by size and in generation order within a size: each parent's kept
    children follow those of the parents before it.  A child whose new
    coatom ties is kept when no earlier kept tie child of its size is
    isomorphic to it, any other outright (see the module docstring).
    Every lattice grown is returned, as the up-set bitmasks of its order
    in posets; no FiniteLattice is built until the result's lattices are
    first read.
    Callers that want a subclass filter that list.
    """
    if not 1 <= max_n <= MAX_ENUM:
        raise InputError(f"max_n must be in 1..{MAX_ENUM}")

    posets: List[Tuple[int, ...]] = []
    counts: Dict[int, int] = {}
    frontier: List[Tuple[int, ...]] = [(1,)]
    for size in range(1, max_n + 1):
        posets += frontier
        counts[size] = len(frontier)
        if size < max_n:
            grown: List[Tuple[int, ...]] = []
            # the kept tie children, by their sorted classes
            ties: Dict[tuple, List[Tuple[int, ...]]] = {}
            for rows in frontier:
                for child, tie in _orbit_least(rows):
                    if tie:
                        kept = ties.setdefault(tuple(sorted(_order_classes(child)[0])), [])
                        if any(next(_order_automorphism(child, target=other), None) is not None
                               for other in kept):
                            continue
                        kept.append(child)
                    grown.append(child)
            frontier = grown
    return EnumerationResult(posets, counts)


# ---------------------------------------------------------------------------
# residuation searches
# ---------------------------------------------------------------------------

@dataclass
class ResiduationSearchResult:
    mode: str
    found: List[np.ndarray]
    structures: List[ResiduatedStructure]
    exhausted: bool
    nodes: int = 0
    downset_unit_reports: Optional[List[LawReport]] = None


def _lattice_id(l: FiniteLattice) -> str:
    return f"n={l.n};covers={hasse_covers(l)}"


class _IrreducibleTableSearch:
    """Backtracking over products of join-irreducible pairs, for the unit e.

    The full table is the join-extension of the cells' values.  Cells
    are visited in one fixed order, row by row over the irreducibles
    sorted by height, and each cell's bookkeeping is set up once per
    search.  A cell (i, j) ranges over the values its unit allows (see
    domain): those below j when i <= e and below i when j <= e, so below
    the meet when e is the top, and only i or j where the unit law pins
    the cell.  The search keeps the cells' values monotone:
    a(i, j) <= a(i2, j2) whenever i <= i2 and j <= j2.  So only the
    greatest members of a set of cells or irreducibles count in a join
    over their values:

    - a value v of a cell passes the monotonicity test iff lo <= v, lo
      the join of the values of the greatest cells below it: (c, j) and
      (i, c) for each irreducible c that i, resp. j, covers among the
      irreducibles.  Every cell below a cell comes earlier, as an
      irreducible lies below one of no greater height only when the two
      are equal;
    - when the row of the irreducible i at position t is complete, its
      join-extension R_t[y] = \\/ {a(i, j) : j <= y irreducible} is
      computed and cached.  By monotonicity it is row i of the full
      extension, and row x, full(x), is the join of R_s over the
      positions s of the greatest irreducibles below x.

    full(x) is final once every irreducible below x has its row, that
    is when the row at position maxpos[x], the greatest position of an
    irreducible below x, completes; it is cached then.  Every row and
    full row read at position t was written on the current branch, as
    only those at positions up to t are read.  A leaf table is the
    join-extension, and _leaf rejects it unless it is associative and
    residuated, hence join-preserving in each argument.  So two laws
    that only final rows enter prune soundly when row t completes:

    - L, the left law: full(a \\/ b) = full(a) \\/ full(b) for each
      incomparable pair a, b with maxpos[a \\/ b] = t (comparable pairs
      hold by monotonicity);
    - A, associativity on irreducibles: full(x*y)[z] = R_x[R_y[z]] for
      all z, for irreducibles x, y at positions p, q with
      max(p, q, maxpos[x*y]) = t.  Before that, one of the rows it reads
      is not final.

    Row t completes in two steps.  The last irreducible has the greatest
    height, so it is one of the greatest irreducibles below each element
    above it, and the value v of the row's last cell enters only the
    entries at those elements.  row_visit runs once per visit of the last
    cell: it joins the row without v, the partial row, and checks what v
    cannot change: the consistency of the incomparable pairs whose join
    is not above, that partial[a] \\/ partial[b] is one element for each
    join a \\/ b above a and b that are not, and that full(a) \\/ full(b)
    is one row for each a \\/ b over the pairs of L final before t.  When
    one fails, no value passes: the visit charges the nodes its value
    loop would count, each value up to the budget, and visits nothing.
    row_ok runs the rest per value: one comparison for each such join,
    the unit column, the pairs with a member above, the other pairs of
    L, and A.  Each check is a conjunct of the row's verdict, so the
    nodes are those of a search that runs every check per value.
    """

    def __init__(self, l: FiniteLattice, e: int):
        self.l = l
        self.e = e  # the unit
        n, leq = l.n, l.leq.tolist()
        self.leq_rows, self.join_rows, self.meet_rows = leq, l.join.tolist(), l.meet.tolist()
        # downs[y]: the elements below y, in increasing order and as a bitmask
        self.downs = [[x for x, below in enumerate(col) if below] for col in l.leq.T.tolist()]
        down_masks = _masks(l.leq.T)
        # x is join-irreducible iff it has exactly one lower cover, lower[x],
        # that is iff the elements strictly below it are the down-set of one
        down_of = {mask: x for x, mask in enumerate(down_masks)}
        lower = {x: down_of[mask ^ 1 << x] for x, mask in enumerate(down_masks)
                 if mask ^ 1 << x in down_of}
        self.irr = irr = sorted(lower, key=lambda i: (len(self.downs[i]), i))
        r = len(irr)
        # below[x]: the positions in irr of the irreducibles below x, in
        # increasing order and as a bitmask; above[s]: those above irr[s], s too
        below = [[s for s, i in enumerate(irr) if mask >> i & 1] for mask in down_masks]
        below_masks, above = _masks(l.leq[irr].T), _masks(l.leq[irr][:, irr])
        self.below_irr = [[irr[s] for s in pos] for pos in below]
        # positions in irr of the greatest irreducibles below each element
        self.tops = [[s for s in pos if mask & above[s] == 1 << s]
                     for pos, mask in zip(below, below_masks)]
        self.cells = [(i, j) for i in self.irr for j in self.irr]
        # cell k is (irr[k // r], irr[k % r]); the greatest cells below cell
        # (t, s) are (c, s) and (t, c) for the lower covers c of t and of s
        # among the irreducibles, the greatest below their lower covers in
        # the lattice, and they come earlier, in increasing order
        covers = [self.tops[lower[i]] for i in irr]
        self.lows = [[c * r + s for c in covers[t]] + [t * r + c for c in covers[s]]
                     for t in range(r) for s in range(r)]
        self.domains = [self.domain(i, j) for i, j in self.cells]
        self.values = [l.bottom] * len(self.cells)  # values[k]: the value of cell k
        self.rows: List[Optional[List[int]]] = [None] * r  # R_t, by position t
        self.full: List[Optional[List[int]]] = [None] * l.n  # full(x), once final
        self.full[l.bottom] = [l.bottom] * l.n
        # the row without its last cell joins the other greatest irreducibles;
        # the last cell's value joins in at the elements above irr[r - 1]
        # (tops lists positions in increasing order)
        ends_last = [bool(tops) and tops[-1] == r - 1 for tops in self.tops]
        self.tops_but_last = [tops[:-1] if last else tops
                              for tops, last in zip(self.tops, ends_last)]
        self.above_last = [y for y, last in enumerate(ends_last) if last]
        self.maxpos = maxpos = [tops[-1] if tops else -1 for tops in self.tops]
        # only incomparable pairs (a, b) can break the join consistency of a
        # monotone row: for a <= b it reads row[b] = row[a] \/ row[b].  The
        # elements above irr[r - 1] are an up-set, so a pair reads the last
        # value at none of its entries (fixed_pairs), only at a \/ b
        # (joined_pairs, by a \/ b) or at a or b (value_pairs)
        self.fixed_pairs, self.value_pairs = [], []
        joined: Dict[int, list] = {}
        # what row t's completion finalises and checks, by position t: the
        # full rows and L by maxpos, L's pairs final before t by a \/ b
        self.finals: List[list] = [[] for _ in range(r)]
        self.left_fixed: List[list] = [[] for _ in range(r)]
        self.left_law: List[list] = [[] for _ in range(r)]
        left_fixed: Dict[int, list] = {}
        join = self.join_rows
        for a, b, ab in [(a, b, join[a][b]) for a in range(n) for b in range(a + 1, n)
                         if not (leq[a][b] or leq[b][a])]:
            if ends_last[a] or ends_last[b]:
                self.value_pairs.append((a, b, ab))
            elif ends_last[ab]:
                joined.setdefault(ab, []).append((a, b))
            else:
                self.fixed_pairs.append((a, b, ab))
            if maxpos[a] < maxpos[ab] > maxpos[b]:
                left_fixed.setdefault(ab, []).append((a, b))
            else:
                self.left_law[maxpos[ab]].append((a, b, ab))
        self.joined_pairs = list(joined.items())
        for ab, pairs in left_fixed.items():
            self.left_fixed[maxpos[ab]].append((ab, pairs))
        # each element with the positions of its earlier rows
        for x, tops in enumerate(self.tops):
            if tops:
                self.finals[tops[-1]].append((x, tops[:-1]))
        # (cell index, p, q) by max(p, q): row t reads the first (t + 1) ** 2,
        # the cells with p, q <= t, and its own from t ** 2 on, those with
        # p = t or q = t
        self.pairs = []
        for t in range(r):
            self.pairs += [(t * r + s, t, s) for s in range(t)]
            self.pairs += [(s * r + t, s, t) for s in range(t + 1)]

    def domain(self, i: int, j: int) -> List[int]:
        """The values cell (i, j) ranges over, in search order.  The unit
        law pins a lone extension cell outright; otherwise the unit bounds
        the cell: x <= e gives x*y <= e*y = y, and likewise on the right."""
        e, below_irr, leq = self.e, self.below_irr, self.leq_rows
        if below_irr[e] == [e]:
            if j == e and below_irr[i] == [i]:
                return [i]
            if i == e and below_irr[j] == [j]:
                return [j]
        bound = self.l.top
        if leq[i][e]:
            bound = j
        if leq[j][e]:
            bound = self.meet_rows[bound][i]
        return self.downs[bound]

    def row_visit(self, t: int) -> Optional[tuple]:
        """Run once per visit of row t's last cell, before its values: the
        checks of row t that the last value cannot change.  None when one
        fails, else what row_ok reads for each value: the row without
        the last value, the join each of joined_pairs must reach, the full
        row L asks of each of left_fixed[t], and the join of the earlier
        rows of each element the row finalises, or None when it has none."""
        join, rows, full, r = self.join_rows, self.rows, self.full, len(self.irr)
        bottom, products = self.l.bottom, self.values[t * r:(t + 1) * r]
        partial = []
        for tops in self.tops_but_last:
            acc = bottom
            for s in tops:
                acc = join[acc][products[s]]
            partial.append(acc)
        for a, b, ab in self.fixed_pairs:
            if partial[ab] != join[partial[a]][partial[b]]:
                return None
        joins = []
        for ab, pairs in self.joined_pairs:
            a, b = pairs[0]
            target = join[partial[a]][partial[b]]
            for a, b in pairs[1:]:
                if join[partial[a]][partial[b]] != target:
                    return None
            joins.append((partial[ab], target))
        laws = []
        for ab, pairs in self.left_fixed[t]:
            a, b = pairs[0]
            target = [join[u][w] for u, w in zip(full[a], full[b])]
            for a, b in pairs[1:]:
                if [join[u][w] for u, w in zip(full[a], full[b])] != target:
                    return None
            laws.append((ab, target))
        earlier = []
        for x, tops in self.finals[t]:
            acc = rows[tops[0]] if tops else None
            for s in tops[1:]:
                acc = [join[u][w] for u, w in zip(acc, rows[s])]
            earlier.append((x, acc))
        return partial, joins, laws, earlier

    def row_ok(self, t: int, v: int, visit: tuple) -> bool:
        """Called when row t completes with last value v, after row_visit
        passed: the checks that read v.  Row t's join consistency and the
        unit column must hold; then R_t and the full rows it finalises
        are cached, and L and A must hold."""
        join, rows, full = self.join_rows, self.rows, self.full
        partial, joins, laws, earlier = visit
        join_v = join[v]
        for at_ab, target in joins:
            if join_v[at_ab] != target:
                return False
        row = partial[:]
        for y in self.above_last:
            row[y] = join_v[row[y]]
        if row[self.e] != self.irr[t]:
            return False
        for a, b, ab in self.value_pairs:
            if row[ab] != join[row[a]][row[b]]:
                return False
        rows[t] = row
        for x, acc in earlier:
            full[x] = row if acc is None else [join[u][w] for u, w in zip(acc, row)]
        for ab, target in laws:
            if full[ab] != target:
                return False
        for a, b, ab in self.left_law[t]:
            if [join[u][w] for u, w in zip(full[a], full[b])] != full[ab]:
                return False
        values, maxpos, pairs = self.values, self.maxpos, self.pairs
        # A on the cells with p = t or q = t once full(x*y) is final, and
        # on the earlier cells when it becomes final with this row
        for k, p, q in pairs[t * t:(t + 1) ** 2]:
            xy = values[k]
            if maxpos[xy] <= t:
                row_x = rows[p]
                if [row_x[u] for u in rows[q]] != full[xy]:
                    return False
        for k, p, q in islice(pairs, t * t):
            xy = values[k]
            if maxpos[xy] == t:
                row_x = rows[p]
                if [row_x[u] for u in rows[q]] != full[xy]:
                    return False
        return True

    def extension(self) -> np.ndarray:
        return np.array(self.full, dtype=np.intp)

    def run(self, budget: Optional[int] = None):
        """(hits, exhausted, nodes): hits pairs each found table with its
        verified structure, in search order.  Open cells wait on an
        explicit stack, so the recursion limit bounds no search depth."""
        cells, values, domains, lows = self.cells, self.values, self.domains, self.lows
        leq, join, bottom, r = self.leq_rows, self.join_rows, self.l.bottom, len(self.irr)
        limit = float("inf") if budget is None else budget
        # the position of the row cell k completes, or None
        completes = [k // r if (k + 1) % r == 0 else None for k in range(len(cells))]
        hits: List[Tuple[np.ndarray, ResiduatedStructure]] = []
        nodes = 0
        frames: List[tuple] = []  # (k, values left to try, above_lo, t, visit) per open cell
        k = 0
        while True:
            if k == len(cells):
                m = self.extension()
                s = _leaf(self.l, self.e, m)
                if s is not None:
                    hits.append((m, s))
            else:
                t = completes[k]
                visit = None if t is None else self.row_visit(t)
                if t is not None and visit is None:
                    # no value passes: charge the nodes the value loop would count
                    if nodes + len(domains[k]) > limit:
                        return hits, False, limit
                    nodes += len(domains[k])
                else:
                    lo = bottom
                    for k2 in lows[k]:
                        lo = join[lo][values[k2]]
                    frames.append((k, iter(domains[k]), leq[lo], t, visit))
            # the next value of the innermost open cell that passes, if any
            while frames:
                k, todo, above_lo, t, visit = frames[-1]
                for v in todo:
                    if nodes >= limit:
                        return hits, False, nodes
                    nodes += 1
                    if above_lo[v]:
                        values[k] = v
                        if t is None or self.row_ok(t, v, visit):
                            break
                else:
                    frames.pop()
                    continue
                k += 1
                break
            else:
                return hits, True, nodes


def _leaf(l: FiniteLattice, e: int, m: np.ndarray) -> Optional[ResiduatedStructure]:
    """The verified structure of a leaf table, or None when the table has
    no two-sided unit e, is not associative or is not residuated."""
    x = np.arange(l.n)
    if not ((m[:, e] == x) & (m[e] == x)).all() or check_associative(m).failed:
        return None
    try:
        return residuated_structure(l, m)
    except ResiduationError:
        return None


def _mapped_hits(l: FiniteLattice, e: int, sigma: np.ndarray,
                 hits: List[Tuple[np.ndarray, ResiduatedStructure]]
                 ) -> List[Tuple[np.ndarray, ResiduatedStructure]]:
    """The hits of the unit sigma^-1[e] carried to the unit e by the order
    automorphism sigma: table m becomes sigma[m[inverse, inverse]], which
    sends sigma[x] and sigma[y] to sigma[m[x, y]].  Unit, associativity
    and residuation carry over, so each mapped table must pass _leaf."""
    if not (l.leq[np.ix_(sigma, sigma)] == l.leq).all():
        raise RuntimeError(f"{sigma.tolist()} is not an order automorphism")
    inverse = np.argsort(sigma)
    mapped = []
    for m, _ in hits:
        table = sigma[m[np.ix_(inverse, inverse)]]
        s = _leaf(l, e, table)
        if s is None:
            raise RuntimeError(f"{sigma.tolist()} maps a table to one that fails for unit {e}")
        mapped.append((table, s))
    return mapped


def _search(l: FiniteLattice, mode: str, units: List[int],
            budget: Optional[int]) -> ResiduationSearchResult:
    """The hits for the units, taken in index order, sorted by table.

    A unit is searched only when it is the least unit of its orbit under
    the order automorphisms of l: a unit sigma[rep] for an earlier
    searched unit rep takes rep's hits, mapped by sigma and verified
    (see _mapped_hits).  The searches share the budget, and mapping costs
    no node.  Each search is left the budget that remains, so one that
    needs no node exhausts at any budget, and the run stops after the
    first search that runs out of it.  With one unit, as in integral
    mode, no automorphism is looked for."""
    hits: List[Tuple[np.ndarray, ResiduatedStructure]] = []
    searched: Dict[int, List[Tuple[np.ndarray, ResiduatedStructure]]] = {}
    nodes, exhausted = 0, True
    rows = _masks(l.leq) if len(units) > 1 else None  # the up-set bitmasks orbits read
    for e in units:
        orbit = next(((rep, sigma) for rep in searched
                      for sigma in islice(_order_automorphism(rows, rep, e), 1)), None)
        if orbit is not None:
            rep, sigma = orbit
            hits += _mapped_hits(l, e, np.array(sigma, dtype=np.intp), searched[rep])
            continue
        remaining = None if budget is None else budget - nodes
        unit_hits, exhausted, unit_nodes = _IrreducibleTableSearch(l, e).run(budget=remaining)
        searched[e] = unit_hits
        hits += unit_hits
        nodes += unit_nodes
        if not exhausted:
            break
    hits.sort(key=lambda hit: tuple(hit[0].ravel()))
    return ResiduationSearchResult(mode, [m for m, _ in hits], [s for _, s in hits],
                                   exhausted, nodes)


def search_integral_residuation(l: FiniteLattice,
                                budget: Optional[int] = None) -> ResiduationSearchResult:
    """Search for multiplications making l an integral residuated
    lattice, the unit at the top: exhaustive without a budget, else
    exhausted=False once budget nodes are spent, with whatever was found
    so far."""
    return _search(l, "integral", [l.top], budget)


def search_unital_residuation(o: OrthoLattice,
                              budget: int = DEFAULT_BUDGET) -> ResiduationSearchResult:
    """Budgeted search for unital join-preserving associative tables on
    an orthomodular lattice, the unit anywhere in the carrier.

    Every hit is listed with its unit's unit-downset report, made once
    per unit; a consumed budget is reported as exhausted=False with
    whatever was found so far."""
    if not is_orthomodular(o):
        raise InputError("unital search expects an orthomodular carrier")
    l = o.lattice
    units = [l.top] if l.n == 1 else [e for e in range(l.n) if e != l.bottom]
    result = _search(l, "unital", units, budget)
    reports: Dict[int, LawReport] = {}
    for s in result.structures:
        if s.flags.unit not in reports:
            reports[s.flags.unit] = check_unit_downset_boolean(o, s)
    result.downset_unit_reports = [reports[s.flags.unit] for s in result.structures]
    return result


def confirm_boolean_forcing(result: EnumerationResult) -> LawReport:
    """For every complemented lattice of an enumeration, an integral
    residuated multiplication exists exactly when the lattice is Boolean,
    and on Boolean lattices the only one is the meet (hence idempotent:
    the meet's diagonal is the identity).  Verified by exhaustive search
    on result.complemented, so only the complemented lattices are built;
    the counts per size run over the sizes of result.counts."""
    complemented = result.complemented
    for idx, lat in enumerate(complemented):
        res = search_integral_residuation(lat)
        boolean = is_distributive(lat).passed  # a complemented lattice is Boolean iff distributive
        if bool(res.found) != boolean:
            return law_fail(
                "complemented-integral-iff-boolean",
                (lat.n, idx),
                f"boolean={boolean} but search found {len(res.found)} tables on {_lattice_id(lat)}",
            )
        if boolean and (len(res.found) != 1 or not (res.found[0] == lat.meet).all()):
            return law_fail(
                "complemented-integral-iff-boolean",
                (lat.n, idx),
                f"Boolean lattice admits {len(res.found)} tables, expected only the meet",
            )
    sizes = ", ".join(f"{size}:{sum(lat.n == size for lat in complemented)}"
                      for size in result.counts)
    return law_pass(
        "complemented-integral-iff-boolean",
        f"{len(complemented)} complemented lattices checked (per size {sizes})",
    )
