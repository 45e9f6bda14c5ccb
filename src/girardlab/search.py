"""Exhaustive enumeration of small lattices and residuation searches.

Lattices are enumerated up to isomorphism by canonical augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  The
children of a lattice P are P + c, with a new coatom c above a down-set
d of P.  Deleting a coatom, which is meet-irreducible, from a finite
lattice leaves a lattice, so every lattice is a child.  A child is
grown only when c has the largest down-set among its coatoms (see
_grow), and each orbit of masks d under the automorphisms of P gives
only its least.  The orbits are built from a few generators of Aut(P),
found by a stabiliser chain (orders._stabiliser_generators), so no
parent's group is listed: the masks are walked by increasing d, and
each one not seen yet is closed under the generators, so the first
mask met of an orbit is its least (see _orbit_least).  When c is the
only coatom with that down-set size, the child is kept outright; when
another coatom ties with c, it is kept unless an earlier kept tie child
of its size is isomorphic to it.  Each class is kept exactly once,
given one parent per class of the size below:
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
isomorphism found.  One routine (orders._order_automorphism) finds the
generators' maps and those isomorphisms; orders._orbit closes a point or
a mask under generators, here and in the unital search.
Within a size the lattices come in generation order.  The enumerator
keeps each lattice as the up-set bitmasks of its order, and builds its
FiniteLattice only when the result's lattices are first read, so a run
that only counts builds none.  While a lattice may still grow, its
down-set bitmasks travel beside it: a child's follow from its parent's
in O(n), and its classes are their bit counts (see _frontiers).  A
grown order is a lattice by construction, so its FinitePoset is built
directly and frozen: only orders from outside are validated.  _grow
lists the down-sets d that hold the bottom directly, by an
include/exclude pass over the elements, so it visits no mask that is
not a down-set.  The Boolean-forcing sweep (confirm_boolean_forcing)
works in that order too: complementation is tested on the bitmasks
(_complemented), then only the complemented lattices are built, and
only those are searched.  Counting them builds nothing.

Residuation searches backtrack only over products of join-irreducible
pairs: a residuated multiplication preserves joins, so it is determined
by those values and the search stays exhaustive.  One searcher serves
both modes, one unit at a time: the unit e bounds each product,
x*y <= y when x <= e and x*y <= x when y <= e, so integral mode is the
search with its one unit at the top, where the bound is the meet.
Unital mode finds a few generators of Aut(L), the order automorphisms
of the lattice, once, by a stabiliser chain without listing the group
(orders._stabiliser_generators), and searches only the least unit of
each orbit under them (see _search).  An order automorphism sigma
carries the unit law, associativity and residuation, so the tables for
the unit sigma[e] are those for e relabelled by sigma.  The automorphisms
that fix e permute e's own tables, so the searcher also gets generators
of them, from a chain of their own.  It prunes a table that is
lexicographically greater than its image by one of them (lex-leader
symmetry breaking: Crawford, Ginsberg, Luks & Roy, KR 1996), and _search
closes the tables found under the generators of Aut(L), so a budgeted
search returns the whole Aut(L)-orbit of each table it finds, the
tables of the skipped units among them.  Integral mode has one unit and
looks for no automorphism.  Both modes read only the lattice, so they
run on any lattice.  Units are taken in index order, the searches share
the budget, a skipped unit or a carried table costs no node, and the
run stops at the first search that runs out of budget.
A node costs a few list lookups: monotonicity is one lower bound
precomputed per cell, and each irreducible's row is join-extended when
it completes (see _IrreducibleTableSearch).  A completed row also
finalises the full table rows of the elements whose irreducibles all
have rows by then, and two laws every solution satisfies prune on them:
L, the join law in the left argument, and A, associativity on pairs of
irreducibles.  Both read only rows of the current branch.  L and each
row's join law read only pairs with an irreducible member, which imply
the rest on monotone rows.  A row's last value changes only its entries
above the last irreducible, so the checks that read none of them, all
but the unit column, run once per visit of that cell and the rest per
value.  When a check of the visit fails, no value passes: the visit
charges the nodes its value loop would count and visits nothing.  Every
solution a search emits is re-verified through derive_residua, which
shares no code with the searcher's pruning.  A leaf is the two-sided
unit law, then residuation.check_residuated, the CLI's check of a table:
associativity, then the derived residua.
Adjointness makes each one-sided product a left adjoint, so a table that
passes preserves joins in each argument and needs no separate join scan.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .orders import FiniteLattice, FinitePoset, _classes, _down_masks, _frozen, _lower_covers, \
    _masks, _members, _orbit, _order_automorphism, _stabiliser_generators, compute_lattice, \
    hasse_covers, is_distributive
from .reports import InputError, LawReport, law_fail, law_pass
from .residuation import ResiduatedStructure
from . import residuation

MAX_ENUM = 12
DEFAULT_BUDGET = 200_000  # nodes of a unital search, and of the CLI's searches


# ---------------------------------------------------------------------------
# posets as tuples of upset bitmasks: rows[i] has bit j set iff i <= j
# ---------------------------------------------------------------------------

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
    cls = _classes(rows, _down_masks(rows))
    members = _members(cls)
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


def _grow(rows: Tuple[int, ...], downs: Tuple[int, ...]):
    """(d, child, tie) for the one-larger lattices with a new coatom c
    that has the greatest down-set among the child's coatoms, in
    increasing order of d.  c sits under the top, element 0 of every
    grown lattice, above a down-closed set d of non-top elements, and d
    is its mask; downs are the parent's down-set bitmasks.  The child's
    other coatoms are the parent's coatoms outside d, with their parent
    down-sets, and c's down-set has |d| + 1 elements; tie is True when
    one of those others has as many.  This test is cheap, so it runs
    first.  The module docstring shows how the tie flag and the orbits
    of d keep each class once.

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
    up_of = {r: i for i, r in enumerate(rows)}
    bottom, new_bit = rows.index((1 << n) - 1), 1 << n
    coatom = (new_bit | 1,)  # c's up-set, one object for all the children
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
            # a row outside d is the parent's own int object
            child = tuple(r | new_bit if d >> i & 1 else r for i, r in enumerate(rows))
            yield d, child + coatom, size == rival


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
    order.  lattices builds their FiniteLattice forms when first read."""
    posets: List[Tuple[int, ...]]
    counts: Dict[int, int]

    @cached_property
    def lattices(self) -> List[FiniteLattice]:
        return [_rows_to_lattice(rows) for rows in self.posets]

    @cached_property
    def complemented_posets(self) -> List[Tuple[int, ...]]:
        return [rows for rows in self.posets if _complemented(rows)]


def _orbit_least(rows: Tuple[int, ...], downs: Tuple[int, ...]):
    """(d, child, tie) from _grow for the least mask d of each orbit under
    the parent's automorphisms, in increasing order of d.

    The orbits come from a few generators of Aut(P), the automorphisms
    that fix the top, element 0, found by a stabiliser chain without
    listing the group (orders._stabiliser_generators).  The group is
    finite, so the orbit of d is its closure under the generators.
    The masks grown are a union of orbits, and the masks seen are a
    union of whole orbits, each closed when its first mask is met.  So
    when the walk by increasing d meets an unseen d, no member of its
    orbit came before it: d is the least."""
    grown = list(_grow(rows, downs))
    if len(grown) < 2:  # a lone mask is an orbit
        yield from grown
        return
    generators = _stabiliser_generators(rows, downs, 0)
    # each generator as a map of masks: the bits i with one shift
    # sigma[i] - i move together, by that shift plus n and then back by n
    n, maps = len(rows), []
    for sigma in generators:
        shifts = [y - i + n for i, y in enumerate(sigma)]
        moves = [(s, sum(1 << i for i, t in enumerate(shifts) if t == s)) for s in set(shifts)]
        maps.append(lambda mask, moves=moves: sum([(mask & m) << s for s, m in moves]) >> n)
    seen = set()
    for d, child, tie in grown:
        if d not in seen:
            seen |= _orbit(d, maps)
            yield d, child, tie


def _frontiers(max_n: int):
    """(posets, downs) for each size through max_n: the lattices of that
    size in generation order, as the up-set bitmasks of their orders,
    and beside them their down-set bitmasks, or None at max_n, where
    none is grown.  A child's down-sets are its parent's, but the top
    gains the new coatom and the new coatom's is d and itself; the
    classes are the bit counts of the two.  A child whose new coatom
    ties is kept when no earlier kept tie child of its size is
    isomorphic to it, any other outright (see the module docstring); the
    kept tie children keep their classes for that test until the size
    is done."""
    posets, downs_of = [(1,)], [(1,)] if max_n > 1 else None
    yield posets, downs_of
    for size in range(2, max_n + 1):
        new_bit, last = 1 << size - 1, size == max_n
        grown: List[Tuple[int, ...]] = []
        grown_downs: Optional[list] = None if last else []
        # the kept tie children with their classes, by their sorted classes
        ties: Dict[tuple, list] = {}
        for rows, downs in zip(posets, downs_of):
            top = (downs[0] | new_bit,)
            for d, child, tie in _orbit_least(rows, downs):
                child_downs = top + downs[1:] + (d | new_bit,)
                if tie:
                    cls = _classes(child, child_downs)
                    kept = ties.setdefault(tuple(sorted(cls)), [])
                    if any(next(_order_automorphism(child, target=other, classes=cls,
                                                    target_classes=other_cls), None) is not None
                           for other, other_cls in kept):
                        continue
                    kept.append((child, cls))
                grown.append(child)
                if not last:
                    grown_downs.append(child_downs)
        posets, downs_of = grown, grown_downs
        yield posets, downs_of


def enumerate_lattices(max_n: int) -> EnumerationResult:
    """All lattices on at most max_n elements, one per isomorphism class,
    by size and in generation order within a size: each parent's kept
    children follow those of the parents before it (see _frontiers).
    Every lattice grown is returned, as the up-set bitmasks of its order
    in posets; no FiniteLattice is built until the result's lattices are
    first read.
    Callers that want a subclass filter that list.
    """
    if not 1 <= max_n <= MAX_ENUM:
        raise InputError(f"max_n must be in 1..{MAX_ENUM}")

    posets: List[Tuple[int, ...]] = []
    counts: Dict[int, int] = {}
    for size, (frontier, _) in enumerate(_frontiers(max_n), 1):
        posets += frontier
        counts[size] = len(frontier)
    return EnumerationResult(posets, counts)


# ---------------------------------------------------------------------------
# residuation searches
# ---------------------------------------------------------------------------

@dataclass
class ResiduationSearchResult:
    structures: List[ResiduatedStructure]
    exhausted: bool
    nodes: int = 0

    @property
    def found(self) -> List[np.ndarray]:
        """The tables of the structures, in the same order."""
        return [s.mul for s in self.structures]


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
      computed.  By monotonicity it is row i of the full extension, and
      row x, full(x), is the join of R_s over the positions s of the
      greatest irreducibles below x; R_t is kept only as full(i).

    full(x) is final once every irreducible below x has its row, that
    is when the row at position maxpos[x], the greatest position of an
    irreducible below x, completes; it is cached then.  Every full row
    read at position t was written on the current branch, as only those
    at positions up to t are read.  A leaf table is the join-extension,
    and _leaf rejects it unless it is associative and residuated, hence
    join-preserving in each argument.  So two laws that only final rows
    enter prune soundly when row t completes:

    - L, the left law: full(a \\/ b) = full(a) \\/ full(b) for each
      incomparable pair a, b with maxpos[a \\/ b] = t (comparable pairs
      hold by monotonicity);
    - A, associativity on irreducibles: full(x*y)[z] = R_x[R_y[z]] for
      all z, for irreducibles x, y at positions p, q with
      max(p, q, maxpos[x*y]) = t.  Before that, one of the rows it reads
      is not final.

    L and each row's join law are checked only on pairs with an
    irreducible member: a monotone f, as R_t and full are, preserves
    joins if f(x \\/ j) = f(x) \\/ f(j) for each irreducible j (join those
    below b onto a in turn; each step is below a \\/ b, checked by row t).

    The symmetries S, order automorphisms that fix e, prune as well.
    sigma in S maps a solution T to the solution sigma.T, whose cell
    (i, j) holds sigma[T(sigma^-1 i, sigma^-1 j)], again a cell, as sigma
    maps irreducibles to irreducibles.  When row t completes, the table
    is rejected if it is greater than its image, comparing values in
    cell order up to the first cell that rows 0 to t leave open in
    either.  Any S is sound: let H be the group S generates and T* the
    least table of the orbit H.T of a solution T.  T* <= sigma.T* for
    each sigma in S, so no decided prefix rejects it, and every other
    check removes only subtrees without a solution, so T* is found.
    Its closure under S is H.T*, which holds T, so closing the tables
    found under S, or under generators of Aut(L) as _search does, loses
    none; repeats are dropped by their bytes.  Values are
    compared in search order, so a budgeted search reaches T* no later
    than one without symmetries reaches any table of its orbit.

    Row t completes in two steps.  The last irreducible has the greatest
    height, so it is one of the greatest irreducibles below each element
    above it, and the value v of the row's last cell enters only the
    entries at those elements.  row_visit runs once per visit of the last
    cell: it joins the row without v, the partial row, and checks what v
    cannot change: that partial[a] \\/ partial[b] is one element over
    the pairs with neither member above that share a \\/ b, and that
    full(a) \\/ full(b) is one row over the pairs of L final before t
    that share a \\/ b.  When one fails, no value passes: the visit
    charges the nodes its value loop would count, each value up to the
    budget, and visits nothing.  row_ok runs the rest per value: one
    comparison for each join above, the unit column, the pairs with a
    member above, the other pairs of L, and A.  Each check is a conjunct
    of the row's verdict, so the nodes are those of a search that runs
    every check per value.  Where a \\/ b is not above, the one element
    is partial[a \\/ b], as each irreducible j below a \\/ b lies below a
    member of a pair of the group: a or b, else j of (b, j) or b \\/ j of
    (a, b \\/ j), taking a irreducible.
    """

    def __init__(self, l: FiniteLattice, e: int, symmetries: Sequence[List[int]] = ()):
        self.l = l
        self.e = e  # the unit
        n, leq = l.n, l.leq.tolist()
        self.leq_rows, self.join_rows, self.meet_rows = leq, l.join.tolist(), l.meet.tolist()
        # downs[y]: the elements below y, in increasing order and as a bitmask
        self.downs = [[x for x, below in enumerate(col) if below] for col in l.leq.T.tolist()]
        down_masks = _masks(l.leq.T)
        lower = _lower_covers(down_masks)
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
        # incomparable pairs with an irreducible member (class docstring);
        # a pair reads the last value at a or b (value_pairs) or at most at
        # a \/ b (joined_pairs, by a \/ b, flagged when it is above irr[r - 1])
        self.value_pairs = []
        joined: Dict[int, list] = {}
        # what row t's completion finalises and checks, by position t: the
        # full rows and L by maxpos, L's pairs final before t by a \/ b
        self.finals: List[list] = [[] for _ in range(r)]
        self.left_fixed: List[list] = [[] for _ in range(r)]
        self.left_law: List[list] = [[] for _ in range(r)]
        left_fixed: Dict[int, list] = {}
        join = self.join_rows
        for a, b, ab in [(a, b, join[a][b]) for a in range(n) for b in range(a + 1, n)
                         if (a in lower or b in lower) and not (leq[a][b] or leq[b][a])]:
            if ends_last[a] or ends_last[b]:
                self.value_pairs.append((a, b, ab))
            else:
                joined.setdefault(ab, []).append((a, b))
            if maxpos[a] < maxpos[ab] > maxpos[b]:
                left_fixed.setdefault(ab, []).append((a, b))
            else:
                self.left_law[maxpos[ab]].append((a, b, ab))
        self.joined_pairs = [(ab, ends_last[ab], pairs) for ab, pairs in joined.items()]
        for ab, pairs in left_fixed.items():
            self.left_fixed[maxpos[ab]].append((ab, pairs))
        # each element with the irreducibles of its earlier rows
        for x, tops in enumerate(self.tops):
            if tops:
                self.finals[tops[-1]].append((x, [irr[s] for s in tops[:-1]]))
        # (cell index, irr[p], irr[q]) by max(p, q): row t reads the first
        # (t + 1) ** 2, the cells with p, q <= t, and its own from t ** 2 on,
        # those with p = t or q = t
        self.pairs = []
        for t in range(r):
            self.pairs += [(t * r + s, irr[t], irr[s]) for s in range(t)]
            self.pairs += [(s * r + t, irr[s], irr[t]) for s in range(t + 1)]
        # (sigma, pre, reach) for each symmetry: cell k of sigma's image
        # of the table is sigma[values[pre[k]]], and row t's completion
        # decides the first reach[t] cells of both
        pos = {i: p for p, i in enumerate(irr)}
        self.symmetries = []
        for sigma in symmetries:
            inverse = [pos[x] for x in np.argsort(sigma)[irr].tolist()]
            pre = [inverse[p] * r + inverse[q] for p in range(r) for q in range(r)]
            # decided[k]: the row whose completion decides cells 0 to k
            decided = list(accumulate((max(k, p) // r for k, p in enumerate(pre)), max))
            reach = [bisect_right(decided, t) for t in range(r)]
            self.symmetries.append((sigma, pre, reach))

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
        fails, else what row_ok reads for each value: the partial row,
        the join each moving group of joined_pairs must reach, the full
        row L asks of each of left_fixed[t], and the join of the earlier
        rows of each element the row finalises, or None when it has none."""
        join, full, r = self.join_rows, self.full, len(self.irr)
        bottom, products = self.l.bottom, self.values[t * r:(t + 1) * r]
        partial = []
        for tops in self.tops_but_last:
            acc = bottom
            for s in tops:
                acc = join[acc][products[s]]
            partial.append(acc)
        joins = []
        for ab, moving, pairs in self.joined_pairs:
            a, b = pairs[0]
            target = join[partial[a]][partial[b]]
            for a, b in pairs[1:]:
                if join[partial[a]][partial[b]] != target:
                    return None
            if moving:
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
            acc = full[tops[0]] if tops else None
            for i in tops[1:]:
                acc = [join[u][w] for u, w in zip(acc, full[i])]
            earlier.append((x, acc))
        return partial, joins, laws, earlier

    def row_ok(self, t: int, v: int, visit: tuple) -> bool:
        """Called when row t completes with last value v, after row_visit
        passed: the checks that read v.  Row t's join consistency and the
        unit column must hold; then the full rows it finalises, R_t
        among them, are cached, and L and A must hold."""
        join, full = self.join_rows, self.full
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
        for k, x, y in pairs[t * t:(t + 1) ** 2]:
            xy = values[k]
            if maxpos[xy] <= t:
                row_x = full[x]
                if [row_x[u] for u in full[y]] != full[xy]:
                    return False
        for k, x, y in islice(pairs, t * t):
            xy = values[k]
            if maxpos[xy] == t:
                row_x = full[x]
                if [row_x[u] for u in full[y]] != full[xy]:
                    return False
        # the table must not come after its image by a symmetry in cell
        # order, as far as rows 0 to t decide the comparison
        for sigma, pre, reach in self.symmetries:
            for k in range(reach[t]):
                v, image = values[k], sigma[values[pre[k]]]
                if v != image:
                    if v > image:
                        return False
                    break
        return True

    def extension(self) -> np.ndarray:
        return np.array(self.full, dtype=np.intp)

    def run(self, budget: Optional[int] = None):
        """(hits, exhausted, nodes): hits are the verified structures of
        the tables found, in search order.  Open cells wait on an explicit
        stack, so the recursion limit bounds no search depth."""
        cells, values, domains, lows = self.cells, self.values, self.domains, self.lows
        leq, join, bottom, r = self.leq_rows, self.join_rows, self.l.bottom, len(self.irr)
        limit = float("inf") if budget is None else budget
        # the position of the row cell k completes, or None
        completes = [k // r if (k + 1) % r == 0 else None for k in range(len(cells))]
        hits: List[ResiduatedStructure] = []
        nodes = 0
        frames: List[tuple] = []  # (k, values left to try, above_lo, t, visit) per open cell
        k = 0
        while True:
            if k == len(cells):
                s = _leaf(self.l, self.e, self.extension())
                if s is not None:
                    hits.append(s)
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
    no two-sided unit e or fails residuation.check_residuated, the check
    `verify` and `residuate` make."""
    x = np.arange(l.n)
    if not ((m[:, e] == x) & (m[e] == x)).all():
        return None
    return residuation.check_residuated(l, m)[1]


def _carrier(l: FiniteLattice, sigma: List[int]):
    """The map that carries a table by the order automorphism sigma of
    l: table m becomes sigma[m[inverse, inverse]], which sends sigma[x]
    and sigma[y] to sigma[m[x, y]]."""
    sigma = np.array(sigma, dtype=np.intp)
    if not (l.leq[np.ix_(sigma, sigma)] == l.leq).all():
        raise RuntimeError(f"{sigma.tolist()} is not an order automorphism")
    inverse = np.argsort(sigma)
    cells = np.ix_(inverse, inverse)  # built once, for every table the map carries
    return lambda m: sigma[m[cells]]


def _closure(l: FiniteLattice, generators: List[List[int]],
             hits: List[ResiduatedStructure]) -> List[ResiduatedStructure]:
    """hits, then each other table that the generators, order
    automorphisms of l, reach from them, in the order first reached.
    sigma carries the unit law, associativity and residuation, so a table
    it carries from the unit u must pass _leaf at the unit sigma[u]; one
    that fails is an internal error."""
    carriers = [(sigma, _carrier(l, sigma)) for sigma in generators]
    seen = {hit.mul.tobytes() for hit in hits}
    closed = list(hits)
    for hit in closed:  # closed grows as the loop runs
        for sigma, carry in carriers:
            m = carry(hit.mul)
            key = m.tobytes()
            if key not in seen:
                seen.add(key)
                unit = sigma[hit.flags.unit]
                s = _leaf(l, unit, m)
                if s is None:
                    raise RuntimeError(f"{sigma} maps a table to one that fails for unit {unit}")
                closed.append(s)
    return closed


def _search(l: FiniteLattice, units: List[int], budget: Optional[int]) -> ResiduationSearchResult:
    """The hits for the units, taken in index order, sorted by table.

    Generators of Aut(l), the order automorphisms of l, are found once,
    as those that fix the top.  A unit is searched only when it is the
    least of its orbit under them, with generators of the automorphisms
    that fix it as its searcher's symmetries, and its hits are closed
    under the generators of Aut(l) (see _IrreducibleTableSearch).  The
    tables of the unit sigma[e] are those of e carried by sigma, so the
    closure holds the tables of every unit of e's orbit.  The searches
    share the budget, and closing costs no node.  Each search is left the
    budget that remains, so one that needs no node exhausts at any
    budget, and the run stops after the first search that runs out of
    it, whose hits are closed as well: a budgeted run returns whole
    orbits.  With one unit, as in integral mode, no automorphism is
    looked for."""
    hits: List[ResiduatedStructure] = []
    nodes, exhausted = 0, True
    unital, generators = len(units) > 1, []
    if unital:
        rows, downs = _masks(l.leq), _masks(l.leq.T)
        generators = _stabiliser_generators(rows, downs, l.top)
    # the least unit of each orbit; the closure of its hits holds the others' tables
    least = [e for e in units if min(_orbit(e, [g.__getitem__ for g in generators])) == e]
    for e in least:
        symmetries = _stabiliser_generators(rows, downs, e) if unital else []
        remaining = None if budget is None else budget - nodes
        found, exhausted, unit_nodes = _IrreducibleTableSearch(l, e, symmetries).run(budget=remaining)
        hits += _closure(l, generators, found)
        nodes += unit_nodes
        if not exhausted:
            break
    hits.sort(key=lambda hit: tuple(hit.mul.ravel()))
    return ResiduationSearchResult(hits, exhausted, nodes)


def search_integral_residuation(l: FiniteLattice,
                                budget: Optional[int] = None) -> ResiduationSearchResult:
    """Search for multiplications making l an integral residuated
    lattice, the unit at the top: exhaustive without a budget, else
    exhausted=False once budget nodes are spent, with whatever was found
    so far."""
    return _search(l, [l.top], budget)


def search_unital_residuation(l: FiniteLattice,
                              budget: Optional[int] = DEFAULT_BUDGET) -> ResiduationSearchResult:
    """Search for unital residuated multiplications on any lattice, the
    unit anywhere but at the bottom, which forces the one-element lattice:
    exhaustive without a budget, else as search_integral_residuation."""
    units = [l.top] if l.n == 1 else [e for e in range(l.n) if e != l.bottom]
    return _search(l, units, budget)


def confirm_boolean_forcing(result: EnumerationResult) -> LawReport:
    """For every complemented lattice of an enumeration, an integral
    residuated multiplication exists exactly when the lattice is Boolean,
    and on Boolean lattices the only one is the meet (hence idempotent:
    the meet's diagonal is the identity).  Verified by exhaustive search
    on result.complemented_posets, building each lattice only while it
    is searched; the counts per size run over the sizes of result.counts."""
    complemented = result.complemented_posets
    for idx, rows in enumerate(complemented):
        lat = _rows_to_lattice(rows)
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
    sizes = ", ".join(f"{size}:{sum(len(rows) == size for rows in complemented)}"
                      for size in result.counts)
    return law_pass(
        "complemented-integral-iff-boolean",
        f"{len(complemented)} complemented lattices checked (per size {sizes})",
    )
