"""Earlier forms of the enumerator and of the residuation searcher, kept
as references.

The bounded-poset lattice enumerator.  Before girardlab grew lattices
one coatom at a time, its enumerator grew every bounded-below poset one
maximal element at a time and kept only the lattices when it emitted
each size.  That process reaches every lattice because deleting a
maximal element keeps the bottom.  It shares the canonical form with
the current enumerator but neither the growth nor the lattice test,
which here is compute_lattice, so it serves, only here, as the oracle of
the differential tests in tests/test_search.py.  It emits each size in
canonical-key order, and the current enumerator in generation order.

The key-per-child coatom enumerator.  Before canonical augmentation,
girardlab grew lattices one coatom at a time as it does now, but it
labelled every child that passed the lattice test and kept one child per
canonical key, sorted by key within a size.  `grow_coatom` is that
growth and `coatom_enumeration` that loop.  Of the current enumerator's
code they share only `_down_masks`, which lists the down-sets.  The
enumerator keeps the least down-set of each orbit under the parent's
automorphisms and, when the new coatom ties with another on down-set
size, tests the child for isomorphism with the tie children kept before
it, so the two must emit the same classes at every size.

The mask scan.  `search._grow` used to scan every mask of non-top
elements and keep those that are down-closed and hold the bottom, where
it now lists those down-sets directly.  `scan_masks` is that scan and
`scan_grow` the old `_grow` on top of it, so the two must yield the same
(d, child, tie) sequence on every parent.  `eager_enumeration` is the
enumerator as it was then, when it built a FiniteLattice for every
lattice it kept; the lattices enumerate_lattices now builds on first
read must equal its list, in its order.  It keeps a tie child when its
canonical key is new at its size, where the enumerator now looks for an
isomorphism onto an earlier kept tie child; the key is a complete
invariant, so both keep the same children.

The searcher's value domains before the unit bound.  Integral mode
capped each cell by the meet of its irreducibles, and unital mode let
each cell range over the whole carrier unless the unit law pinned it.
`MeetBound` and `UnitPins` restore those domains, and `UnitPinSearch`
is the unital searcher as it was: the current one with `UnitPins`.  The
unit bound removes only values that lie on no solution and keeps the
order of the rest, so the current searcher must find the same tables in
as many nodes or fewer.

The searcher before row-completion pruning.  `_IrreducibleTableSearch`
used to rebuild a row's whole join-extension for every value of the
row's last cell, and it checked only the unit column and the row's own
join consistency when a row completed: it did not check the left law
or associativity before the leaf.  `PlainSearch` restores that loop;
mixed in ahead of `_IrreducibleTableSearch` it shares its cells,
monotonicity bounds and leaf check, and nothing of its row completion.
It visits every node the current searcher visits, in the same order,
and more, and it must find the same tables.

The searcher's node bookkeeping.  `_IrreducibleTableSearch` used to
rescan every assigned cell for monotonicity and to recompute every
extension cell from the assigned cells, for the row check and for the
table at each leaf.  `LoopSearch` restores those scans and the loop that
called them; mixed in ahead of `_IrreducibleTableSearch` it shares only
its leaf check, so with the same domains it must visit the same nodes as
`PlainSearch` and find the same tables.

Each search runs one unit and returns its hits in search order.

The searcher's numpy set-up.  `_IrreducibleTableSearch.__init__` used
to derive the irreducibles' order, their greatest members below each
element and each cell's lower neighbours from boolean matrices, with
about fifteen small numpy calls per searcher, where it now reads nested
lists and position bitmasks.  `NumpySetup` restores that set-up and its
`domain`; mixed in ahead of `_IrreducibleTableSearch` it shares the
search loop, so it must set up the same bookkeeping and visit the same
nodes.

The join-irreducibles by lower covers.  `join_irreducibles` counts each
element's lower covers from boolean matrices, as girardlab's orders
module once did; the searcher keeps the elements whose down-set less
themselves is a principal down-set, and `NumpySetup` below uses this
form.

The unital search before unit orbits.  `search._search` used to run the
searcher on every unit, where it now searches one unit per orbit under
the order automorphisms and maps that unit's tables to the rest of its
orbit.  `per_unit_search` restores the loop over every unit; standing in
for `search._search`, it must give the same tables, units, unit-downset
reports and `exhausted` on every carrier whose search exhausts.
"""
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from girardlab import search
from girardlab.orders import FiniteLattice, NotALattice, NotBounded, _order_automorphism, \
    compute_lattice, validate_poset
from girardlab.search import _down_masks, canonical_key


def grow_bounded_poset(rows: Tuple[int, ...]):
    """All one-larger bounded posets: add a maximal element above a
    down-closed subset containing the bottom."""
    n = len(rows)
    downs = _down_masks(rows)
    bottom = rows.index((1 << n) - 1)
    new_bit = 1 << n
    for d in range(1 << n):
        if not d >> bottom & 1:
            continue
        closed = 0
        for i in range(n):
            if d >> i & 1:
                closed |= downs[i]
        if closed != d:
            continue
        yield tuple(rows[i] | (new_bit if d >> i & 1 else 0) for i in range(n)) + (new_bit,)


def is_lattice(rows: Tuple[int, ...]) -> bool:
    """compute_lattice's verdict on the poset whose upsets are rows."""
    n = len(rows)
    leq = np.array([[bool(rows[i] >> j & 1) for j in range(n)] for i in range(n)])
    try:
        compute_lattice(validate_poset(leq))
    except (NotALattice, NotBounded):
        return False
    return True


@lru_cache(maxsize=None)
def poset_frontiers(max_n: int) -> Tuple[Dict[tuple, Tuple[int, ...]], ...]:
    """The frontier of bounded-below posets at each size 1..max_n."""
    frontiers = [{canonical_key((1,)): (1,)}]
    while len(frontiers) < max_n:
        grown: Dict[tuple, Tuple[int, ...]] = {}
        for rows in frontiers[-1].values():
            for ext in grow_bounded_poset(rows):
                grown.setdefault(canonical_key(ext), ext)
        frontiers.append(grown)
    return tuple(frontiers)


def reference_enumeration(max_n: int):
    """(keys, counts): the canonical keys each size emits, sorted, and
    the per-size counts, keeping the lattices of the poset frontier that
    compute_lattice accepts."""
    keys: Dict[int, List[tuple]] = {}
    for size, frontier in enumerate(poset_frontiers(max_n), start=1):
        keys[size] = [key for key in sorted(frontier) if is_lattice(frontier[key])]
    return keys, {size: len(k) for size, k in keys.items()}


def scan_masks(rows: Tuple[int, ...]):
    """(d, child) for every one-larger lattice with a new coatom above a
    down-closed set d of non-top elements, by increasing d, found by
    scanning every mask d: d must hold the bottom (any d when the parent
    has one element), and the join of any two members of d must be in d
    or be the top."""
    n = len(rows)
    downs = _down_masks(rows)
    up_of = {r: i for i, r in enumerate(rows)}
    joins = [[up_of[rx & ry] for ry in rows] for rx in rows]
    bottom, new_bit = rows.index((1 << n) - 1), 1 << n
    for d in range(0, 1 << n, 2):
        allowed = d | 1
        members = [i for i in range(n) if d >> i & 1]
        if (allowed >> bottom & 1 and not any(downs[i] & ~d for i in members)
                and all(allowed >> joins[x][y] & 1 for x in members for y in members)):
            yield d, tuple(rows[i] | (new_bit if d >> i & 1 else 0) for i in range(n)) + (new_bit | 1,)


def grow_coatom(rows: Tuple[int, ...]):
    """The children of scan_masks, every coatom kept."""
    return (child for _, child in scan_masks(rows))


def scan_grow(rows: Tuple[int, ...]):
    """search._grow by the mask scan: (d, child, tie) from scan_masks
    for the children whose new coatom has a down-set as large as any
    other coatom's, tie when another has as large a one."""
    downs = _down_masks(rows)
    coatoms = sorted((downs[i].bit_count(), i) for i in range(1, len(rows))
                     if rows[i] == 1 << i | 1)[::-1]
    for d, child in scan_masks(rows):
        size = d.bit_count() + 1
        rival = next((s for s, x in coatoms if not d >> x & 1), 0)
        if size >= rival:
            yield d, child, size == rival


def eager_enumeration(max_n: int) -> List[FiniteLattice]:
    """enumerate_lattices(max_n).lattices as it was built eagerly: each
    kept lattice's FiniteLattice built at its size, the children grown by
    the mask scan, the least mask of each orbit kept, and a tie child
    kept when its key is new at its size."""
    lattices: List[FiniteLattice] = []
    frontier: List[Tuple[int, ...]] = [(1,)]
    for size in range(1, max_n + 1):
        lattices += [search._rows_to_lattice(rows) for rows in frontier]
        grown: List[Tuple[int, ...]] = []
        tie_keys = set()
        for rows in frontier if size < max_n else []:
            autos = list(_order_automorphism(rows))
            seen = set()
            for d, child, tie in scan_grow(rows):
                if d in seen:
                    continue
                seen.update(sum(1 << sigma[i] for i in range(len(rows)) if d >> i & 1)
                            for sigma in autos)
                if tie:
                    key = canonical_key(child)
                    if key in tie_keys:
                        continue
                    tie_keys.add(key)
                grown.append(child)
        frontier = grown
    return lattices


def coatom_enumeration(max_n: int) -> Dict[int, List[tuple]]:
    """The canonical keys of the lattices of each size 1..max_n, sorted,
    one per child class of the key-per-child coatom enumerator."""
    keys: Dict[int, List[tuple]] = {}
    frontier = {canonical_key((1,)): (1,)}
    for size in range(1, max_n + 1):
        keys[size] = sorted(frontier)
        if size < max_n:
            grown: Dict[tuple, Tuple[int, ...]] = {}
            for rows in frontier.values():
                for ext in grow_coatom(rows):
                    grown.setdefault(canonical_key(ext), ext)
            frontier = grown
    return keys


class PlainSearch:
    """_IrreducibleTableSearch without row-completion pruning."""

    def row_ok(self, i: int) -> bool:
        """Caches R_i; the unit column and the row's join consistency
        must hold."""
        join, bottom, r = self.join_rows, self.l.bottom, len(self.irr)
        t = self.irr.index(i)
        products = self.values[t * r:(t + 1) * r]
        row = []
        for tops in self.tops:
            acc = bottom
            for s in tops:
                acc = join[acc][products[s]]
            row.append(acc)
        self.rows[t] = row
        if row[self.e] != i:
            return False
        for a, b, ab in self.incomparable:
            if row[ab] != join[row[a]][row[b]]:
                return False
        return True

    def extension(self) -> np.ndarray:
        join, rows, table = self.join_rows, self.rows, []
        for tops in self.tops:
            if not tops:
                table.append([self.l.bottom] * self.l.n)
                continue
            row = rows[tops[0]]
            for s in tops[1:]:
                row = [join[u][w] for u, w in zip(row, rows[s])]
            table.append(row)
        return np.array(table, dtype=np.intp)

    def run(self, budget: Optional[int] = None):
        cells, values, domains, lows = self.cells, self.values, self.domains, self.lows
        leq, join, bottom = self.leq_rows, self.join_rows, self.l.bottom
        limit = float("inf") if budget is None else budget
        # the irreducible whose row cell k completes, or None
        completes = [i if k + 1 == len(cells) or cells[k + 1][0] != i else None
                     for k, (i, _) in enumerate(cells)]
        hits = []
        nodes = 0

        def rec(k: int) -> bool:
            nonlocal nodes
            if k == len(cells):
                m = self.extension()
                s = search._leaf(self.l, self.e, m)
                if s is not None:
                    hits.append((m, s))
                return True
            lo = bottom
            for k2 in lows[k]:
                lo = join[lo][values[k2]]
            above_lo, i = leq[lo], completes[k]
            for v in domains[k]:
                if nodes >= limit:
                    return False
                nodes += 1
                if not above_lo[v]:
                    continue
                values[k] = v
                if (i is None or self.row_ok(i)) and not rec(k + 1):
                    return False
            return True

        exhausted = rec(0)
        return hits, exhausted, nodes


class MeetBound:
    """Integral mode's domains before the unit bound: each cell capped
    by the meet of its irreducibles."""

    def domain(self, i: int, j: int) -> List[int]:
        return self.downs[self.l.meet[i, j]]


class UnitPins:
    """Unital mode's domains before the unit bound: the whole carrier
    except where the unit law pins a lone extension cell outright."""

    def domain(self, i: int, j: int) -> List[int]:
        e = self.e
        if j == e and self.below_irr[e] == [e] and self.below_irr[i] == [i]:
            return [i]
        if i == e and self.below_irr[e] == [e] and self.below_irr[j] == [j]:
            return [j]
        return self.downs[self.l.top]


class UnitPinSearch(UnitPins, search._IrreducibleTableSearch):
    pass


class PlainIntegralSearch(PlainSearch, MeetBound, search._IrreducibleTableSearch):
    pass


class PlainUnitalSearch(PlainSearch, UnitPins, search._IrreducibleTableSearch):
    pass


class LoopSearch:
    """_IrreducibleTableSearch's bookkeeping, loop form."""

    def _partial_row(self, i: int, y: int) -> int:
        """Extension value at (i, y) from the assigned cells."""
        l = self.l
        acc = l.bottom
        for i2 in self.below_irr[i]:
            for j2 in self.below_irr[y]:
                acc = int(l.join[acc, self.assign[(i2, j2)]])
        return acc

    def row_ok(self, i: int) -> bool:
        l = self.l
        ext = np.array([self._partial_row(i, y) for y in range(l.n)])
        return ext[self.e] == i and bool((ext[l.join] == l.join[ext[:, None], ext]).all())

    def monotone_ok(self, i: int, j: int, v: int) -> bool:
        l = self.l
        for (i2, j2), v2 in self.assign.items():
            if l.leq[i2, i] and l.leq[j2, j] and not l.leq[v2, v]:
                return False
            if l.leq[i, i2] and l.leq[j, j2] and not l.leq[v, v2]:
                return False
        return True

    def extension(self) -> np.ndarray:
        l = self.l
        m = np.empty((l.n, l.n), dtype=np.intp)
        for x in range(l.n):
            for y in range(l.n):
                m[x, y] = self._partial_row(x, y) if self.below_irr[x] else l.bottom
        return m

    def run(self, budget: Optional[int] = None):
        self.assign = {}
        hits = []
        nodes = 0
        row_ends = {}
        for k, (i, j) in enumerate(self.cells):
            row_ends[k] = k + 1 == len(self.cells) or self.cells[k + 1][0] != i

        def rec(k: int) -> bool:
            nonlocal nodes
            if k == len(self.cells):
                m = self.extension()
                s = search._leaf(self.l, self.e, m)
                if s is not None:
                    hits.append((m, s))
                return True
            i, j = self.cells[k]
            for v in self.domains[k]:
                if budget is not None and nodes >= budget:
                    return False
                nodes += 1
                if not self.monotone_ok(i, j, v):
                    continue
                self.assign[(i, j)] = v
                if not row_ends[k] or self.row_ok(i):
                    if not rec(k + 1):
                        del self.assign[(i, j)]
                        return False
                del self.assign[(i, j)]
            return True

        exhausted = rec(0)
        return hits, exhausted, nodes


class LoopIntegralSearch(LoopSearch, MeetBound, search._IrreducibleTableSearch):
    pass


class LoopUnitalSearch(LoopSearch, UnitPins, search._IrreducibleTableSearch):
    pass


def per_unit_search(l, mode: str, units: List[int], budget: Optional[int]):
    """search._search without unit orbits: the searcher runs on each unit
    in turn, sharing the budget, and the hits are sorted by table."""
    hits = []
    nodes, exhausted = 0, True
    for e in units:
        remaining = None if budget is None else budget - nodes
        searcher = search._IrreducibleTableSearch(l, e)
        unit_hits, exhausted, unit_nodes = searcher.run(budget=remaining)
        hits += unit_hits
        nodes += unit_nodes
        if not exhausted:
            break
    hits.sort(key=lambda hit: tuple(hit[0].ravel()))
    return search.ResiduationSearchResult(mode, [m for m, _ in hits], [s for _, s in hits],
                                          exhausted, nodes)


def join_irreducibles(l: FiniteLattice) -> list:
    """Elements with exactly one lower cover (excludes bottom)."""
    lt = l.leq & ~np.eye(l.n, dtype=bool)
    n_lower = (lt & ~(lt @ lt)).sum(axis=0)
    return np.flatnonzero(n_lower == 1).tolist()


def _true_columns(mask: np.ndarray) -> List[List[int]]:
    """For each row of a boolean matrix, the indices of its True cells."""
    columns: List[List[int]] = [[] for _ in range(len(mask))]
    for k, c in zip(*(ix.tolist() for ix in np.nonzero(mask))):
        columns[k].append(c)
    return columns


def _greatest(members: np.ndarray, lt: np.ndarray) -> np.ndarray:
    """members[x, s] marks s as a member of set x; keeps the members that
    lie strictly below no other member, lt[s, s2] meaning s < s2."""
    return members & ~(members.astype(np.intp) @ lt.T.astype(np.intp) > 0)


class NumpySetup:
    """_IrreducibleTableSearch's set-up, from boolean matrices."""

    def __init__(self, l: FiniteLattice, e: int):
        self.l = l
        self.e = e
        heights = l.leq.sum(axis=0).tolist()
        self.irr = sorted(join_irreducibles(l), key=lambda i: (heights[i], i))
        r = len(self.irr)
        irr = np.array(self.irr, dtype=np.intp)
        below, irr_leq = l.leq[irr].T, l.leq[np.ix_(irr, irr)]
        self.below_irr = [[self.irr[s] for s in pos] for pos in _true_columns(below)]
        irr_lt = irr_leq & ~np.eye(r, dtype=bool)
        self.tops = _true_columns(_greatest(below, irr_lt))
        self.cells = [(i, j) for i in self.irr for j in self.irr]
        self.leq_rows, self.join_rows = l.leq.tolist(), l.join.tolist()
        covers = _true_columns(_greatest(irr_lt.T, irr_lt))
        self.lows = [[c * r + s for c in covers[t]] + [t * r + c for c in covers[s]]
                     for t in range(r) for s in range(r)]
        a, b = np.nonzero(np.triu(~(l.leq | l.leq.T)))
        self.incomparable = list(zip(a.tolist(), b.tolist(), l.join[a, b].tolist()))
        self.downs = _true_columns(l.leq.T)
        self.domains = [self.domain(i, j) for i, j in self.cells]
        self.values = [l.bottom] * len(self.cells)
        self.rows: List[Optional[List[int]]] = [None] * r
        self.full: List[Optional[List[int]]] = [None] * l.n
        self.full[l.bottom] = [l.bottom] * l.n
        ends_last = [bool(tops) and tops[-1] == r - 1 for tops in self.tops]
        self.tops_but_last = [tops[:-1] if last else tops
                              for tops, last in zip(self.tops, ends_last)]
        self.above_last = [y for y, last in enumerate(ends_last) if last]
        self.maxpos = [tops[-1] if tops else -1 for tops in self.tops]
        self.finals: List[list] = [[] for _ in range(r)]
        self.left_law: List[list] = [[] for _ in range(r)]
        for x, tops in enumerate(self.tops):
            if tops:
                self.finals[self.maxpos[x]].append((x, tops))
        for a, b, ab in self.incomparable:
            self.left_law[self.maxpos[ab]].append((a, b, ab))
        self.pairs = []
        for t in range(r):
            self.pairs += [(t, t * r + s, t, s) for s in range(t)]
            self.pairs += [(t, s * r + t, s, t) for s in range(t + 1)]

    def domain(self, i: int, j: int) -> List[int]:
        e, below_irr, l = self.e, self.below_irr, self.l
        if below_irr[e] == [e]:
            if j == e and below_irr[i] == [i]:
                return [i]
            if i == e and below_irr[j] == [j]:
                return [j]
        bound = l.top
        if l.leq[i, e]:
            bound = j
        if l.leq[j, e]:
            bound = l.meet[bound, i]
        return self.downs[bound]


class NumpySetupSearch(NumpySetup, search._IrreducibleTableSearch):
    pass
