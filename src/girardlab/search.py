"""Exhaustive enumeration of small lattices and residuation searches.

Lattices are enumerated up to isomorphism by growing lattices one coatom
at a time, with canonical-form rejection at every size: deleting a
coatom, which is meet-irreducible, from a finite lattice leaves a
lattice, so every lattice is reached.  A child is a lattice exactly when
the new coatom's down-set holds the bottom and the join of any two of
its members is in it or is the top (see _grow).  Residuation searches
backtrack only over products of join-irreducible pairs: a residuated
multiplication preserves joins, so it is determined by those values and
the search stays exhaustive.
A node costs a few list lookups: monotonicity is one lower bound
precomputed per cell, and each irreducible's row is join-extended when
it completes, from the row without its last cell, which is joined once
per parent node (see _IrreducibleTableSearch).  A completed row also
finalises the full table rows of the elements whose irreducibles all
have rows by then, and two laws every solution satisfies prune on them:
L, the join law in the left argument, and A, associativity on pairs of
irreducibles.  Both read only rows of the current branch.  Every
solution a search emits is re-verified through derive_residua, which
shares no code with the searcher's pruning.  A leaf is one check: the
two-sided unit law, then associativity, then residuated_structure.
Adjointness makes each one-sided product a left adjoint, so a table that
passes preserves joins in each argument and needs no separate join scan.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .girard import check_unit_downset_boolean
from .orders import FiniteLattice, compute_lattice, hasse_covers, is_boolean, is_complemented, \
    join_irreducibles, validate_poset
from .ortho import NotOrthomodularInput, OrthoLattice, is_orthomodular
from .reports import LawReport, law_fail, law_pass
from .residuation import ResiduatedStructure, ResiduationError, check_associative, \
    residuated_structure

MAX_ENUM = 10


class BoundExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# posets as tuples of upset bitmasks: rows[i] has bit j set iff i <= j
# ---------------------------------------------------------------------------

def _down_masks(rows: Tuple[int, ...]) -> List[int]:
    n = len(rows)
    return [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]


def _refine_classes(rows: Tuple[int, ...]) -> List[int]:
    """Isomorphism-invariant element classes via neighborhood refinement."""
    n = len(rows)
    downs = _down_masks(rows)
    inv = [(bin(rows[i]).count("1"), bin(downs[i]).count("1")) for i in range(n)]
    for _ in range(2):
        inv = [
            (
                inv[i],
                tuple(sorted(inv[j] for j in range(n) if rows[i] >> j & 1)),
                tuple(sorted(inv[j] for j in range(n) if downs[i] >> j & 1)),
            )
            for i in range(n)
        ]
    order = {v: k for k, v in enumerate(sorted(set(inv)))}
    return [order[v] for v in inv]


def canonical_key(rows: Tuple[int, ...]) -> tuple:
    """Minimum lexicographic relation encoding over class-preserving
    relabelings.  Classes refine rank, so the minimum ranges over a
    subset of the rank-preserving permutations that always contains the
    isomorphisms; isomorphic posets share the key."""
    n = len(rows)
    cls = _refine_classes(rows)
    slot_class = sorted(cls)
    members: Dict[int, List[int]] = {}
    for i in range(n):
        members.setdefault(cls[i], []).append(i)

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
    return (tuple(slot_class), best)


def _grow(rows: Tuple[int, ...]):
    """All one-larger lattices with a new coatom c: c sits under the top,
    element 0 of every grown lattice, above a down-closed set d of
    non-top elements.  The child is a lattice exactly when d holds the
    bottom (any d when the parent has one element) and the join of any
    two members of d is in d or is the top, because:
    - the child has a bottom exactly when d holds the parent's, and a
      finite poset with a bottom is a lattice when all pairs have joins;
    - c \\/ x is c when x is in d, and the top otherwise;
    - a pair not wholly inside d keeps its parent join: c bounds neither;
    - for x, y in d with parent join j, the join is j if j is in d and c
      if j is the top; else j and c are two minimal upper bounds.
    """
    n = len(rows)
    downs = _down_masks(rows)
    up_of = {r: i for i, r in enumerate(rows)}
    joins = [[up_of[rx & ry] for ry in rows] for rx in rows]
    bottom, new_bit = rows.index((1 << n) - 1), 1 << n
    for d in range(0, 1 << n, 2):  # the even masks leave out element 0
        allowed = d | 1  # d and the top, which is the bottom when n == 1
        members = [i for i in range(n) if d >> i & 1]
        if (allowed >> bottom & 1 and not any(downs[i] & ~d for i in members)
                and all(allowed >> joins[x][y] & 1 for x in members for y in members)):
            yield tuple(rows[i] | (new_bit if d >> i & 1 else 0) for i in range(n)) + (new_bit | 1,)


def _rows_to_lattice(rows: Tuple[int, ...]) -> FiniteLattice:
    n = len(rows)
    leq = np.array([[bool(rows[i] >> j & 1) for j in range(n)] for i in range(n)])
    return compute_lattice(validate_poset(leq))


@dataclass
class EnumerationResult:
    lattices: List[FiniteLattice]
    counts: Dict[int, int]


def enumerate_lattices(max_n: int) -> EnumerationResult:
    """All lattices on at most max_n elements, one per isomorphism class,
    by size and in canonical-key order within a size.  Every lattice
    grown is returned; callers that want a subclass filter the list.
    """
    if not 1 <= max_n <= MAX_ENUM:
        raise BoundExceeded(f"max_n must be in 1..{MAX_ENUM}")

    lattices: List[FiniteLattice] = []
    counts: Dict[int, int] = {}
    frontier: Dict[tuple, Tuple[int, ...]] = {canonical_key((1,)): (1,)}
    for size in range(1, max_n + 1):
        lattices.extend(_rows_to_lattice(frontier[key]) for key in sorted(frontier))
        counts[size] = len(frontier)
        if size < max_n:
            grown: Dict[tuple, Tuple[int, ...]] = {}
            for rows in frontier.values():
                for ext in _grow(rows):
                    grown.setdefault(canonical_key(ext), ext)
            frontier = grown
    return EnumerationResult(lattices, counts)


# ---------------------------------------------------------------------------
# residuation searches
# ---------------------------------------------------------------------------

@dataclass
class ResiduationSearchResult:
    lattice_id: str
    mode: str
    found: List[np.ndarray]
    structures: List[ResiduatedStructure]
    exhausted: bool
    nodes: int = 0
    downset_unit_reports: Optional[List[LawReport]] = None


def _lattice_id(l: FiniteLattice) -> str:
    return f"n={l.n};covers={hasse_covers(l.poset)}"


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


class _IrreducibleTableSearch:
    """Backtracking over products of join-irreducible pairs.

    The full table is the join-extension of the cells' values.  Cells
    are visited in one fixed order, row by row over the irreducibles
    sorted by height, and each cell's bookkeeping is set up once per
    search.  The search keeps the cells' values monotone:
    a(i, j) <= a(i2, j2) whenever i <= i2 and j <= j2.  So only the
    greatest members of a set of cells or irreducibles count in a join
    over their values:

    - a value v of a cell passes the monotonicity test iff lo <= v, lo
      the join of the values of the greatest earlier cells below it.
      No earlier cell lies above a later one, as an irreducible lies
      below one of no greater height only when the two are equal;
    - when the row of the irreducible i at position t is complete, its
      join-extension R_t[y] = \\/ {a(i, j) : j <= y irreducible} is
      computed and cached.  By monotonicity it is row i of the full
      extension, and row x, full(x), is the join of R_s over the
      positions s of the greatest irreducibles below x.

    The row is completed incrementally.  The last irreducible of the
    order has the greatest height, so it is one of the greatest
    irreducibles below every element above it.  The row without its last
    cell is joined once per parent node; each value v of the last cell
    then changes only the entries above the last irreducible.

    full(x) is final once every irreducible below x has its row, that
    is when the row at position maxpos[x], the greatest position of an
    irreducible below x, completes; it is cached then.  Every row and
    full row read at position t was written on the current branch, as
    only those at positions up to t are read.  A leaf table is the
    join-extension, and leaf rejects it unless it is associative and
    residuated, hence join-preserving in each argument.  So two laws
    that only final rows enter prune soundly when row t completes:

    - L, the left law: full(a \\/ b) = full(a) \\/ full(b) for each
      incomparable pair a, b with maxpos[a \\/ b] = t (comparable pairs
      hold by monotonicity);
    - A, associativity on irreducibles: full(x*y)[z] = R_x[R_y[z]] for
      all z, for irreducibles x, y at positions p, q with
      max(p, q, maxpos[x*y]) = t.  Before that, one of the rows it reads
      is not final.
    """

    def __init__(self, l: FiniteLattice, e: int):
        self.l = l
        self.e = e  # the unit
        heights = l.leq.sum(axis=0).tolist()
        self.irr = sorted(join_irreducibles(l), key=lambda i: (heights[i], i))
        r = len(self.irr)
        irr = np.array(self.irr, dtype=np.intp)
        below, irr_leq = l.leq[irr].T, l.leq[np.ix_(irr, irr)]
        self.below_irr = [[self.irr[s] for s in pos] for pos in _true_columns(below)]
        # positions in self.irr of the greatest irreducibles below each element
        self.tops = _true_columns(_greatest(below, irr_leq & ~np.eye(r, dtype=bool)))
        self.cells = [(i, j) for i in self.irr for j in self.irr]
        self.leq_rows, self.join_rows = l.leq.tolist(), l.join.tolist()
        # cell k is (irr[k // r], irr[k % r]); cell_leq[k, k2] iff cell k <= cell k2
        cell_leq = (irr_leq[:, None, :, None] & irr_leq[None, :, None, :]).reshape(r * r, r * r)
        # the greatest earlier cells k2 < k below cell k
        cell_lt = cell_leq & ~np.eye(r * r, dtype=bool)
        self.lows = _true_columns(_greatest(np.tril(cell_leq.T, -1), cell_lt))
        # only incomparable pairs can break the join consistency of a
        # monotone row: for a <= b it reads row[b] = row[a] \/ row[b]
        a, b = np.nonzero(np.triu(~(l.leq | l.leq.T)))
        self.incomparable = list(zip(a.tolist(), b.tolist(), l.join[a, b].tolist()))
        self.downs = _true_columns(l.leq.T)
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
        self.maxpos = [tops[-1] if tops else -1 for tops in self.tops]
        # what row t's completion finalises and checks, by position t:
        # full rows and L by maxpos, A over the cells (p, q) with p, q <= t
        self.finals: List[list] = [[] for _ in range(r)]
        self.left_law: List[list] = [[] for _ in range(r)]
        for x, tops in enumerate(self.tops):
            if tops:
                self.finals[self.maxpos[x]].append((x, tops))
        for a, b, ab in self.incomparable:
            self.left_law[self.maxpos[ab]].append((a, b, ab))
        pairs = []  # (max(p, q), cell index, p, q), by max(p, q)
        for t in range(r):
            pairs += [(t, t * r + s, t, s) for s in range(t)]
            pairs += [(t, s * r + t, s, t) for s in range(t + 1)]
        self.assoc = [pairs[:(t + 1) ** 2] for t in range(r)]

    def domain(self, i: int, j: int) -> List[int]:
        """The values cell (i, j) ranges over, in search order."""
        raise NotImplementedError

    def partial_row(self, t: int) -> List[int]:
        """Row t's join-extension without the value of its last cell."""
        join, bottom, r = self.join_rows, self.l.bottom, len(self.irr)
        products = self.values[t * r:(t + 1) * r]
        row = []
        for tops in self.tops_but_last:
            acc = bottom
            for s in tops:
                acc = join[acc][products[s]]
            row.append(acc)
        return row

    def row_ok(self, t: int, partial: List[int], v: int) -> bool:
        """Called when row t completes with last value v: the unit column
        and the row's join consistency must hold; then R_t and the full
        rows it finalises are cached, and L and A must hold."""
        join, rows, full = self.join_rows, self.rows, self.full
        row, join_v = partial[:], join[v]
        for y in self.above_last:
            row[y] = join_v[row[y]]
        if row[self.e] != self.irr[t]:
            return False
        for a, b, ab in self.incomparable:
            if row[ab] != join[row[a]][row[b]]:
                return False
        rows[t] = row
        for x, tops in self.finals[t]:
            acc = rows[tops[0]]
            for s in tops[1:]:
                acc = [join[u][w] for u, w in zip(acc, rows[s])]
            full[x] = acc
        for a, b, ab in self.left_law[t]:
            if [join[u][w] for u, w in zip(full[a], full[b])] != full[ab]:
                return False
        values, maxpos = self.values, self.maxpos
        for pq, k, p, q in self.assoc[t]:
            xy = values[k]
            if max(pq, maxpos[xy]) == t:
                row_x = rows[p]
                if [row_x[u] for u in rows[q]] != full[xy]:
                    return False
        return True

    def extension(self) -> np.ndarray:
        return np.array(self.full, dtype=np.intp)

    def leaf(self, m: np.ndarray) -> Optional[ResiduatedStructure]:
        """The verified structure of a leaf table, or None when the
        table has no two-sided unit e, is not associative or is not
        residuated."""
        x = np.arange(self.l.n)
        if not ((m[:, self.e] == x) & (m[self.e] == x)).all() or check_associative(m).failed:
            return None
        try:
            return residuated_structure(self.l, m)
        except ResiduationError:
            return None

    def run(self, budget: Optional[int] = None):
        """(hits, exhausted, nodes): hits pairs each found table with its
        verified structure, sorted by table."""
        cells, values, domains, lows = self.cells, self.values, self.domains, self.lows
        leq, join, bottom, r = self.leq_rows, self.join_rows, self.l.bottom, len(self.irr)
        limit = float("inf") if budget is None else budget
        # the position of the row cell k completes, or None
        completes = [k // r if (k + 1) % r == 0 else None for k in range(len(cells))]
        hits: List[Tuple[np.ndarray, ResiduatedStructure]] = []
        nodes = 0

        def rec(k: int) -> bool:
            nonlocal nodes
            if k == len(cells):
                m = self.extension()
                s = self.leaf(m)
                if s is not None:
                    hits.append((m, s))
                return True
            lo = bottom
            for k2 in lows[k]:
                lo = join[lo][values[k2]]
            above_lo, t = leq[lo], completes[k]
            partial = None if t is None else self.partial_row(t)
            for v in domains[k]:
                if nodes >= limit:
                    return False
                nodes += 1
                if not above_lo[v]:
                    continue
                values[k] = v
                if (t is None or self.row_ok(t, partial, v)) and not rec(k + 1):
                    return False
            return True

        exhausted = rec(0)
        hits.sort(key=lambda hit: tuple(hit[0].ravel()))
        return hits, exhausted, nodes


class _IntegralSearch(_IrreducibleTableSearch):
    """Unit fixed at the top; products capped by the meet, which every
    integral residuated multiplication satisfies."""

    def __init__(self, l: FiniteLattice):
        super().__init__(l, l.top)

    def domain(self, i: int, j: int) -> List[int]:
        return self.downs[self.l.meet[i, j]]


class _UnitalSearch(_IrreducibleTableSearch):
    """Unit anywhere; cell values range over the whole carrier except
    where the unit law pins a lone extension cell outright."""

    def domain(self, i: int, j: int) -> List[int]:
        e = self.e
        if j == e and self.below_irr[e] == [e] and self.below_irr[i] == [i]:
            return [i]
        if i == e and self.below_irr[e] == [e] and self.below_irr[j] == [j]:
            return [j]
        return self.downs[self.l.top]


def search_integral_residuation(l: FiniteLattice,
                                budget: Optional[int] = None) -> ResiduationSearchResult:
    """Search for multiplications making l an integral residuated
    lattice: exhaustive without a budget, else exhausted=False once
    budget nodes are spent, with whatever was found so far."""
    search = _IntegralSearch(l)
    hits, exhausted, nodes = search.run(budget=budget)
    return ResiduationSearchResult(_lattice_id(l), "integral", [m for m, _ in hits],
                                   [s for _, s in hits], exhausted, nodes)


def search_unital_residuation(o: OrthoLattice, budget: int = 200_000) -> ResiduationSearchResult:
    """Budgeted search for unital join-preserving associative tables on
    an orthomodular lattice, the unit anywhere in the carrier.

    Every hit is listed with its unit's unit-downset report, made once
    per unit; a consumed budget is reported as exhausted=False with
    whatever was found so far."""
    if not is_orthomodular(o):
        raise NotOrthomodularInput("unital search expects an orthomodular carrier")
    l = o.lattice
    hits: List[Tuple[np.ndarray, ResiduatedStructure]] = []
    unit_reports = {}
    nodes_total = 0
    exhausted = True
    units = [l.top] if l.n == 1 else [e for e in range(l.n) if e != l.bottom]
    for e in units:
        remaining = budget - nodes_total
        if remaining <= 0:
            exhausted = False
            break
        search = _UnitalSearch(l, e)
        unit_hits, done, nodes = search.run(budget=remaining)
        nodes_total += nodes
        hits.extend(unit_hits)
        if unit_hits:
            unit_reports[e] = check_unit_downset_boolean(o, unit_hits[0][1])
        if not done:
            exhausted = False
            break
    hits.sort(key=lambda hit: tuple(hit[0].ravel()))
    structures = [s for _, s in hits]
    reports = [unit_reports[s.flags.unit] for s in structures]
    return ResiduationSearchResult(
        _lattice_id(l), "unital", [m for m, _ in hits], structures, exhausted, nodes_total,
        reports
    )


def confirm_boolean_forcing(max_n: int,
                            lattices: Optional[List[FiniteLattice]] = None) -> LawReport:
    """For every complemented lattice on at most max_n elements, an
    integral residuated multiplication exists exactly when the lattice
    is Boolean, and on Boolean lattices the only one is the meet (hence
    idempotent).  Verified by exhaustive enumeration plus search.

    `lattices`, when given, is what enumerate_lattices(max_n) returned,
    possibly filtered; the complemented ones among them are checked
    instead of enumerating again."""
    if lattices is None:
        lattices = enumerate_lattices(max_n).lattices
    complemented = [lat for lat in lattices if is_complemented(lat)[0].passed]
    for idx, lat in enumerate(complemented):
        res = search_integral_residuation(lat)
        boolean = is_boolean(lat).passed
        if bool(res.found) != boolean:
            return law_fail(
                "complemented-integral-iff-boolean",
                (lat.n, idx),
                f"boolean={boolean} but search found {len(res.found)} tables on {res.lattice_id}",
            )
        if boolean:
            if len(res.found) != 1 or not (res.found[0] == lat.meet).all():
                return law_fail(
                    "complemented-integral-iff-boolean",
                    (lat.n, idx),
                    f"Boolean lattice admits {len(res.found)} tables, expected only the meet",
                )
            if not res.structures[0].flags.idempotent:
                return law_fail(
                    "complemented-integral-iff-boolean",
                    (lat.n, idx),
                    "meet multiplication not idempotent",
                )
    sizes = ", ".join(f"{size}:{sum(lat.n == size for lat in complemented)}"
                      for size in range(1, max_n + 1))
    return law_pass(
        "complemented-integral-iff-boolean",
        f"{len(complemented)} complemented lattices checked (per size {sizes})",
    )
