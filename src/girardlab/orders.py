"""Finite posets and lattices as explicit tables.

Elements are the indices 0..n-1.  A poset is an n x n boolean matrix
``leq`` with ``leq[i, j]`` meaning i <= j; a lattice adds integer meet and
join tables.  All containers are immutable after construction and safe to
share between threads; a lattice's distributivity is computed at first
use, the same value whichever thread asks.

Every law scan is one boolean mask over index tuples, built slab by
slab of first indices from row gathers: ``t.take(t[s], axis=0)`` is
``t[t[x, y], z]`` and ``t[s].take(t, axis=1)`` is ``t[x, t[y, z]]`` for
x in the slab s (see `least_witness`).  The scan reports the first True
cell in C order: the lexicographically least witness.  Boolean matrix
products run in float32, on BLAS, where path counts stay exact.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .reports import InputError, LawReport, law_fail, law_pass


class OrderError(InputError):
    """Base class for order-structure construction failures."""


class PosetViolation(OrderError):
    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = tuple(witness)
        super().__init__(f"{axiom} violated at {self.witness}")


class NotALattice(OrderError):
    def __init__(self, pair: tuple, kind: str):
        self.pair = tuple(pair)
        self.witness = self.pair
        self.kind = kind
        super().__init__(f"pair {self.pair} has no {kind}")


class NotBounded(OrderError):
    def __init__(self, which: str, extremes: tuple):
        self.which = which
        self.witness = tuple(extremes)
        super().__init__(f"no {which} element; extremes {self.witness}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# A slab of a scan covers as many first indices as fit in this many cells
# (at least one), so a scan's temporaries stay O(n^(arity-1)) per step.
_SLAB_CELLS = 1 << 14


def first_violation(mask: np.ndarray) -> Optional[tuple]:
    """Index tuple of the first True cell of `mask` in C order, or None.

    C order visits index tuples lexicographically, so this is the least
    witness of whatever law `mask` marks the violations of.
    """
    k = int(mask.argmax())
    if not mask.flat[k]:
        return None
    return tuple(int(i) for i in np.unravel_index(k, mask.shape))


@functools.lru_cache(maxsize=64)
def index_slabs(n: int, arity: int) -> tuple:
    """Slices of first indices that cut [0, n)^arity into slabs of at
    most _SLAB_CELLS cells (at least one first index each)."""
    step = max(1, _SLAB_CELLS // max(n, 1) ** (arity - 1))
    return tuple(slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def least_witness(law, n: int, arity: int) -> Optional[tuple]:
    """Least tuple in [0, n)^arity at which `law` marks a violation.

    `law(s)` is the law's violation condition for the first indices in
    the slice s, written with row gathers, e.g.
    ``t.take(t[s], axis=0) != t[s].take(t, axis=1)`` for associativity;
    it must return a mask of shape (len of s, n, ..., n).  Slabs are
    scanned in order, so the first hit is the least witness.
    """
    for s in index_slabs(n, arity):
        w = first_violation(law(s))
        if w is not None:
            return (w[0] + s.start,) + w[1:]
    return None


def distribution_failures(outer: np.ndarray, inner: np.ndarray, s: slice) -> np.ndarray:
    """Mask over (x, a, b), x in the slice s, of where
    outer[x, inner[a, b]] != inner[outer[x, a], outer[x, b]]."""
    rows = outer[s]
    n = len(inner)  # inner.take(i * n + j) is inner[i, j]
    return rows.take(inner, axis=1) != inner.take(rows[:, :, None] * n + rows[:, None, :])


def greatest(cand: np.ndarray, above: np.ndarray):
    """Greatest element of each candidate set.

    cand[c, ...] marks c as a member of the set at index `...`, and
    above is (~leq).T as float32, so above[m, c] is 1 where c </= m.
    Returns (best, found): found says whether the set has a greatest
    element and best is that element where it does.  A member m is
    greatest when no member c has c </= m, which one matrix product
    counts for every m and every set.
    """
    outside = (above @ cand.reshape(len(cand), -1)).reshape(cand.shape)  # exact far past any n
    top = cand & (outside == 0)
    return top.argmax(axis=0), top.any(axis=0)


def _norm_labels(n: int, labels) -> Optional[tuple]:
    if labels is None:
        return None
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    return labels


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """Explicit finite partial order.  validate_poset checks those from outside;
    derived ones (enumerated children, induced sub-orders) are built frozen."""

    n: int
    leq: np.ndarray
    labels: Optional[tuple]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)


def validate_poset(relation, labels=None) -> FinitePoset:
    """Check reflexivity, antisymmetry and transitivity of a relation.

    Returns the poset on success; raises PosetViolation carrying the
    offending axiom and the least witness tuple otherwise.  The relation
    is taken literally, nothing is normalized.  Transitivity fails where
    leq @ leq reaches a pair outside leq, one float32 product; only then
    does an n^3 scan look for the least witness.
    """
    leq = np.array(relation, dtype=bool)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
        raise ValueError(f"relation must be square, got shape {leq.shape}")
    n = leq.shape[0]
    if n < 1:
        raise ValueError("poset needs at least one element")

    w = first_violation(~leq.diagonal())
    if w is not None:
        raise PosetViolation("reflexivity", w)
    w = first_violation(leq & leq.T & ~np.eye(n, dtype=bool))
    if w is not None:
        raise PosetViolation("antisymmetry", w)
    f = leq.astype(np.float32)
    if ((f @ f > 0) & ~leq).any():
        w = least_witness(lambda s: leq[s, :, None] & leq & ~leq[s, None, :], n, 3)
        raise PosetViolation("transitivity", w)
    return FinitePoset(n, _frozen(leq), _norm_labels(n, labels))


def closure_from_covers(n: int, covers: Iterable[tuple]) -> np.ndarray:
    """Reflexive-transitive closure of a cover list, as an leq matrix:
    squared until it stops growing, each square a float32 product, whose
    path counts (at most n) stay exact."""
    leq = np.eye(n, dtype=bool)
    for i, j in covers:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"cover ({i},{j}) out of range for n={n}")
        leq[i, j] = True
    while True:
        f = leq.astype(np.float32)
        more = f @ f > 0
        if (more == leq).all():
            return leq
        leq = more


@dataclass(frozen=True, eq=False)
class FiniteLattice(FinitePoset):
    """Poset together with total meet/join tables and bounds."""

    meet: np.ndarray
    join: np.ndarray
    bottom: int
    top: int

    @cached_property
    def distributivity(self) -> LawReport:
        """is_distributive's report: checks sharing a lattice share its scan."""
        w = least_witness(lambda s: distribution_failures(self.meet, self.join, s), self.n, 3)
        return law_pass("distributivity") if w is None else law_fail("distributivity", w)


def _masks(matrix: np.ndarray) -> List[int]:
    """Row i of a boolean matrix as the int whose bit j is matrix[i, j]:
    the up-set of i when the matrix is an order's leq, its down-set when
    it is leq.T."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def compute_lattice(p: FinitePoset) -> FiniteLattice:
    """Derive meet/join tables, or raise NotALattice / NotBounded.

    The join of {i, j} is the element whose up-set is the intersection
    of theirs, and the meet the element whose down-set is.  Both are
    symmetric, so only the pairs i <= j are looked up, then mirrored.
    The least pair lacking either is reported, the least upper bound
    first.
    """
    n = p.n
    ups, downs = _masks(p.leq), _masks(p.leq.T)
    everything = (1 << n) - 1
    if everything not in ups:
        raise NotBounded("bottom", [i for i, d in enumerate(downs) if d == 1 << i])
    if everything not in downs:
        raise NotBounded("top", [i for i, u in enumerate(ups) if u == 1 << i])
    upper, tables = np.tri(n, dtype=bool).T, []  # the pairs i <= j
    for masks in (downs, ups):  # the meet, then the join
        at = {m: i for i, m in enumerate(masks)}.get
        t = np.empty((n, n), dtype=np.intp)
        t[upper] = [at(m & w, -1) for i, m in enumerate(masks) for w in masks[i:]]
        tables.append(_frozen(np.where(upper, t, t.T)))
    meet, join = tables
    w = first_violation((meet < 0) | (join < 0))
    if w is not None:
        raise NotALattice(w, "least upper bound" if join[w] < 0 else "greatest lower bound")
    return FiniteLattice(n, p.leq, p.labels, meet, join,
                         ups.index(everything), downs.index(everything))


def sublattice(l: FiniteLattice, members) -> FiniteLattice:
    """The lattice on members, ascending elements of l closed under meet
    and join (a down-set, a block), element k being members[k]: order,
    tables and labels are l's restricted, not derived again.  All of l
    is l itself."""
    members = np.asarray(members, dtype=np.intp)
    if len(members) == l.n:
        return l
    pairs = np.ix_(members, members)
    leq = l.leq[pairs]
    meet, join = (_frozen(np.searchsorted(members, t[pairs])) for t in (l.meet, l.join))
    return FiniteLattice(len(members), _frozen(leq), tuple(l.label(k) for k in members), meet,
                         join, int(leq.all(axis=1).argmax()), int(leq.all(axis=0).argmax()))


def lattice_from_covers(covers, labels) -> FiniteLattice:
    """Convenience: covers -> closure -> validated poset -> lattice."""
    return compute_lattice(validate_poset(closure_from_covers(len(labels), covers), labels))


def is_distributive(l: FiniteLattice) -> LawReport:
    """PASS iff x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z) for all triples,
    scanned once per lattice (FiniteLattice.distributivity)."""
    return l.distributivity


def is_complemented(l: FiniteLattice):
    """Check that every x has a complement; report one per element.

    Returns (report, complements) where complements lists, for each
    element, the least-index y with x /\\ y = bottom and x \\/ y = top,
    or None alongside a FAIL report naming the first uncomplemented x.
    """
    comp = (l.meet == l.bottom) & (l.join == l.top)
    w = first_violation(~comp.any(axis=1))
    if w is not None:
        return law_fail("complementation", w), None
    return law_pass("complementation"), tuple(comp.argmax(axis=1).tolist())


def is_boolean(l: FiniteLattice) -> LawReport:
    """PASS iff the lattice is complemented and distributive."""
    comp_report, _ = is_complemented(l)
    if comp_report.failed:
        return law_fail("boolean", comp_report.witness, "not complemented")
    dist = is_distributive(l)
    if dist.failed:
        return law_fail("boolean", dist.witness, "not distributive")
    return law_pass("boolean")


def as_order_map(f, n: int) -> tuple:
    """Validate a total self-map given as a sequence of element indices."""
    f = tuple(int(x) for x in f)
    if len(f) != n:
        raise InputError(f"map must have length {n}, got {len(f)}")
    for i, x in enumerate(f):
        if not 0 <= x < n:
            raise InputError(f"map value {x} at {i} out of range")
    return f


def check_inversion(p: FinitePoset, f) -> LawReport:
    """PASS iff f is involutive and x <= y iff f(y) <= f(x)."""
    f = np.array(as_order_map(f, p.n))
    leq = p.leq
    w = first_violation(f[f] != np.arange(p.n))
    if w is not None:
        return law_fail("inversion", w, "not involutive")
    w = least_witness(lambda s: leq[s] != leq[f[:, None], f[s]].T, p.n, 2)
    if w is not None:
        return law_fail("inversion", w, "not order-reversing")
    return law_pass("inversion")


def hasse_covers(p: FinitePoset) -> list:
    """Pairs (i, j) with i < j and no element strictly between."""
    lt = p.leq & ~np.eye(p.n, dtype=bool)
    f = lt.astype(np.float32)
    between = f @ f > 0  # a float32 product, as in closure_from_covers
    return [(int(i), int(j)) for i, j in np.argwhere(lt & ~between)]


def _order_classes(rows: Sequence[int]):
    """(cls, members): cls[i] is element i's class, its (up-set size,
    down-set size), for a poset given by the up-set bitmasks rows, and
    members maps each class to its elements in index order.  An order
    isomorphism maps every element to one of the same class."""
    cls = [(r.bit_count(), sum(s >> i & 1 for s in rows)) for i, r in enumerate(rows)]
    members: Dict[Tuple[int, int], List[int]] = {}
    for i, c in enumerate(cls):
        members.setdefault(c, []).append(i)
    return cls, members


def _order_automorphism(rows: Sequence[int], a: Optional[int] = None, b: Optional[int] = None,
                        target: Optional[Sequence[int]] = None, involutive: bool = False):
    """Yields every order isomorphism sigma from the poset of the up-set
    bitmasks rows onto that of target (rows itself by default, so the
    automorphisms), each as a new list of sigma[x] for every element x;
    with a and b given, only those with sigma[a] = b, and with involutive
    only those with sigma[sigma[x]] = x.  Backtracks over the images of
    a, if given, then of the other elements in index order, each within
    its own class in target, keeping x <= z iff sigma[x] <= sigma[z]
    against every element already mapped.  An involution sends x to a
    mapped y only when y is sent to x, and to an unmapped y only when x
    is no image yet.  With a and b not given the maps come in
    lexicographic order."""
    target = rows if target is None else target
    n = len(rows)
    cls, _ = _order_classes(rows)
    target_cls, members = _order_classes(target)
    if sorted(cls) != sorted(target_cls):
        return
    choices = [members[c] for c in cls]
    if a is not None:
        choices[a] = [b] if target_cls[b] == cls[a] else []
    order = sorted(range(n), key=lambda x: x != a)  # a first
    sigma, used = [-1] * n, [False] * n

    def rec(p: int):
        if p == n:
            yield sigma[:]
            return
        x = order[p]
        for y in choices[x]:
            if (used[y] or involutive and sigma[y] != x and (sigma[y] != -1 or used[x])
                    or any((rows[x] >> z & 1) != (target[y] >> sigma[z] & 1)
                           or (rows[z] >> x & 1) != (target[sigma[z]] >> y & 1)
                           for z in order[:p])):
                continue
            sigma[x], used[y] = y, True
            yield from rec(p + 1)
            sigma[x], used[y] = -1, False

    try:
        yield from rec(0)
    finally:
        del rec  # frees the closure cycle, also when the caller stops early


def enumerate_inversions(p: FinitePoset) -> list:
    """All involutive order-reversing bijections of a finite poset, in
    lexicographic order.

    An order-reversing bijection is an isomorphism onto the dual order,
    whose up-sets are p's down-sets, so these are the involutive ones
    _order_automorphism yields onto it.  Intended for carriers of a dozen
    elements or so; the count explodes on large antichains.
    """
    return [tuple(f) for f in _order_automorphism(_masks(p.leq), target=_masks(p.leq.T),
                                                   involutive=True)]
