"""Finite posets and lattices as explicit tables.

Elements are the indices 0..n-1.  A poset is an n x n boolean matrix
``leq`` with ``leq[i, j]`` meaning i <= j; a lattice adds integer meet and
join tables.  All containers are immutable after construction and safe to
share between threads.

Every law scan is one boolean mask over index tuples, built by numpy
broadcasting from index grids (see `least_witness`), and reports the
first True cell in C order: the lexicographically least witness.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
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
    """Broadcast index grids over [0, n)^arity, cut along the first index.

    Returns (lo, grids) pairs: grids[0] holds first indices lo, lo+1, ...
    shaped (k, 1, ..., 1); grids[i] for i >= 1 holds 0..n-1 along axis i.
    The arrays are read-only and shared between callers.
    """
    idx = np.arange(n)
    idx.flags.writeable = False
    rest = tuple(idx.reshape((n,) + (1,) * (arity - 1 - i)) for i in range(1, arity))
    step = max(1, _SLAB_CELLS // max(n, 1) ** (arity - 1))
    return tuple(
        (lo, (idx[lo:lo + step].reshape((-1,) + (1,) * (arity - 1)),) + rest)
        for lo in range(0, n, step)
    )


def least_witness(law, n: int, arity: int) -> Optional[tuple]:
    """Least tuple in [0, n)^arity at which `law` marks a violation.

    `law(*grids)` is the law's violation condition written with index
    grids in place of loop variables, e.g. ``t[t[x, y], z] != t[x, t[y, z]]``
    for associativity; it must return a mask of the full slab shape.
    Slabs are scanned in order, so the first hit is the least witness.
    """
    for lo, grids in index_slabs(n, arity):
        w = first_violation(law(*grids))
        if w is not None:
            return (w[0] + lo,) + w[1:]
    return None


def greatest(cand: np.ndarray, leq: np.ndarray):
    """Greatest element of each candidate set, under the order `leq`.

    cand[..., c] marks c as a member of the set at index `...`.  Returns
    (best, found): found says whether the set has a greatest element and
    best is that element where it does.  A member m is greatest when no
    member c has c </= m, which one matrix product counts for every m.
    """
    outside = cand @ (~leq).astype(np.float32)  # counts stay exact far past any n
    top = cand & (outside == 0)
    return top.argmax(axis=-1), top.any(axis=-1)


def _norm_labels(n: int, labels) -> Optional[tuple]:
    if labels is None:
        return None
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    return labels


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """Explicit finite partial order.  Construct through validate_poset."""

    n: int
    leq: np.ndarray
    labels: Optional[tuple]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)


def validate_poset(relation, labels=None) -> FinitePoset:
    """Check reflexivity, antisymmetry and transitivity of a relation.

    Returns the poset on success; raises PosetViolation carrying the
    offending axiom and the least witness tuple otherwise.  The relation
    is taken literally, nothing is normalized.
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
    w = least_witness(lambda i, j, k: leq[i, j] & leq[j, k] & ~leq[i, k], n, 3)
    if w is not None:
        raise PosetViolation("transitivity", w)
    return FinitePoset(n, _frozen(leq), _norm_labels(n, labels))


def closure_from_covers(n: int, covers: Iterable[tuple]) -> np.ndarray:
    """Reflexive-transitive closure of a cover list, as an leq matrix."""
    leq = np.eye(n, dtype=bool)
    for i, j in covers:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"cover ({i},{j}) out of range for n={n}")
        leq[i, j] = True
    while True:
        more = leq | (leq @ leq)
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


def compute_lattice(p: FinitePoset) -> FiniteLattice:
    """Derive meet/join tables, or raise NotALattice / NotBounded.

    The join of {i, j} is the least of its common upper bounds and the
    meet the greatest of its common lower bounds; a pair lacking either
    is reported, the least upper bound first.
    """
    n, leq = p.n, p.leq
    lt = leq & ~np.eye(n, dtype=bool)
    bottoms = np.flatnonzero(leq.all(axis=1))
    if not bottoms.size:
        raise NotBounded("bottom", np.flatnonzero(~lt.any(axis=0)).tolist())
    tops = np.flatnonzero(leq.all(axis=0))
    if not tops.size:
        raise NotBounded("top", np.flatnonzero(~lt.any(axis=1)).tolist())

    meet = np.empty((n, n), dtype=np.intp)
    join = np.empty((n, n), dtype=np.intp)
    for lo, (i, j, k) in index_slabs(n, 3):
        ub, has_join = greatest(leq[i, k] & leq[j, k], leq.T)
        lb, has_meet = greatest(leq[k, i] & leq[k, j], leq)
        w = first_violation(~(has_join & has_meet))
        if w is not None:
            kind = "greatest lower bound" if has_join[w] else "least upper bound"
            raise NotALattice((w[0] + lo, w[1]), kind)
        join[lo:lo + len(i)] = ub
        meet[lo:lo + len(i)] = lb
    return FiniteLattice(n, leq, p.labels, _frozen(meet), _frozen(join),
                         int(bottoms[0]), int(tops[0]))


def lattice_from_covers(covers, labels) -> FiniteLattice:
    """Convenience: covers -> closure -> validated poset -> lattice."""
    return compute_lattice(validate_poset(closure_from_covers(len(labels), covers), labels))


def is_distributive(l: FiniteLattice) -> LawReport:
    """PASS iff x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z) for all triples."""
    meet, join = l.meet, l.join
    w = least_witness(lambda x, y, z: meet[x, join[y, z]] != join[meet[x, y], meet[x, z]], l.n, 3)
    return law_pass("distributivity") if w is None else law_fail("distributivity", w)


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
    w = least_witness(lambda i, j: leq[i, j] != leq[f[j], f[i]], p.n, 2)
    if w is not None:
        return law_fail("inversion", w, "not order-reversing")
    return law_pass("inversion")


def hasse_covers(p: FinitePoset) -> list:
    """Pairs (i, j) with i < j and no element strictly between."""
    lt = p.leq & ~np.eye(p.n, dtype=bool)
    between = lt @ lt
    return [(int(i), int(j)) for i, j in np.argwhere(lt & ~between)]


def _up_masks(leq: np.ndarray) -> list:
    """Row i of a boolean matrix as the bitmask of its True columns: the
    up-set of i when the matrix is an order's leq."""
    return [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in leq]


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
    return [tuple(f) for f in _order_automorphism(_up_masks(p.leq), target=_up_masks(p.leq.T),
                                                   involutive=True)]
