"""Finite posets and lattices as explicit tables.

Elements are the indices 0..n-1.  A poset is an n x n boolean matrix
``leq`` with ``leq[i, j]`` meaning i <= j; a lattice adds integer meet and
join tables.  All containers are immutable after construction and safe to
share between threads; a lattice's distributivity and a poset's report
on each inversion checked are computed at first use, the same value
whichever thread asks.

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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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

    @cached_property
    def _inversion_reports(self) -> Dict[tuple, LawReport]:
        """check_inversion's report on each map checked on this poset, so
        the checks of one command that share a poset scan a map once."""
        return {}


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
    """PASS iff f is involutive and x <= y iff f(y) <= f(x); each map is
    scanned once per poset."""
    f = as_order_map(f, p.n)
    reports = p._inversion_reports
    if f not in reports:
        reports[f] = _inversion_report(p, np.array(f))
    return reports[f]


def _inversion_report(p: FinitePoset, f: np.ndarray) -> LawReport:
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


def _down_masks(rows: Sequence[int]) -> List[int]:
    """The down-set bitmasks of the poset of the up-set bitmasks rows:
    bit i of the j-th is set iff i <= j."""
    n = len(rows)
    return [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]


def _lower_covers(downs: Sequence[int]) -> Dict[int, int]:
    """lower[x] for each join-irreducible x of a lattice, in index order,
    from its down-set bitmasks: x is join-irreducible iff it has exactly
    one lower cover, lower[x], that is iff the elements strictly below it
    are the down-set of one."""
    down_of = {mask: x for x, mask in enumerate(downs)}
    return {x: down_of[mask ^ 1 << x] for x, mask in enumerate(downs) if mask ^ 1 << x in down_of}


def _classes(rows: Sequence[int], downs: Sequence[int]) -> List[Tuple[int, int]]:
    """cls[i]: element i's class, its (up-set size, down-set size), the
    bit counts of the up-set bitmasks rows and the down-set bitmasks
    downs of a poset.  An order isomorphism maps every element to one of
    the same class."""
    return list(zip(map(int.bit_count, rows), map(int.bit_count, downs)))


def _members(cls: Sequence[Tuple[int, int]]) -> Dict[Tuple[int, int], List[int]]:
    """Each class of cls with its elements in index order."""
    members: Dict[Tuple[int, int], List[int]] = {}
    for i, c in enumerate(cls):
        members.setdefault(c, []).append(i)
    return members


def _order_automorphism(rows: Sequence[int], pins: Sequence[Tuple[int, int]] = (),
                        target: Optional[Sequence[int]] = None, involutive: bool = False,
                        classes: Optional[Sequence[tuple]] = None,
                        target_classes: Optional[Sequence[tuple]] = None):
    """Yields every order isomorphism sigma from the poset of the up-set
    bitmasks rows onto that of target (rows itself by default, so the
    automorphisms), each as a new list of sigma[x] for every element x;
    only those with sigma[x] = y for each pair (x, y) of pins, and with
    involutive only those with sigma[sigma[x]] = x.  Backtracks over the
    images of the pinned elements, in the order of pins, then of the
    others in index order, each within its own class in target, keeping
    x <= z iff sigma[x] <= sigma[z] against every element already mapped.
    An involution sends x to a mapped y only when y is sent to x, and to
    an unmapped y only when x is no image yet.  The maps come in
    lexicographic order of the images of the elements not pinned.  A
    caller that has the classes of rows, or of target, passes them (see
    _classes) as classes, resp. target_classes; otherwise they are read
    from the down-sets that _down_masks lists."""
    n = len(rows)
    cls = _classes(rows, _down_masks(rows)) if classes is None else classes
    if target is None:
        target, target_cls = rows, cls
    else:
        target_cls = _classes(target, _down_masks(target)) if target_classes is None \
            else target_classes
    if sorted(cls) != sorted(target_cls):
        return
    members = _members(target_cls)
    choices = [members[c] for c in cls]
    for x, y in pins:
        choices[x] = [y] if y in choices[x] else []
    pinned = dict.fromkeys(x for x, _ in pins)
    order = [*pinned, *(x for x in range(n) if x not in pinned)]
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


def _orbit(x, maps: Sequence[Callable]) -> set:
    """The orbit of x under the group that the invertible maps generate:
    its closure under them, as the group is finite."""
    orbit, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for f in maps:
            z = f(y)
            if z not in orbit:
                orbit.add(z)
                todo.append(z)
    return orbit


def _stabiliser_generators(rows: Sequence[int], downs: Sequence[int], e: int) -> List[List[int]]:
    """Generators of G, the order automorphisms that fix e of the lattice
    of the up-set bitmasks rows and down-set bitmasks downs, found
    without listing G (a stabiliser chain, after Sims).  Every
    automorphism fixes the top, so with e the top G is the whole
    automorphism group.

    The base is the join-irreducibles other than e and the top, in index
    order.  G maps it onto itself, and only the identity in G fixes each
    of its points: each element is the join of the join-irreducibles
    below it, and G fixes e and the top.  G_k, the members of G that fix
    base[:k], falls to the identity at k = len(base).  From the last
    level up, the generators kept so far generate G_{k+1}; at level k one
    automorphism in G_k from base[k] to c is kept for each c of its class
    (see _classes) in base[k + 1:] that the orbit of base[k] under those
    generators misses and G_k reaches.  They then generate G_k: for each
    g in G_k some h they generate has h[base[k]] = g[base[k]], and
    h^-1 g lies in G_{k+1}."""
    cls, everything = _classes(rows, downs), (1 << len(rows)) - 1
    base = [x for x in _lower_covers(downs) if x != e and downs[x] != everything]
    gens: List[List[int]] = []
    for k in reversed(range(len(base))):
        b = base[k]
        orbit = {b}  # the generators of later levels fix b
        for c in base[k + 1:]:
            if c in orbit or cls[c] != cls[b]:
                continue
            pins = [(b, c), (e, e), *((x, x) for x in base[:k])]
            sigma = next(_order_automorphism(rows, pins, classes=cls), None)
            if sigma is not None:
                gens.append(sigma)
                orbit = _orbit(b, [g.__getitem__ for g in gens])
    return gens


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
