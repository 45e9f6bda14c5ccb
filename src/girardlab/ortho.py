"""Ortholattices and orthomodular lattices.

Covers the axiom checks, the three equivalent orthomodularity conditions,
the induced structure on principal downsets, the compatibility relation,
and block (maximal Boolean subalgebra) enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List

import numpy as np

from .orders import (
    FiniteLattice, _masks, as_order_map, check_inversion, first_violation, is_boolean,
    least_witness, sublattice,
)
from .reports import InputError, LawReport, law_fail, law_pass


@dataclass(frozen=True, eq=False)
class OrthoLattice:
    """Bounded lattice plus an orthocomplement map.

    The constructor does not validate; run check_ortholattice (and
    check_orthomodular where required) before trusting a hand-built
    instance.
    """

    lattice: FiniteLattice
    ortho: tuple

    @property
    def n(self) -> int:
        return self.lattice.n

    def label(self, i: int) -> str:
        return self.lattice.label(i)

    @cached_property
    def orthomodular(self) -> bool:
        """is_orthomodular's verdict, decided on first use only."""
        if check_ortholattice(self.lattice, self.ortho).failed:
            return False
        return all(r.passed for r in check_orthomodular(self))


def check_ortholattice(l: FiniteLattice, f) -> LawReport:
    """PASS iff f is an inversion with x /\\ f(x) = 0 and x \\/ f(x) = 1,
    and joins agree with the De Morgan dual of meets under f."""
    f = np.array(as_order_map(f, l.n))
    inv = check_inversion(l, f)
    if inv.failed:
        return law_fail("ortholattice", inv.witness, f"inversion: {inv.note}")
    meet, join, x = l.meet, l.join, np.arange(l.n)
    no_zero = meet[x, f] != l.bottom
    w = first_violation(no_zero | (join[x, f] != l.top))
    if w is not None:
        return law_fail("ortholattice", w, "x /\\ x' != 0" if no_zero[w] else "x \\/ x' != 1")
    w = least_witness(lambda s: join[s] != f[meet[f[s, None], f]], l.n, 2)
    if w is not None:
        return law_fail("ortholattice", w, "join is not the De Morgan dual of meet")
    return law_pass("ortholattice")


def check_orthomodular(o: OrthoLattice) -> List[LawReport]:
    """Evaluate the three equivalent orthomodularity conditions.

    Returns one report per condition; on an ortholattice they agree by
    the classical equivalence, which the suite verifies instance-wise
    rather than assuming.
    """
    lat, f = o.lattice, np.asarray(o.ortho)
    n, meet, join, leq = lat.n, lat.meet, lat.join, lat.leq
    idx = np.arange(n)

    def scan(violates):
        return least_witness(lambda s: leq[s] & violates(idx[s, None], idx), n, 2)

    w1 = scan(lambda x, y: join[x, meet[f[x], y]] != y)
    w2 = scan(lambda x, y: meet[y, join[f[y], x]] != x)
    w3 = scan(lambda x, y: (meet[f[x], y] == lat.bottom) & (x != y))
    out = []
    for law, w in (
        ("orthomodular-join-form", w1),
        ("orthomodular-meet-form", w2),
        ("orthomodular-zero-form", w3),
    ):
        out.append(law_pass(law) if w is None else law_fail(law, w))
    return out


def is_orthomodular(o: OrthoLattice) -> bool:
    """Whether o is orthomodular, decided once per instance."""
    return o.orthomodular


def downset_oml(o: OrthoLattice, a: int) -> OrthoLattice:
    """The orthomodular lattice living on {u : u <= a}.

    A down-set is closed under meet and join, so order, meets and joins
    are the ambient ones restricted and re-indexed (orders.sublattice),
    not derived again; the downset of the top is the carrier itself.
    The orthocomplement of u becomes a /\\ u'.  Elements of the result
    are the ambient downset members in ascending index order.
    """
    if not is_orthomodular(o):
        raise InputError("downset construction needs an orthomodular carrier")
    lat = o.lattice
    carrier = np.flatnonzero(lat.leq[:, a])
    ortho = np.searchsorted(carrier, lat.meet[a, np.asarray(o.ortho)[carrier]])
    return OrthoLattice(sublattice(lat, carrier), tuple(ortho.tolist()))


def compatible(o: OrthoLattice, x, y):
    """Truth of x = (x /\\ y) \\/ (x /\\ y'), elementwise over index arrays."""
    lat, f = o.lattice, np.asarray(o.ortho)
    return lat.join[lat.meet[x, y], lat.meet[x, f[y]]] == x


def _bits(mask: int):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(adj: np.ndarray) -> list:
    """Bron-Kerbosch with pivoting over a symmetric boolean matrix.  The
    pivot is the least member of P u X with the most neighbours in P,
    found over P u X alone (Tomita, Tanaka & Takahashi, TCS 2006)."""
    n = adj.shape[0]
    nbr = _masks(adj & ~np.eye(n, dtype=bool))
    out = []

    def expand(r: int, p: int, x: int):
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = max(_bits(p | x), key=lambda v: (nbr[v] & p).bit_count())
        for v in _bits(p & ~nbr[pivot]):
            expand(r | 1 << v, p & nbr[v], x & nbr[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << n) - 1, 0)
    return out


def blocks(o: OrthoLattice) -> list:
    """Maximal Boolean subalgebras, as sorted element tuples, sorted.

    In an orthomodular lattice the blocks are exactly the maximal
    pairwise-compatible subsets (Kalmbach, Orthomodular Lattices, 1983),
    so they are read off as the maximal cliques of the compatibility
    relation.  Each is verified to be closed under meet, join and
    orthocomplement and to be Boolean before being returned; closed, it
    is a sub-lattice, whose tables are the ambient ones restricted
    (orders.sublattice), and a block of all elements is the carrier.
    """
    if not is_orthomodular(o):
        raise InputError("blocks are defined for orthomodular lattices")
    lat, f = o.lattice, np.asarray(o.ortho)
    idx = np.arange(lat.n)
    comp = compatible(o, idx[:, None], idx)
    comp &= comp.T

    result = sorted(tuple(_bits(clique)) for clique in _maximal_cliques(comp))
    for b in result:
        pairs = np.ix_(b, b)
        generated = np.concatenate([lat.meet[pairs].ravel(), lat.join[pairs].ravel(), f[list(b)]])
        if not np.isin(generated, b).all() or not is_boolean(sublattice(lat, b)).passed:
            raise RuntimeError(f"internal error: block candidate {b} is not a Boolean subalgebra")
    return result
