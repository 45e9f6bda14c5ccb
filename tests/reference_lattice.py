"""Order and lattice code girardlab used before each lattice fact was
computed once per command, kept as the oracle of tests/test_lattice_facts.py:

- closure_from_covers squares the relation with a boolean matrix product;
- validate_poset runs all three axiom scans, transitivity included;
- compute_lattice looks up all n^2 ordered pairs of both tables;
- downset_lattice and block_lattice derive a sub-lattice's tables again
  with compute_lattice, as downset_oml and blocks did;
- maximal_cliques picks each Bron-Kerbosch pivot by a scan of all n
  vertices;
- cyclic_dualizing tests each element with is_cyclic and is_dualizing;
- RecursiveSearch runs the residuation search with one interpreter frame
  per cell.

Each must agree with its replacement exactly: the same arrays, verdicts,
hits and node counts, or the same exception class and witness.
"""
import numpy as np

from girardlab.girard import is_cyclic, is_dualizing
from girardlab.orders import (
    FiniteLattice,
    FinitePoset,
    NotALattice,
    NotBounded,
    PosetViolation,
    _frozen,
    _masks,
    first_violation,
    least_witness,
)
from girardlab.search import _IrreducibleTableSearch, _leaf


def closure_from_covers(n, covers):
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


def validate_poset(relation, labels=None):
    leq = np.array(relation, dtype=bool)
    n = leq.shape[0]
    if n < 1:
        raise ValueError("poset needs at least one element")
    w = first_violation(~leq.diagonal())
    if w is not None:
        raise PosetViolation("reflexivity", w)
    w = first_violation(leq & leq.T & ~np.eye(n, dtype=bool))
    if w is not None:
        raise PosetViolation("antisymmetry", w)
    w = least_witness(lambda s: leq[s, :, None] & leq & ~leq[s, None, :], n, 3)
    if w is not None:
        raise PosetViolation("transitivity", w)
    labels = None if labels is None else tuple(str(x) for x in labels)
    return FinitePoset(n, _frozen(leq), labels)


def compute_lattice(p):
    n = p.n
    ups, downs = _masks(p.leq), _masks(p.leq.T)
    everything = (1 << n) - 1
    if everything not in ups:
        raise NotBounded("bottom", [i for i, d in enumerate(downs) if d == 1 << i])
    if everything not in downs:
        raise NotBounded("top", [i for i, u in enumerate(ups) if u == 1 << i])
    up_of = {u: i for i, u in enumerate(ups)}
    down_of = {d: i for i, d in enumerate(downs)}
    join = [[up_of.get(u & w) for w in ups] for u in ups]
    meet = [[down_of.get(d & w) for w in downs] for d in downs]
    for i, (joins, meets) in enumerate(zip(join, meet)):
        if None in joins or None in meets:
            j = next(j for j in range(n) if joins[j] is None or meets[j] is None)
            kind = "least upper bound" if joins[j] is None else "greatest lower bound"
            raise NotALattice((i, j), kind)
    return FiniteLattice(n, p.leq, p.labels, _frozen(np.array(meet, dtype=np.intp)),
                         _frozen(np.array(join, dtype=np.intp)),
                         ups.index(everything), downs.index(everything))


def downset_lattice(lat, a):
    """The lattice downset_oml built on {u : u <= a}, with its ortho map."""
    carrier = [u for u in range(lat.n) if lat.leq[u, a]]
    sub_leq = lat.leq[np.ix_(carrier, carrier)]
    labels = tuple(lat.label(u) for u in carrier)
    return compute_lattice(FinitePoset(len(carrier), _frozen(sub_leq), labels))


def downset_ortho(o, a):
    lat = o.lattice
    carrier = [u for u in range(lat.n) if lat.leq[u, a]]
    pos = {u: k for k, u in enumerate(carrier)}
    return tuple(pos[int(lat.meet[a, o.ortho[u]])] for u in carrier)


def block_lattice(lat, b):
    """The lattice blocks built on the block b, to test it for Booleanness."""
    pairs = np.ix_(b, b)
    return compute_lattice(FinitePoset(len(b), _frozen(lat.leq[pairs]), None))


def maximal_cliques(adj):
    n = adj.shape[0]
    nbr = _masks(adj & ~np.eye(n, dtype=bool))
    out = []

    def expand(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = max(range(n), key=lambda v: bin(nbr[v] & p).count("1") if (p | x) >> v & 1 else -1)
        cand = p & ~nbr[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            expand(r | 1 << v, p & nbr[v], x & nbr[v])
            p &= ~(1 << v)
            x |= 1 << v
            cand &= cand - 1

    expand(0, (1 << n) - 1, 0)
    return out


def cyclic_dualizing(s):
    return [d for d in range(s.n) if is_cyclic(s, d).passed and is_dualizing(s, d).passed]


class RecursiveSearch(_IrreducibleTableSearch):
    """The searcher with the recursive run it had."""

    def run(self, budget=None):
        cells, values, domains, lows = self.cells, self.values, self.domains, self.lows
        leq, join, bottom, r = self.leq_rows, self.join_rows, self.l.bottom, len(self.irr)
        limit = float("inf") if budget is None else budget
        completes = [k // r if (k + 1) % r == 0 else None for k in range(len(cells))]
        hits = []
        nodes = 0

        def rec(k):
            nonlocal nodes
            if k == len(cells):
                m = self.extension()
                s = _leaf(self.l, self.e, m)
                if s is not None:
                    hits.append((m, s))
                return True
            t = completes[k]
            visit = None if t is None else self.row_visit(t)
            if t is not None and visit is None:
                left = limit - nodes
                nodes += min(len(domains[k]), left)
                return len(domains[k]) <= left
            lo = bottom
            for k2 in lows[k]:
                lo = join[lo][values[k2]]
            above_lo = leq[lo]
            for v in domains[k]:
                if nodes >= limit:
                    return False
                nodes += 1
                if not above_lo[v]:
                    continue
                values[k] = v
                if (t is None or self.row_ok(t, v, visit)) and not rec(k + 1):
                    return False
            return True

        exhausted = rec(0)
        return hits, exhausted, nodes
