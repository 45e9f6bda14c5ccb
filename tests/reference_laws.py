"""Loop-based reference implementations of the finite-table law scans.

These are the nested-loop scans girardlab ran before its law kernel
(`girardlab.orders.least_witness`) replaced them.  They are kept here,
and only here, as the oracle of tests/test_law_kernel.py: every visit is
in ascending index order, so the first violation found is by
construction the lexicographically least witness, and the vectorised
code must report exactly the same verdict, witness, note and exception.
"""
import numpy as np

from girardlab.girard import GirardCertificate
from girardlab.orders import FiniteLattice, NotALattice, NotBounded, PosetViolation, as_order_map
from girardlab.reports import law_fail, law_pass, law_skip
from girardlab.residuation import AdjointnessFailure, Flags, NoResiduum, as_mul_table


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def transitivity_witness(leq):
    n = len(leq)
    for i in range(n):
        for j in range(n):
            if leq[i, j]:
                for k in range(n):
                    if leq[j, k] and not leq[i, k]:
                        raise PosetViolation("transitivity", (i, j, k))


def compute_lattice(p):
    n, leq = p.n, p.leq
    lt = leq & ~np.eye(n, dtype=bool)
    bottoms = [i for i in range(n) if leq[i, :].all()]
    if not bottoms:
        raise NotBounded("bottom", [i for i in range(n) if not lt[:, i].any()])
    tops = [i for i in range(n) if leq[:, i].all()]
    if not tops:
        raise NotBounded("top", [i for i in range(n) if not lt[i, :].any()])
    up_of = {leq[i, :].tobytes(): i for i in range(n)}
    down_of = {leq[:, i].tobytes(): i for i in range(n)}
    meet = np.zeros((n, n), dtype=np.intp)
    join = np.zeros((n, n), dtype=np.intp)
    for i in range(n):
        for j in range(n):
            u = up_of.get((leq[i, :] & leq[j, :]).tobytes())
            if u is None:
                raise NotALattice((i, j), "least upper bound")
            join[i, j] = u
            d = down_of.get((leq[:, i] & leq[:, j]).tobytes())
            if d is None:
                raise NotALattice((i, j), "greatest lower bound")
            meet[i, j] = d
    return FiniteLattice(p.n, p.leq, p.labels, meet, join, bottoms[0], tops[0])


def is_distributive(l):
    n, meet, join = l.n, l.meet, l.join
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x, join[y, z]] != join[meet[x, y], meet[x, z]]:
                    return law_fail("distributivity", (x, y, z))
    return law_pass("distributivity")


def is_complemented(l):
    n, meet, join = l.n, l.meet, l.join
    comps = []
    for x in range(n):
        for y in range(n):
            if meet[x, y] == l.bottom and join[x, y] == l.top:
                comps.append(y)
                break
        else:
            return law_fail("complementation", (x,)), None
    return law_pass("complementation"), tuple(comps)


def check_inversion(p, f):
    f = as_order_map(f, p.n)
    leq = p.leq
    for i in range(p.n):
        if f[f[i]] != i:
            return law_fail("inversion", (i,), "not involutive")
    for i in range(p.n):
        for j in range(p.n):
            if leq[i, j] != leq[f[j], f[i]]:
                return law_fail("inversion", (i, j), "not order-reversing")
    return law_pass("inversion")


# ---------------------------------------------------------------------------
# ortho
# ---------------------------------------------------------------------------

def check_ortholattice(l, f):
    f = as_order_map(f, l.n)
    inv = check_inversion(l, f)
    if inv.failed:
        return law_fail("ortholattice", inv.witness, f"inversion: {inv.note}")
    for x in range(l.n):
        if l.meet[x, f[x]] != l.bottom:
            return law_fail("ortholattice", (x,), "x /\\ x' != 0")
        if l.join[x, f[x]] != l.top:
            return law_fail("ortholattice", (x,), "x \\/ x' != 1")
    for i in range(l.n):
        for j in range(l.n):
            if l.join[i, j] != f[l.meet[f[i], f[j]]]:
                return law_fail("ortholattice", (i, j), "join is not the De Morgan dual of meet")
    return law_pass("ortholattice")


def check_orthomodular(o):
    lat, f = o.lattice, o.ortho
    n, meet, join, leq = lat.n, lat.meet, lat.join, lat.leq

    def scan(violates):
        for x in range(n):
            for y in range(n):
                if leq[x, y] and violates(x, y):
                    return (x, y)
        return None

    w1 = scan(lambda x, y: join[x, meet[f[x], y]] != y)
    w2 = scan(lambda x, y: meet[y, join[f[y], x]] != x)
    w3 = scan(lambda x, y: meet[f[x], y] == lat.bottom and x != y)
    return [law_pass(law) if w is None else law_fail(law, w)
            for law, w in (("orthomodular-join-form", w1), ("orthomodular-meet-form", w2),
                           ("orthomodular-zero-form", w3))]


def compatibility(o):
    lat, f = o.lattice, o.ortho
    comp = np.zeros((o.n, o.n), dtype=bool)
    for x in range(o.n):
        for y in range(o.n):
            comp[x, y] = int(lat.join[lat.meet[x, y], lat.meet[x, f[y]]]) == x
    return comp


# ---------------------------------------------------------------------------
# residuation
# ---------------------------------------------------------------------------

def check_associative(m):
    t = np.asarray(m, dtype=np.intp)
    n = t.shape[0]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if t[t[x, y], z] != t[x, t[y, z]]:
                    return law_fail("associativity", (x, y, z))
    return law_pass("associativity")


def derive_residua(order, mul):
    lat = order if isinstance(order, FiniteLattice) else None
    n, leq = order.n, order.leq
    t = as_mul_table(mul, n)

    def maximum(cand, pair, kind):
        if not cand:
            raise NoResiduum(pair, kind, "empty candidate set")
        if lat is not None:
            m = cand[0]
            for c in cand[1:]:
                m = int(lat.join[m, c])
            if m not in cand:
                raise NoResiduum(pair, kind, "candidate set has no maximum")
            return m
        for m in cand:
            if all(leq[c, m] for c in cand):
                return m
        raise NoResiduum(pair, kind, "candidate set has no maximum")

    rres = np.zeros((n, n), dtype=np.intp)
    lres = np.zeros((n, n), dtype=np.intp)
    for y in range(n):
        for z in range(n):
            rres[y, z] = maximum([x for x in range(n) if leq[t[x, y], z]], (y, z), "right")
    for z in range(n):
        for x in range(n):
            lres[z, x] = maximum([y for y in range(n) if leq[t[x, y], z]], (z, x), "left")
    check_adjointness(leq, t, rres, lres)
    return rres, lres


def check_adjointness(leq, t, rres, lres):
    n = len(leq)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                a = leq[t[x, y], z]
                if a != leq[x, rres[y, z]] or a != leq[y, lres[z, x]]:
                    raise AdjointnessFailure((x, y, z))


def classify(order, mul):
    lat = order if isinstance(order, FiniteLattice) else None
    n = order.n
    t = np.asarray(mul, dtype=np.intp)
    commutative = bool((t == t.T).all())
    idempotent = all(t[i, i] == i for i in range(n))
    unit = None
    for e in range(n):
        if all(t[e, x] == x and t[x, e] == x for x in range(n)):
            unit = e
            break
    top = lat.top if lat is not None else next(
        (i for i in range(n) if order.leq[:, i].all()), None)
    return Flags(commutative, idempotent, unit, unit is not None and unit == top)


def boolean_residua(l):
    _, comps = is_complemented(l)
    n = l.n
    rres = np.zeros((n, n), dtype=np.intp)
    lres = np.zeros((n, n), dtype=np.intp)
    for y in range(n):
        for z in range(n):
            rres[y, z] = l.join[comps[y], z]
            lres[z, y] = l.join[comps[y], z]
    check_adjointness(l.leq, l.meet, rres, lres)
    return rres, lres


# ---------------------------------------------------------------------------
# girard
# ---------------------------------------------------------------------------

def is_cyclic(s, d):
    leq, mul = s.poset.leq, s.mul
    for x in range(s.n):
        for y in range(s.n):
            if leq[mul[x, y], d] != leq[mul[y, x], d]:
                return law_fail("cyclic-element", (x, y), f"d={d}")
    return law_pass("cyclic-element", f"d={d}")


def is_dualizing(s, d):
    rres, lres = s.rres, s.lres
    for x in range(s.n):
        if lres[d, rres[x, d]] != x or rres[lres[d, x], d] != x:
            return law_fail("dualizing-element", (x,), f"d={d}")
    return law_pass("dualizing-element", f"d={d}")


def find_cyclic_dualizing(s):
    out = []
    mul, rres, lres = s.mul, s.rres, s.lres
    for d in range(s.n):
        if is_cyclic(s, d).failed or is_dualizing(s, d).failed:
            continue
        neg = tuple(int(rres[x, d]) for x in range(s.n))
        for x in range(s.n):
            if lres[d, x] != neg[x]:
                raise RuntimeError(f"cyclic d={d} with diverging one-sided negations at {x}")
        if check_inversion(s.poset, neg).failed:
            raise RuntimeError(f"negation induced by d={d} is not an inversion")
        e = neg[d]
        for x in range(s.n):
            if mul[e, x] != x or mul[x, e] != x:
                raise RuntimeError(f"neg(d)={e} fails the unit law at {x}")
        for x in range(s.n):
            for y in range(s.n):
                if rres[x, y] != neg[mul[x, neg[y]]] or lres[y, x] != neg[mul[neg[y], x]]:
                    raise RuntimeError(f"residuum/negation identity fails at ({x},{y})")
        out.append(GirardCertificate(d, neg, e))
    return out


def matches_residuation(s, f):
    fe = f[s.flags.unit]
    return all(f[x] == s.rres[x, fe] and f[x] == s.lres[fe, x] for x in range(s.n))


def exchange(s, f):
    leq, mul = s.poset.leq, s.mul
    for t in range(s.n):
        for x in range(s.n):
            for y in range(s.n):
                if leq[mul[t, x], f[y]] != leq[mul[y, t], f[x]]:
                    return (t, x, y)
    return None


def check_dualizer_join_formula(s, cert, certs):
    if s.lattice is None:
        return law_skip("dualizer-join-formula", "needs a lattice for joins")
    lat, mul, neg, d = s.lattice, s.mul, cert.neg, cert.d
    leq = lat.leq
    acc = lat.bottom
    for x in range(s.n):
        p = int(mul[x, neg[x]])
        if not leq[p, d] or not leq[mul[neg[x], x], d]:
            return law_fail("dualizer-join-formula", (x,), "self-product escapes d")
        acc = int(lat.join[acc, p])
    if acc != d:
        return law_fail("dualizer-join-formula", (acc,), f"join of self-products is {acc}, not d={d}")
    for other in certs:
        if other.d != d and other.neg == neg:
            return law_fail("dualizer-join-formula", (other.d,), "second dualizer with same negation")
    return law_pass("dualizer-join-formula", f"d={d}")


def check_quantale(l, m):
    t = np.asarray(m, dtype=np.intp)
    assoc = check_associative(t)
    if assoc.failed:
        return law_fail("quantale", assoc.witness, "multiplication not associative")
    n, join, bottom = l.n, l.join, l.bottom
    for x in range(n):
        if t[x, bottom] != bottom or t[bottom, x] != bottom:
            return law_fail("quantale", (x,), "zero law fails")
    for x in range(n):
        for a in range(n):
            for b in range(n):
                if t[x, join[a, b]] != join[t[x, a], t[x, b]]:
                    return law_fail("quantale", (x, a, b), "join distribution fails on the right")
                if t[join[a, b], x] != join[t[a, x], t[b, x]]:
                    return law_fail("quantale", (a, b, x), "join distribution fails on the left")
    return law_pass("quantale")
