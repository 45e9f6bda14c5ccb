"""Differential tests of the law kernel against the loop-based scans.

Every vectorised scan must agree exactly with its loop form in
tests/reference_laws.py: the verdict, the witness (down to its Python
int type), the note, the returned tables and any raised exception's
type, message, pair, kind and witness.  Tables are drawn from three
families on carriers of at most six elements: arbitrary tables, valid
tables and tables with one mutated cell; explicit examples of up to 100
elements put the witnesses in later slabs of the scans.  Posets, most
of them not lattices, have up to twelve elements, so their up-set masks
can span two bytes.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_laws as ref
from fixtures import boolean_residuation, discrete_cyclic_group, drastic_chain
from girardlab import girard, orders, residuation, search
from girardlab.catalog import boolean_cube, chain, mo2_subspace_model
from girardlab.girard import GirardCertificate
from girardlab.ortho import OrthoLattice, check_ortholattice, check_orthomodular, compatible
from girardlab.reports import LawReport
from girardlab.residuation import Flags, ResiduatedStructure

LATTICES = search.enumerate_lattices(6).lattices


def _valid_tables():
    """(order, mul) pairs that are residuated, several of them Girard."""
    out = [(lat, lat.meet) for lat in LATTICES if orders.is_distributive(lat).passed]
    for m in range(2, 7):
        for s in (residuation.lukasiewicz_chain(m), drastic_chain(m)):
            out.append((s.lattice, s.mul))
    o, mul = mo2_subspace_model()
    out.append((o.lattice, np.array(mul)))
    out.append((chain(4), np.array([[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 2, 2], [0, 1, 2, 3]])))
    for m in (2, 3, 5):
        poset, mul = discrete_cyclic_group(m)
        out.append((poset, np.array(mul)))
    return out


VALID = _valid_tables()


def normal(v):
    """A comparable form of a result that keeps the types of scalars."""
    if isinstance(v, LawReport):
        return ("report", v.law, v.verdict, normal(v.witness), v.note)
    if isinstance(v, np.ndarray):
        return ("array", v.dtype.kind, v.tolist())
    if isinstance(v, orders.FiniteLattice):
        return ("lattice", normal(v.meet), normal(v.join), normal(v.bottom), normal(v.top))
    if isinstance(v, GirardCertificate):
        return ("cert", normal(v.d), normal(v.neg), normal(v.e))
    if isinstance(v, Flags):
        return ("flags",) + tuple(normal(x) for x in dataclasses.astuple(v))
    if isinstance(v, (tuple, list)):
        return tuple(normal(x) for x in v)
    return (type(v).__name__, v)


def outcome(fn, *args):
    try:
        return ("returned", normal(fn(*args)))
    except Exception as exc:  # the exception itself is the result under comparison
        return ("raised", type(exc), str(exc), *(normal(getattr(exc, a, None))
                                                 for a in ("pair", "kind", "witness", "axiom")))


def same(new, old, *args):
    assert outcome(new, *args) == outcome(old, *args)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def table(draw, n):
    return np.array(draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)),
                    dtype=np.intp).reshape(n, n)


def order_map(draw, n):
    return tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))


def permuted(order, mul, q):
    """The same structure with new element i the old q[i]."""
    q = np.array(q, dtype=np.intp)
    poset = orders.validate_poset(order.leq[np.ix_(q, q)])
    new = orders.compute_lattice(poset) if isinstance(order, orders.FiniteLattice) else poset
    return new, None if mul is None else np.argsort(q)[np.asarray(mul)[np.ix_(q, q)]]


def relabelled(draw, order, mul=None):
    """The same structure with its elements in a drawn order, so that
    i <= j no longer implies i <= j as indices."""
    return permuted(order, mul, draw(st.permutations(range(order.n))))


@st.composite
def arbitrary(draw):
    """A lattice with an arbitrary table and an arbitrary self-map."""
    lat, _ = relabelled(draw, draw(st.sampled_from(LATTICES)))
    return lat, table(draw, lat.n), order_map(draw, lat.n)


@st.composite
def valid(draw):
    """A residuated table."""
    return relabelled(draw, *draw(st.sampled_from(VALID)))


@st.composite
def mutated(draw):
    """A residuated table with one cell set to an arbitrary value."""
    order, t = draw(valid())
    n = order.n
    t[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return order, t


@st.composite
def relations(draw):
    """Reflexive antisymmetric relations, transitive or not, on n <= 10."""
    n = draw(st.integers(1, 10))
    perm = draw(st.permutations(range(n)))
    upper = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    rel = np.triu(upper, 1) | np.eye(n, dtype=bool)
    return rel[np.ix_(perm, perm)]


@st.composite
def posets(draw):
    """Closures of random relations, bounded (a bottom and a top added)
    or not, most of them not lattices."""
    rel = draw(relations())
    n = len(rel)
    leq = orders.closure_from_covers(n, np.argwhere(rel).tolist())
    if draw(st.booleans()):
        leq = np.pad(leq, 1)
        leq[0, :] = leq[:, -1] = True
        leq[-1, -1] = True
    return relabelled(draw, orders.validate_poset(leq))[0]


@st.composite
def non_lattice_posets(draw):
    p = draw(posets())
    try:
        orders.compute_lattice(p)
    except orders.OrderError:
        return p
    return orders.validate_poset(np.eye(2, dtype=bool))  # the two-element antichain


def structure(order, mul) -> ResiduatedStructure:
    return residuation.residuated_structure(order, mul)


# ---------------------------------------------------------------------------
# large inputs: n = 7 scans in one slab, n = 26 in a slab of 24 first
# indices and a ragged one of 2, n = 64 in 16 slabs of 4 and n = 100 in
# 100 slabs of 1; the witnesses lie in the last slab unless noted
# ---------------------------------------------------------------------------

def lukasiewicz(n, *cells):
    """The n-element Lukasiewicz chain, with each (x, y, v) in cells
    setting x*y = v."""
    s = residuation.lukasiewicz_chain(n)
    t = np.array(s.mul)
    for x, y, v in cells:
        t[x, y] = v
    return s.lattice, t


def late_residuation_failures(n):
    top = n - 1
    return [
        lukasiewicz(n, (top, 0, 1)),  # associativity; left residuum empty at (0, top)
        permuted(*lukasiewicz(n, (top, 0, 1)), range(n)[::-1]),  # left residuum empty at (top, 0)
        lukasiewicz(n, (0, top, 1)),  # right residuum empty at (top, 0)
        lukasiewicz(n, (top, top, n - 2)),  # residuated, associativity fails in the first slab
        lukasiewicz(n, (top, 2, 0)),  # adjointness at (n - 2, 2, 0)
    ]


def boolean_without_residuum(*cells):
    """The 64-element Boolean algebra under meet, but with 3*top = top:
    the right residuum set at (top, 3) is {0, 1, 2}, which has no
    maximum.  Each (x, y, v) in cells also sets x*y = v."""
    lat = boolean_cube(6)
    t = np.array(lat.meet)
    t[3, 63] = 63
    for x, y, v in cells:
        t[x, y] = v
    return lat, t


def n5_on_a_chain(n):
    """A chain 0 < ... < n-6 topped by the pentagon {n-6, n-5 < n-1,
    n-4, n-3} and one element n-2 above it: only x = n-1 fails
    distributivity."""
    b = n - 6
    covers = [(i, i + 1) for i in range(b)] + [(b, n - 5), (n - 5, n - 1), (n - 1, n - 3),
                                               (b, n - 4), (n - 4, n - 3), (n - 3, n - 2)]
    return orders.lattice_from_covers(covers, [str(i) for i in range(n)])


def broken_girard(n):
    """The Lukasiewicz chain with top*top = n-2 in its table only:
    exchange fails for the reversal at (top, 1, top)."""
    s = structure(*lukasiewicz(n))
    return dataclasses.replace(s, mul=lukasiewicz(n, (n - 1, n - 1, n - 2))[1])


def broken_negation(k, table):
    """The Boolean algebra with 2^k elements under meet, with 0 -> 0 = 0
    in rres or 0 <- 0 = 0 in lres only: the negation, which alone passes
    the exchange law, is then the map x -> 0 or the map 0 <- x of the
    other table only."""
    lat = boolean_cube(k)
    s = structure(lat, lat.meet)
    t = np.array(getattr(s, table))
    t[0, 0] = 0
    return dataclasses.replace(s, **{table: t})


# ---------------------------------------------------------------------------
# orders and ortho
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(relations())
def test_transitivity(rel):
    same(lambda: orders.validate_poset(rel).n, lambda: ref.transitivity_witness(rel) or len(rel))


@settings(max_examples=200, deadline=None)
@given(posets())
def test_lattice_construction(p):
    same(orders.compute_lattice, ref.compute_lattice, p)


@pytest.mark.parametrize("build, join, meet", [
    (lambda: chain(256), np.maximum, np.minimum),
    (lambda: boolean_cube(8), np.bitwise_or, np.bitwise_and),  # element i is a set of atoms
], ids=["chain-256", "boolean-cube-8"])
def test_lattice_tables_in_closed_form(build, join, meet):
    # 256 elements, so each up-set mask spans 32 bytes; the oracle is a
    # formula, not an intersection of up-sets
    lat = build()
    x = np.arange(lat.n)
    assert lat.join.tolist() == join.outer(x, x).tolist()
    assert lat.meet.tolist() == meet.outer(x, x).tolist()
    assert (lat.bottom, lat.top) == (0, lat.n - 1)


def _with_examples(cases):
    def attach(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test
    return attach


@settings(max_examples=150, deadline=None)
@given(arbitrary())
@_with_examples([(lat, np.array(lat.meet), tuple(range(lat.n))[::-1])
                 for lat in (n5_on_a_chain(26), n5_on_a_chain(100))]
                + [(boolean_cube(6), np.array(boolean_cube(6).meet), tuple(63 - np.arange(64)))])
def test_order_laws_on_arbitrary_maps(case):
    lat, _, f = case
    same(orders.is_distributive, ref.is_distributive, lat)
    same(orders.is_complemented, ref.is_complemented, lat)
    same(orders.check_inversion, ref.check_inversion, lat, f)
    same(check_ortholattice, ref.check_ortholattice, lat, f)
    o = OrthoLattice(lat, f)
    same(check_orthomodular, ref.check_orthomodular, o)
    idx = np.arange(lat.n)
    assert compatible(o, idx[:, None], idx).tolist() == ref.compatibility(o).tolist()


@pytest.mark.parametrize("lat", LATTICES, ids=lambda l: f"n{l.n}")
def test_order_laws_on_every_inversion(lat):
    for f in orders.enumerate_inversions(lat):
        same(orders.check_inversion, ref.check_inversion, lat, f)
        same(check_ortholattice, ref.check_ortholattice, lat, f)
        same(check_orthomodular, ref.check_orthomodular, OrthoLattice(lat, f))


# ---------------------------------------------------------------------------
# residuation
# ---------------------------------------------------------------------------

def residuation_laws(order, t):
    same(residuation.check_associative, ref.check_associative, t)
    same(residuation.derive_residua, ref.derive_residua, order, t)
    same(residuation.classify, ref.classify, order, t)


@settings(max_examples=200, deadline=None)
@given(arbitrary())
def test_residuation_on_arbitrary_tables(case):
    lat, t, _ = case
    residuation_laws(lat, t)
    residuation_laws(orders.validate_poset(lat.leq, lat.labels), t)


@settings(max_examples=200, deadline=None)
@given(mutated())
@_with_examples([(chain(1), np.zeros((1, 1), dtype=np.intp))]
                + late_residuation_failures(7) + late_residuation_failures(26)
                + [late_residuation_failures(64)[i] for i in (1, 4)] + [boolean_without_residuum()]
                # the mismatch at (0, 1, 0), in the first slab, must not hide the missing residuum
                + [boolean_without_residuum((0, 1, 1))]
                # adjointness at (30, 32, 0), though the first slab with a mismatch holds y = 2
                + [lukasiewicz(64, (30, 32, 48), (60, 2, 9)),
                   lukasiewicz(64, (6, 52, 0), (63, 13, 39)),  # at (63, 13, 14), left half only
                   # at (15, 63, 16), in the second mismatching slab of either half
                   lukasiewicz(64, (17, 8, 32), (15, 63, 57))])
def test_residuation_on_mutated_tables(case):
    residuation_laws(*case)


@settings(max_examples=150, deadline=None)
@given(non_lattice_posets(), st.data())
def test_residuation_on_non_lattice_posets(p, data):
    residuation_laws(p, table(data.draw, p.n))
    bottom = orders.first_violation(p.leq.all(axis=1))
    if bottom is not None:  # constant tables reach AdjointnessFailure and success too
        residuation_laws(p, np.full((p.n, p.n), bottom[0], dtype=np.intp))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_boolean_residuation(k):
    lat = boolean_cube(k)
    s = boolean_residuation(lat)
    assert normal((s.rres, s.lres)) == normal(ref.boolean_residua(lat))
    assert s.flags == residuation.Flags(commutative=True, idempotent=True, unit=lat.top, integral=True)


# ---------------------------------------------------------------------------
# girard
# ---------------------------------------------------------------------------

@st.composite
def broken_structures(draw):
    """A residuated structure with one cell of mul, rres or lres mutated,
    bypassing validation, so the certificate re-checks can fire."""
    s = structure(*draw(valid()))
    tables = {"mul": np.array(s.mul), "rres": np.array(s.rres), "lres": np.array(s.lres)}
    if draw(st.booleans()):
        cell = tables[draw(st.sampled_from(sorted(tables)))]
        n = s.n
        cell[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return dataclasses.replace(s, **tables)


@settings(max_examples=250, deadline=None)
@given(broken_structures(), st.data())
def test_girard_scans(s, data):
    for d in range(s.n):
        same(girard.is_cyclic, ref.is_cyclic, s, d)
        same(girard.is_dualizing, ref.is_dualizing, s, d)
    same(girard.find_cyclic_dualizing, ref.find_cyclic_dualizing, s)
    neg = order_map(data.draw, s.n)
    cert = GirardCertificate(data.draw(st.integers(0, s.n - 1)), neg, 0)
    try:
        certs = ref.find_cyclic_dualizing(s)
    except RuntimeError:
        certs = []
    for c in [cert] + certs:
        same(girard.check_dualizer_join_formula, ref.check_dualizer_join_formula, s, c, certs)


@settings(max_examples=150, deadline=None)
@given(broken_structures())
@_with_examples([broken_girard(7), broken_girard(26), broken_girard(64),
                 broken_negation(3, "rres"), broken_negation(3, "lres")])
def test_girard_recognitions(s):
    if s.flags.unit is None:
        return
    inversions = orders.enumerate_inversions(s.poset)

    def old(*fs):
        d1 = bool(ref.find_cyclic_dualizing(s))
        d2 = any(ref.matches_residuation(s, f) for f in fs)
        d3 = any(ref.exchange(s, f) is None for f in fs)
        return d1, d2, d3

    def new(*fs):
        r = girard.girard_equivalences(s, inversion=fs[0] if len(fs) == 1 else None)
        return r.has_cyclic_dualizer, r.has_negation_by_residuation, r.has_exchange_inversion

    same(new, old, *inversions)
    for f in inversions:  # one candidate at a time, so each verdict is seen
        same(new, old, f)
        same(girard._exchange_witness, ref.exchange, s, f)


@settings(max_examples=200, deadline=None)
@given(st.one_of(arbitrary().map(lambda c: c[:2]), mutated()))
@_with_examples([lukasiewicz(100, (99, 0, 1)),  # associativity at (99, 0, 0)
                 (n5_on_a_chain(26), np.array(n5_on_a_chain(26).meet))])  # distribution, last slab
def test_quantale_laws(case):
    order, t = case
    if not isinstance(order, orders.FiniteLattice):
        return
    same(girard.check_quantale, ref.check_quantale, order, t)


# The right and the left distribution law are checked together at each
# loop position (x, a, b); a left failure is reported as (a, b, x).
INTERLEAVED = [
    # both laws fail first at (1, 1, 2): the right one is reported
    (chain(3), [[0, 0, 0], [0, 1, 0], [0, 0, 0]], (1, 1, 2), "right"),
    # the left law fails at (2, 1, 2) before the right one at (3, 1, 2)
    (boolean_cube(2), [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]], (1, 2, 2), "left"),
    # the right law fails at (2, 1, 2) before the left one at (3, 1, 2)
    (boolean_cube(2), [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], (2, 1, 2), "right"),
]


@pytest.mark.parametrize("lat, t, witness, side", INTERLEAVED)
def test_interleaved_distribution_witness(lat, t, witness, side):
    t = np.array(t)
    report = girard.check_quantale(lat, t)
    assert report.witness == witness
    assert report.note == f"join distribution fails on the {side}"
    assert outcome(girard.check_quantale, lat, t) == outcome(ref.check_quantale, lat, t)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(arbitrary().map(lambda c: c[:2]), valid(), mutated()))
def test_residuated_tables_preserve_joins(case):
    """The residuation search's leaf relies on this: a table with both
    residua preserves binary joins in each argument."""
    lat, t = case
    if not isinstance(lat, orders.FiniteLattice):
        return
    try:
        residuation.residuated_structure(lat, t)
    except residuation.ResiduationError:
        return
    join, idx = lat.join, np.arange(lat.n)
    a, b = idx[:, None], idx
    for x in range(lat.n):
        assert (t[x, join] == join[t[x, a], t[x, b]]).all()  # x * (a \/ b)
        assert (t[join, x] == join[t[a, x], t[b, x]]).all()  # (a \/ b) * x
