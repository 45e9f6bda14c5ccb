"""Each order and lattice fact computed once, against the code it replaced.

The oracles are the former implementations in reference_lattice.py: the
closure by boolean products, all three poset axiom scans, full-table
joins and meets, sub-lattices derived again, a pivot scan over every
vertex, the per-element cyclic and dualizing tests and the recursive
residuation search.
"""
import contextlib
import io
import itertools
import pathlib
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lattice as ref
from fixtures import discrete_cyclic_group, drastic_chain
from girardlab import cli
from girardlab.catalog import boolean_ortho, horizontal_sum_mo
from girardlab.girard import _cyclic_dualizing
from girardlab.orders import (
    FinitePoset,
    NotALattice,
    NotBounded,
    PosetViolation,
    closure_from_covers,
    compute_lattice,
    index_slabs,
    sublattice,
    validate_poset,
)
from girardlab.ortho import _maximal_cliques, blocks, downset_oml, is_orthomodular
from girardlab.residuation import godel_chain, lukasiewicz_chain, residuated_structure
from girardlab.search import _IrreducibleTableSearch
from girardlab.structfile import build_lattice, build_ortholattice, build_poset, load

STRUCTURES = pathlib.Path(__file__).resolve().parent.parent / "structures"
FILES = sorted(STRUCTURES.glob("*.struct"))


def outcome(f, *args):
    """f's result, or the class and identifying fields of what it raised."""
    try:
        return f(*args)
    except (PosetViolation, NotALattice, NotBounded, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def same_lattice(a, b):
    return (a.n == b.n and (a.leq == b.leq).all() and (a.meet == b.meet).all()
            and (a.join == b.join).all() and (a.bottom, a.top) == (b.bottom, b.top)
            and [a.label(i) for i in range(a.n)] == [b.label(i) for i in range(b.n)])


@st.composite
def cover_lists(draw, max_n=9):
    """(n, covers): random edges between relabelled elements, upward in
    a hidden order, in half the cases with its first and last element
    below and above all (so lattices, non-lattices and unbounded orders
    all occur), now and then one pointing back (a cycle) or out of
    range."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = [pair for pair, kept in zip(pairs, keep) if kept]
    covers = [(order[i], order[j]) for i, j in chosen]
    if draw(st.booleans()):  # bounded: the hidden order's first and last below and above all
        covers += [(order[0], order[i]) for i in range(1, n)]
        covers += [(order[i], order[-1]) for i in range(n - 1)]
    if draw(st.integers(0, 9)) == 0 and chosen:
        i, j = chosen[0]
        covers.append((order[j], order[i]))
    if draw(st.integers(0, 19)) == 0:
        covers.insert(draw(st.integers(0, len(covers))), (draw(st.integers(-1, n)), n))
    return n, covers


class TestClosureAndPoset:
    @settings(max_examples=300, deadline=None)
    @given(cover_lists())
    def test_closure_matches_boolean_squaring(self, case):
        n, covers = case
        got = outcome(closure_from_covers, n, covers)
        want = outcome(ref.closure_from_covers, n, covers)
        if isinstance(want, np.ndarray):
            assert got.dtype == bool and (got == want).all()
        else:
            assert got == want

    def test_out_of_range_cover_message(self):
        for covers in ([(0, 3)], [(0, 1), (-1, 2)]):
            with pytest.raises(ValueError) as got:
                closure_from_covers(3, covers)
            with pytest.raises(ValueError) as want:
                ref.closure_from_covers(3, covers)
            assert str(got.value) == str(want.value)

    @settings(max_examples=300, deadline=None)
    @given(cover_lists())
    def test_closure_validates_as_before(self, case):
        n, covers = case
        labels = [f"e{i}" for i in range(n)]

        def run(closure, validate):
            p = validate(closure(n, covers), labels)
            return p.leq.tolist(), p.labels

        assert outcome(run, closure_from_covers, validate_poset) == \
            outcome(run, ref.closure_from_covers, ref.validate_poset)

    @settings(max_examples=300, deadline=None)
    @given(cover_lists(), st.integers(0, 9))
    def test_validate_poset_on_any_relation(self, case, drop):
        # the cover pairs taken as the relation itself, mostly not
        # transitive, now and then missing a reflexive pair
        n, covers = case
        relation = np.eye(n, dtype=bool)
        for i, j in covers:
            if 0 <= i < n and 0 <= j < n:
                relation[i, j] = True
        if drop == 0:
            relation[n // 2, n // 2] = False

        def run(f):
            return f(relation).leq.tolist()

        assert outcome(run, validate_poset) == outcome(run, ref.validate_poset)

    def test_cyclic_cover_file_reports_antisymmetry(self, tmp_path):
        path = tmp_path / "cycle.struct"
        path.write_text("elements: [a, b, c]\ncovers: [[0,1],[1,2],[2,0]]\n")
        with pytest.raises(PosetViolation) as exc:
            build_poset(load(path))
        assert (exc.value.axiom, exc.value.witness) == ("antisymmetry", (0, 1))


class TestComputeLattice:
    @settings(max_examples=400, deadline=None)
    @given(cover_lists())
    def test_half_tables_match_full_tables(self, case):
        n, covers = case
        try:
            leq = ref.closure_from_covers(n, covers)
        except ValueError:
            return
        p = FinitePoset(n, leq, None)  # cyclic orders too: compute_lattice reads no axiom
        got, want = outcome(compute_lattice, p), outcome(ref.compute_lattice, p)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert same_lattice(got, want)

    def test_random_bounded_orders(self):
        # bounded orders of 3 to 12 elements, relabelled: many are not lattices
        rng, kinds = np.random.default_rng(33), set()
        for _ in range(400):
            n = int(rng.integers(3, 13))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.5), 1)
            upper[0, 1:] = upper[:-1, -1] = True
            perm = rng.permutation(n)
            covers = [(int(perm[i]), int(perm[j])) for i, j in zip(*np.nonzero(upper))]
            p = FinitePoset(n, ref.closure_from_covers(n, covers), None)
            got, want = outcome(compute_lattice, p), outcome(ref.compute_lattice, p)
            if isinstance(want, tuple):
                assert got == want
                kinds.add(want[1].split(" has no ")[1])
            else:
                assert same_lattice(got, want)
        assert kinds == {"least upper bound", "greatest lower bound"}

    @pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
    def test_checked_in_files(self, path):
        lat = build_lattice(load(path))
        assert same_lattice(lat, ref.compute_lattice(FinitePoset(lat.n, lat.leq, lat.labels)))

    @pytest.mark.parametrize("size", [2, 60])
    def test_chains(self, size):
        lat = lukasiewicz_chain(size).lattice
        assert same_lattice(lat, ref.compute_lattice(FinitePoset(lat.n, lat.leq, lat.labels)))

    def test_tables_are_frozen(self):
        lat = boolean_ortho(3).lattice
        assert not lat.meet.flags.writeable and not lat.join.flags.writeable


def orthomodular_carriers():
    out = [(p.stem, build_ortholattice(load(p))) for p in FILES if load(p).ortho is not None]
    out += [("boolean-16", boolean_ortho(4)), ("boolean-64", boolean_ortho(6)),
            ("mo4", horizontal_sum_mo(4))]
    return [pytest.param(o, id=name) for name, o in out if is_orthomodular(o)]


class TestSubLattices:
    @pytest.mark.parametrize("o", orthomodular_carriers())
    def test_every_downset(self, o):
        for a in range(o.n):
            down = downset_oml(o, a)
            assert same_lattice(down.lattice, ref.downset_lattice(o.lattice, a))
            assert down.ortho == ref.downset_ortho(o, a)

    @pytest.mark.parametrize("o", orthomodular_carriers())
    def test_every_block(self, o):
        for b in blocks(o):
            # the blocks lattice had no labels; the restriction keeps the ambient ones
            sub, want = sublattice(o.lattice, b), ref.block_lattice(o.lattice, b)
            assert (sub.leq == want.leq).all() and (sub.meet == want.meet).all()
            assert (sub.join == want.join).all()
            assert (sub.bottom, sub.top) == (want.bottom, want.top)
            assert [sub.label(i) for i in range(sub.n)] == [o.label(i) for i in b]

    def test_whole_carrier_is_the_carrier(self):
        o = boolean_ortho(6)
        assert sublattice(o.lattice, range(o.n)) is o.lattice
        assert downset_oml(o, o.lattice.top).lattice is o.lattice

    def test_downset_is_orthomodular(self):
        o = horizontal_sum_mo(3)
        for a in range(o.n):
            assert is_orthomodular(downset_oml(o, a))


def dualizing_tables(n, rng):
    """A stand-in structure on a chain whose residua make about half the
    elements dualizing, and whose product makes some of them cyclic: a
    symmetric table with a few pairs broken."""
    rres = np.empty((n, n), dtype=np.intp)
    lres = np.empty((n, n), dtype=np.intp)
    for d in range(n):
        perm = rng.permutation(n)
        rres[:, d], lres[d, perm] = perm, np.arange(n)
        if rng.random() < 0.5:
            rres[rng.integers(n), d] = rng.integers(n)
    mul = rng.integers(0, n, (n, n))
    mul = np.triu(mul) + np.triu(mul, 1).T
    for _ in range(rng.integers(0, 3)):
        x, y = rng.integers(n, size=2)
        mul[x, y] = rng.integers(n)
    leq = np.triu(np.ones((n, n), dtype=bool))
    return SimpleNamespace(n=n, poset=SimpleNamespace(leq=leq), mul=mul, rres=rres, lres=lres)


class TestCyclicDualizing:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3, 5, 8, 26, 64]), st.integers(0, 2 ** 32 - 1))
    def test_one_pass_matches_per_element(self, n, seed):
        s = dualizing_tables(n, np.random.default_rng(seed))
        assert _cyclic_dualizing(s).tolist() == ref.cyclic_dualizing(s)

    @pytest.mark.parametrize("make", [
        lambda: lukasiewicz_chain(26), lambda: godel_chain(26), lambda: drastic_chain(6),
        lambda: residuated_structure(*discrete_cyclic_group(5)),
    ], ids=["lukasiewicz-26", "godel-26", "drastic-6", "z5"])
    def test_structures(self, make):
        s = make()
        assert _cyclic_dualizing(s).tolist() == ref.cyclic_dualizing(s)

    @pytest.mark.parametrize("path", [p for p in FILES if load(p).mul is not None],
                             ids=lambda p: p.stem)
    def test_checked_in_files(self, path):
        sf = load(path)
        s = residuated_structure(build_lattice(sf), np.array(sf.mul))
        assert _cyclic_dualizing(s).tolist() == ref.cyclic_dualizing(s)


def brute_force_cliques(adj):
    n = len(adj)
    cliques = [set(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)
               if all(adj[i][j] for i, j in itertools.combinations(c, 2))]
    return sorted(sorted(c) for c in cliques if not any(c < d for d in cliques))


class TestMaximalCliques:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.booleans(), min_size=n * n, max_size=n * n))))
    def test_against_brute_force_and_former_pivot(self, case):
        n, bits = case
        adj = np.array(bits, dtype=bool).reshape(n, n)
        adj = adj | adj.T | np.eye(n, dtype=bool)
        got = _maximal_cliques(adj)
        assert got == ref.maximal_cliques(adj)
        assert sorted([i for i in range(n) if c >> i & 1] for c in got) == brute_force_cliques(adj)


class TestSearchStack:
    @staticmethod
    def same_run(lat, e, budget):
        got = _IrreducibleTableSearch(lat, e).run(budget=budget)
        want = ref.RecursiveSearch(lat, e).run(budget=budget)
        assert got[1:] == want[1:]
        assert [s.mul.tolist() for s in got[0]] == [s.mul.tolist() for s in want[0]]

    @pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
    def test_same_hits_and_nodes_as_recursion(self, path):
        lat = build_lattice(load(path))
        self.same_run(lat, lat.top, None)  # integral mode, exhaustive
        for e in range(lat.n):
            for budget in (1, 40, 2000):
                self.same_run(lat, e, budget)

    def test_depth_past_the_recursion_limit(self):
        # the 60-chain has 59 irreducibles, so 3481 cells, one level each
        lat = lukasiewicz_chain(60).lattice
        hits, exhausted, nodes = _IrreducibleTableSearch(lat, lat.top).run(budget=5000)
        assert (exhausted, nodes) == (False, 5000)


def test_girard_derives_each_fact_once(monkeypatch, tmp_path):
    # girard on the 64-element Boolean algebra asks for the carrier's
    # lattice, its orthomodularity and its distributivity three times
    # each (the criterion, the unit's down-set, the one block), and gets
    # each from one computation
    with contextlib.redirect_stdout(io.StringIO()) as text:
        cli.main(["gen", "boolean", "--atoms", "6"])
    path = tmp_path / "boolean-64.struct"
    path.write_text(text.getvalue())
    # every module that binds a function gets the counting wrapper
    modules = [sys.modules[f"girardlab.{m}"]
               for m in ("cli", "girard", "orders", "ortho", "search", "structfile")]
    calls = Counter()
    for name, home in (("compute_lattice", "orders"), ("check_orthomodular", "ortho"),
                       ("distribution_failures", "orders")):
        real = getattr(sys.modules[f"girardlab.{home}"], name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["girard", str(path)]) == 0
    assert out.getvalue().endswith("4 laws, 0 failures\n")
    assert calls == {"compute_lattice": 1, "check_orthomodular": 1,
                     "distribution_failures": len(index_slabs(64, 3))}
