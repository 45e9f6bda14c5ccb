"""Lattice enumeration and the residuation searches."""
import hashlib
import itertools
import pathlib
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from reference_search import LoopIntegralSearch, LoopUnitalSearch, NumpySetupSearch, \
    PerValueSearch, PlainIntegralSearch, PlainUnitalSearch, UnitPinSearch, coatom_enumeration, \
    counted_classes, eager_enumeration, explicit_base_generators, is_lattice, join_irreducibles, \
    per_unit_search, poset_frontiers, reference_enumeration, scan_grow

from girardlab import orders, residuation, search
from girardlab.catalog import benzene_o6, boolean_cube, chain, diamond_m3, \
    horizontal_sum_mo, mo2_subspace_model
from girardlab.girard import check_unit_downset_boolean, find_cyclic_dualizing, \
    girard_equivalences
from girardlab.orders import compute_lattice, is_complemented, validate_poset
from girardlab.ortho import is_orthomodular
from girardlab.reports import InputError, law_pass
from girardlab.residuation import check_associative, derive_residua, lukasiewicz_chain
from girardlab.search import (
    canonical_key,
    confirm_boolean_forcing,
    enumerate_lattices,
    search_integral_residuation,
    search_unital_residuation,
)
from girardlab.structfile import build_lattice, build_ortholattice, load

# number of lattices per carrier size, one per isomorphism class (OEIS A006966)
LATTICE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078}


def rows_of(lat):
    n = lat.n
    return tuple(sum(1 << j for j in range(n) if lat.leq[i, j]) for i in range(n))


def relabeled(rows, perm):
    """The poset of rows with each element i renamed perm[i]."""
    n = len(rows)
    new = [0] * n
    for i in range(n):
        new[perm[i]] = sum(1 << perm[j] for j in range(n) if rows[i] >> j & 1)
    return tuple(new)


class TestEnumeration:
    def test_counts_to_six(self):
        result = enumerate_lattices(6)
        expected = {n: c for n, c in LATTICE_COUNTS.items() if n <= 6}
        assert result.counts == expected
        assert len(result.lattices) == sum(expected.values())

    def test_counts_to_nine_match_a006966(self):
        result = enumerate_lattices(9)
        assert result.counts == LATTICE_COUNTS
        assert len(result.lattices) == sum(LATTICE_COUNTS.values())

    def test_count_at_ten_matches_a006966(self):
        assert enumerate_lattices(10).counts == {**LATTICE_COUNTS, 10: 5994}

    def test_count_at_eleven_matches_a006966(self):
        assert enumerate_lattices(11).counts == {**LATTICE_COUNTS, 10: 5994, 11: 37622}

    def test_posets_to_ten_are_pinned(self):
        # the lattices through 10 elements and their order, as generated
        # when each parent's whole automorphism group was listed
        posets = repr(enumerate_lattices(10).posets).encode()
        assert hashlib.sha256(posets).hexdigest() == \
            "20c515aafc1df47eca560621a82f3946de14532b710c38e43b4613437cf96288"

    def test_orbit_least_matches_the_listed_group(self):
        """The masks _orbit_least keeps, from generators of Aut(P), are
        the least of each orbit under the whole listed group, in the same
        order, on all 1378 parents of at most 9 elements; and each comes
        with what _grow yields for it."""
        posets = enumerate_lattices(9).posets
        assert len(posets) == 1378
        for rows in posets:
            downs = tuple(orders._down_masks(rows))
            grown = list(search._grow(rows, downs))
            group = list(orders._order_automorphism(rows))
            seen, expected = set(), []
            for item in grown:
                d = item[0]
                if d not in seen:
                    members = [i for i in range(len(rows)) if d >> i & 1]
                    seen.update(sum(1 << sigma[i] for i in members) for sigma in group)
                    expected.append(item)
            assert list(search._orbit_least(rows, downs)) == expected, rows

    def test_carried_down_sets_and_classes(self):
        # every lattice of at most 10 elements carries its own down-sets
        # to its children, and its classes are their bit counts; levels
        # through 10 of an enumeration to 11, which stops before growing 11
        for size, (posets, downs_of) in zip(range(1, 11), search._frontiers(11)):
            assert len(posets) == len(downs_of) == {**LATTICE_COUNTS, 10: 5994}[size]
            for rows, downs in zip(posets, downs_of):
                assert list(downs) == orders._down_masks(rows), rows
                assert orders._classes(rows, downs) == counted_classes(rows), rows
        # the last size grows nothing and carries no down-sets
        assert [downs is None for _, downs in search._frontiers(4)] == [False] * 3 + [True]

    def test_no_parent_lists_its_group(self, monkeypatch):
        """Enumerating asks _order_automorphism only for maps with pinned
        images or onto a given target, never for a whole automorphism
        group."""
        real = orders._order_automorphism

        def guarded(rows, pins=(), target=None, **kwargs):
            assert pins or target is not None, rows
            return real(rows, pins, target, **kwargs)

        monkeypatch.setattr(orders, "_order_automorphism", guarded)
        monkeypatch.setattr(search, "_order_automorphism", guarded)
        assert enumerate_lattices(9).counts == LATTICE_COUNTS

    def test_matches_key_per_child_enumerator(self):
        """Canonical augmentation emits, size by size, the classes that
        labelling every child and keeping one per key did, each once."""
        keys = coatom_enumeration(9)
        got = {size: [] for size in keys}
        for lat in enumerate_lattices(9).lattices:
            got[lat.n].append(canonical_key(rows_of(lat)))
        assert {size: sorted(k) for size, k in got.items()} == keys

    def test_matches_bounded_poset_enumerator(self):
        """Coatom growth emits, size by size, the isomorphism classes the
        old bounded-poset enumerator kept, each once; the order within a
        size differs, so the keys are compared sorted."""
        keys, counts = reference_enumeration(8)
        result = enumerate_lattices(8)
        assert result.counts == counts
        got = {size: [] for size in counts}
        for lat in result.lattices:
            got[lat.n].append(canonical_key(rows_of(lat)))
        assert {size: sorted(k) for size, k in got.items()} == keys

    def test_growth_rule_matches_compute_lattice(self):
        """_grow yields, in order of d, the extensions by a coatom c above
        a down-closed set d of non-top elements that compute_lattice
        accepts and in which no other coatom has a larger down-set, with
        tie marking one that has as large a down-set; d is down-closed
        when nothing outside it lies below a member."""
        for lat in enumerate_lattices(7).lattices:
            rows = rows_of(lat)
            n = len(rows)
            expected = []
            for d in range(0, 1 << n, 2):
                if any(rows[i] & d for i in range(n) if not d >> i & 1):
                    continue
                ext = tuple(rows[i] | (d >> i & 1) << n for i in range(n)) + (1 << n | 1,)
                if not is_lattice(ext):
                    continue
                leq = np.array([[bool(r >> j & 1) for j in range(n + 1)] for r in ext])
                downs = leq.sum(axis=0)
                rival = max((downs[x] for x in range(1, n) if leq[x].sum() == 2), default=0)
                if downs[n] >= rival:
                    expected.append((d, ext, downs[n] == rival))
            assert list(search._grow(rows, tuple(orders._down_masks(rows)))) == expected

    def test_growth_matches_mask_scan(self):
        """Listing the down-sets directly yields what scanning every mask
        did, in the same order, on all 1378 parents of at most 9
        elements."""
        posets = enumerate_lattices(9).posets
        assert len(posets) == 1378
        for rows in posets:
            downs = tuple(orders._down_masks(rows))
            assert list(search._grow(rows, downs)) == list(scan_grow(rows)), rows

    def test_rows_to_lattice_reads_every_bit(self):
        """The order matrix built by one shift-and-mask is the one read
        bit by bit, and the lattice built on it without validate_poset
        has the tables and bounds of the validated build, on every
        lattice of at most 9 elements."""
        for rows in enumerate_lattices(9).posets:
            n = len(rows)
            want = np.array([[bool(rows[i] >> j & 1) for j in range(n)] for i in range(n)])
            got = search._rows_to_lattice(rows)
            assert got.leq.dtype == bool and np.array_equal(got.leq, want), rows
            assert not got.leq.flags.writeable
            ref = compute_lattice(validate_poset(want))
            assert np.array_equal(got.meet, ref.meet) and np.array_equal(got.join, ref.join), rows
            assert (got.bottom, got.top, got.labels) == (ref.bottom, ref.top, ref.labels), rows

    def test_lattices_built_on_first_read(self, monkeypatch):
        """Enumerating builds no FiniteLattice; the first read of
        lattices builds one per poset, equal element for element and in
        order to the eager build, and a second read returns that list."""
        calls, real = [], search.compute_lattice

        def counted(poset):
            calls.append(poset)
            return real(poset)

        monkeypatch.setattr(search, "compute_lattice", counted)
        result = enumerate_lattices(8)
        assert calls == []
        lattices = result.lattices
        assert len(calls) == len(result.posets) == sum(result.counts.values())
        assert result.lattices is lattices and len(calls) == len(lattices)
        expected = eager_enumeration(8)
        assert len(lattices) == len(expected)
        for got, want in zip(lattices, expected):
            assert np.array_equal(got.leq, want.leq)

    def test_posets_match_key_rule_to_nine(self):
        """Keeping a tie child unless an earlier kept one is isomorphic
        keeps what keeping it when its key is new did, in the same
        order, at every size through 9."""
        assert enumerate_lattices(9).posets == [rows_of(lat) for lat in eager_enumeration(9)]

    def test_tie_children_are_not_keyed(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("canonical_key called")

        monkeypatch.setattr(search, "canonical_key", refuse)
        assert enumerate_lattices(9).counts == LATTICE_COUNTS

    def test_complemented_built_alone(self, monkeypatch):
        """complemented_posets picks the 100 complemented lattices of at
        most 8 elements, in the order of posets, and builds no lattice; a
        later read of lattices builds all 300, once."""
        calls, real = [], search.compute_lattice

        def counted(poset):
            calls.append(poset)
            return real(poset)

        monkeypatch.setattr(search, "compute_lattice", counted)
        result = enumerate_lattices(8)
        complemented = result.complemented_posets
        assert len(complemented) == 100 and calls == []
        wanted = set(complemented)
        assert [rows for rows in result.posets if rows in wanted] == complemented
        lattices = result.lattices
        assert len(lattices) == len(calls) == 300
        kept = [lat for rows, lat in zip(result.posets, lattices) if rows in wanted]
        assert [rows_of(lat) for lat in kept] == complemented
        assert all(is_complemented(lat)[0].passed for lat in kept)
        assert result.complemented_posets is complemented and result.lattices is lattices
        assert len(calls) == 300

    def test_bitmask_complementation_matches_is_complemented(self):
        # on every lattice of at most 9 elements
        result = enumerate_lattices(9)
        for rows, lat in zip(result.posets, result.lattices):
            assert search._complemented(rows) == is_complemented(lat)[0].passed, rows

    def test_single_element(self):
        result = enumerate_lattices(1)
        assert result.counts == {1: 1}

    def test_no_isomorphic_duplicates(self):
        result = enumerate_lattices(6)
        keys = [canonical_key(rows_of(l)) for l in result.lattices]
        assert len(keys) == len(set(keys))

    def test_bound(self):
        with pytest.raises(InputError):
            enumerate_lattices(13)
        with pytest.raises(InputError):
            enumerate_lattices(0)

    def test_isomorphism_invariance_of_key(self):
        """Seeded random relabelings keep the key: of every lattice on at
        most 7 elements, of MO4, whose 8 atoms share one class, and of
        the bounded-below posets on at most 6 elements."""
        posets = [rows_of(lat) for lat in enumerate_lattices(7).lattices]
        posets.append(rows_of(horizontal_sum_mo(4).lattice))
        posets += [rows for frontier in poset_frontiers(6) for rows in frontier.values()]
        rng = random.Random(16)
        for rows in posets:
            key = canonical_key(rows)
            for _ in range(2):
                perm = rng.sample(range(len(rows)), len(rows))
                assert canonical_key(relabeled(rows, perm)) == key, (rows, perm)


class TestIntegralSearch:
    def test_boolean_square_unique_meet(self):
        lat = boolean_cube(2)
        result = search_integral_residuation(lat)
        assert result.exhausted
        assert len(result.found) == 1
        assert (result.found[0] == lat.meet).all()
        assert result.structures[0].flags.idempotent

    def test_m3_empty(self):
        result = search_integral_residuation(diamond_m3())
        assert result.found == [] and result.exhausted

    def test_o6_empty(self):
        result = search_integral_residuation(benzene_o6().lattice)
        assert result.found == [] and result.exhausted

    def test_three_chain_has_meet_and_lukasiewicz(self):
        lat = chain(3)
        result = search_integral_residuation(lat)
        tables = {tuple(m.ravel()) for m in result.found}
        assert tuple(np.asarray(lat.meet).ravel()) in tables
        assert tuple(lukasiewicz_chain(3).mul.ravel()) in tables
        assert len(tables) >= 2

    def test_solutions_pass_independent_verifier(self):
        for lat in (chain(4), boolean_cube(2)):
            result = search_integral_residuation(lat)
            for table in result.found:
                assert check_associative(table).passed
                derive_residua(lat, table)  # raises on any adjointness defect
                assert all(table[x, lat.top] == x for x in range(lat.n))

    def test_order_independence(self):
        class Backward(search._IrreducibleTableSearch):
            def domain(self, i, j):
                return super().domain(i, j)[::-1]

        for lat in (chain(4), diamond_m3(), boolean_cube(2)):
            forward = _run_outcome(search._IrreducibleTableSearch(lat, lat.top).run)
            backward = _run_outcome(Backward(lat, lat.top).run)
            assert forward[:2] == backward[:2]

    def test_skipping_associativity_flips_the_found_set(self, monkeypatch):
        # sensitivity of the search oracle: without the associativity
        # checks, at the leaf and at row completion (A), the four-chain
        # admits extra tables, every one of which still satisfies
        # adjointness and is rejected only by that law
        class NoPartialAssociativity(search._IrreducibleTableSearch):
            def __init__(self, l, e, symmetries=()):
                super().__init__(l, e, symmetries)
                self.pairs = []

        lat = chain(4)
        strict = search_integral_residuation(lat)
        monkeypatch.setattr(residuation, "check_associative", lambda m: law_pass("associativity"))
        monkeypatch.setattr(search, "_IrreducibleTableSearch", NoPartialAssociativity)
        loose = search_integral_residuation(lat)
        strict_tables = {tuple(m.ravel()) for m in strict.found}
        loose_tables = {tuple(m.ravel()) for m in loose.found}
        assert strict_tables < loose_tables
        for extra in loose_tables - strict_tables:
            table = np.array(extra).reshape(4, 4)
            assert check_associative(table).failed
            derive_residua(lat, table)

    def test_setup_memory_on_the_256_chain(self):
        # associativity at row t reads the first (t + 1) ** 2 pairs of one
        # list; r prefix copies of that list would trace about 64 MB here
        lat = chain(256)
        tracemalloc.start()
        try:
            search._IrreducibleTableSearch(lat, lat.top)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


def sweep(max_n):
    return confirm_boolean_forcing(enumerate_lattices(max_n))


class TestConfirmBooleanForcing:
    def test_max_four(self):
        report = sweep(4)
        assert report.passed

    def test_max_six(self):
        assert sweep(6).passed

    def test_sweep_keeps_no_list_of_lattices(self):
        # each lattice is built while it is searched, so the sweep leaves
        # no cached list of all complemented FiniteLattices behind
        result = enumerate_lattices(7)
        report = confirm_boolean_forcing(result)
        assert report.passed and "complemented" not in result.__dict__

    def test_monotone_in_bound(self):
        # a pass at six implies the smaller sweeps pass as sub-reports
        assert sweep(6).passed
        assert sweep(5).passed
        assert sweep(4).passed

    @staticmethod
    def _tampered_sweep(monkeypatch, max_n, tamper):
        """The sweep to max_n with each search's tables replaced by
        tamper(lattice, tables), which the sweep reads as `found`."""
        real = search.search_integral_residuation

        def tampered(lat, budget=None):
            return SimpleNamespace(found=tamper(lat, real(lat, budget).found))

        monkeypatch.setattr(search, "search_integral_residuation", tampered)
        return sweep(max_n)

    def test_fails_on_a_table_for_a_non_boolean_lattice(self, monkeypatch):
        # the complemented lattices to 5 elements are 1, 2, B4, M3, N5;
        # M3, the first non-Boolean one, is given its meet
        report = self._tampered_sweep(monkeypatch, 5, lambda lat, found: found or [lat.meet])
        assert report.failed and report.witness == (5, 3)
        assert report.note == ("boolean=False but search found 1 tables on "
                               "n=5;covers=[(1, 2), (1, 3), (1, 4), (2, 0), (3, 0), (4, 0)]")

    def test_fails_on_no_table_for_a_boolean_lattice(self, monkeypatch):
        report = self._tampered_sweep(monkeypatch, 5,
                                      lambda lat, found: [] if lat.n == 4 else found)
        assert report.failed and report.witness == (4, 2)
        assert report.note == ("boolean=True but search found 0 tables on "
                               "n=4;covers=[(1, 2), (1, 3), (2, 0), (3, 0)]")

    def test_fails_on_a_non_meet_table_for_a_boolean_lattice(self, monkeypatch):
        report = self._tampered_sweep(monkeypatch, 5,
                                      lambda lat, found: [lat.join] if lat.n == 4 else found)
        assert report.failed and report.witness == (4, 2)
        assert report.note == "Boolean lattice admits 1 tables, expected only the meet"


class TestUnitalSearch:
    def test_boolean_square_includes_integral_meet(self):
        lat = boolean_cube(2)
        result = search_unital_residuation(lat, budget=10_000)
        assert result.exhausted
        hits = {tuple(m.ravel()) for m in result.found}
        assert tuple(np.asarray(lat.meet).ravel()) in hits
        units = {s.flags.unit for s in result.structures}
        assert lat.top in units and len(units) > 1

    def test_zero_budget(self):
        result = search_unital_residuation(horizontal_sum_mo(2).lattice, budget=0)
        assert result.found == [] and not result.exhausted

    @pytest.mark.parametrize("mode", ["integral", "unital"])
    def test_zero_budget_on_one_element(self, mode):
        # the 1-element lattice's search needs no node, so it exhausts
        lat = boolean_cube(0)
        result = (search_integral_residuation(lat, budget=0) if mode == "integral"
                  else search_unital_residuation(lat, budget=0))
        assert len(result.found) == 1 and result.exhausted and result.nodes == 0

    @pytest.mark.parametrize("budget", [1, 7, 13])  # the whole search takes 14 nodes
    def test_nodes_never_exceed_the_budget(self, budget):
        result = search_unital_residuation(boolean_cube(2), budget=budget)
        assert not result.exhausted and result.nodes == budget

    def test_budget_cut_keeps_the_found_set(self):
        # a budget that runs out inside the last unit's search finds what
        # the unbounded search finds before that point
        full = search_unital_residuation(boolean_cube(2), budget=10_000)
        cut = search_unital_residuation(boolean_cube(2), budget=full.nodes - 1)
        assert full.exhausted and not cut.exhausted and cut.nodes == full.nodes - 1
        assert {m.tobytes() for m in cut.found} <= {m.tobytes() for m in full.found}

    def test_mo2_budgeted_hits_satisfy_downset_conclusions(self):
        o = horizontal_sum_mo(2)
        result = search_unital_residuation(o.lattice, budget=20_000)
        assert not result.exhausted  # full exploration needs 22027 nodes
        assert result.found  # non-Boolean orthomodular carriers with units exist
        assert all(check_unit_downset_boolean(o, s).passed for s in result.structures)
        for s in result.structures:
            assert s.flags.unit is not None and not s.flags.integral

    def test_mo2_subspace_model_among_the_exhaustive_hits(self):
        # the multiplication MO2 inherits from the subspaces of R^2 is one
        # of the 248 unital tables: commutative and Girard, with the
        # orthocomplement as the negation of one cyclic dualizing element
        o, mul = mo2_subspace_model()
        result = search_unital_residuation(o.lattice, budget=3_000_000)
        assert result.exhausted and len(result.found) == 248
        (k,) = [k for k, m in enumerate(result.found) if m.tolist() == [list(r) for r in mul]]
        table, s = result.found[k], result.structures[k]
        assert (table == table.T).all()
        certs = find_cyclic_dualizing(s)
        assert o.ortho in [cert.neg for cert in certs]

    def test_mo2_census(self, mo2_search):
        # the Girard census of the exhaustive MO2 search, from the flags,
        # the Girard recognitions and their certificates alone
        ortho = build_ortholattice(load(STRUCTURES / "mo2.struct")).ortho
        structures = mo2_search.structures
        reports = [girard_equivalences(s) for s in structures]
        assert len(structures) == 248
        assert sum(s.flags.commutative for s in structures) == 224
        assert sum(report.has_cyclic_dualizer for report in reports) == 136
        assert sum(any(cert.neg == ortho for cert in report.certificates)
                   for report in reports) == 40

    def test_every_lattice_to_five_matches_per_unit_search(self):
        # the search reads only the lattice, so it runs on lattices that
        # are not orthomodular, M3, N5 and the chains among them; the
        # reference searches every unit but the bottom without orbits
        lattices = enumerate_lattices(5).lattices
        assert len(lattices) == 10
        for lat in lattices:
            units = [lat.top] if lat.n == 1 else [e for e in range(lat.n) if e != lat.bottom]
            new = _outcome(search_unital_residuation(lat, budget=None))
            reference = _outcome(per_unit_search(lat, units, None))
            assert new[2] and new[:3] == reference[:3], rows_of(lat)

    def test_total_on_every_lattice_to_six(self):
        results = [search_unital_residuation(lat, budget=None)
                   for lat in enumerate_lattices(6).lattices]
        assert len(results) == 25 and all(result.exhausted for result in results)
        assert sum(len(result.structures) for result in results) == 2523


def _outcome(result):
    return ([m.tolist() for m in result.found], [s.flags.unit for s in result.structures],
            result.exhausted, result.nodes)


def _reference_outcome(monkeypatch, reference, run, *args):
    """The outcome of the search run built from a reference searcher,
    reference[run] standing in for the searcher it runs."""
    with monkeypatch.context() as patch:
        patch.setattr(search, "_IrreducibleTableSearch", reference[run])
        return _outcome(run(*args))


LOOP = {search_integral_residuation: LoopIntegralSearch,
        search_unital_residuation: LoopUnitalSearch}
PLAIN = {search_integral_residuation: PlainIntegralSearch,
         search_unital_residuation: PlainUnitalSearch}


def _assert_same_tables(new, reference):
    """Pruning keeps the found tables, their units and `exhausted` of an
    exhaustive reference run, in fewer nodes or as many; an outcome's
    node count comes last."""
    assert new[:-1] == reference[:-1]
    assert new[-1] <= reference[-1]


def _run_outcome(run, budget=None):
    """The outcome of one searcher's run, its hits sorted."""
    hits, exhausted, nodes = run(budget=budget)
    return sorted((s.mul.tolist(), s.flags.unit) for s in hits), exhausted, nodes


STRUCTURES = pathlib.Path(__file__).resolve().parent.parent / "structures"
STRUCTURE_FILES = sorted(STRUCTURES.glob("*.struct"))


@pytest.fixture(scope="module")
def lattices_to_six():
    """Each lattice on at most 6 elements with the outcome of the
    searcher before row-completion pruning; the 6-chain alone takes
    589915 nodes."""
    return [(lat, _run_outcome(PlainIntegralSearch(lat, lat.top).run))
            for lat in enumerate_lattices(6).lattices]


@pytest.fixture(scope="module")
def mo2_search():
    """The exhaustive unital search on MO2, with its 248 tables."""
    result = search_unital_residuation(build_lattice(load(STRUCTURES / "mo2.struct")),
                                       budget=3_000_000)
    assert result.exhausted and len(result.found) == 248
    return result


@pytest.fixture(scope="module")
def mo2_tables(mo2_search):
    """The byte strings of the 248 tables of the exhaustive MO2 search."""
    return {m.tobytes() for m in mo2_search.found}


class TestSearchBookkeeping:
    """The searcher against the reference searchers of
    tests/reference_search.py: the loop form of its bookkeeping, and the
    searcher before row-completion pruning.  Pruning removes only
    subtrees without a solution and keeps the node order, so exhaustive
    runs find the same tables, with the same units, in at most as many
    nodes, and a budgeted run finds at least what the reference finds
    within the same budget."""

    def test_no_earlier_cell_lies_above_a_later_one(self):
        # why monotonicity needs only the lower bound from earlier cells
        for lat in enumerate_lattices(6).lattices:
            cells = search._IrreducibleTableSearch(lat, lat.top).cells
            for k, (i, j) in enumerate(cells):
                assert not any(lat.leq[i, i2] and lat.leq[j, j2] for i2, j2 in cells[:k])

    def test_lows_are_the_greatest_earlier_cells_below(self):
        # the closed form from lower covers against a scan over all cell pairs
        files = [build_lattice(load(path)) for path in STRUCTURE_FILES]
        for lat in enumerate_lattices(7).lattices + files:
            searcher = search._IrreducibleTableSearch(lat, lat.top)
            cells = searcher.cells

            def below(k2, k):
                return bool(lat.leq[cells[k2][0], cells[k][0]] and lat.leq[cells[k2][1], cells[k][1]])

            for k in range(len(cells)):
                lower = [k2 for k2 in range(k) if below(k2, k)]
                greatest = {k2 for k2 in lower if not any(k3 != k2 and below(k2, k3) for k3 in lower)}
                assert set(searcher.lows[k]) == greatest, (lat.n, k)

    @pytest.mark.parametrize("path", STRUCTURE_FILES, ids=lambda p: p.stem)
    def test_integral_on_structure_files(self, monkeypatch, path):
        lat = build_lattice(load(path))
        new = _outcome(search_integral_residuation(lat))
        assert new[2]  # exhausted
        _assert_same_tables(new, _reference_outcome(monkeypatch, LOOP,
                                                    search_integral_residuation, lat))

    def test_irreducibles_match_lower_covers(self):
        # the principal-down-set test against one lower cover, on every
        # lattice of at most 7 elements
        for lat in enumerate_lattices(7).lattices:
            assert sorted(search._IrreducibleTableSearch(lat, lat.top).irr) \
                == join_irreducibles(lat), rows_of(lat)

    def test_setup_matches_numpy_setup(self):
        # the list and bitmask set-up against the numpy one, for every
        # unit of every lattice on at most 7 elements and of each file:
        # the same bookkeeping, and the same run within a budget, also
        # by the searcher that runs every row check per value
        fields = ("irr", "tops", "lows", "domains", "joined_pairs", "value_pairs", "finals",
                  "left_fixed", "left_law", "pairs")
        files = [build_lattice(load(path)) for path in STRUCTURE_FILES]
        for lat in enumerate_lattices(7).lattices + files:
            for e in range(lat.n):
                new, reference = search._IrreducibleTableSearch(lat, e), NumpySetupSearch(lat, e)
                for name in fields:
                    assert getattr(new, name) == getattr(reference, name), (lat.n, e, name)
                searchers = (new, reference, PerValueSearch(lat, e))
                (hits, exhausted, nodes), *references = [s.run(budget=2000) for s in searchers]
                for ref_hits, ref_exhausted, ref_nodes in references:
                    assert [s.mul.tolist() for s in hits] == [s.mul.tolist() for s in ref_hits]
                    assert (exhausted, nodes) == (ref_exhausted, ref_nodes)

    def test_pairs_have_an_irreducible_member(self):
        # the row law's pairs (value_pairs and joined_pairs) and the left
        # law's (left_law and left_fixed) are each exactly the incomparable
        # pairs with a join-irreducible member
        for lat, count in [(boolean_cube(3), 6), (boolean_cube(6), 171), (boolean_cube(8), 988),
                           (build_lattice(load(STRUCTURES / "mo3.struct")), 15)]:
            searcher = search._IrreducibleTableSearch(lat, lat.top)
            irr = set(join_irreducibles(lat))
            want = sorted((a, b) for a, b in itertools.combinations(range(lat.n), 2)
                          if not (lat.leq[a, b] or lat.leq[b, a]) and {a, b} & irr)
            row_law = [(a, b) for a, b, _ in searcher.value_pairs]
            row_law += [pair for _, _, pairs in searcher.joined_pairs for pair in pairs]
            left_law = [(a, b) for law in searcher.left_law for a, b, _ in law]
            left_law += [pair for law in searcher.left_fixed for _, pairs in law for pair in pairs]
            assert len(want) == count and sorted(row_law) == sorted(left_law) == want

    @pytest.mark.parametrize("unit", ["atom", "top"])
    def test_irreducible_pairs_on_boolean_64(self, unit):
        # where the reduction drops most pairs (171 of 1351): the same run
        # as the searcher that checks every incomparable pair
        lat = boolean_cube(6)
        e = _atoms(lat)[0] if unit == "atom" else lat.top
        new, reference = [searcher.run(budget=300) for searcher in
                          (search._IrreducibleTableSearch(lat, e), PerValueSearch(lat, e))]
        assert [s.mul.tolist() for s in new[0]] == [s.mul.tolist() for s in reference[0]]
        assert new[1:] == reference[1:]

    @pytest.mark.parametrize("name", ["mo2", "mo3"])
    def test_failed_visits_charge_their_domain(self, name):
        # budgets that run out inside the domain of a failed visit: a
        # charge one node off, or a wrong verdict on a budget that ends
        # exactly at the domain's end, changes nodes or `exhausted`
        lat = build_lattice(load(STRUCTURES / f"{name}.struct"))
        for e in range(lat.n):
            for budget in [*range(301), search.DEFAULT_BUDGET]:
                new = _run_outcome(search._IrreducibleTableSearch(lat, e).run, budget)
                assert new == _run_outcome(PerValueSearch(lat, e).run, budget), (e, budget)

    def test_integral_on_every_lattice_to_six(self, lattices_to_six):
        for lat, reference in lattices_to_six:
            _assert_same_tables(_run_outcome(search._IrreducibleTableSearch(lat, lat.top).run),
                                reference)

    def test_reversed_domains_on_every_lattice_to_six(self, lattices_to_six):
        # a row completed on another branch must never be read: reversed
        # domains revisit each row with other values in another order
        class Backward(search._IrreducibleTableSearch):
            def domain(self, i, j):
                return super().domain(i, j)[::-1]

        for lat, reference in lattices_to_six:
            hits, exhausted, _ = _run_outcome(Backward(lat, lat.top).run)
            assert hits == reference[0] and exhausted

    def test_plain_matches_loop_node_for_node(self):
        # the bookkeeping both searchers share with the current one, held
        # to the scans; the budget cuts only the 6-chain
        cut = 0
        for lat in enumerate_lattices(6).lattices:
            plain = _run_outcome(PlainIntegralSearch(lat, lat.top).run, budget=40_000)
            assert plain == _run_outcome(LoopIntegralSearch(lat, lat.top).run, budget=40_000)
            cut += not plain[1]
        assert cut == 1

    def test_unit_bound_on_every_unit_to_six(self, lattices_to_six):
        # the unit bound against the unital domains without it, pruning
        # alike: where the reference exhausts within the budget the
        # outcomes agree, else the searcher finds at least as much within
        # it (without the bound, the 6-chain at its top takes 403128 nodes)
        budget = 100_000
        for lat, _ in lattices_to_six:
            for e in range(lat.n):
                reference = _run_outcome(UnitPinSearch(lat, e).run, budget)
                new = _run_outcome(search._IrreducibleTableSearch(lat, e).run, budget)
                if reference[1]:
                    _assert_same_tables(new, reference)
                else:
                    assert all(hit in new[0] for hit in reference[0])

    @pytest.mark.parametrize("mode", ["integral", "unital"])
    @pytest.mark.parametrize("atoms", [0, 1])
    def test_one_and_two_elements(self, monkeypatch, mode, atoms):
        # the 1-element lattice has no join-irreducibles, hence no cells;
        # on the 2-element lattice the unit pins the one cell in both modes
        lat = boolean_cube(atoms)
        run = search_integral_residuation if mode == "integral" else search_unital_residuation
        new = _outcome(run(lat))
        assert len(new[0]) == 1 and new[2] and new[3] == atoms
        _assert_same_tables(new, _reference_outcome(monkeypatch, PLAIN, run, lat))

    @pytest.mark.parametrize("name", ["boolean-2", "boolean-4"])
    def test_unital_exhaustive(self, monkeypatch, name):
        lat = build_lattice(load(STRUCTURES / f"{name}.struct"))
        new = _outcome(search_unital_residuation(lat))
        assert new[2]  # exhausted
        _assert_same_tables(new, _reference_outcome(monkeypatch, LOOP,
                                                    search_unital_residuation, lat))

    @pytest.mark.parametrize("name", ["mo2", "mo3"])
    @pytest.mark.parametrize("budget", [1, 37, 5000, 20_000])
    def test_unital_budgeted(self, monkeypatch, mo2_tables, name, budget):
        lat = build_lattice(load(STRUCTURES / f"{name}.struct"))
        result = search_unital_residuation(lat, budget=budget)
        assert result.nodes == budget and not result.exhausted
        tables = {m.tobytes() for m in result.found}
        reference = _reference_outcome(monkeypatch, LOOP, search_unital_residuation, lat, budget)
        assert {np.array(m).tobytes() for m in reference[0]} <= tables
        if name == "mo2":
            assert tables <= mo2_tables


def _join_closures(lat, rng, members):
    """Batches of 150 maps f(x) = \\/ {g(y) : y <= x, y in members}, each
    monotone, from random maps g with 1, 2, 3 or all values off the
    bottom; a sparse g often gives an f that preserves joins."""
    for off_bottom in (1, 2, 3, lat.n):
        keep = rng.permuted(np.arange(lat.n) < np.full((150, 1), off_bottom), axis=1)
        g = np.where(keep, rng.integers(lat.n, size=(150, lat.n)), lat.bottom)
        f = np.full_like(g, lat.bottom)
        for y in members:
            f = np.where(lat.leq[y], lat.join[f, g[:, [y]]], f)
        yield f


class TestJoinLemma:
    """Why the searcher checks its join laws only on pairs with a
    join-irreducible member, apart from the searcher, on every lattice
    with at most 7 elements."""

    def test_irreducible_pairs_decide_join_preservation(self):
        # a monotone self-map f preserves binary joins iff
        # f(x \\/ j) = f(x) \\/ f(j) for each irreducible j incomparable with x
        rng = np.random.default_rng(0)
        maps = preserving = atoms_wrong = 0
        for lat in enumerate_lattices(7).lattices:
            join, incomparable = lat.join, ~(lat.leq | lat.leq.T)

            def pairs(members):
                xs, js = np.nonzero(incomparable[:, members])
                return xs, members[js]

            xs, js = pairs(np.array(join_irreducibles(lat), dtype=np.intp))
            atom_xs, atom_js = pairs(np.array(_atoms(lat), dtype=np.intp))
            for f in _join_closures(lat, rng, range(lat.n)):
                every = (f[:, join] == join[f[:, :, None], f[:, None, :]]).all(axis=(1, 2))
                some = (f[:, join[xs, js]] == join[f[:, xs], f[:, js]]).all(axis=1)
                assert (every == some).all(), rows_of(lat)
                atoms = (f[:, join[atom_xs, atom_js]] == join[f[:, atom_xs], f[:, atom_js]])
                atoms_wrong += (atoms.all(axis=1) != every).sum()
                maps += len(f)
                preserving += every.sum()
        # both verdicts are common, and the atoms alone would not do
        assert maps == 78 * 4 * 150  # the 78 lattices on at most 7 elements
        assert maps / 4 < preserving < maps * 3 / 4 and atoms_wrong > 0

    def test_agreeing_pairs_join_to_the_extension(self):
        # why row_visit compares no partial[a \\/ b] where a \\/ b is not
        # above the last irreducible: for f joined up from values on the
        # irreducibles, the incomparable pairs with an irreducible member
        # and join c that agree on f(a) \\/ f(b) agree on f(c)
        rng = np.random.default_rng(1)
        agree = disagree = 0
        for lat in enumerate_lattices(7).lattices:
            irr = join_irreducibles(lat)
            groups = {}
            for a, b in itertools.combinations(range(lat.n), 2):
                if not (lat.leq[a, b] or lat.leq[b, a]) and {a, b} & set(irr):
                    groups.setdefault(lat.join[a, b], []).append((a, b))
            for f in _join_closures(lat, rng, irr):
                for c, pairs in groups.items():
                    a, b = np.array(pairs).T
                    joins = lat.join[f[:, a], f[:, b]]
                    one = (joins == joins[:, :1]).all(axis=1)
                    assert (joins[one, 0] == f[one, c]).all(), (rows_of(lat), c)
                    agree += one.sum()
                    disagree += (~one).sum()
        assert agree > disagree > 0


def relabeled_lattice(lat, perm):
    """The lattice lat with each element i renamed perm[i]."""
    leq = np.zeros((lat.n, lat.n), dtype=bool)
    leq[np.ix_(perm, perm)] = lat.leq
    return compute_lattice(validate_poset(leq))


def _is_automorphism(leq, sigma):
    return (sorted(sigma.tolist()) == list(range(len(leq)))
            and (leq[np.ix_(sigma, sigma)] == leq).all())


def _atoms(lat):
    return [x for x in range(lat.n) if lat.leq[:, x].sum() == 2]


def _generators(lat, e):
    """The unital search's symmetries for the unit e: generators of the
    automorphisms that fix e."""
    return orders._stabiliser_generators(rows_of(lat), orders._masks(lat.leq.T), e)


def _generated(gens, n):
    """The group of permutations of n points that gens generate."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        g = todo.pop()
        for h in gens:
            image = tuple(h[x] for x in g)
            if image not in group:
                group.add(image)
                todo.append(image)
    return group


class TestOrderAutomorphism:
    """orders._order_automorphism, which yields the maps with pinned
    images that the stabiliser chains keep as generators, for the
    parents in enumeration and for the units of the unital search, and
    the first isomorphism onto an earlier kept tie child."""

    @pytest.mark.parametrize("lat", [diamond_m3(), horizontal_sum_mo(2).lattice, boolean_cube(3)],
                             ids=["m3", "mo2", "boolean-8"])
    def test_atoms_map_to_atoms(self, lat):
        for a in _atoms(lat):
            for b in _atoms(lat):
                sigma = np.array(next(orders._order_automorphism(rows_of(lat), [(a, b)])))
                assert sigma[a] == b and _is_automorphism(lat.leq, sigma)

    def test_no_atom_maps_to_a_coatom_on_boolean_8(self):
        lat = boolean_cube(3)
        coatoms = [x for x in range(lat.n) if lat.leq[x].sum() == 2]
        assert len(coatoms) == 3
        assert not any(list(orders._order_automorphism(rows_of(lat), [(a, c)]))
                       for a in _atoms(lat) for c in coatoms)

    @pytest.mark.parametrize("lat", [build_lattice(load(STRUCTURES / "n5.struct"))]
                             + [chain(m) for m in range(1, 7)],
                             ids=["n5"] + [f"chain-{m}" for m in range(1, 7)])
    def test_only_the_identity(self, lat):
        identity = list(range(lat.n))
        assert list(orders._order_automorphism(rows_of(lat))) == [identity]
        for a in range(lat.n):
            for b in range(lat.n):
                got = list(orders._order_automorphism(rows_of(lat), [(a, b)]))
                assert got == ([identity] if a == b else [])

    def test_matches_brute_force_on_every_lattice_to_six(self):
        # for each (a, b), the sigmas yielded are the permutations, of all
        # n!, that are order automorphisms sending a to b, each once; so
        # one is yielded exactly when brute force finds one
        for lat in enumerate_lattices(6).lattices:
            group = [p for p in itertools.permutations(range(lat.n))
                     if _is_automorphism(lat.leq, np.array(p))]
            for a in range(lat.n):
                for b in range(lat.n):
                    got = [tuple(sigma) for sigma in orders._order_automorphism(rows_of(lat), [(a, b)])]
                    assert sorted(got) == [g for g in group if g[a] == b]

    def test_group_matches_brute_force_on_every_lattice_to_seven(self):
        for lat in enumerate_lattices(7).lattices:
            perms = np.array(list(itertools.permutations(range(lat.n))))
            kept = (lat.leq[perms[:, :, None], perms[:, None, :]] == lat.leq).all(axis=(1, 2))
            group = [tuple(sigma) for sigma in orders._order_automorphism(rows_of(lat))]
            assert group[0] == tuple(range(lat.n))
            assert len(group) == len(set(group))
            assert set(group) == {tuple(p) for p in perms[kept].tolist()}

    @pytest.mark.parametrize("name, order", [("mo2", 24), ("mo3", 720)])
    def test_group_order(self, name, order):
        lat = build_lattice(load(STRUCTURES / f"{name}.struct"))
        group = list(orders._order_automorphism(rows_of(lat)))
        assert len(group) == order
        assert all(_is_automorphism(lat.leq, np.array(sigma)) for sigma in group)

    def test_fixed_points_match_brute_force(self):
        # with (a, b) and a point (x, x) for each x of fixed pinned, the
        # sigmas yielded are those of the brute-force group that send a
        # to b and fix each point of fixed, in the same order whichever
        # pin comes first: one point on every lattice of at most 5
        # elements, one and two points on MO2
        mo2 = horizontal_sum_mo(2).lattice
        cases = [(lat, [e]) for lat in enumerate_lattices(5).lattices for e in range(lat.n)]
        cases += [(mo2, list(fixed)) for k in (1, 2) for fixed in itertools.combinations(range(6), k)]
        for lat, fixed in cases:
            group = [p for p in itertools.permutations(range(lat.n))
                     if _is_automorphism(lat.leq, np.array(p))]
            for a in range(lat.n):
                for b in range(lat.n):
                    pins = [(a, b)] + [(x, x) for x in fixed]
                    got = [tuple(sigma) for sigma in orders._order_automorphism(rows_of(lat), pins)]
                    assert sorted(got) == [g for g in group
                                           if g[a] == b and all(g[x] == x for x in fixed)]
                    assert [tuple(sigma) for sigma in
                            orders._order_automorphism(rows_of(lat), pins[::-1])] == got

    def test_stabiliser_generators_generate_the_stabiliser(self):
        # for each unit e of every lattice of at most 7 elements, of MO3
        # and of Boolean-64 at an atom: the generators fix e, and the
        # group they generate is the whole listed stabiliser of e
        cases = [(lat, e) for lat in enumerate_lattices(7).lattices for e in range(lat.n)]
        mo3, cube = build_lattice(load(STRUCTURES / "mo3.struct")), boolean_cube(6)
        cases += [(mo3, e) for e in range(mo3.n)] + [(cube, _atoms(cube)[0])]
        for lat, e in cases:
            gens = _generators(lat, e)
            assert all(sigma[e] == e for sigma in gens)
            stabiliser = {tuple(sigma) for sigma in orders._order_automorphism(rows_of(lat), [(e, e)])}
            assert _generated(gens, lat.n) == stabiliser, (rows_of(lat), e)
        # the last case: Boolean-64's 120 automorphisms that fix an atom
        assert len(stabiliser) == 120 and len(gens) <= 4

    def test_stabiliser_generators_match_the_explicit_base(self):
        # the chain that picks its own base and classes returns, list for
        # list, the generators of the chain its callers once gave their
        # base and counted classes, for every unit of every lattice of at
        # most 7 elements and of MO3, MO4 and Boolean-64: the top, the
        # bottom and units that are not join-irreducible included
        lattices = enumerate_lattices(7).lattices + [
            build_lattice(load(STRUCTURES / "mo3.struct")), horizontal_sum_mo(4).lattice,
            boolean_cube(6)]
        cases = top_in_base = 0
        for lat in lattices:
            irreducibles = join_irreducibles(lat)
            for e in range(lat.n):
                gens = _generators(lat, e)
                assert gens == explicit_base_generators(lat, e), (rows_of(lat), e)
                cases += 1
                # where the old base held the top, and the chain found generators
                top_in_base += lat.top in irreducibles and e != lat.top and bool(gens)
        assert cases == sum(n * count for n, count in LATTICE_COUNTS.items() if n <= 7) + 8 + 10 + 64
        assert top_in_base > 0

    def test_isomorphism_onto_target_iff_keys_equal(self):
        """A map onto a target is found exactly when the canonical keys
        are equal: onto itself, never onto another, for each lattice of
        at most 9 elements and each one that shares its sorted classes
        (the first such pairs have 8 elements), and always onto seeded
        relabellings of the lattices of at most 7 elements and of MO4,
        whose 8 atoms share one class.  Every map found is an
        isomorphism onto the target."""
        by_classes = {}
        for rows in enumerate_lattices(9).posets:
            by_classes.setdefault(tuple(sorted(counted_classes(rows))), []).append(rows)
        pairs = [(p, q) for bucket in by_classes.values() for p in bucket for q in bucket]
        assert sum(p != q for p, q in pairs) == 168
        rng = random.Random(26)
        for rows in enumerate_lattices(7).posets + [rows_of(horizontal_sum_mo(4).lattice)]:
            for _ in range(2):
                pairs.append((rows, relabeled(rows, rng.sample(range(len(rows)), len(rows)))))
        keys = {rows: canonical_key(rows) for pair in pairs for rows in pair}
        for p, q in pairs:
            sigma = next(orders._order_automorphism(p, target=q), None)
            assert (sigma is not None) == (keys[p] == keys[q]), (p, q)
            if sigma is not None:
                assert relabeled(p, sigma) == q, (p, q, sigma)


def _orthomodular_files():
    """(name, lattice) for each checked-in file whose ortholattice is
    orthomodular, the carriers the unital command accepts."""
    carriers = []
    for path in STRUCTURE_FILES:
        sf = load(path)
        if sf.ortho is not None and is_orthomodular(o := build_ortholattice(sf)):
            carriers.append((path.stem, o.lattice))
    return carriers


ORTHOMODULAR = _orthomodular_files()
RELABELED = [(f"{name}-relabeled-{seed}",
              relabeled_lattice(lat, random.Random(seed).sample(range(lat.n), lat.n)))
             for name, lat in ORTHOMODULAR if name in ("mo2", "boolean-8") for seed in (1, 2, 3)]


class TestUnitOrbits:
    """The unital search finds generators of Aut(L) once, searches the
    least unit of each orbit under them and closes its tables under
    them, where it used to search every unit."""

    def test_orthomodular_files(self):
        assert [name for name, _ in ORTHOMODULAR] == ["boolean-2", "boolean-4", "boolean-8",
                                                       "mo2", "mo3"]

    @pytest.mark.parametrize("name, lat", ORTHOMODULAR + RELABELED,
                             ids=[name for name, _ in ORTHOMODULAR + RELABELED])
    def test_matches_per_unit_search(self, monkeypatch, name, lat):
        # every carrier but MO3 exhausts within the budget; on MO3 both
        # searches spend all of it on the first atom
        budget = 500_000
        new = search_unital_residuation(lat, budget=budget)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_search", per_unit_search)
            reference = search_unital_residuation(lat, budget=budget)
        assert _outcome(new)[:3] == _outcome(reference)[:3]
        assert new.exhausted == (name != "mo3")
        assert new.nodes <= reference.nodes

    @pytest.mark.parametrize("name, budget, found",
                             [("mo2", 1000, 12), ("mo2", 20_000, 208), ("boolean-8", 1000, 288)])
    def test_budgeted_results_are_closed_under_the_group(self, name, budget, found):
        # a search cut by its budget returns whole orbits under the whole
        # listed Aut(L), the tables of units it never searched among them
        lat = build_lattice(load(STRUCTURES / f"{name}.struct"))
        result = search_unital_residuation(lat, budget)
        assert (len(result.found), result.exhausted, result.nodes) == (found, False, budget)
        tables = {tuple(m.ravel().tolist()) for m in result.found}
        for sigma in orders._order_automorphism(rows_of(lat)):
            sigma, inverse = np.array(sigma), np.argsort(sigma)
            assert {tuple(sigma[m[np.ix_(inverse, inverse)]].ravel().tolist())
                    for m in result.found} == tables, sigma

    def test_a_wrong_automorphism_is_an_internal_error(self, monkeypatch):
        # on the 4-element Boolean algebra, swapping the first atom with
        # the top does not keep the order; given as a generator of Aut(L),
        # the automorphisms that fix the top, it is caught before it
        # carries a table
        lat, real = boolean_cube(2), orders._stabiliser_generators
        atom = _atoms(lat)[0]

        def wrong(rows, downs, e):
            gens = real(rows, downs, e)
            if e == lat.top:
                swap = list(range(lat.n))
                swap[atom], swap[lat.top] = lat.top, atom
                gens.append(swap)
            return gens

        monkeypatch.setattr(search, "_stabiliser_generators", wrong)
        with pytest.raises(RuntimeError, match="not an order automorphism"):
            search_unital_residuation(lat, budget=10_000)

    def test_a_mapped_table_failing_its_leaf_is_an_internal_error(self, monkeypatch):
        leaf = search._leaf
        monkeypatch.setattr(search, "_leaf", lambda l, e, m: leaf(l, e, m) if e == 1 else None)
        with pytest.raises(RuntimeError, match="fails for unit 2"):
            search_unital_residuation(boolean_cube(2), budget=10_000)


def _unit_search(lat, e, symmetries, budget=None):
    """The tables of one unit's search with the given symmetries, closed
    under them, and `exhausted`."""
    found, exhausted, nodes = search._IrreducibleTableSearch(lat, e, symmetries).run(budget=budget)
    closed = search._closure(lat, symmetries, found)
    return {s.mul.tobytes() for s in closed}, exhausted, nodes


def _reference_unit_search(lat, e, budget=None):
    """The tables and `exhausted` of one unit's search without symmetries."""
    result = per_unit_search(lat, [e], budget)
    return {m.tobytes() for m in result.found}, result.exhausted


class TestSymmetryBreaking:
    """The unital searcher rejects a partial table that comes after its
    image by one of its symmetries, automorphisms that fix the unit, and
    _closure closes the tables found under them.  The least table of each
    orbit is never rejected, so the closure holds every table, and a
    budgeted search reaches that least table no later than a search
    without symmetries reaches any table of its orbit."""

    def test_every_unit_to_six_matches_per_unit_search(self):
        for lat in enumerate_lattices(6).lattices:
            for e in range(lat.n):
                if e != lat.bottom or lat.n == 1:
                    new = _unit_search(lat, e, _generators(lat, e))
                    assert new[:2] == _reference_unit_search(lat, e), (rows_of(lat), e)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["mo2", "boolean-8", "o6"])
    def test_relabelled_carriers_match_per_unit_search(self, name, seed):
        lat = build_lattice(load(STRUCTURES / f"{name}.struct"))
        lat = relabeled_lattice(lat, random.Random(seed).sample(range(lat.n), lat.n))
        for e in range(lat.n):
            if e != lat.bottom:
                new = _unit_search(lat, e, _generators(lat, e))
                assert new[:2] == _reference_unit_search(lat, e), e

    @pytest.mark.parametrize("name, units", [("mo2", [1, 5]), ("boolean-8", [1, 3, 7])])
    def test_any_symmetries_in_the_stabiliser_give_the_same_tables(self, name, units):
        # none, one generator, the generating set and the whole stabiliser
        # of each unit the unital search searches: the same tables, in
        # as many nodes or fewer the more there are
        lat = build_lattice(load(STRUCTURES / f"{name}.struct"))
        pruned = False
        for e in units:
            gens = _generators(lat, e)
            stabiliser = list(orders._order_automorphism(rows_of(lat), [(e, e)]))
            outcomes = [_unit_search(lat, e, symmetries)
                        for symmetries in ([], gens[:1], gens, stabiliser)]
            assert all(outcome[:2] == outcomes[0][:2] for outcome in outcomes), e
            nodes = [outcome[2] for outcome in outcomes]
            assert nodes == sorted(nodes, reverse=True), e
            pruned |= nodes[-1] < nodes[0]
        assert pruned

    @pytest.mark.parametrize("budget", [10, 100, 1000, 10_000])
    def test_budgeted_mo2_finds_what_the_reference_finds(self, budget):
        lat = build_lattice(load(STRUCTURES / "mo2.struct"))
        units = [e for e in range(lat.n) if e != lat.bottom]
        new = {m.tobytes() for m in search_unital_residuation(lat, budget).found}
        reference = {m.tobytes() for m in per_unit_search(lat, units, budget).found}
        assert reference <= new
        assert budget < 10_000 or reference < new
