"""Lattice enumeration and the residuation searches."""
import pathlib

import numpy as np
import pytest
from reference_search import LoopIntegralSearch, LoopUnitalSearch, PlainIntegralSearch, \
    PlainUnitalSearch, is_lattice, reference_enumeration

from girardlab import search
from girardlab.catalog import benzene_o6, boolean_cube, boolean_ortho, chain, diamond_m3, \
    horizontal_sum_mo
from girardlab.girard import check_unit_downset_boolean
from girardlab.orders import hasse_covers
from girardlab.ortho import NotOrthomodularInput
from girardlab.reports import law_pass
from girardlab.residuation import check_associative, derive_residua, lukasiewicz_chain
from girardlab.search import (
    BoundExceeded,
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

    def test_matches_bounded_poset_enumerator(self):
        """Coatom growth emits, size by size and in the same order, the
        isomorphism classes the old bounded-poset enumerator kept."""
        keys, counts = reference_enumeration(8)
        result = enumerate_lattices(8)
        assert result.counts == counts
        got = {size: [] for size in counts}
        for lat in result.lattices:
            got[lat.n].append(canonical_key(rows_of(lat)))
        assert got == keys

    def test_growth_rule_matches_compute_lattice(self):
        """_grow yields, in order, the extensions by a coatom above a
        down-closed set d of non-top elements that compute_lattice
        accepts; d is down-closed when nothing outside it lies below a
        member."""
        for lat in enumerate_lattices(7).lattices:
            rows = rows_of(lat)
            n = len(rows)
            extensions = [tuple(rows[i] | (d >> i & 1) << n for i in range(n)) + (1 << n | 1,)
                          for d in range(0, 1 << n, 2)
                          if not any(rows[i] & d for i in range(n) if not d >> i & 1)]
            assert list(search._grow(rows)) == [ext for ext in extensions if is_lattice(ext)]

    def test_single_element(self):
        result = enumerate_lattices(1)
        assert result.counts == {1: 1}

    def test_no_isomorphic_duplicates(self):
        result = enumerate_lattices(6)
        keys = [canonical_key(rows_of(l)) for l in result.lattices]
        assert len(keys) == len(set(keys))

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            enumerate_lattices(11)
        with pytest.raises(BoundExceeded):
            enumerate_lattices(0)

    def test_isomorphism_invariance_of_key(self):
        lat = diamond_m3()
        perm = [0, 3, 1, 2, 4]
        rows = rows_of(lat)
        relabeled = tuple(
            sum(1 << perm[j] for j in range(5) if rows[i] >> j & 1) for i in range(5)
        )
        relabeled = tuple(relabeled[perm.index(i)] for i in range(5))
        assert canonical_key(rows) == canonical_key(relabeled)


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
        class Backward(search._IntegralSearch):
            def domain(self, i, j):
                return super().domain(i, j)[::-1]

        for lat in (chain(4), diamond_m3(), boolean_cube(2)):
            forward, done, _ = search._IntegralSearch(lat).run()
            backward, backward_done, _ = Backward(lat).run()
            assert [t.tolist() for t, _ in forward] == [t.tolist() for t, _ in backward]
            assert done == backward_done

    def test_skipping_associativity_flips_the_found_set(self, monkeypatch):
        # sensitivity of the search oracle: without the associativity
        # checks, at the leaf and at row completion (A), the four-chain
        # admits extra tables, every one of which still satisfies
        # adjointness and is rejected only by that law
        class NoPartialAssociativity(search._IntegralSearch):
            def __init__(self, l):
                super().__init__(l)
                self.assoc = [[] for _ in self.assoc]

        lat = chain(4)
        strict = search_integral_residuation(lat)
        monkeypatch.setattr(search, "check_associative", lambda m: law_pass("associativity"))
        monkeypatch.setattr(search, "_IntegralSearch", NoPartialAssociativity)
        loose = search_integral_residuation(lat)
        strict_tables = {tuple(m.ravel()) for m in strict.found}
        loose_tables = {tuple(m.ravel()) for m in loose.found}
        assert strict_tables < loose_tables
        for extra in loose_tables - strict_tables:
            table = np.array(extra).reshape(4, 4)
            assert check_associative(table).failed
            derive_residua(lat, table)


class TestConfirmBooleanForcing:
    def test_max_four(self):
        report = confirm_boolean_forcing(4)
        assert report.passed

    def test_max_six(self):
        assert confirm_boolean_forcing(6).passed

    def test_monotone_in_bound(self):
        # a pass at six implies the smaller sweeps pass as sub-reports
        assert confirm_boolean_forcing(6).passed
        assert confirm_boolean_forcing(5).passed
        assert confirm_boolean_forcing(4).passed

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            confirm_boolean_forcing(11)


class TestUnitalSearch:
    def test_boolean_square_includes_integral_meet(self):
        o = boolean_ortho(2)
        result = search_unital_residuation(o, budget=10_000)
        assert result.exhausted
        hits = {tuple(m.ravel()) for m in result.found}
        assert tuple(np.asarray(o.lattice.meet).ravel()) in hits
        units = {s.flags.unit for s in result.structures}
        assert o.lattice.top in units and len(units) > 1

    def test_zero_budget(self):
        result = search_unital_residuation(horizontal_sum_mo(2), budget=0)
        assert result.found == [] and not result.exhausted

    @pytest.mark.parametrize("budget", [1, 50, 102])  # the whole search takes 103 nodes
    def test_nodes_never_exceed_the_budget(self, budget):
        result = search_unital_residuation(boolean_ortho(2), budget=budget)
        assert not result.exhausted and result.nodes == budget

    def test_budget_cut_keeps_the_found_set(self):
        # a budget that runs out inside the last unit's search finds what
        # the unbounded search finds before that point
        full = search_unital_residuation(boolean_ortho(2), budget=10_000)
        cut = search_unital_residuation(boolean_ortho(2), budget=full.nodes - 1)
        assert full.exhausted and not cut.exhausted and cut.nodes == full.nodes - 1
        assert {m.tobytes() for m in cut.found} <= {m.tobytes() for m in full.found}

    def test_mo2_budgeted_hits_satisfy_downset_conclusions(self):
        result = search_unital_residuation(horizontal_sum_mo(2), budget=20_000)
        assert not result.exhausted  # full exploration needs 500944 nodes
        assert result.found  # non-Boolean orthomodular carriers with units exist
        assert all(r.passed for r in result.downset_unit_reports)
        for s in result.structures:
            assert s.flags.unit is not None and not s.flags.integral

    def test_mo2_exhaustive_one_report_per_unit(self):
        o = horizontal_sum_mo(2)
        result = search_unital_residuation(o, budget=3_000_000)
        assert result.exhausted and len(result.found) == 248
        assert result.downset_unit_reports == [check_unit_downset_boolean(o, s)
                                               for s in result.structures]

    def test_requires_orthomodular(self):
        with pytest.raises(NotOrthomodularInput):
            search_unital_residuation(benzene_o6(), budget=100)

    def test_lattice_id_mentions_covers(self):
        result = search_unital_residuation(boolean_ortho(1), budget=1000)
        assert str(hasse_covers(boolean_cube(1).poset)) in result.lattice_id


def _outcome(result):
    return ([m.tolist() for m in result.found], [s.flags.unit for s in result.structures],
            result.exhausted, result.nodes)


def _reference_outcome(monkeypatch, reference, run, *args):
    """The outcome of a search built from a reference searcher,
    reference[mode] standing in for the searcher of that mode."""
    with monkeypatch.context() as patch:
        patch.setattr(search, "_IntegralSearch", reference["integral"])
        patch.setattr(search, "_UnitalSearch", reference["unital"])
        return _outcome(run(*args))


LOOP = {"integral": LoopIntegralSearch, "unital": LoopUnitalSearch}
PLAIN = {"integral": PlainIntegralSearch, "unital": PlainUnitalSearch}


def _assert_same_tables(new, reference):
    """Pruning keeps the found tables, their units and `exhausted` of an
    exhaustive reference run, in fewer nodes or as many; an outcome's
    node count comes last."""
    assert new[:-1] == reference[:-1]
    assert new[-1] <= reference[-1]


def _run_outcome(run, budget=None):
    hits, exhausted, nodes = run(budget=budget)
    return [(m.tolist(), s.flags.unit) for m, s in hits], exhausted, nodes


STRUCTURES = pathlib.Path(__file__).resolve().parent.parent / "structures"
STRUCTURE_FILES = sorted(STRUCTURES.glob("*.struct"))


@pytest.fixture(scope="module")
def lattices_to_six():
    """Each lattice on at most 6 elements with the outcome of the
    searcher before row-completion pruning; the 6-chain alone takes
    589915 nodes."""
    return [(lat, _run_outcome(PlainIntegralSearch(lat).run))
            for lat in enumerate_lattices(6).lattices]


@pytest.fixture(scope="module")
def mo2_tables():
    """The byte strings of the 248 tables of the exhaustive MO2 search."""
    result = search_unital_residuation(build_ortholattice(load(STRUCTURES / "mo2.struct")),
                                       budget=3_000_000)
    assert result.exhausted and len(result.found) == 248
    return {m.tobytes() for m in result.found}


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
            cells = search._IntegralSearch(lat).cells
            for k, (i, j) in enumerate(cells):
                assert not any(lat.leq[i, i2] and lat.leq[j, j2] for i2, j2 in cells[:k])

    @pytest.mark.parametrize("path", STRUCTURE_FILES, ids=lambda p: p.stem)
    def test_integral_on_structure_files(self, monkeypatch, path):
        lat = build_lattice(load(path))
        new = _outcome(search_integral_residuation(lat))
        assert new[2]  # exhausted
        _assert_same_tables(new, _reference_outcome(monkeypatch, LOOP,
                                                    search_integral_residuation, lat))

    def test_integral_on_every_lattice_to_six(self, lattices_to_six):
        for lat, reference in lattices_to_six:
            _assert_same_tables(_run_outcome(search._IntegralSearch(lat).run), reference)

    def test_reversed_domains_on_every_lattice_to_six(self, lattices_to_six):
        # a row completed on another branch must never be read: reversed
        # domains revisit each row with other values in another order
        class Backward(search._IntegralSearch):
            def domain(self, i, j):
                return super().domain(i, j)[::-1]

        for lat, reference in lattices_to_six:
            hits, exhausted, _ = _run_outcome(Backward(lat).run)
            assert sorted(hits) == reference[0] and exhausted

    def test_plain_matches_loop_node_for_node(self):
        # the bookkeeping both searchers share with the current one, held
        # to the scans; the budget cuts only the 6-chain
        cut = 0
        for lat in enumerate_lattices(6).lattices:
            plain = _run_outcome(PlainIntegralSearch(lat).run, budget=40_000)
            assert plain == _run_outcome(LoopIntegralSearch(lat).run, budget=40_000)
            cut += not plain[1]
        assert cut == 1

    @pytest.mark.parametrize("mode", ["integral", "unital"])
    @pytest.mark.parametrize("atoms", [0, 1])
    def test_one_and_two_elements(self, monkeypatch, mode, atoms):
        # the 1-element lattice has no join-irreducibles, hence no cells
        o = boolean_ortho(atoms)
        run, carrier = ((search_integral_residuation, o.lattice) if mode == "integral"
                        else (search_unital_residuation, o))
        new = _outcome(run(carrier))
        assert len(new[0]) == 1 and new[2]
        assert new == _reference_outcome(monkeypatch, PLAIN, run, carrier)

    @pytest.mark.parametrize("name", ["boolean-2", "boolean-4"])
    def test_unital_exhaustive(self, monkeypatch, name):
        o = build_ortholattice(load(STRUCTURES / f"{name}.struct"))
        new = _outcome(search_unital_residuation(o))
        assert new[2]  # exhausted
        _assert_same_tables(new, _reference_outcome(monkeypatch, LOOP,
                                                    search_unital_residuation, o))

    @pytest.mark.parametrize("name", ["mo2", "mo3"])
    @pytest.mark.parametrize("budget", [1, 37, 5000, 20_000])
    def test_unital_budgeted(self, monkeypatch, mo2_tables, name, budget):
        o = build_ortholattice(load(STRUCTURES / f"{name}.struct"))
        result = search_unital_residuation(o, budget=budget)
        assert result.nodes == budget and not result.exhausted
        tables = {m.tobytes() for m in result.found}
        reference = _reference_outcome(monkeypatch, LOOP, search_unital_residuation, o, budget)
        assert {np.array(m).tobytes() for m in reference[0]} <= tables
        if name == "mo2":
            assert tables <= mo2_tables
