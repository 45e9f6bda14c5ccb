"""Cyclic dualizing elements, recognition agreement, quantale checks."""
import dataclasses

import numpy as np
import pytest

import reference_laws as ref
from fixtures import boolean_residuation, drastic_chain
from girardlab.catalog import boolean_cube, boolean_ortho, chain, diamond_m3, mo2_subspace_model
from girardlab.girard import (
    check_boolean_idempotent_criterion,
    check_dualizer_join_formula,
    check_quantale,
    check_unit_downset_boolean,
    find_cyclic_dualizing,
    girard_equivalences,
    is_cyclic,
    is_dualizing,
)
from girardlab.orders import check_inversion, enumerate_inversions
from girardlab.ortho import OrthoLattice, check_orthomodular
from girardlab.reports import InputError
from girardlab.residuation import (
    check_associative,
    derive_residua,
    godel_chain,
    lukasiewicz_chain,
    residuated_structure,
    ResiduationError,
)
from girardlab.search import search_unital_residuation
from girardlab.structfile import build_lattice, load

# smallest non-commutative residuated monoid with a non-cyclic element,
# found by exhaustive search over integral tables on chains (none exists
# on three elements; this one lives on the four-chain)
NONCOMMUTATIVE_CHAIN4 = np.array([[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 2, 2], [0, 1, 2, 3]])


class TestCyclic:
    def test_commutative_everywhere_cyclic(self):
        s = lukasiewicz_chain(3)
        for d in range(s.n):
            assert is_cyclic(s, d).passed

    def test_noncommutative_counterexample(self):
        s = residuated_structure(chain(4), NONCOMMUTATIVE_CHAIN4)
        assert not s.flags.commutative
        report = is_cyclic(s, 0)
        assert report.failed
        x, y = report.witness
        leq, mul = s.poset.leq, s.mul
        assert leq[mul[x, y], 0] != leq[mul[y, x], 0]


class TestDualizing:
    def test_boolean_square_bottom(self):
        s = boolean_residuation(boolean_cube(2))
        assert is_dualizing(s, s.lattice.bottom).passed

    def test_lukasiewicz_bottom(self):
        assert is_dualizing(lukasiewicz_chain(3), 0).passed

    def test_godel_bottom_fails_double_negation(self):
        s = godel_chain(3)
        report = is_dualizing(s, 0)
        assert report.failed
        assert report.witness == (1,)  # 1/2 negates to 0, which negates to 1


class TestFindCyclicDualizing:
    def test_boolean_cube_has_bottom(self):
        s = boolean_residuation(boolean_cube(3))
        assert [c.d for c in find_cyclic_dualizing(s)] == [s.lattice.bottom]

    def test_godel_chain_empty(self):
        assert find_cyclic_dualizing(godel_chain(3)) == []

    def test_lukasiewicz_4_has_bottom(self):
        certs = find_cyclic_dualizing(lukasiewicz_chain(4))
        assert [c.d for c in certs] == [0]

    def test_certificate_identities(self):
        s = lukasiewicz_chain(5)
        (c,) = find_cyclic_dualizing(s)
        assert check_inversion(s.poset, c.neg).passed
        assert c.e == c.neg[c.d]
        assert c.neg[c.e] == c.d
        for x in range(s.n):
            assert c.neg[c.neg[x]] == x
            for y in range(s.n):
                assert s.rres[x, y] == c.neg[s.mul[x, c.neg[y]]]


class TestRecognitionAgreement:
    @pytest.mark.parametrize(
        "s,expected",
        [
            (lukasiewicz_chain(3), True),
            (godel_chain(3), False),
            (boolean_residuation(boolean_cube(2)), True),
            (drastic_chain(4), False),
        ],
        ids=["luk3", "godel3", "bool4", "drastic4"],
    )
    def test_deciders_agree(self, s, expected):
        report = girard_equivalences(s)
        assert report.agreement.passed
        assert report.has_cyclic_dualizer is expected
        assert report.has_negation_by_residuation is expected
        assert report.has_exchange_inversion is expected

    def test_supplied_inversion(self):
        s = lukasiewicz_chain(3)
        report = girard_equivalences(s, inversion=(2, 1, 0))
        assert report.agreement.passed and report.has_exchange_inversion

    def test_rejects_non_inversion(self):
        with pytest.raises(InputError):
            girard_equivalences(lukasiewicz_chain(3), inversion=(0, 1, 2))

    def test_rejects_an_inversion_with_entries_that_are_not_integers(self):
        # truncated, [2.9, 1.2, 0] would be the inversion (2, 1, 0)
        with pytest.raises(InputError, match=r"^map value 2\.9 at 0 not an integer$"):
            girard_equivalences(lukasiewicz_chain(3), inversion=[2.9, 1.2, 0])

    @pytest.mark.parametrize("s, expected",
                             [(lukasiewicz_chain(13), True), (godel_chain(13), False)],
                             ids=["luk13", "godel13"])
    def test_large_carrier_without_candidate(self, s, expected):
        # the candidates come from the residua, so no carrier is too large
        report = girard_equivalences(s)
        assert report.agreement.passed
        assert report.has_cyclic_dualizer is expected
        assert report.has_negation_by_residuation is expected
        assert report.has_exchange_inversion is expected
        assert girard_equivalences(s, inversion=tuple(range(12, -1, -1))) == report


class TestResiduumCandidates:
    """Without a supplied inversion, deciders (2) and (3) try only the
    residuum maps that are inversions; over every inversion of the
    carrier they must give the same verdicts."""

    @pytest.fixture(scope="class", params=["mo2", "boolean-8"])
    def unital_tables(self, request, structures_dir):
        lat = build_lattice(load(structures_dir / f"{request.param}.struct"))
        result = search_unital_residuation(lat, budget=3_000_000)
        assert result.exhausted
        return result.structures

    def test_matches_every_inversion(self, unital_tables):
        assert len(unital_tables) in (248, 451)
        inversions = enumerate_inversions(unital_tables[0].poset)
        girard = 0
        for s in unital_tables:
            report = girard_equivalences(s)
            reference = (bool(ref.find_cyclic_dualizing(s)),
                         any(ref.matches_residuation(s, f) for f in inversions),
                         any(ref.exchange(s, f) is None for f in inversions))
            assert (report.has_cyclic_dualizer, report.has_negation_by_residuation,
                    report.has_exchange_inversion) == reference
            girard += reference[0]
        assert 0 < girard < len(unital_tables)


class TestDualizerJoinFormula:
    @pytest.mark.parametrize(
        "s",
        [boolean_residuation(boolean_cube(3)), lukasiewicz_chain(3), lukasiewicz_chain(5)],
        ids=["bool8", "luk3", "luk5"],
    )
    def test_join_of_self_products(self, s):
        (cert,) = find_cyclic_dualizing(s)
        assert cert.d == s.lattice.bottom
        assert check_dualizer_join_formula(s, cert, [cert]).passed

    def test_wrong_dualizer_fails(self):
        s = lukasiewicz_chain(5)
        (cert,) = find_cyclic_dualizing(s)
        report = check_dualizer_join_formula(s, dataclasses.replace(cert, d=1), [cert])
        assert report.failed and report.witness == (0,)

    def test_broken_certificate_raises(self):
        # 1 * 1/2 = 0 keeps 0 cyclic and, with the residua untouched,
        # dualizing; find_cyclic_dualizing, whose certificates the formula
        # takes, rejects the table instead of certifying it
        s = lukasiewicz_chain(3)
        bad = np.array(s.mul)
        bad[2, 1] = bad[1, 2] = 0
        with pytest.raises(RuntimeError, match="fails the unit law"):
            find_cyclic_dualizing(dataclasses.replace(s, mul=bad))

    def test_per_element_products_stay_below_d(self):
        s = lukasiewicz_chain(4)
        (cert,) = find_cyclic_dualizing(s)
        for x in range(s.n):
            assert s.poset.leq[s.mul[x, cert.neg[x]], cert.d]

    def test_subspace_model_two_dualizers_different_negations(self):
        o, mul = mo2_subspace_model()
        s = residuated_structure(o.lattice, np.array(mul))
        certs = find_cyclic_dualizing(s)
        assert [c.d for c in certs] == [1, 2]
        assert certs[0].neg != certs[1].neg
        # the ambient orthocomplement is the linear negation of d = 2
        assert certs[1].neg == o.ortho
        for cert in certs:
            assert check_dualizer_join_formula(s, cert, certs).passed


class TestBooleanIdempotentCriterion:
    def test_boolean_square(self):
        s = boolean_residuation(boolean_cube(2))
        report = check_boolean_idempotent_criterion(s, find_cyclic_dualizing(s))
        assert report.passed and "True" in report.note

    @pytest.mark.parametrize("m", [3, 4])
    def test_mv_chains_both_sides_false(self, m):
        s = lukasiewicz_chain(m)
        report = check_boolean_idempotent_criterion(s, find_cyclic_dualizing(s))
        assert report.passed and "False" in report.note

    def test_not_girard_skipped(self):
        report = check_boolean_idempotent_criterion(godel_chain(3), [])
        assert report.verdict.value == "SKIPPED"


class TestQuantale:
    def test_cube_meet(self):
        lat = boolean_cube(3)
        assert check_quantale(lat, lat.meet).passed

    def test_lukasiewicz(self):
        s = lukasiewicz_chain(3)
        assert check_quantale(s.lattice, s.mul).passed

    def test_join_multiplication_breaks_zero_law(self):
        lat = chain(3)
        report = check_quantale(lat, lat.join)
        assert report.failed and "zero law" in report.note
        (x,) = report.witness
        assert lat.join[lat.bottom, x] != lat.bottom

    def test_equivalence_with_residuation(self):
        # quantale laws hold exactly when the table is associative and
        # residua derive with full adjointness
        cases = [
            (chain(3), chain(3).meet),
            (chain(3), chain(3).join),
            (boolean_cube(2), boolean_cube(2).meet),
            (lukasiewicz_chain(4).lattice, lukasiewicz_chain(4).mul),
            (chain(3), np.array([[0, 0, 0], [1, 1, 0], [0, 2, 2]])),
        ]
        for lat, m in cases:
            lhs = check_quantale(lat, m).passed
            if check_associative(m).failed:
                rhs = False
            else:
                try:
                    derive_residua(lat, m)
                    rhs = True
                except ResiduationError:
                    rhs = False
            assert lhs == rhs


class TestUnitDownset:
    def test_boolean_cube_meet(self):
        o = boolean_ortho(3)
        s = boolean_residuation(o.lattice)
        report = check_unit_downset_boolean(o, s)
        assert report.passed
        assert str(tuple(range(8))) in report.note

    def test_atomic_unit_two_element_downset(self):
        o, mul = mo2_subspace_model()
        s = residuated_structure(o.lattice, np.array(mul))
        report = check_unit_downset_boolean(o, s)
        assert report.passed and "block (0, 1, 2, 5)" in report.note

    def test_skips_without_unit(self):
        o, mul = mo2_subspace_model()
        lat = o.lattice
        # bottom-constant multiplication: residuated but unitless
        m = np.zeros((lat.n, lat.n), dtype=np.intp)
        s = residuated_structure(lat, m)
        report = check_unit_downset_boolean(o, s)
        assert report.verdict.value == "SKIPPED"

    def test_skips_on_a_non_ortholattice(self):
        # on M3, c -> a -> b is not involutive, yet the three
        # orthomodularity forms hold: the carrier is still not orthomodular
        o = OrthoLattice(diamond_m3(), (4, 2, 1, 1, 0))
        assert all(r.passed for r in check_orthomodular(o))
        mul = np.array([[0, 0, 0, 0, 0], [0, 1, 2, 3, 4], [0, 2, 0, 2, 2],
                        [0, 3, 2, 1, 4], [0, 4, 2, 4, 4]])
        s = residuated_structure(o.lattice, mul)
        report = check_unit_downset_boolean(o, s)
        assert report.verdict.value == "SKIPPED"
        assert report.note == "carrier is not orthomodular"
