"""Cyclic dualizing elements, recognition agreement, quantale checks."""
import numpy as np
import pytest

from girardlab.catalog import boolean_cube, boolean_ortho, chain, diamond_m3, mo2_subspace_model
from girardlab.girard import (
    check_boolean_idempotent_criterion,
    check_dualizer_join_formula,
    check_involutive_quantale,
    check_quantale,
    check_unit_downset_boolean,
    find_cyclic_dualizing,
    girard_equivalences,
    is_cyclic,
    is_dualizing,
)
from girardlab.orders import check_inversion
from girardlab.ortho import OrthoLattice, check_orthomodular
from girardlab.residuation import (
    boolean_residuation,
    check_associative,
    derive_residua,
    drastic_chain,
    godel_chain,
    lukasiewicz_chain,
    residuated_structure,
    ResiduationError,
)

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
        with pytest.raises(ValueError):
            girard_equivalences(lukasiewicz_chain(3), inversion=(0, 1, 2))

    def test_large_carrier_needs_candidate(self):
        s = lukasiewicz_chain(13)
        with pytest.raises(ValueError):
            girard_equivalences(s)
        report = girard_equivalences(s, inversion=tuple(range(12, -1, -1)))
        assert report.agreement.passed and report.has_cyclic_dualizer


class TestDualizerJoinFormula:
    @pytest.mark.parametrize(
        "s",
        [boolean_residuation(boolean_cube(3)), lukasiewicz_chain(3), lukasiewicz_chain(5)],
        ids=["bool8", "luk3", "luk5"],
    )
    def test_join_of_self_products(self, s):
        (cert,) = find_cyclic_dualizing(s)
        assert cert.d == s.lattice.bottom
        assert check_dualizer_join_formula(s, cert).passed

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
            assert check_dualizer_join_formula(s, cert).passed


class TestBooleanIdempotentCriterion:
    def test_boolean_square(self):
        s = boolean_residuation(boolean_cube(2))
        report = check_boolean_idempotent_criterion(s)
        assert report.passed and "True" in report.note

    @pytest.mark.parametrize("m", [3, 4])
    def test_mv_chains_both_sides_false(self, m):
        report = check_boolean_idempotent_criterion(lukasiewicz_chain(m))
        assert report.passed and "False" in report.note

    def test_not_girard_skipped(self):
        report = check_boolean_idempotent_criterion(godel_chain(3))
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


class TestInvolutiveQuantale:
    def test_identity_star_on_commutative(self):
        s = lukasiewicz_chain(3)
        assert check_involutive_quantale(s.lattice, s.mul, (0, 1, 2)).passed

    def test_complement_star_join_reversal(self):
        lat = boolean_cube(2)
        star = (3, 2, 1, 0)
        report = check_involutive_quantale(lat, lat.meet, star)
        assert report.failed
        # replay on an element and its complement: the star sends their
        # join (the top) to the bottom instead of preserving it
        a, ac = 1, 2
        assert star[lat.join[a, ac]] != lat.join[star[a], star[ac]]

    def test_skips_when_not_quantale(self):
        lat = chain(3)
        report = check_involutive_quantale(lat, lat.join, (2, 1, 0))
        assert report.verdict.value == "SKIPPED"


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
