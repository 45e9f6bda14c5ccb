"""Residua derivation, classification, and the standard chain families."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import NotBoolean, boolean_residuation, drastic_chain
from girardlab import residuation
from girardlab.catalog import boolean_cube, chain, diamond_m3, mo2_subspace_model
from girardlab.orders import is_complemented, lattice_from_covers
from girardlab.reports import InputError
from girardlab.residuation import (
    AdjointnessFailure,
    NoResiduum,
    check_associative,
    classify,
    derive_residua,
    godel_chain,
    lukasiewicz_chain,
    residuated_structure,
)


def candidate_maximum(lat, mul, y, z):
    """Independent oracle: the maximum of {t : t*y <= z}, or None."""
    cand = [t for t in range(lat.n) if lat.leq[mul[t][y], z]]
    best = [t for t in cand if all(lat.leq[c, t] for c in cand)]
    return best[0] if best else None


def assert_adjointness(s):
    leq, mul = s.poset.leq, s.mul
    for x in range(s.n):
        for y in range(s.n):
            for z in range(s.n):
                a = bool(leq[mul[x, y], z])
                assert a == bool(leq[x, s.rres[y, z]]), (x, y, z)
                assert a == bool(leq[y, s.lres[z, x]]), (x, y, z)


class TestAssociativity:
    @pytest.mark.parametrize("lat", [chain(3), boolean_cube(2), diamond_m3()])
    def test_meet_tables_associative(self, lat):
        assert check_associative(lat.meet).passed

    def test_lukasiewicz_table(self):
        assert check_associative(lukasiewicz_chain(3).mul).passed

    def test_mutated_table_fails_with_replayable_witness(self):
        t = np.array(chain(3).meet)
        t[1, 2] = 0  # now (1*2)*1 = 0 but 1*(2*1) = 1
        report = check_associative(t)
        assert report.failed
        x, y, z = report.witness
        assert t[t[x, y], z] != t[x, t[y, z]]


@pytest.fixture
def validations(monkeypatch):
    """The table size of each as_mul_table call, as they happen."""
    calls, real = [], residuation.as_mul_table

    def counted(m, n):
        calls.append(n)
        return real(m, n)

    monkeypatch.setattr(residuation, "as_mul_table", counted)
    return calls


class TestDeriveResidua:
    def test_boolean_square_formula(self):
        lat = boolean_cube(2)
        _, comps = is_complemented(lat)
        rres, lres = derive_residua(lat, lat.meet)
        for y in range(4):
            for z in range(4):
                assert rres[y, z] == lat.join[comps[y], z]
                assert lres[z, y] == lat.join[comps[y], z]

    def test_lukasiewicz_3_candidate_sets(self):
        s = lukasiewicz_chain(3)
        assert s.rres[1, 0] == 1  # 1/2 -> 0 = 1/2
        assert s.rres[1, 1] == 2  # 1/2 -> 1/2 = 1
        for y in range(3):
            for z in range(3):
                assert s.rres[y, z] == candidate_maximum(s.lattice, s.mul.tolist(), y, z)

    def test_join_multiplication_has_no_residuum(self):
        lat = chain(3)
        with pytest.raises(NoResiduum) as exc:
            derive_residua(lat, lat.join)
        assert exc.value.pair == (1, 0)

    @pytest.mark.parametrize("lat", [
        # N5: 2 has the largest down-set among 0..3, but 3 is not below it
        lattice_from_covers([(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], "01234"),
        # the Boolean square: the atoms 1 and 2 tie on down-set size
        boolean_cube(2),
    ], ids=["n5", "tie"])
    def test_largest_down_set_that_is_not_greatest(self, lat):
        # x*y = 0 except top*y = top: every element but the top is a
        # candidate for 0 -> 0, and that set has no maximum
        t = np.zeros((lat.n, lat.n), dtype=np.intp)
        t[lat.top] = lat.top
        with pytest.raises(NoResiduum) as exc:
            derive_residua(lat, t)
        assert (exc.value.kind, exc.value.pair) == ("right", (0, 0))
        assert "candidate set has no maximum" in str(exc.value)

    @pytest.mark.parametrize("table, message", [
        ([[0, 0], [0, 1]], "multiplication table must be 3x3, got (2, 2)"),
        ([[0, 0, 0], [0, 1, 1], [0, 1, 3]], "multiplication table entry out of range"),
        ([[0, 0, 0], [0, 1, 1], [0, 1, -1]], "multiplication table entry out of range"),
    ], ids=["shape", "above", "below"])
    def test_a_bad_table_is_rejected_once(self, validations, table, message):
        # derive_residua validates a table it is called with directly, and
        # residuated_structure raises the same error after one validation
        for build in (derive_residua, residuated_structure):
            validations.clear()
            with pytest.raises(ValueError) as exc:
                build(chain(3), table)
            assert str(exc.value) == message and validations == [3], build

    def test_structure_keeps_a_read_only_copy(self, validations):
        lat = chain(3)
        m = np.array(lat.meet)
        s = residuated_structure(lat, m)
        m[2, 2] = 0
        assert validations == [3]
        assert (s.mul == lat.meet).all() and s.mul.dtype == np.intp
        assert not s.mul.flags.writeable

    def test_pointwise_maxima_without_biconditional(self):
        # non-monotone table on a chain: every candidate set is non-empty,
        # so it has a maximum, yet the triple biconditional fails
        lat = chain(3)
        t = np.array([[0, 0, 0], [1, 1, 0], [0, 2, 2]])
        with pytest.raises(AdjointnessFailure) as exc:
            derive_residua(lat, t)
        x, y, z = exc.value.witness
        assert (x, y, z) == (1, 0, 0)

    @pytest.mark.parametrize("s", [boolean_residuation(boolean_cube(6)), lukasiewicz_chain(60)],
                             ids=["boolean-64", "lukasiewicz-60"])
    def test_no_triple_scan(self, monkeypatch, s):
        # the residuum pass decides adjointness too: no law scan follows
        def refuse(*args):
            raise AssertionError("a triple scan ran")

        monkeypatch.setattr(residuation, "least_witness", refuse)
        rres, lres = derive_residua(s.poset, s.mul)
        for y in range(0, s.n, 7):
            for z in range(0, s.n, 5):  # both tables are commutative
                assert rres[y, z] == lres[z, y] == candidate_maximum(s.poset, s.mul, y, z)


class TestClassify:
    def test_boolean_square(self):
        lat = boolean_cube(2)
        flags = classify(lat, lat.meet)
        assert flags.commutative and flags.idempotent and flags.integral
        assert flags.unit == lat.top

    def test_lukasiewicz_3(self):
        f = lukasiewicz_chain(3).flags
        assert f.commutative and f.integral and f.unit == 2
        assert not f.idempotent  # 1/2 * 1/2 = 0

    def test_subspace_model_unital_not_integral(self):
        o, mul = mo2_subspace_model()
        s = residuated_structure(o.lattice, np.array(mul))
        assert s.flags.unit == 1 and not s.flags.integral
        assert s.flags.commutative


class TestBooleanResiduation:
    def test_two_element(self):
        s = boolean_residuation(boolean_cube(1))
        assert s.flags.integral and s.n == 2

    def test_negation_is_complement(self):
        lat = boolean_cube(2)
        s = boolean_residuation(lat)
        _, comps = is_complemented(lat)
        for a in range(4):
            assert s.rres[a, lat.bottom] == comps[a]

    def test_oracle_equivalence_cube(self):
        lat = boolean_cube(3)
        s = boolean_residuation(lat)
        rres, lres = derive_residua(lat, lat.meet)
        assert (rres == s.rres).all()
        assert (lres == s.lres).all()

    def test_rejects_non_boolean(self):
        with pytest.raises(NotBoolean):
            boolean_residuation(diamond_m3())


class TestChains:
    def test_size_two_is_boolean(self):
        s = lukasiewicz_chain(2)
        b = boolean_residuation(s.lattice)
        assert (s.mul == b.mul).all()
        assert (s.rres == b.rres).all()

    def test_half_times_half_is_zero(self):
        s = lukasiewicz_chain(3)
        assert s.mul[1, 1] == 0

    def test_exact_fraction_labels(self):
        s = lukasiewicz_chain(5)
        assert s.poset.labels == tuple(str(Fraction(k, 4)) for k in range(5))

    def test_formula_matches_indices(self):
        m = 6
        s = lukasiewicz_chain(m)
        for i in range(m):
            for j in range(m):
                assert s.mul[i, j] == max(0, i + j - (m - 1))

    @pytest.mark.parametrize("maker", [lukasiewicz_chain, godel_chain, drastic_chain])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_adjointness_verified(self, maker, m):
        assert_adjointness(maker(m))

    @pytest.mark.parametrize("maker", [lukasiewicz_chain, godel_chain, drastic_chain])
    def test_one_element_is_an_input_error(self, maker):
        with pytest.raises(InputError, match="need at least two elements"):
            maker(1)

    def test_drastic_not_involutive(self):
        s = drastic_chain(4)
        neg = [s.rres[x, 0] for x in range(4)]
        assert any(neg[neg[x]] != x for x in range(4))


class TestStructuralProperties:
    @pytest.mark.parametrize(
        "s",
        [lukasiewicz_chain(4), godel_chain(4),
         boolean_residuation(boolean_cube(2)),
         residuated_structure(*(lambda om: (om[0].lattice, np.array(om[1])))(mo2_subspace_model()))],
        ids=["luk4", "godel4", "bool4", "mo2model"],
    )
    def test_monotone_and_join_preserving(self, s):
        lat = s.lattice
        leq, mul = lat.leq, s.mul
        for x in range(s.n):
            for y in range(s.n):
                assert not s.flags.integral or leq[mul[x, y], lat.meet[x, y]]  # x*y <= x /\ y
                for y2 in range(s.n):
                    if leq[y, y2]:
                        assert leq[mul[x, y], mul[x, y2]]
                        assert leq[mul[y, x], mul[y2, x]]
                for z in range(s.n):
                    j = lat.join[y, z]
                    assert mul[x, j] == lat.join[mul[x, y], mul[x, z]]
                    assert mul[j, x] == lat.join[mul[y, x], mul[z, x]]
            assert mul[x, lat.bottom] == lat.bottom == mul[lat.bottom, x]

    def test_residua_monotone_antitone(self):
        s = lukasiewicz_chain(5)
        leq = s.poset.leq
        for y in range(s.n):
            for y2 in range(s.n):
                if not leq[y, y2]:
                    continue
                for z in range(s.n):
                    # antitone in the divisor, monotone in the target
                    assert leq[s.rres[y2, z], s.rres[y, z]]
                    assert leq[s.lres[z, y2], s.lres[z, y]]
                    assert leq[s.rres[z, y], s.rres[z, y2]]

    @pytest.mark.parametrize("s", [lukasiewicz_chain(4), godel_chain(5)], ids=["luk4", "godel5"])
    def test_commutative_residua_coincide(self, s):
        assert s.flags.commutative
        assert (s.lres == s.rres.T).all()


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 6), data=st.data())
def test_lukasiewicz_residuum_oracle(m, data):
    """rres from adjointness equals the candidate-set maximum everywhere."""
    s = lukasiewicz_chain(m)
    y = data.draw(st.integers(0, m - 1))
    z = data.draw(st.integers(0, m - 1))
    assert s.rres[y, z] == candidate_maximum(s.lattice, s.mul.tolist(), y, z)
    assert s.rres[y, z] == min(m - 1, m - 1 - y + z)
