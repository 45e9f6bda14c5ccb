"""Posets, lattices, structural predicates, inversions, covers."""
import itertools

import numpy as np
import pytest
from reference_search import join_irreducibles

from girardlab.catalog import boolean_cube, chain, diamond_m3, horizontal_sum_mo
from girardlab.orders import (
    NotALattice,
    NotBounded,
    PosetViolation,
    check_inversion,
    closure_from_covers,
    compute_lattice,
    enumerate_inversions,
    hasse_covers,
    is_boolean,
    is_complemented,
    is_distributive,
    validate_poset,
)
from girardlab.reports import InputError
from girardlab.search import enumerate_lattices
from girardlab.structfile import build_lattice, load


def brute_force_poset_axioms(leq):
    """Independent oracle: check the three axioms by raw loops."""
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            return False
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return False
    return True


def brute_force_bounds(leq, i, j):
    """Independent oracle for glb/lub of a pair, or None."""
    n = len(leq)
    lowers = [k for k in range(n) if leq[k][i] and leq[k][j]]
    glb = [g for g in lowers if all(leq[k][g] for k in lowers)]
    uppers = [k for k in range(n) if leq[i][k] and leq[j][k]]
    lub = [u for u in uppers if all(leq[u][k] for k in uppers)]
    return (glb[0] if glb else None), (lub[0] if lub else None)


class TestValidatePoset:
    def test_singleton(self):
        p = validate_poset([[True]])
        assert p.n == 1

    def test_antisymmetry_violation(self):
        rel = [[True, True], [True, True]]
        with pytest.raises(PosetViolation) as exc:
            validate_poset(rel)
        assert exc.value.axiom == "antisymmetry"
        assert exc.value.witness == (0, 1)

    def test_reflexivity_violation(self):
        with pytest.raises(PosetViolation) as exc:
            validate_poset([[True, False], [False, False]])
        assert exc.value.axiom == "reflexivity"
        assert exc.value.witness == (1,)

    def test_transitivity_violation(self):
        rel = np.eye(3, dtype=bool)
        rel[0, 1] = rel[1, 2] = True
        with pytest.raises(PosetViolation) as exc:
            validate_poset(rel)
        assert exc.value.axiom == "transitivity"
        assert exc.value.witness == (0, 1, 2)

    def test_m3_relation_valid(self):
        rel = closure_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        assert brute_force_poset_axioms(rel.tolist())
        p = validate_poset(rel)
        assert p.n == 5

    def test_witness_replays(self):
        rel = [[True, True], [True, True]]
        with pytest.raises(PosetViolation) as exc:
            validate_poset(rel)
        i, j = exc.value.witness
        assert rel[i][j] and rel[j][i] and i != j


class TestComputeLattice:
    def test_two_chain(self):
        lat = compute_lattice(validate_poset([[True, True], [False, True]]))
        assert lat.meet.tolist() == [[0, 0], [0, 1]]
        assert lat.join.tolist() == [[0, 1], [1, 1]]
        assert (lat.bottom, lat.top) == (0, 1)

    def test_m3_tables_match_brute_force(self):
        lat = diamond_m3()
        leq = lat.leq.tolist()
        for i in range(5):
            for j in range(5):
                glb, lub = brute_force_bounds(leq, i, j)
                assert lat.meet[i, j] == glb
                assert lat.join[i, j] == lub
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            assert lat.meet[a, b] == lat.bottom
            assert lat.join[a, b] == lat.top

    def test_fence_not_bounded(self):
        rel = closure_from_covers(4, [(0, 1), (2, 1), (2, 3)])
        with pytest.raises((NotBounded, NotALattice)):
            compute_lattice(validate_poset(rel))

    def test_lattice_equational_laws(self, structures_dir):
        # commutative, associative, idempotent, absorptive on accepted lattices
        pentagon = build_lattice(load(structures_dir / "n5.struct"))
        for lat in (chain(4), boolean_cube(3), diamond_m3(), pentagon):
            m, j, n = lat.meet, lat.join, lat.n
            for x in range(n):
                assert m[x, x] == x and j[x, x] == x
                for y in range(n):
                    assert m[x, y] == m[y, x] and j[x, y] == j[y, x]
                    assert m[x, j[x, y]] == x and j[x, m[x, y]] == x
                    for z in range(n):
                        assert m[m[x, y], z] == m[x, m[y, z]]
                        assert j[j[x, y], z] == j[x, j[y, z]]


class TestPredicates:
    def test_distributive_boolean(self):
        assert is_distributive(boolean_cube(2)).passed

    def test_m3_distributivity_witness_is_atoms(self):
        report = is_distributive(diamond_m3())
        assert report.failed
        x, y, z = report.witness
        lat = diamond_m3()
        # replay: the witness violates the law it reports
        assert lat.meet[x, lat.join[y, z]] != lat.join[lat.meet[x, y], lat.meet[x, z]]
        assert {x, y, z} == {1, 2, 3}

    def test_n5_not_distributive(self, structures_dir):
        assert is_distributive(build_lattice(load(structures_dir / "n5.struct"))).failed

    def test_complemented_cube_unique(self):
        lat = boolean_cube(3)
        report, comps = is_complemented(lat)
        assert report.passed
        for x in range(lat.n):
            options = [
                y for y in range(lat.n)
                if lat.meet[x, y] == lat.bottom and lat.join[x, y] == lat.top
            ]
            assert options == [comps[x]]

    def test_complemented_m3_tie_break(self):
        report, comps = is_complemented(diamond_m3())
        assert report.passed
        # atoms have two complements; the least index is reported
        assert comps == (4, 2, 1, 1, 0)

    def test_three_chain_not_complemented(self):
        report, comps = is_complemented(chain(3))
        assert report.failed and comps is None
        assert report.witness == (1,)

    def test_boolean(self):
        assert is_boolean(boolean_cube(2)).passed
        m3 = is_boolean(diamond_m3())
        assert m3.failed and m3.note == "not distributive"
        c3 = is_boolean(chain(3))
        assert c3.failed and c3.note == "not complemented"

    def test_boolean_complement_table_is_inversion(self):
        for k in (1, 2, 3):
            lat = boolean_cube(k)
            assert is_boolean(lat).passed
            _, comps = is_complemented(lat)
            assert check_inversion(lat, comps).passed


class TestInversion:
    def test_identity_on_antichain(self):
        p = validate_poset(np.eye(3, dtype=bool))
        assert check_inversion(p, (0, 1, 2)).passed

    def test_boolean_complement(self):
        lat = boolean_cube(2)
        assert check_inversion(lat, (3, 2, 1, 0)).passed

    def test_three_chain_flip(self):
        p = chain(3)
        assert check_inversion(p, (2, 1, 0)).passed
        report = check_inversion(p, (1, 2, 0))
        assert report.failed and report.note == "not involutive"

    def test_order_preserving_map_fails_with_replayable_witness(self):
        p = chain(3)
        report = check_inversion(p, (0, 1, 2))
        assert report.failed and report.note == "not order-reversing"
        i, j = report.witness
        assert p.leq[i, j] != p.leq[j, i]

    def test_out_of_range_map_is_an_input_error(self):
        with pytest.raises(InputError, match="map value 5 at 2 out of range"):
            check_inversion(chain(3), (0, 1, 5))

    @pytest.mark.parametrize("f, message", [
        ((2.7, 1, 0), "map value 2.7 at 0 not an integer"),
        (("2", "1", "0"), "map value '2' at 0 not an integer"),
        ((2, 1.0, 0), "map value 1.0 at 1 not an integer"),
        (np.array([2.0, 1.0, 0.0]), "map value np.float64(2.0) at 0 not an integer"),
    ], ids=["float", "string", "integral-float", "float-array"])
    def test_entries_that_are_not_integers_are_input_errors(self, f, message):
        # each would pass truncated to the flip (2, 1, 0)
        with pytest.raises(InputError) as exc:
            check_inversion(chain(3), f)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", [tuple, list, np.array, lambda f: np.array(f, dtype=np.uint8)],
                             ids=["tuple", "list", "int64", "uint8"])
    @pytest.mark.parametrize("f", [(2, 1, 0), (1, 2, 0), (0, 1, 2)])
    def test_integer_maps_give_the_same_report(self, kind, f):
        assert check_inversion(chain(3), kind(f)) == check_inversion(chain(3), f)

    def test_enumerate_inversions_chain(self):
        assert enumerate_inversions(chain(4)) == [(3, 2, 1, 0)]

    def test_enumerate_inversions_contains_complement(self):
        lat = boolean_cube(3)
        _, comps = is_complemented(lat)
        found = enumerate_inversions(lat)
        assert comps in found
        for f in found:
            assert check_inversion(lat, f).passed

    def test_enumerate_inversions_matches_brute_force_to_seven(self):
        # every permutation that is involutive and order-reversing, in the
        # lexicographic order itertools.permutations gives, on every
        # lattice of at most 7 elements and on MO3
        for lat in enumerate_lattices(7).lattices + [horizontal_sum_mo(3).lattice]:
            perms = np.array(list(itertools.permutations(range(lat.n))))
            rows = np.arange(len(perms))[:, None]
            involutive = (perms[rows, perms] == np.arange(lat.n)).all(axis=1)
            reversing = (lat.leq[perms[:, None, :], perms[:, :, None]] == lat.leq).all(axis=(1, 2))
            expected = [tuple(p) for p in perms[involutive & reversing].tolist()]
            assert enumerate_inversions(lat) == expected, lat.leq.tolist()


class TestCovers:
    def test_two_chain(self):
        assert hasse_covers(chain(2)) == [(0, 1)]

    def test_square(self):
        assert len(hasse_covers(boolean_cube(2))) == 4

    def test_m3(self):
        covers = hasse_covers(diamond_m3())
        assert len(covers) == 6
        # definition replay: no intermediate element within any cover
        lat = diamond_m3()
        for i, j in covers:
            assert lat.leq[i, j] and i != j
            for k in range(lat.n):
                if k not in (i, j):
                    assert not (lat.leq[i, k] and lat.leq[k, j])

    def test_join_irreducibles_chain_and_cube(self):
        assert join_irreducibles(chain(4)) == [1, 2, 3]
        assert join_irreducibles(boolean_cube(3)) == [1, 2, 4]
