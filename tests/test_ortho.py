"""Ortholattice axioms, orthomodularity, downsets, compatibility, blocks."""
import pathlib
import sys
from itertools import combinations

import pytest

import girardlab
from girardlab.catalog import benzene_o6, boolean_ortho, diamond_m3, horizontal_sum_mo
from girardlab.orders import is_boolean, compute_lattice, validate_poset
from girardlab.reports import InputError
from girardlab.structfile import build_ortholattice, load
from girardlab.ortho import (
    OrthoLattice,
    blocks,
    check_ortholattice,
    check_orthomodular,
    compatible,
    downset_oml,
    is_orthomodular,
)

import numpy as np

SHIPPED_OMLS = {
    "2^1": boolean_ortho(1),
    "2^2": boolean_ortho(2),
    "2^3": boolean_ortho(3),
    "MO2": horizontal_sum_mo(2),
    "MO3": horizontal_sum_mo(3),
}

STRUCTURES = pathlib.Path(__file__).resolve().parent.parent / "structures"
CHECKED_IN_OMLS = {}  # the checked-in structure files that are orthomodular lattices
for path in sorted(STRUCTURES.glob("*.struct")):
    sf = load(path)
    if sf.ortho is not None and is_orthomodular(build_ortholattice(sf)):
        CHECKED_IN_OMLS[path.name] = build_ortholattice(sf)


def test_package_attribute_is_the_module():
    # the package re-exports no subspace operation, so subspaces.ortho
    # does not shadow this module on it
    assert girardlab.ortho is sys.modules["girardlab.ortho"]


class TestOrtholattice:
    def test_boolean_cube_complement(self):
        o = boolean_ortho(3)
        assert check_ortholattice(o.lattice, o.ortho).passed

    def test_benzene(self):
        o = benzene_o6()
        assert check_ortholattice(o.lattice, o.ortho).passed

    def test_m3_atom_fixing_involution_fails(self):
        lat = diamond_m3()
        report = check_ortholattice(lat, (4, 1, 2, 3, 0))
        assert report.failed
        # an atom meets itself at itself, not at bottom
        x = report.witness[0]
        assert lat.meet[x, x] == x != lat.bottom


class TestOrthomodular:
    def test_boolean_cube_all_three_pass(self):
        reports = check_orthomodular(boolean_ortho(3))
        assert [r.passed for r in reports] == [True, True, True]

    def test_mo2_passes(self):
        assert all(r.passed for r in check_orthomodular(horizontal_sum_mo(2)))

    def test_benzene_fails_with_expected_witness(self):
        o = benzene_o6()
        reports = check_orthomodular(o)
        assert all(r.failed for r in reports)
        a, b = reports[0].witness
        assert (a, b) == (1, 2)
        lat = o.lattice
        # a <= b yet a \/ (a' /\ b) = a because a' /\ b = 0
        assert lat.leq[a, b]
        assert lat.meet[o.ortho[a], b] == lat.bottom
        assert lat.join[a, lat.meet[o.ortho[a], b]] == a != b

    @pytest.mark.parametrize("name", list(SHIPPED_OMLS))
    def test_three_conditions_agree(self, name):
        verdicts = {r.passed for r in check_orthomodular(SHIPPED_OMLS[name])}
        assert len(verdicts) == 1

    def test_three_conditions_agree_on_benzene(self):
        verdicts = {r.passed for r in check_orthomodular(benzene_o6())}
        assert verdicts == {False}


class TestDownset:
    def test_at_top_is_identity(self):
        o = boolean_ortho(2)
        d = downset_oml(o, o.lattice.top)
        assert d.n == o.n
        assert d.ortho == o.ortho
        assert (d.lattice.meet == o.lattice.meet).all()

    def test_at_bottom_is_singleton(self):
        o = boolean_ortho(2)
        d = downset_oml(o, o.lattice.bottom)
        assert d.n == 1 and d.ortho == (0,)

    def test_mo2_at_atom_is_two_chain_with_swap(self):
        o = horizontal_sum_mo(2)
        d = downset_oml(o, 1)
        assert d.n == 2
        assert d.ortho == (1, 0)
        assert check_ortholattice(d.lattice, d.ortho).passed

    def test_requires_orthomodular(self):
        with pytest.raises(InputError):
            downset_oml(benzene_o6(), 1)

    @pytest.mark.parametrize("name", list(SHIPPED_OMLS))
    def test_restriction_preserves_order_and_bounds(self, name):
        o = SHIPPED_OMLS[name]
        lat = o.lattice
        for a in range(o.n):
            carrier = [u for u in range(o.n) if lat.leq[u, a]]
            d = downset_oml(o, a)
            for ii, u in enumerate(carrier):
                for jj, v in enumerate(carrier):
                    assert d.lattice.leq[ii, jj] == lat.leq[u, v]
                    assert carrier[d.lattice.meet[ii, jj]] == lat.meet[u, v]
                    assert carrier[d.lattice.join[ii, jj]] == lat.join[u, v]

    @pytest.mark.parametrize("o", [horizontal_sum_mo(k) for k in (2, 3, 4)]
                             + list(CHECKED_IN_OMLS.values()),
                             ids=["MO2", "MO3", "MO4"] + list(CHECKED_IN_OMLS))
    def test_matches_validated_build(self, o):
        # the down-set's order is built without validate_poset; the
        # validated build of the same sub-order gives the same lattice
        lat = o.lattice
        for a in range(o.n):
            carrier = [u for u in range(o.n) if lat.leq[u, a]]
            ref = compute_lattice(validate_poset(lat.leq[np.ix_(carrier, carrier)],
                                                 [lat.label(u) for u in carrier]))
            got = downset_oml(o, a).lattice
            assert not got.leq.flags.writeable
            for field in ("leq", "meet", "join"):
                assert np.array_equal(getattr(got, field), getattr(ref, field)), (a, field)
            assert (got.n, got.bottom, got.top, got.labels) == (ref.n, ref.bottom, ref.top,
                                                                 ref.labels), a


class TestCompatible:
    def test_top_compatible_with_everything(self):
        o = horizontal_sum_mo(2)
        for x in range(o.n):
            assert compatible(o, x, o.lattice.top)

    def test_mo2_distinct_pairs_incompatible(self):
        o = horizontal_sum_mo(2)
        assert not compatible(o, 1, 3)  # a vs b
        lat = o.lattice
        assert lat.join[lat.meet[1, 3], lat.meet[1, o.ortho[3]]] == lat.bottom

    def test_boolean_all_compatible(self):
        o = boolean_ortho(3)
        for x in range(o.n):
            for y in range(o.n):
                assert compatible(o, x, y)

    @pytest.mark.parametrize("name", list(SHIPPED_OMLS))
    def test_symmetric_on_omls(self, name):
        o = SHIPPED_OMLS[name]
        for x in range(o.n):
            for y in range(o.n):
                assert compatible(o, x, y) == compatible(o, y, x)


def brute_force_blocks(o: OrthoLattice):
    """Independent oracle: scan all subsets for maximal Boolean subalgebras."""
    lat, f = o.lattice, o.ortho
    candidates = []
    for size in range(1, o.n + 1):
        for sub in combinations(range(o.n), size):
            s = set(sub)
            if not {lat.bottom, lat.top} <= s:
                continue
            if any(f[x] not in s for x in s):
                continue
            if any(lat.meet[x, y] not in s or lat.join[x, y] not in s for x in s for y in s):
                continue
            members = sorted(s)
            sub_leq = lat.leq[np.ix_(members, members)]
            if is_boolean(compute_lattice(validate_poset(sub_leq))).passed:
                candidates.append(tuple(members))
    return sorted(b for b in candidates if not any(set(b) < set(c) for c in candidates))


def product(a: OrthoLattice, b: OrthoLattice) -> OrthoLattice:
    """Direct product, with (i, j) at index i * b.n + j.  Its blocks are
    the products of blocks, which overlap in more than 0 and 1."""
    lat = compute_lattice(validate_poset(np.kron(a.lattice.leq, b.lattice.leq)))
    return OrthoLattice(lat, tuple(a.ortho[i] * b.n + b.ortho[j]
                                   for i in range(a.n) for j in range(b.n)))


BLOCK_CASES = {
    **SHIPPED_OMLS,
    "2xMO2": product(boolean_ortho(1), horizontal_sum_mo(2)),
    "2xMO3": product(boolean_ortho(1), horizontal_sum_mo(3)),
}


class TestBlocks:
    def test_boolean_cube_single_block(self):
        o = boolean_ortho(3)
        assert blocks(o) == [tuple(range(8))]

    def test_mo2(self):
        assert blocks(horizontal_sum_mo(2)) == [(0, 1, 2, 5), (0, 3, 4, 5)]

    def test_mo3(self):
        assert blocks(horizontal_sum_mo(3)) == [(0, 1, 2, 7), (0, 3, 4, 7), (0, 5, 6, 7)]

    @pytest.mark.parametrize("name", list(BLOCK_CASES))
    def test_matches_brute_force(self, name):
        o = BLOCK_CASES[name]
        assert blocks(o) == brute_force_blocks(o)

    @pytest.mark.parametrize("name", list(SHIPPED_OMLS))
    def test_cover_and_intersections(self, name):
        o = SHIPPED_OMLS[name]
        found = blocks(o)
        covered = set()
        for b in found:
            covered.update(b)
        assert covered == set(range(o.n))
        lat = o.lattice
        for b1, b2 in combinations(found, 2):
            common = sorted(set(b1) & set(b2))
            assert lat.bottom in common and lat.top in common
            sub_leq = lat.leq[np.ix_(common, common)]
            assert is_boolean(compute_lattice(validate_poset(sub_leq))).passed

    def test_requires_orthomodular(self):
        with pytest.raises(InputError):
            blocks(benzene_o6())

    @pytest.mark.parametrize("name, clique", [("2^2", 0b0011), ("MO2", 0b111111)],
                             ids=["not-closed", "not-boolean"])
    def test_wrong_candidate_raises(self, monkeypatch, name, clique):
        # {0, 1} in 2^2 misses 1's complement; all of MO2 is closed but not Boolean
        monkeypatch.setattr(sys.modules[blocks.__module__], "_maximal_cliques", lambda adj: [clique])
        with pytest.raises(RuntimeError, match="is not a Boolean subalgebra"):
            blocks(SHIPPED_OMLS[name])

    def test_not_orthomodular_check(self):
        assert not is_orthomodular(benzene_o6())
        assert is_orthomodular(horizontal_sum_mo(2))
