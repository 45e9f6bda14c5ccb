"""Standard small lattices and ortholattices used throughout the suite."""
from __future__ import annotations

from .orders import FiniteLattice, lattice_from_covers
from .ortho import OrthoLattice
from .reports import InputError


def chain(m: int) -> FiniteLattice:
    """The m-element chain 0 < 1 < ... < m-1."""
    if m < 1:
        raise ValueError("chain needs at least one element")
    return lattice_from_covers([(i, i + 1) for i in range(m - 1)], [str(i) for i in range(m)])


def boolean_cube(k: int) -> FiniteLattice:
    """Powerset of k atoms ordered by inclusion; element i is a bitmask."""
    atoms = "abcdefgh"
    if k < 0:
        raise InputError("need k >= 0 atoms")
    if k > len(atoms):
        raise InputError(f"at most {len(atoms)} atoms are supported")
    n = 1 << k
    labels = []
    for s in range(n):
        name = "".join(atoms[t] for t in range(k) if s >> t & 1)
        labels.append(name or "0")
    if k:
        labels[-1] = "1"
    covers = [(s, s | 1 << t) for s in range(n) for t in range(k) if not s >> t & 1]
    return lattice_from_covers(covers, labels)


def boolean_ortho(k: int) -> OrthoLattice:
    """Boolean cube with set complement as orthocomplement."""
    lat = boolean_cube(k)
    full = lat.n - 1
    return OrthoLattice(lat, tuple(full ^ s for s in range(lat.n)))


def diamond_m3() -> FiniteLattice:
    """M3: bottom, three incomparable atoms, top."""
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return lattice_from_covers(covers, ["0", "a", "b", "c", "1"])


def benzene_o6() -> OrthoLattice:
    """O6: two 2-chains 0<a<b<1 and 0<b'<a'<1 glued at the bounds.

    The standard complementation swaps a with a' and b with b'; it is an
    ortholattice but not orthomodular.
    """
    covers = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
    lat = lattice_from_covers(covers, ["0", "a", "b", "b'", "a'", "1"])
    return OrthoLattice(lat, (5, 4, 3, 2, 1, 0))


def horizontal_sum_mo(k: int) -> OrthoLattice:
    """MOk: k pairwise-incomparable complementary atom pairs plus bounds."""
    if k < 1:
        raise ValueError("need k >= 1 atom pairs")
    n = 2 * k + 2
    top = n - 1
    labels = ["0"]
    for t in range(k):
        labels += [f"{chr(97 + t)}", f"{chr(97 + t)}'"]
    labels.append("1")
    covers = [(0, i) for i in range(1, top)] + [(i, top) for i in range(1, top)]
    lat = lattice_from_covers(covers, labels)
    ortho = [top] + [0] * (n - 2) + [0]
    for t in range(k):
        i, j = 1 + 2 * t, 2 + 2 * t
        ortho[i], ortho[j] = j, i
    return OrthoLattice(lat, tuple(ortho))


def mo2_subspace_model():
    """MO2 with the multiplication inherited from the subspaces of R^2.

    The six subspaces 0, the diagonal line e, the antidiagonal d, the two
    axes and R^2 are closed under the span-of-Hadamard-products operation
    and form a copy of MO2 whose unit e sits at an atom; a unital,
    commutative, non-integral residuated multiplication on an
    orthomodular lattice.  Elements: 0, e, d, x-axis, y-axis, 1.
    """
    lat = lattice_from_covers(
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)],
        ["0", "e", "d", "x", "y", "1"],
    )
    o = OrthoLattice(lat, (5, 2, 1, 4, 3, 0))
    mul = (
        (0, 0, 0, 0, 0, 0),
        (0, 1, 2, 3, 4, 5),
        (0, 2, 1, 3, 4, 5),
        (0, 3, 3, 3, 0, 3),
        (0, 4, 4, 0, 4, 4),
        (0, 5, 5, 3, 4, 5),
    )
    return o, mul
