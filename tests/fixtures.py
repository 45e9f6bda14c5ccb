"""Structures and helpers that only the tests use."""
import numpy as np

from girardlab.orders import FiniteLattice, is_boolean, validate_poset
from girardlab.residuation import ResiduatedStructure, lukasiewicz_chain, residuated_structure
from girardlab.subspaces import Subspace


class NotBoolean(Exception):
    pass


def boolean_residuation(l: FiniteLattice) -> ResiduatedStructure:
    """The canonical residuation of a Boolean algebra: x*y = x /\\ y and
    y -> z = y' \\/ z.  Raises NotBoolean otherwise."""
    report = is_boolean(l)
    if not report.passed:
        raise NotBoolean(report.note or "lattice is not Boolean")
    return residuated_structure(l, l.meet)


def drastic_chain(m: int) -> ResiduatedStructure:
    """The m-element chain under the drastic product: a*b = a /\\ b when
    one factor is 1, else 0.  Residuated but, for m >= 4, not involutive;
    a handy non-example obtained by flattening the middle of a chain."""
    lat = lukasiewicz_chain(m).lattice
    mul = np.zeros((m, m), dtype=np.intp)
    mul[m - 1, :] = np.arange(m)
    mul[:, m - 1] = np.arange(m)
    return residuated_structure(lat, mul)


def discrete_cyclic_group(m: int):
    """Z_m with the discrete (antichain) order: (poset, addition table).

    The order makes x*y <= z mean x+y = z, so the residuum is plain
    subtraction and every element is cyclic and dualizing.  A residuated
    poset that is not a lattice, exercising the order-only code paths.
    """
    poset = validate_poset(np.eye(m, dtype=bool), labels=[str(i) for i in range(m)])
    mul = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
    return poset, mul


def rebased(s: Subspace, rng: np.random.Generator) -> Subspace:
    """Same subspace under a random orthonormal change of basis."""
    if s.dim == 0:
        return s
    q, r = np.linalg.qr(rng.standard_normal((s.dim, s.dim)))
    q = q * np.sign(np.diag(r))
    return Subspace(s.basis @ q, s.complement)
