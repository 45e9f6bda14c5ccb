"""Residuated structure on finite posets.

Residua are never postulated: they are derived from the multiplication
table through the adjointness condition

    x*y <= z  iff  x <= rres[y][z]  iff  y <= lres[z][x]

Adjointness says that each candidate set {x : x*y <= z} is the
down-set of rres[y][z], and {y : x*y <= z} that of lres[z][x].  A
greatest member is the member with the largest down-set, so comparing
each set with that member's down-set decides both the residuum and
adjointness in one pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .orders import (
    FiniteLattice, FinitePoset, first_violation, index_slabs, lattice_from_covers,
    least_witness,
)
from .reports import InputError, LawReport, law_fail, law_pass

MAX_CHAIN = 256  # the chains stop at the size of the 8-atom Boolean algebra


class ResiduationError(Exception):
    pass


class NoResiduum(ResiduationError):
    def __init__(self, pair: tuple, kind: str, detail: str):
        self.pair = tuple(pair)
        self.witness = self.pair
        self.kind = kind
        super().__init__(f"{kind} residuum undefined at {self.pair}: {detail}")


class AdjointnessFailure(ResiduationError):
    def __init__(self, witness: tuple):
        self.witness = tuple(witness)
        super().__init__(f"adjointness biconditional fails at {self.witness}")


def as_mul_table(m, n: int) -> np.ndarray:
    """Validate an n x n multiplication table of element indices."""
    t = np.array(m, dtype=np.intp)
    if t.shape != (n, n):
        raise ValueError(f"multiplication table must be {n}x{n}, got {t.shape}")
    if t.min() < 0 or t.max() >= n:
        raise ValueError("multiplication table entry out of range")
    t.flags.writeable = False
    return t


def check_associative(m) -> LawReport:
    """PASS iff (x*y)*z = x*(y*z) for all triples."""
    t = np.asarray(m, dtype=np.intp)
    w = least_witness(lambda s: t.take(t[s], axis=0) != t[s].take(t, axis=1), t.shape[0], 3)
    return law_pass("associativity") if w is None else law_fail("associativity", w)


@dataclass(frozen=True)
class Flags:
    commutative: bool
    idempotent: bool
    unit: Optional[int]
    integral: bool


@dataclass(frozen=True, eq=False)
class ResiduatedStructure:
    """A poset (or lattice) with multiplication and verified residua."""

    poset: FinitePoset
    mul: np.ndarray
    rres: np.ndarray  # rres[y, z] is the right residuum y -> z
    lres: np.ndarray  # lres[z, x] is the left residuum z <- x
    flags: Flags

    @property
    def n(self) -> int:
        return self.poset.n

    def label(self, i: int) -> str:
        return self.poset.label(i)

    @property
    def lattice(self) -> Optional[FiniteLattice]:
        """The carrier when it is a lattice, else None."""
        return self.poset if isinstance(self.poset, FiniteLattice) else None


def derive_residua(order: FinitePoset, mul) -> Tuple[np.ndarray, np.ndarray]:
    """Compute both residua tables from adjointness, or fail loudly.

    Raises NoResiduum when some candidate set is empty or has no maximum,
    and AdjointnessFailure at the least (x, y, z) where both tables exist
    but the triple biconditional fails (multiplication not monotone, say).
    """
    n, leq = order.n, order.leq
    t = as_mul_table(mul, n)
    down = (-leq.sum(axis=0)).argsort(kind="stable")  # largest down-set first
    # candidates as [c, p, q] for p in the slab: right, x with x*y <= z at
    # [x, y, z]; left, y with x*y <= z at [y, z, x]
    rres, right = _residuum(lambda s: leq.take(t[:, s], axis=0), leq, down, "right", (0, 1, 2))
    lres, left = _residuum(lambda s: leq[:, s].take(t.T, axis=0).transpose(0, 2, 1), leq, down,
                           "left", (2, 0, 1))
    if right or left:
        raise AdjointnessFailure(min(right + left))
    return rres, lres


def _residuum(candidates, leq: np.ndarray, down: np.ndarray, kind: str, xyz: tuple):
    """res[p, q] = the greatest c with candidates(s)[c, p, q], for p in
    the slab s, and per slab the least (x, y, z) at which a candidate
    set and the down-set of that c differ (cand.transpose(xyz) is
    indexed [x, y, z]).  Raises NoResiduum at the first pair whose set
    has no greatest member.  `down` lists the elements by decreasing
    down-set size: a set's greatest member is its first member there."""
    n = len(leq)
    res = np.empty((n, n), dtype=np.intp)
    mismatches = []
    for s in index_slabs(n, 3):
        cand = candidates(s)
        ranked = cand.take(down, axis=0)
        first = ranked.argmax(axis=0)
        best = down[first]
        res[s] = best
        below = leq.take(best, axis=1)
        differs = cand != below
        if not differs.any():
            continue
        found = ranked[0] | (first > 0)  # best is a member: argmax is 0 on an empty set
        found &= (cand <= below).all(axis=0)  # and bounds every member
        if not found.all():
            w = first_violation(~found)
            detail = "candidate set has no maximum" if cand[:, w[0], w[1]].any() else "empty candidate set"
            raise NoResiduum((w[0] + s.start, w[1]), kind, detail)
        w = list(first_violation(differs.transpose(xyz)))
        w[xyz.index(1)] += s.start
        mismatches.append(tuple(w))
    res.flags.writeable = False
    return res, mismatches


def classify(order: FinitePoset, mul) -> Flags:
    """Exhaustively scan for commutativity, idempotency, unit, integrality."""
    idx = np.arange(order.n)
    t = np.asarray(mul, dtype=np.intp)
    commutative = bool((t == t.T).all())
    idempotent = bool((t.diagonal() == idx).all())
    units = first_violation((t == idx).all(axis=1) & (t == idx[:, None]).all(axis=0))
    unit = None if units is None else units[0]
    top = first_violation(order.leq.all(axis=0))
    integral = unit is not None and (unit,) == top
    return Flags(commutative, idempotent, unit, integral)


def residuated_structure(order: FinitePoset, mul) -> ResiduatedStructure:
    """Derive residua, classify, and assemble a verified structure.
    derive_residua validates mul, so the table the structure keeps is a
    plain read-only copy."""
    rres, lres = derive_residua(order, mul)
    t = np.array(mul, dtype=np.intp)
    t.flags.writeable = False
    return ResiduatedStructure(order, t, rres, lres, classify(order, t))


def _chain_with_fraction_labels(m: int) -> FiniteLattice:
    if m < 2:
        raise InputError("need at least two elements")
    if m > MAX_CHAIN:
        raise InputError(f"at most {MAX_CHAIN} elements are supported")
    labels = [str(Fraction(k, m - 1)) for k in range(m)]
    return lattice_from_covers([(i, i + 1) for i in range(m - 1)], labels)


def lukasiewicz_chain(m: int) -> ResiduatedStructure:
    """The m-element chain 0, 1/(m-1), ..., 1 under a*b = max(0, a+b-1).

    Arithmetic is exact: index k stands for k/(m-1), so the product of
    indices i and j is max(0, i+j-(m-1)).
    """
    lat = _chain_with_fraction_labels(m)
    mul = np.fromfunction(
        lambda i, j: np.maximum(0, i + j - (m - 1)), (m, m), dtype=np.intp
    )
    return residuated_structure(lat, mul)


def godel_chain(m: int) -> ResiduatedStructure:
    """The m-element chain under a*b = min(a, b)."""
    lat = _chain_with_fraction_labels(m)
    return residuated_structure(lat, lat.meet)

