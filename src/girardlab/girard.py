"""Cyclic dualizing elements, linear negation, and quantale law checks.

A structure is Girard when some element d is both cyclic and dualizing;
the induced linear negation x -> d is then an inversion and the unit is
the negation of d.  Three equivalent recognitions of this situation are
implemented as independent deciders so their agreement can be verified
exhaustively on every instance rather than taken on faith.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .orders import check_inversion, first_violation, index_slabs, is_boolean, least_witness
from .ortho import OrthoLattice, blocks, compatible, downset_oml, is_orthomodular
from .reports import InputError, LawReport, law_fail, law_pass, law_skip
from .residuation import ResiduatedStructure, check_associative
from . import orders


@dataclass(frozen=True, eq=False)
class GirardCertificate:
    """A cyclic dualizing element together with its induced data."""

    d: int
    neg: tuple  # x -> d, verified to be an inversion
    e: int      # neg(d), verified to be a unit


def is_cyclic(s: ResiduatedStructure, d: int) -> LawReport:
    """PASS iff x*y <= d exactly when y*x <= d, for all pairs."""
    below = s.poset.leq[s.mul, d]  # below[x, y]: x*y <= d
    w = first_violation(below != below.T)
    if w is not None:
        return law_fail("cyclic-element", w, f"d={d}")
    return law_pass("cyclic-element", f"d={d}")


def is_dualizing(s: ResiduatedStructure, d: int) -> LawReport:
    """PASS iff d <- (x -> d) = x = (d <- x) -> d for all x."""
    rres, lres, x = s.rres, s.lres, np.arange(s.n)
    w = first_violation((lres[d, rres[x, d]] != x) | (rres[lres[d, x], d] != x))
    if w is not None:
        return law_fail("dualizing-element", w, f"d={d}")
    return law_pass("dualizing-element", f"d={d}")


def _cyclic_dualizing(s: ResiduatedStructure) -> np.ndarray:
    """The cyclic dualizing elements d, ascending, in one pass: two n^2
    gathers give d <- (x -> d) and (d <- x) -> d for all (x, d), then
    leq[mul[slab]] against leq[mul.T[slab]] decides cyclicity at the
    dualizing d only.  Agrees with is_cyclic and is_dualizing."""
    rres, lres, mul, idx = s.rres, s.lres, s.mul, np.arange(s.n)
    x = idx[:, None]
    cand = np.flatnonzero(((lres[idx, rres] == x) & (rres[lres.T, idx] == x)).all(axis=0))
    below = s.poset.leq[:, cand]  # below[w, c]: w <= cand[c]
    cyclic = np.ones(len(cand), dtype=bool)
    for r in index_slabs(s.n, 3):
        if not cyclic.any():
            break
        cyclic &= (below.take(mul[r], axis=0) == below.take(mul.T[r], axis=0)).all(axis=(0, 1))
    return cand[cyclic]


def find_cyclic_dualizing(s: ResiduatedStructure) -> List[GirardCertificate]:
    """Certify each cyclic dualizing element, found in one pass over all
    elements (_cyclic_dualizing).

    Every certificate is fully verified: the negation is an inversion,
    e = neg(d) is a unit, and both residua agree with negation of the
    product.  These are consequences of the definitions, so a violation
    indicates a broken table and raises instead of certifying.
    """
    out = []
    mul, rres, lres, idx = s.mul, s.rres, s.lres, np.arange(s.n)
    for d in _cyclic_dualizing(s).tolist():
        neg = rres[:, d]
        w = first_violation(lres[d] != neg)
        if w is not None:
            raise RuntimeError(f"cyclic d={d} with diverging one-sided negations at {w[0]}")
        if check_inversion(s.poset, neg).failed:
            raise RuntimeError(f"negation induced by d={d} is not an inversion")
        e = int(neg[d])
        w = first_violation((mul[e] != idx) | (mul[:, e] != idx))
        if w is not None:
            raise RuntimeError(f"neg(d)={e} fails the unit law at {w[0]}")
        w = least_witness(lambda r: (rres[r] != neg[mul[r][:, neg]])
                          | (lres[:, r].T != neg[mul[neg, r].T]), s.n, 2)
        if w is not None:
            raise RuntimeError(f"residuum/negation identity fails at ({w[0]},{w[1]})")
        out.append(GirardCertificate(d, tuple(neg.tolist()), e))
    return out


@dataclass(frozen=True)
class GirardEquivalenceReport:
    """Verdicts of the three independent Girard recognitions."""

    has_cyclic_dualizer: bool
    has_negation_by_residuation: bool
    has_exchange_inversion: bool
    agreement: LawReport
    # decider (1)'s certificates, for callers that print or check them;
    # reports compare and print by their verdicts
    certificates: Tuple[GirardCertificate, ...] = field(compare=False, repr=False)


def _candidate_inversions(s: ResiduatedStructure, inversion):
    """The supplied inversion, or else every residuum map d <- x and
    x -> d, over all d, that is an inversion.  These hold every
    inversion that deciders (2) and (3) of girard_equivalences accept:
    in (2), f is x -> f(e) by definition; in (3), the exchange law at
    x = e reads t <= f(y) iff y*t <= f(e), so f(y) is the greatest t
    with y*t <= f(e), which is f(e) <- y.  The rows alone would do when
    lres is the residuum of mul, since f in (2) is also f(e) <- x; the
    columns keep (3), which reads only mul, exact when a cell of lres is
    wrong."""
    if inversion is not None:
        inv = orders.as_order_map(inversion, s.n)
        if check_inversion(s.poset, inv).failed:
            raise InputError("supplied map is not an inversion of the carrier order")
        return [inv]
    maps = [f for d in range(s.n) for f in (s.rres[:, d].tolist(), s.lres[d].tolist())]
    return [f for f in dict.fromkeys(map(tuple, maps)) if check_inversion(s.poset, f).passed]


def _exchange_witness(s: ResiduatedStructure, f):
    """Least (t, x, y) where the exchange law t*x <= f(y) iff y*t <= f(x)
    fails for the map f, or None."""
    below, mul = s.poset.leq[:, np.asarray(f)], s.mul  # below[w, y]: w <= f(y)
    return least_witness(lambda r: below.take(mul[r], axis=0)
                         != below.take(mul.T[r], axis=0).transpose(0, 2, 1), s.n, 3)


def girard_equivalences(s: ResiduatedStructure, inversion=None) -> GirardEquivalenceReport:
    """Run the three Girard recognitions independently and compare.

    (1) some element is cyclic and dualizing; (2) some inversion f equals
    x -> f(e) = f(e) <- x throughout; (3) some inversion f satisfies the
    exchange law t*x <= f(y) iff y*t <= f(x).  On unital residuated
    structures the three agree; the report carries the verdicts plus an
    agreement law so disagreement is loud.  Without a supplied inversion,
    (2) and (3) try the residuum maps that are inversions, which is
    exhaustive on any carrier (see _candidate_inversions); with one, they
    try it alone.  The report keeps the certificates of (1), so a caller
    that checks them scans the elements no second time.
    """
    e = s.flags.unit
    if e is None:
        raise InputError("agreement check needs a unital structure")
    inversions = [np.array(f) for f in _candidate_inversions(s, inversion)]
    rres, lres = s.rres, s.lres
    certs = tuple(find_cyclic_dualizing(s))
    d1 = bool(certs)
    d2 = any(((f == rres[:, f[e]]) & (f == lres[f[e]])).all() for f in inversions)
    d3 = any(_exchange_witness(s, f) is None for f in inversions)

    note = f"cyclic-dualizer={d1} negation-residuation={d2} exchange={d3}"
    if d1 == d2 == d3:
        agreement = law_pass("girard-recognition-agreement", note)
    else:
        agreement = law_fail("girard-recognition-agreement", (int(d1), int(d2), int(d3)), note)
    return GirardEquivalenceReport(d1, d2, d3, agreement, certs)


def check_dualizer_join_formula(s: ResiduatedStructure, cert: GirardCertificate,
                                certs: Sequence[GirardCertificate]) -> LawReport:
    """The dualizer is the join of all x * neg(x), and is unique.

    Checks every x * neg(x) <= d and neg(x) * x <= d, that the join of
    the products equals d exactly, and that no other element is cyclic
    and dualizing with the same induced negation.  certs is what
    find_cyclic_dualizing(s) returned.
    """
    if s.lattice is None:
        return law_skip("dualizer-join-formula", "needs a lattice for joins")
    leq, mul, neg, d = s.lattice.leq, s.mul, np.array(cert.neg), cert.d
    idx = np.arange(s.n)
    p = mul[idx, neg]  # the self-products x * neg(x)
    w = first_violation(~leq[p, d] | ~leq[mul[neg, idx], d])
    if w is not None:
        return law_fail("dualizer-join-formula", w, "self-product escapes d")
    upper = leq[p].all(axis=0)  # common upper bounds of the self-products
    acc = int((upper & leq[:, upper].all(axis=1)).argmax())  # their least one
    if acc != d:
        return law_fail("dualizer-join-formula", (acc,), f"join of self-products is {acc}, not d={d}")
    for other in certs:
        if other.d != d and other.neg == cert.neg:
            return law_fail("dualizer-join-formula", (other.d,), "second dualizer with same negation")
    return law_pass("dualizer-join-formula", f"d={d}")


def check_boolean_idempotent_criterion(s: ResiduatedStructure,
                                       certs: Sequence[GirardCertificate]) -> LawReport:
    """Instance-level biconditional: the lattice is Boolean exactly when
    the structure is idempotent with a cyclic dualizing element at the
    bottom; on the Boolean side the product must be the meet.  certs is
    what find_cyclic_dualizing(s) returned."""
    if s.lattice is None:
        return law_skip("boolean-iff-idempotent-bottom-dualizer", "needs a lattice")
    if not certs:
        return law_skip("boolean-iff-idempotent-bottom-dualizer", "structure is not Girard")
    lhs = is_boolean(s.lattice).passed
    rhs = s.flags.idempotent and any(c.d == s.lattice.bottom for c in certs)
    if lhs != rhs:
        return law_fail(
            "boolean-iff-idempotent-bottom-dualizer",
            (int(lhs), int(rhs)),
            "sides of the biconditional disagree",
        )
    bad = first_violation(s.mul != s.lattice.meet)
    if lhs and bad is not None:
        return law_fail("boolean-iff-idempotent-bottom-dualizer", bad, "Boolean but product is not meet")
    return law_pass("boolean-iff-idempotent-bottom-dualizer", f"both sides {lhs}")


def check_quantale(l, m) -> LawReport:
    """Associativity, distribution over binary joins, and the zero law.

    On a finite lattice these imply distribution over arbitrary joins,
    which is the defining property of a quantale.
    """
    t = np.asarray(m, dtype=np.intp)
    assoc = check_associative(t)
    if assoc.failed:
        return law_fail("quantale", assoc.witness, "multiplication not associative")
    bottom = l.bottom
    w = first_violation((t[:, bottom] != bottom) | (t[bottom] != bottom))
    if w is not None:
        return law_fail("quantale", w, "zero law fails")
    join = l.join
    w = least_witness(lambda s: orders.distribution_failures(t, join, s)
                      | orders.distribution_failures(t.T, join, s), l.n, 3)
    if w is None:
        return law_pass("quantale")
    x, a, b = w
    if t[x, join[a, b]] != join[t[x, a], t[x, b]]:
        return law_fail("quantale", w, "join distribution fails on the right")
    return law_fail("quantale", (a, b, x), "join distribution fails on the left")


def check_unit_downset_boolean(o: OrthoLattice, s: ResiduatedStructure) -> LawReport:
    """On a unital residuated orthomodular lattice, the unit's downset is
    Boolean, pairwise compatible in the ambient lattice, and together
    with the upset of the unit's orthocomplement sits inside one block.

    Hypothesis failures yield SKIPPED, not FAIL."""
    law = "unit-downset-boolean-block"
    if s.flags.unit is None:
        return law_skip(law, "structure has no unit")
    if o.n != s.n:
        raise ValueError("carrier size mismatch")
    if not is_orthomodular(o):
        return law_skip(law, "carrier is not orthomodular")
    e = s.flags.unit
    down = downset_oml(o, e)
    if not is_boolean(down.lattice).passed:
        return law_fail(law, (e,), "downset of the unit is not Boolean")
    members = np.flatnonzero(o.lattice.leq[:, e])
    w = first_violation(~compatible(o, members[:, None], members))
    if w is not None:
        return law_fail(law, (int(members[w[0]]), int(members[w[1]])),
                        "unit-downset pair incompatible in the ambient lattice")
    target = set(members.tolist()) | set(np.flatnonzero(o.lattice.leq[o.ortho[e]]).tolist())
    for b in blocks(o):
        if target <= set(b):
            return law_pass(law, f"e={e}, contained in block {b}")
    return law_fail(law, tuple(sorted(target)), "no block contains the downset and co-upset")
