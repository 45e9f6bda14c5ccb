"""Answers computed apart from girardlab, against which its output is checked.

Nothing here imports girardlab.  Structure files are parsed again, orders
are closed again, and every law is re-evaluated with numpy broadcasts, so
a fault in the program cannot hide behind the same fault in its checker.
Where a closed form exists (Boolean, Lukasiewicz and Godel residua, the
dimensions of generic subspace operations) the check uses it.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Dict, List, Optional

import numpy as np

# OEIS A006966: lattices on n unlabeled elements (Heitzig & Reinhold,
# "Counting finite lattices", Algebra Universalis 2002).
A006966 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078}

RN_LAWS = (
    "mul-commutative", "mul-associative", "unit-law", "join-distributive", "cyclicity-pivot",
    "adjointness", "double-negation", "ortho-is-linear-negation", "orthomodular",
)


class CheckFailed(Exception):
    """The program's output disagrees with the independent computation."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# structure files and finite lattices
# ---------------------------------------------------------------------------

def _closure(n: int, pairs) -> np.ndarray:
    leq = np.eye(n, dtype=bool)
    for i, j in pairs:
        leq[i, j] = True
    while True:
        more = leq | ((leq.astype(np.int64) @ leq.astype(np.int64)) > 0)
        if (more == leq).all():
            return leq
        leq = more


def _bound_table(up: np.ndarray) -> np.ndarray:
    """Least common element of up-rows i and j: the k whose up-set equals
    the common up-set.  Raises CheckFailed when some pair has none."""
    common = up[:, None, :] & up[None, :, :]
    sizes = up.sum(axis=1)
    hit = common & (sizes[None, None, :] == common.sum(axis=2)[:, :, None])
    expect(hit.any(axis=2).all(), "order is not a lattice")
    return hit.argmax(axis=2)


@dataclass(eq=False)
class Lattice:
    """A finite lattice from its order matrix, with its own bound tables."""

    leq: np.ndarray

    @property
    def n(self) -> int:
        return self.leq.shape[0]

    @cached_property
    def join(self) -> np.ndarray:
        return _bound_table(self.leq)

    @cached_property
    def meet(self) -> np.ndarray:
        return _bound_table(self.leq.T)

    @cached_property
    def bottom(self) -> int:
        return int(np.flatnonzero(self.leq.all(axis=1))[0])

    @cached_property
    def top(self) -> int:
        return int(np.flatnonzero(self.leq.all(axis=0))[0])

    @cached_property
    def is_chain(self) -> bool:
        return bool((self.leq | self.leq.T).all())

    @cached_property
    def rank(self) -> np.ndarray:
        """Number of elements strictly below each element."""
        return self.leq.sum(axis=0) - 1

    @cached_property
    def distributive(self) -> bool:
        m, j = self.meet, self.join
        return bool((m[:, j] == j[m[:, :, None], m[:, None, :]]).all())

    @cached_property
    def complements(self) -> np.ndarray:
        return (self.meet == self.bottom) & (self.join == self.top)

    @cached_property
    def complemented(self) -> bool:
        return bool(self.complements.any(axis=1).all())

    @cached_property
    def boolean(self) -> bool:
        return self.distributive and self.complemented

    def complement(self) -> np.ndarray:
        """The complement map of a Boolean lattice (unique there)."""
        expect(self.boolean, "complement map asked of a non-Boolean lattice")
        return self.complements.argmax(axis=1)

    def is_ortholattice(self, f: np.ndarray) -> bool:
        idx = np.arange(self.n)
        return bool(
            (f[f] == idx).all()
            and (self.leq == self.leq[f][:, f].T).all()
            and (self.meet[idx, f] == self.bottom).all()
            and (self.join[idx, f] == self.top).all()
        )

    def is_orthomodular(self, f: np.ndarray) -> bool:
        if not self.is_ortholattice(f):
            return False
        m, j = self.meet, self.join
        x, y = np.nonzero(self.leq)
        return bool((j[x, m[f[x], y]] == y).all())


@dataclass(eq=False)
class Structure:
    """One structure file, read by this module's own parser."""

    labels: List[str]
    lattice: Lattice
    ortho: Optional[np.ndarray] = None
    mul: Optional[np.ndarray] = None
    unit: Optional[int] = None
    dualizing: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> Dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def family(self) -> Optional[str]:
        """'boolean', 'lukasiewicz' or 'godel' when the table is one of
        the three products with a closed-form residuum, else None."""
        lat, t = self.lattice, self.mul
        if t is None:
            return None
        if (t == lat.meet).all():
            if lat.boolean:
                return "boolean"
            if lat.is_chain:
                return "godel"
        if lat.is_chain and (t == lukasiewicz_product(lat)).all():
            return "lukasiewicz"
        return None


def parse_structure(text: str) -> Structure:
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    parts = re.split(r"^\s*([a-z]+):", body, flags=re.M)
    fields = {key: value.strip() for key, value in zip(parts[1::2], parts[2::2])}
    labels = [tok.strip() for tok in fields["elements"].strip("[] \n").split(",")]
    n = len(labels)
    if "covers" in fields:
        leq = _closure(n, json.loads(fields["covers"]))
    else:
        leq = np.zeros((n, n), dtype=bool)
        for i, j in json.loads(fields["leq"]):
            leq[i, j] = True

    def table(key):
        return np.array(json.loads(fields[key]), dtype=np.intp) if key in fields else None

    def scalar(key):
        return int(fields[key]) if key in fields else None

    return Structure(labels, Lattice(leq), table("ortho"), table("mul"), scalar("unit"),
                     scalar("dualizing"))


def serialize_structure(labels, covers, ortho=None, mul=None, unit=None, dualizing=None) -> str:
    """Structure-file text in the documented format."""
    out = [f"elements: [{', '.join(labels)}]",
           "covers: [" + ", ".join(f"[{i},{j}]" for i, j in covers) + "]"]
    if ortho is not None:
        out.append(f"ortho: [{', '.join(str(int(v)) for v in ortho)}]")
    if mul is not None:
        rows = ",\n".join("  [" + ", ".join(str(int(v)) for v in row) + "]" for row in mul)
        out.append(f"mul: [\n{rows}\n]")
    if unit is not None:
        out.append(f"unit: {unit}")
    if dualizing is not None:
        out.append(f"dualizing: {dualizing}")
    return "\n".join(out) + "\n"


def lukasiewicz_product(lat: Lattice) -> np.ndarray:
    """x*y = max(0, x+y-1) on a chain, in ranks."""
    r, top = lat.rank, int(lat.rank.max())
    by_rank = np.argsort(r)
    return by_rank[np.maximum(0, r[:, None] + r[None, :] - top)]


def closed_form_residuum(s: Structure) -> np.ndarray:
    """Right residuum y -> z of a Boolean, Lukasiewicz or Godel table."""
    lat = s.lattice
    if s.family == "boolean":
        return lat.join[lat.complement()[:, None], np.arange(s.n)[None, :]]
    if s.family == "lukasiewicz":
        r, top = lat.rank, int(lat.rank.max())
        return np.argsort(r)[np.minimum(top, top - r[:, None] + r[None, :])]
    if s.family == "godel":
        return np.where(lat.leq, lat.top, np.arange(s.n)[None, :])
    raise CheckFailed("no closed-form residuum for this table")


# ---------------------------------------------------------------------------
# multiplication tables
# ---------------------------------------------------------------------------

def two_sided_units(t: np.ndarray) -> List[int]:
    idx = np.arange(t.shape[0])
    return [e for e in idx if (t[e] == idx).all() and (t[:, e] == idx).all()]


def check_residuated_table(lat: Lattice, t: np.ndarray, unit: int) -> None:
    """Associative, two-sided unit `unit`, zero at the bottom and binary
    joins preserved in each argument.  On a finite lattice these make the
    multiplication preserve every join, hence residuated."""
    n, j, bot = lat.n, lat.join, lat.bottom
    expect(t.shape == (n, n) and t.min() >= 0 and t.max() < n, "table out of range")
    expect((t[t, :] == t[:, t]).all(), "table is not associative")
    expect(two_sided_units(t) == [unit], f"unit {unit} is not the table's only two-sided unit")
    expect((t[bot] == bot).all() and (t[:, bot] == bot).all(), "bottom is not a zero")
    expect((t[:, j] == j[t[:, :, None], t[:, None, :]]).all(), "right argument breaks a join")
    expect((t[j, :] == j[t[:, None, :], t[None, :, :]]).all(), "left argument breaks a join")


def count_boolean_unital_tables(lat: Lattice) -> int:
    """Brute force over every assignment to the atom cells of a Boolean
    lattice.  The rest of the table is the join-extension (each element is
    the join of the atoms below it), which keeps the count exhaustive over
    join-preserving tables; the others are filtered by the law check."""
    expect(lat.boolean, "brute force is written for Boolean lattices")
    atoms = [a for a in range(lat.n) if lat.rank[a] == 1]
    below = [[a for a in atoms if lat.leq[a, x]] for x in range(lat.n)]
    cells = [(a, b) for a in atoms for b in atoms]
    count = 0
    for values in product(range(lat.n), repeat=len(cells)):
        atom_mul = dict(zip(cells, values))
        t = np.full((lat.n, lat.n), lat.bottom, dtype=np.intp)
        for x in range(lat.n):
            for y in range(lat.n):
                for a in below[x]:
                    for b in below[y]:
                        t[x, y] = lat.join[t[x, y], atom_mul[(a, b)]]
        units = two_sided_units(t)
        if len(units) == 1:
            try:
                check_residuated_table(lat, t, units[0])
            except CheckFailed:
                continue
            count += 1
    return count


def boolean_blocks(s: Structure) -> set:
    """Maximal Boolean subalgebras of a small orthomodular lattice, by
    brute force over subsets containing the bounds."""
    lat, f = s.lattice, s.ortho
    inner = [x for x in range(s.n) if x not in (lat.bottom, lat.top)]
    subalgebras = []
    for k in range(len(inner) + 1):
        for chosen in combinations(inner, k):
            members = sorted({lat.bottom, lat.top, *chosen})
            idx = np.array(members)
            closed = set(members)
            if not ({int(v) for v in f[idx]} <= closed
                    and {int(v) for v in lat.meet[np.ix_(idx, idx)].ravel()} <= closed
                    and {int(v) for v in lat.join[np.ix_(idx, idx)].ravel()} <= closed):
                continue
            m, j = lat.meet, lat.join
            x, y, z = np.meshgrid(idx, idx, idx, indexing="ij")
            if (m[x, j[y, z]] == j[m[x, y], m[x, z]]).all():
                subalgebras.append(frozenset(members))
    return {b for b in subalgebras if not any(b < c for c in subalgebras)}


# ---------------------------------------------------------------------------
# subspaces of R^n
# ---------------------------------------------------------------------------

def generic_dimension(op: str, n: int, r: int, s: int) -> int:
    """Dimension of an operation on generic subspaces of dims r and s."""
    return {
        "mul": min(n, r * s),
        "join": min(n, r + s),
        "meet": max(0, r + s - n),
        "ortho": n - r,
        "residuum": n - min(n, r * (n - s)),
    }[op]
