"""The lattice of subspaces of R^n as a commutative quantale, numerically.

A subspace is held as an orthonormal basis (n x r matrix); equality and
containment are decided through orthogonal projectors, never through the
bases themselves, which are non-canonical.  The quantale product of two
subspaces is the span of the componentwise (Hadamard) products of their
basis vectors; bilinearity makes the result independent of the bases
chosen.  The unit is the line through (1, ..., 1) and the dualizing
element is its orthogonal complement, the hyperplane of coordinate-sum
zero.  verify_quantale_laws drives seeded random trials through every
law family that makes this an orthomodular commutative Girard structure
whose orthocomplement is the linear negation.

Numerical policy: ranks are decided by singular values at a relative
cutoff tau_rank, and subspace equality by projector Frobenius distance
at tau_eq (default 1e-8 * sqrt(n)).  Both live in QuantaleContext; the
dimension is capped because the product of an r-dimensional and an
s-dimensional subspace spans r*s candidate vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .reports import LawReport, law_fail, law_pass

MAX_DIM = 64


class DimensionMismatch(Exception):
    pass


@dataclass(frozen=True)
class QuantaleContext:
    """Ambient dimension plus the numerical tolerance policy."""

    n: int
    tau_rank: float = 1e-9
    tau_eq: Optional[float] = None

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}")
        if self.tau_eq is None:
            object.__setattr__(self, "tau_eq", 1e-8 * math.sqrt(self.n))
        if not (0 < self.tau_rank < 1 and 0 < self.tau_eq < 1):
            raise ValueError("tolerances must lie strictly between 0 and 1")


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of R^n, carried by an orthonormal n x r basis."""

    basis: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


def _check_same_ambient(ctx: QuantaleContext, *spaces: Subspace):
    for s in spaces:
        if s.n != ctx.n:
            raise DimensionMismatch(f"subspace lives in R^{s.n}, context is R^{ctx.n}")


def _orthonormal_range(a: np.ndarray, tau_rank: float) -> np.ndarray:
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    u, sigma, _ = np.linalg.svd(a, full_matrices=False)
    if sigma.size == 0 or sigma[0] <= 0.0:
        return np.zeros((a.shape[0], 0))
    r = int(np.count_nonzero(sigma >= tau_rank * sigma[0]))
    return u[:, :r].copy()


def span(ctx: QuantaleContext, vectors: Sequence[Sequence[float]]) -> Subspace:
    """Orthonormal basis of the span of the given n-vectors.

    Rank is the number of singular values at least tau_rank times the
    largest; an empty list (or all-zero vectors) gives the zero subspace.
    """
    rows = [np.asarray(v, dtype=float) for v in vectors]
    for v in rows:
        if v.shape != (ctx.n,):
            raise DimensionMismatch(f"expected vectors of length {ctx.n}")
    a = np.stack(rows, axis=1) if rows else np.zeros((ctx.n, 0))
    if not np.isfinite(a).all():
        raise ValueError("vector coordinates must be finite")
    return Subspace(_orthonormal_range(a, ctx.tau_rank))


def zero(ctx: QuantaleContext) -> Subspace:
    return Subspace(np.zeros((ctx.n, 0)))


def full(ctx: QuantaleContext) -> Subspace:
    return Subspace(np.eye(ctx.n))


def leq(ctx: QuantaleContext, s: Subspace, t: Subspace) -> bool:
    """Containment: the residual of s's basis outside t is below tau_eq."""
    _check_same_ambient(ctx, s, t)
    resid = s.basis - t.basis @ (t.basis.T @ s.basis)
    return float(np.linalg.norm(resid)) <= ctx.tau_eq


def equal(ctx: QuantaleContext, s: Subspace, t: Subspace) -> bool:
    """Projector Frobenius distance below tau_eq."""
    _check_same_ambient(ctx, s, t)
    return float(np.linalg.norm(s.projector() - t.projector())) <= ctx.tau_eq


def ortho(ctx: QuantaleContext, s: Subspace) -> Subspace:
    """Orthogonal complement; dimensions always add up to n exactly."""
    _check_same_ambient(ctx, s)
    r = s.dim
    if r == 0:
        return full(ctx)
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(u[:, r:].copy())


def join(ctx: QuantaleContext, s: Subspace, t: Subspace) -> Subspace:
    """Smallest subspace containing both: span of the stacked bases."""
    _check_same_ambient(ctx, s, t)
    return Subspace(_orthonormal_range(np.hstack([s.basis, t.basis]), ctx.tau_rank))


def meet(ctx: QuantaleContext, s: Subspace, t: Subspace) -> Subspace:
    """Intersection, computed as the complement of the join of complements."""
    return ortho(ctx, join(ctx, ortho(ctx, s), ortho(ctx, t)))


def mul(ctx: QuantaleContext, s: Subspace, t: Subspace) -> Subspace:
    """Quantale product: span of all Hadamard products of basis columns."""
    _check_same_ambient(ctx, s, t)
    if s.dim == 0 or t.dim == 0:
        return zero(ctx)
    products = (s.basis[:, :, None] * t.basis[:, None, :]).reshape(ctx.n, -1)
    return Subspace(_orthonormal_range(products, ctx.tau_rank))


def unit(ctx: QuantaleContext) -> Subspace:
    """The line through (1, ..., 1), neutral for the Hadamard product."""
    ones = np.ones((ctx.n, 1)) / math.sqrt(ctx.n)
    return Subspace(ones)


def dualizing(ctx: QuantaleContext) -> Subspace:
    """Complement of the unit: vectors with coordinate sum zero."""
    return ortho(ctx, unit(ctx))


def residuum(ctx: QuantaleContext, s: Subspace, t: Subspace) -> Subspace:
    """s -> t as the complement of s * complement(t) (commutative case)."""
    return ortho(ctx, mul(ctx, s, ortho(ctx, t)))


def random_subspace(ctx: QuantaleContext, rng: np.random.Generator, dim: Optional[int] = None) -> Subspace:
    """Rotation-invariant random subspace; dimension uniform on 0..n."""
    if dim is None:
        dim = int(rng.integers(0, ctx.n + 1))
    return Subspace(_orthonormal_range(rng.standard_normal((ctx.n, dim)), ctx.tau_rank))


def random_subspace_within(ctx: QuantaleContext, s: Subspace, rng: np.random.Generator) -> Subspace:
    """Random subspace of s, of dimension uniform on 0..dim(s)."""
    k = int(rng.integers(0, s.dim + 1))
    if k == 0 or s.dim == 0:
        return zero(ctx)
    return Subspace(_orthonormal_range(s.basis @ rng.standard_normal((s.dim, k)), ctx.tau_rank))


def rebased(s: Subspace, rng: np.random.Generator) -> Subspace:
    """Same subspace under a random orthonormal change of basis."""
    if s.dim == 0:
        return s
    q, r = np.linalg.qr(rng.standard_normal((s.dim, s.dim)))
    q = q * np.sign(np.diag(r))
    return Subspace(s.basis @ q)


class _Tally:
    """Per-law pass counter keeping the first failing trial for replay."""

    def __init__(self, law: str):
        self.law = law
        self.checked = 0
        self.first_failure = None

    def record(self, ok: bool, trial: int, seed: int, data: dict):
        self.checked += 1
        if not ok and self.first_failure is None:
            self.first_failure = (seed, trial, data)

    def report(self) -> LawReport:
        if self.first_failure is None:
            return law_pass(self.law, f"{self.checked} checks")
        seed, trial, data = self.first_failure
        bases = tuple(sorted(data.items()))
        return law_fail(
            self.law,
            (seed, trial, bases),
            f"first failure at seed={seed} trial={trial}",
        )


def verify_quantale_laws(ctx: QuantaleContext, trials: int, seed: int) -> List[LawReport]:
    """Seeded random verification of every law family of the subspace
    quantale of R^n.

    Per trial, on subspaces with dimensions uniform in 0..n: product
    commutativity and associativity, the unit law, distribution over
    joins, the cyclicity pivot s*t <= ortho(u) iff u*t <= ortho(s) (on an
    unconstrained triple and on one constructed to make the left side
    true), the adjointness biconditional, double negation through the
    dualizer, orthocomplement = linear negation, and orthomodularity on
    a constructed comparable pair.  Each trial draws its own generator
    from (seed, trial), so any failure replays exactly.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    e = unit(ctx)
    d = dualizing(ctx)
    laws = {
        name: _Tally(name)
        for name in (
            "mul-commutative",
            "mul-associative",
            "unit-law",
            "join-distributive",
            "cyclicity-pivot",
            "adjointness",
            "double-negation",
            "ortho-is-linear-negation",
            "orthomodular",
        )
    }

    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
        s = random_subspace(ctx, rng)
        t = random_subspace(ctx, rng)
        u = random_subspace(ctx, rng)
        data = {"S": s.basis, "T": t.basis, "U": u.basis}

        st = mul(ctx, s, t)
        laws["mul-commutative"].record(equal(ctx, st, mul(ctx, t, s)), trial, seed, data)
        laws["mul-associative"].record(
            equal(ctx, mul(ctx, st, u), mul(ctx, s, mul(ctx, t, u))), trial, seed, data
        )
        laws["unit-law"].record(equal(ctx, mul(ctx, e, s), s), trial, seed, data)
        laws["join-distributive"].record(
            equal(ctx, mul(ctx, s, join(ctx, t, u)), join(ctx, st, mul(ctx, s, u))),
            trial,
            seed,
            data,
        )

        ortho_s, ortho_u = ortho(ctx, s), ortho(ctx, u)
        pivot_free = leq(ctx, st, ortho_u) == leq(ctx, mul(ctx, u, t), ortho_s)
        uc = random_subspace_within(ctx, ortho(ctx, st), rng)
        pivot_made = leq(ctx, mul(ctx, uc, t), ortho_s)
        laws["cyclicity-pivot"].record(
            pivot_free and pivot_made, trial, seed, {**data, "Uc": uc.basis}
        )

        r = residuum(ctx, s, t)
        x = random_subspace(ctx, rng)
        x_in = random_subspace_within(ctx, r, rng)
        adj = (
            leq(ctx, mul(ctx, x, s), t) == leq(ctx, x, r)
            and leq(ctx, mul(ctx, x_in, s), t)
            and leq(ctx, mul(ctx, r, s), t)
        )
        laws["adjointness"].record(adj, trial, seed, {**data, "X": x.basis, "Xin": x_in.basis})

        neg_s = residuum(ctx, s, d)
        laws["double-negation"].record(
            equal(ctx, residuum(ctx, neg_s, d), s), trial, seed, data
        )
        laws["ortho-is-linear-negation"].record(equal(ctx, ortho_s, neg_s), trial, seed, data)

        y = t
        x_om = random_subspace_within(ctx, y, rng)
        om = equal(ctx, y, join(ctx, x_om, meet(ctx, ortho(ctx, x_om), y)))
        laws["orthomodular"].record(om, trial, seed, {"Y": y.basis, "X": x_om.basis})

    return [tally.report() for tally in laws.values()]
