"""The lattice of subspaces of R^n as a commutative quantale, numerically.

A subspace is held as an orthonormal basis (n x r matrix) together with
an orthonormal basis of its orthogonal complement (n x (n - r)).  Both
come from one n x n orthogonal factor of a spanning matrix A, the U of
an SVD or the Q of a QR, split after the rank r, so the
orthocomplement is a swap of the two fields and costs no decomposition.
Equality and containment are decided through orthogonal projectors,
never through the bases themselves, which are non-canonical.  The
quantale product of two subspaces is the span of the componentwise
(Hadamard) products of their basis vectors; bilinearity makes the
result independent of the bases chosen.  The unit is the line through
(1, ..., 1) and the dualizing element is its orthogonal complement, the
hyperplane of coordinate-sum zero.  verify_quantale_laws drives seeded
random trials through every law family that makes this an orthomodular
commutative Girard structure whose orthocomplement is the linear
negation.

Numerical policy, fixed: ranks are decided by singular values at the
relative cutoff tau_rank = TAU_RANK = 1e-9, and subspace equality by
projector Frobenius distance at tau_eq(n) = 1e-8 * sqrt(n).  Neither is
an option.  The constructors span, zero, full, unit, dualizing and
random_subspace, and verify_quantale_laws, take the dimension n and
check it against MAX_DIM; every other operation reads n from its
operands, and two operands from different ambients are an InputError.
The dimension is capped because the product of an r-dimensional and an
s-dimensional subspace spans r*s candidate vectors.  A Cholesky
factorisation of G - cI, c just above tau_rank^2 tr(G), certifies full
rank on a Gram matrix: on the n x n AA^T (P_S o P_T or P_S + P_T, A
unformed) of a product or join that may span R^n, which then is R^n,
and on the k x k A^T A of a tall A with 16 <= k < n columns, which one
QR then splits.  Else one SVD decides.

The lattice bounds are decided from the dimensions.  zero(n) and full(n)
are one shared instance each per n, with read-only arrays.  A product
with 0 is 0.  A product with R^n, in any basis, has Gram matrix I o P =
diag(P) for the other operand's projector P, so it is certified on that
diagonal with no factorisation.  A join with R^n is R^n.  Two operands
both 0 or both R^n are equal, and s <= t holds when s is 0 or t is R^n.
meet and residuum inherit these rules through ortho.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .reports import InputError, LawReport, law_fail, law_pass

MAX_DIM = 64
TAU_RANK = 1e-9
QR_MIN_COLUMNS = 16  # below it, one SVD of a tall matrix beats a Gram Cholesky and a QR
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


def check_dimension(n: int) -> int:
    """n itself, when R^n is an ambient space the engine takes."""
    if not 1 <= n <= MAX_DIM:
        raise InputError(f"dimension must be in 1..{MAX_DIM}")
    return n


def tau_eq(n: int) -> float:
    """Tolerance of subspace equality and containment in R^n."""
    return 1e-8 * math.sqrt(n)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of R^n: an orthonormal n x r basis of it and an
    orthonormal n x (n - r) basis of its orthogonal complement.  n and
    dim = r are read off the basis once, at construction."""

    basis: np.ndarray
    complement: np.ndarray
    n: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        self.__dict__["n"], self.__dict__["dim"] = self.basis.shape  # the class is frozen

    def projector(self) -> np.ndarray:
        p = self.__dict__.get("_projector")
        if p is None:  # computed once and shared by every caller
            p = self.__dict__["_projector"] = self.basis @ self.basis.T
            p.flags.writeable = False
        return p


def _check_same_ambient(s: Subspace, t: Subspace):
    if s.n != t.n:
        raise InputError(f"operands live in R^{s.n} and R^{t.n}")


def _split(a: np.ndarray) -> Subspace:
    """range(A) and its complement from an orthogonal factor of the n x k A.

    A tall A with QR_MIN_COLUMNS <= k < n, scaled (see _scaled) so that
    A^T A neither over- nor underflows, is split after k by the n x n Q of
    one QR when certified of rank k.  Otherwise the U of an SVD (n x n,
    full when A is tall), taken again of the scaled A when sigma_0
    overflows to inf, splits after the number of singular values at
    least TAU_RANK times the largest (0 if A is zero).

    Near the cutoff, equality at tau_eq is tighter than the numerics can
    decide: a kept direction with sigma ratio rho is only determined to
    about eps / rho, so at rho = 3e-9 in R^64 two correct evaluations of
    one meet can differ by more than tau_eq.
    """
    n, k = a.shape
    if k == 0:
        return zero(n)
    if QR_MIN_COLUMNS <= k < n:
        b = _scaled(a)
        if _certifies_rank(b.T @ b, n + k + 3):
            q, _ = np.linalg.qr(b, mode="complete")
            return Subspace(q[:, :k], q[:, k:])
    u, sigma, _ = np.linalg.svd(a, full_matrices=k < n)
    if not math.isfinite(sigma[0]):
        u, sigma, _ = np.linalg.svd(_scaled(a), full_matrices=k < n)
    r = int(np.count_nonzero(sigma >= TAU_RANK * sigma[0])) if sigma[0] > 0.0 else 0
    return Subspace(u[:, :r], u[:, r:])


def _scaled(a: np.ndarray) -> np.ndarray:
    """A times the power of two that brings its largest entry into [1/2, 1)."""
    return np.ldexp(a, -np.frexp(np.abs(a).max())[1])


def _certifies_rank(g: np.ndarray, m: int) -> bool:
    """Whether the p x p Gram matrix G = AA^T, which it overwrites, proves
    rank p for A by the SVD's rule sigma_p(A) >= tau_rank * sigma_0(A).
    A diagonal G may be passed as the vector of its diagonal: a Cholesky
    factorisation of a diagonal matrix completes iff every entry stays
    positive after the shift, so no factorisation is taken.

    sigma_p(A)^2 = lambda_min(G) and sigma_0(A)^2 <= tr(G), so lambda_min(G)
    >= tau_rank^2 tr(G) suffices; a Cholesky factorisation of G - cI
    proves it (Rump, BIT 2006).  G is formed to within gamma_{m-p-2} tr(G)
    in the 2-norm (entry ij errs by at most that times z_i z_j, and sum
    z_i^2 = tr(G)): m = n + dim s + dim t + 3 for P_S o P_T or P_S + P_T,
    and n + k + 3 for the A^T A of an n x k A.  With u the unit roundoff
    the shift adds u tr(G), and a completed factorisation is exact for a
    matrix within gamma_{p+1} tr(G) / (1 - gamma_{p+1}) (Higham, Thm
    10.3).  So c = (tau_rank^2 + 4mu) tr(G), plus 16m^2 subnormals for
    underflow, covers them and its own rounding.  A G with lambda_min /
    tr(G) below tau_rank^2 + 4mu (at most 9e-14 in R^64) is declined, and
    so is one whose trace is not finite, since a Cholesky of NaNs completes.
    """
    trace = np.trace(g) if g.ndim == 2 else g.sum()
    if not math.isfinite(trace):
        return False
    shift = (TAU_RANK ** 2 + 2 * m * _EPS) * trace + 16 * m * m * _TINY
    if g.ndim == 1:
        return bool((g > shift).all())
    g.flat[::len(g) + 1] -= shift
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def span(n: int, vectors: Sequence[Sequence[float]]) -> Subspace:
    """Orthonormal basis of the span of the given n-vectors.

    Rank is the number of singular values at least TAU_RANK times the
    largest; an empty list (or all-zero vectors) gives the zero subspace.
    """
    check_dimension(n)
    rows = [np.asarray(v, dtype=float) for v in vectors]
    for v in rows:
        if v.shape != (n,):
            raise InputError(f"expected vectors of length {n}")
    a = np.stack(rows, axis=1) if rows else np.zeros((n, 0))
    if not np.isfinite(a).all():
        raise InputError("vector coordinates must be finite")
    return _split(a)


@functools.cache
def _bounds(n: int) -> Tuple[Subspace, Subspace]:
    """The zero subspace and R^n, one shared pair per n: the basis of R^n
    is I, and the arrays of both are read-only."""
    none, eye = np.zeros((n, 0)), np.eye(n)
    none.flags.writeable = eye.flags.writeable = False
    return Subspace(none, eye), Subspace(eye, none)


def zero(n: int) -> Subspace:
    """The zero subspace of R^n: one shared, read-only instance per n."""
    return _bounds(check_dimension(n))[0]


def full(n: int) -> Subspace:
    """R^n with the standard basis: one shared, read-only instance per n,
    so its projector I is formed once."""
    return _bounds(check_dimension(n))[1]


def leq(s: Subspace, t: Subspace) -> bool:
    """Containment: the residual of s's basis outside t is below tau_eq.
    True without arithmetic when s is 0 or t is R^n."""
    _check_same_ambient(s, t)
    if s.dim > t.dim:  # the residual is at least 1
        return False
    if s.dim == 0 or t.dim == t.n:
        return True
    resid = s.basis - t.basis @ (t.basis.T @ s.basis)
    return float(np.linalg.norm(resid)) <= tau_eq(s.n)


def equal(s: Subspace, t: Subspace) -> bool:
    """Projector Frobenius distance (at least 1 across dimensions) below
    tau_eq.  Two operands both 0 or both R^n are equal without arithmetic."""
    _check_same_ambient(s, t)
    if s.dim != t.dim:
        return False
    return s.dim in (0, s.n) or float(np.linalg.norm(s.projector() - t.projector())) <= tau_eq(s.n)


def ortho(s: Subspace) -> Subspace:
    """Orthogonal complement: the two carried bases swap places, so the
    dimensions add up to n exactly and no decomposition is taken."""
    return Subspace(s.complement, s.basis)


def join(s: Subspace, t: Subspace) -> Subspace:
    """Smallest subspace containing both: span of the stacked bases.  A
    join with R^n is R^n without a decomposition."""
    _check_same_ambient(s, t)
    n = s.n
    if (s.dim == n or t.dim == n
            or s.dim + t.dim >= n and _certifies_rank(s.projector() + t.projector(), n + s.dim + t.dim + 3)):
        return full(n)
    return _split(np.hstack([s.basis, t.basis]))


def meet(s: Subspace, t: Subspace) -> Subspace:
    """Intersection: the complement of the join of complements, at most one SVD."""
    return ortho(join(ortho(s), ortho(t)))


def mul(s: Subspace, t: Subspace) -> Subspace:
    """Quantale product: span of all Hadamard products of basis columns.

    A product with 0 is 0.  A product with R^n, whatever its basis, has
    Gram matrix I o P = diag(P) for the other operand's projector P, so
    it is certified R^n on that diagonal without a factorisation; where
    the certificate declines, the product matrix decides as for any pair.
    """
    _check_same_ambient(s, t)
    n = s.n
    if s.dim == 0 or t.dim == 0:
        return zero(n)
    m = n + s.dim + t.dim + 3
    if s.dim == n or t.dim == n:
        certified = _certifies_rank((t if s.dim == n else s).projector().diagonal(), m)
    else:
        certified = s.dim * t.dim >= n and _certifies_rank(s.projector() * t.projector(), m)
    if certified:
        return full(n)
    products = (s.basis[:, :, None] * t.basis[:, None, :]).reshape(n, -1)
    return _split(products)


def unit(n: int) -> Subspace:
    """The line through (1, ..., 1), neutral for the Hadamard product."""
    ones = np.ones((check_dimension(n), 1)) / math.sqrt(n)
    return Subspace(ones, _split(ones).complement)


def dualizing(n: int) -> Subspace:
    """Complement of the unit: vectors with coordinate sum zero."""
    return ortho(unit(n))


def residuum(s: Subspace, t: Subspace) -> Subspace:
    """s -> t as the complement of s * complement(t) (commutative case);
    at most one SVD."""
    return ortho(mul(s, ortho(t)))


def random_subspace(n: int, rng: np.random.Generator) -> Subspace:
    """Rotation-invariant random subspace of R^n; dimension uniform on 0..n."""
    dim = int(rng.integers(0, check_dimension(n) + 1))
    return _split(rng.standard_normal((n, dim)))


def random_subspace_within(s: Subspace, rng: np.random.Generator) -> Subspace:
    """Random subspace of s, of dimension uniform on 0..dim(s)."""
    k = int(rng.integers(0, s.dim + 1))
    return _split(s.basis @ rng.standard_normal((s.dim, k)))


_LAWS = (
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


def verify_quantale_laws(n: int, trials: int, seed: int) -> List[LawReport]:
    """Seeded random verification of every law family of the subspace
    quantale of R^n.

    Per trial, on subspaces with dimensions uniform in 0..n: product
    commutativity and associativity, the unit law, distribution over
    joins, the cyclicity pivot s*t <= ortho(u) iff u*t <= ortho(s) (on an
    unconstrained triple and on one constructed to make the left side
    true), the adjointness biconditional, double negation through the
    dualizer, orthocomplement = linear negation, and orthomodularity on
    a constructed comparable pair.  Each trial draws its own generator
    from (seed, trial), so a FAIL's witness (seed, trial) names the
    first failing trial and replays it exactly.
    """
    check_dimension(n)
    if trials < 1:
        raise InputError("need at least one trial")
    e = unit(n)
    d = dualizing(n)
    first_failure = {}

    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
        s = random_subspace(n, rng)
        t = random_subspace(n, rng)
        u = random_subspace(n, rng)
        st = mul(s, t)
        ortho_s, ortho_u = ortho(s), ortho(u)
        uc = random_subspace_within(ortho(st), rng)
        r = residuum(s, t)
        x = random_subspace(n, rng)
        x_in = random_subspace_within(r, rng)
        neg_s = residuum(s, d)
        x_om = random_subspace_within(t, rng)

        verdicts = (
            equal(st, mul(t, s)),
            equal(mul(st, u), mul(s, mul(t, u))),
            equal(mul(e, s), s),
            equal(mul(s, join(t, u)), join(st, mul(s, u))),
            leq(st, ortho_u) == leq(mul(u, t), ortho_s) and leq(mul(uc, t), ortho_s),
            leq(mul(x, s), t) == leq(x, r) and leq(mul(x_in, s), t) and leq(mul(r, s), t),
            equal(residuum(neg_s, d), s),
            equal(ortho_s, neg_s),
            equal(t, join(x_om, meet(ortho(x_om), t))),
        )
        for law, ok in zip(_LAWS, verdicts):
            if not ok:
                first_failure.setdefault(law, trial)

    return [
        law_fail(law, (seed, first_failure[law]),
                 f"first failure at seed={seed} trial={first_failure[law]}")
        if law in first_failure else law_pass(law, f"{trials} checks")
        for law in _LAWS
    ]
