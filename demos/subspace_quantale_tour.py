"""The subspaces of R^n as an orthomodular commutative Girard quantale.

Walks the numerical engine through its operations on R^2 and R^3, where
everything is checkable by hand, then runs the seeded law verification
at several dimensions.
"""
import numpy as np

from girardlab.subspaces import (
    QuantaleContext,
    dualizing,
    equal,
    full,
    join,
    leq,
    meet,
    mul,
    ortho,
    random_subspace,
    residuum,
    span,
    unit,
    verify_quantale_laws,
)

ctx = QuantaleContext(2)
print(f"context: R^{ctx.n}, rank cutoff {ctx.tau_rank}, equality tolerance {ctx.tau_eq:.2e}")

# ---------------------------------------------------------------------------
# Subspaces are orthonormal bases carrying a basis of their complement;
# equality goes through projectors.
# ---------------------------------------------------------------------------
x_axis = span(ctx, [(1.0, 0.0)])
diag = span(ctx, [(1.0, 1.0), (2.0, 2.0)])  # collinear rows collapse to dim 1
print(f"\nx-axis dim: {x_axis.dim},  diagonal dim: {diag.dim}")
print(f"x-axis <= plane: {leq(ctx, x_axis, full(ctx))}")

# Orthocomplement solves the annihilation equations: for the diagonal,
# a1 + a2 = 0 gives the antidiagonal.  span already found it, in the
# same SVD as the diagonal's basis.
anti = ortho(ctx, diag)
print(f"ortho(diagonal) equals span((1,-1)): {equal(ctx, anti, span(ctx, [(1.0, -1.0)]))}")

# ---------------------------------------------------------------------------
# The product spans Hadamard products of basis vectors.
# ---------------------------------------------------------------------------
print(f"\nx-axis * y-axis is zero: {mul(ctx, x_axis, span(ctx, [(0.0, 1.0)])).dim == 0}")
e, d = unit(ctx), dualizing(ctx)
print(f"unit is the all-ones line, dualizer its complement (dim {d.dim})")
print(f"d * d = e: {equal(ctx, mul(ctx, d, d), e)}")

# Linear negation through the dualizer coincides with the orthocomplement:
neg_x = residuum(ctx, x_axis, d)
print(f"x-axis -> d equals ortho(x-axis): {equal(ctx, neg_x, ortho(ctx, x_axis))}")

# ---------------------------------------------------------------------------
# Meets, joins, and the modular dimension law in R^3.
# ---------------------------------------------------------------------------
ctx3 = QuantaleContext(3)
p1 = span(ctx3, [(1, 0, 0), (0, 1, 0)])
p2 = span(ctx3, [(0, 1, 0), (0, 0, 1)])
line = meet(ctx3, p1, p2)
print(f"\ntwo planes in R^3 meet in a line: {equal(ctx3, line, span(ctx3, [(0, 1, 0)]))}")
rng = np.random.default_rng(7)
s, t = random_subspace(ctx3, rng), random_subspace(ctx3, rng)
print("dim(S v T) + dim(S ^ T) == dim S + dim T:",
      join(ctx3, s, t).dim + meet(ctx3, s, t).dim == s.dim + t.dim)

# ---------------------------------------------------------------------------
# The law battery: commutativity, associativity, unit, distribution over
# joins, the cyclicity pivot, adjointness, double negation, ortho equals
# linear negation, orthomodularity.  Seeded, hence replayable.
# ---------------------------------------------------------------------------
for n in (2, 4, 8):
    reports = verify_quantale_laws(QuantaleContext(n), trials=300, seed=42)
    state = "all pass" if all(r.passed for r in reports) else "FAILURES"
    print(f"\nR^{n}, 300 trials: {state}")
    for r in reports:
        print(f"  {r}")
