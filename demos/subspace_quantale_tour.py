"""The subspaces of R^n as an orthomodular commutative Girard quantale.

Walks the numerical engine through its operations on R^2 and R^3, where
everything is checkable by hand, then runs the seeded law verification
at several dimensions.
"""
import numpy as np

from girardlab.subspaces import (
    TAU_RANK,
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
    tau_eq,
    unit,
    verify_quantale_laws,
)

print(f"ambient: R^2, rank cutoff {TAU_RANK}, equality tolerance {tau_eq(2):.2e}")

# ---------------------------------------------------------------------------
# Subspaces are orthonormal bases carrying a basis of their complement;
# equality goes through projectors.
# ---------------------------------------------------------------------------
x_axis = span(2, [(1.0, 0.0)])
diag = span(2, [(1.0, 1.0), (2.0, 2.0)])  # collinear rows collapse to dim 1
print(f"\nx-axis dim: {x_axis.dim},  diagonal dim: {diag.dim}")
print(f"x-axis <= plane: {leq(x_axis, full(2))}")

# Orthocomplement solves the annihilation equations: for the diagonal,
# a1 + a2 = 0 gives the antidiagonal.  span already found it, in the
# same SVD as the diagonal's basis.
anti = ortho(diag)
print(f"ortho(diagonal) equals span((1,-1)): {equal(anti, span(2, [(1.0, -1.0)]))}")

# ---------------------------------------------------------------------------
# The product spans Hadamard products of basis vectors.
# ---------------------------------------------------------------------------
print(f"\nx-axis * y-axis is zero: {mul(x_axis, span(2, [(0.0, 1.0)])).dim == 0}")
e, d = unit(2), dualizing(2)
print(f"unit is the all-ones line, dualizer its complement (dim {d.dim})")
print(f"d * d = e: {equal(mul(d, d), e)}")

# Linear negation through the dualizer coincides with the orthocomplement:
neg_x = residuum(x_axis, d)
print(f"x-axis -> d equals ortho(x-axis): {equal(neg_x, ortho(x_axis))}")

# ---------------------------------------------------------------------------
# Meets, joins, and the modular dimension law in R^3.
# ---------------------------------------------------------------------------
p1 = span(3, [(1, 0, 0), (0, 1, 0)])
p2 = span(3, [(0, 1, 0), (0, 0, 1)])
line = meet(p1, p2)
print(f"\ntwo planes in R^3 meet in a line: {equal(line, span(3, [(0, 1, 0)]))}")
rng = np.random.default_rng(7)
s, t = random_subspace(3, rng), random_subspace(3, rng)
print("dim(S v T) + dim(S ^ T) == dim S + dim T:",
      join(s, t).dim + meet(s, t).dim == s.dim + t.dim)

# ---------------------------------------------------------------------------
# The law battery: commutativity, associativity, unit, distribution over
# joins, the cyclicity pivot, adjointness, double negation, ortho equals
# linear negation, orthomodularity.  Seeded, hence replayable.
# ---------------------------------------------------------------------------
for n in (2, 4, 8):
    reports = verify_quantale_laws(n, trials=300, seed=42)
    state = "all pass" if all(r.passed for r in reports) else "FAILURES"
    print(f"\nR^{n}, 300 trials: {state}")
    for r in reports:
        print(f"  {r}")
