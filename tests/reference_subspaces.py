"""The former subspace kernel, kept as a differential oracle.

A subspace is a bare orthonormal n x r basis.  Every rank is decided by
a thin SVD of the spanning matrix, and the orthocomplement takes its own
full SVD of the basis, so meet costs four SVDs and residuum three.
girardlab.subspaces carries each complement from the SVD that found the
basis; tests/test_subspaces.py holds it to these functions.
residuum_by_definition computes s -> t from its definition instead,
as the largest x with x * s <= t, and takes no product at all.
"""
import numpy as np


def orthonormal_range(a, tau_rank):
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    u, sigma, _ = np.linalg.svd(a, full_matrices=False)
    if sigma.size == 0 or sigma[0] <= 0.0:
        return np.zeros((a.shape[0], 0))
    r = int(np.count_nonzero(sigma >= tau_rank * sigma[0]))
    return u[:, :r].copy()


def ortho(basis):
    n, r = basis.shape
    if r == 0:
        return np.eye(n)
    u, _, _ = np.linalg.svd(basis, full_matrices=True)
    return u[:, r:].copy()


def join(s, t, tau_rank):
    return orthonormal_range(np.hstack([s, t]), tau_rank)


def meet(s, t, tau_rank):
    return ortho(join(ortho(s), ortho(t), tau_rank))


def mul(s, t, tau_rank):
    n = s.shape[0]
    if s.shape[1] == 0 or t.shape[1] == 0:
        return np.zeros((n, 0))
    products = (s[:, :, None] * t[:, None, :]).reshape(n, -1)
    return orthonormal_range(products, tau_rank)


def residuum(s, t, tau_rank):
    return ortho(mul(s, ortho(t), tau_rank))


def equal(s, t, tau_eq):
    return np.linalg.norm(s @ s.T - t @ t.T) <= tau_eq


def leq(s, t, tau_eq):
    return np.linalg.norm(s - t @ (t.T @ s)) <= tau_eq


def random_subspace_within(s, rng, tau_rank):
    n, r = s.shape
    k = int(rng.integers(0, r + 1))
    if k == 0 or r == 0:
        return np.zeros((n, 0))
    return orthonormal_range(s @ rng.standard_normal((r, k)), tau_rank)


def residuum_by_definition(s, t, cutoff):
    """s -> t from its definition: the x with x o b in t for every basis
    vector b of s, the kernel of the stacked maps (I - P_t) diag(b).  Each
    block has norm at most 1, so the cutoff on the singular values is
    absolute; one relative to sigma_0 fails when t = R^n and every block
    is 0."""
    n = s.shape[0]
    if s.shape[1] == 0:
        return np.eye(n)
    outside = np.eye(n) - t @ t.T
    _, sigma, vt = np.linalg.svd(np.vstack([outside * b for b in s.T]), full_matrices=False)
    return vt[np.count_nonzero(sigma > cutoff):].T.copy()
