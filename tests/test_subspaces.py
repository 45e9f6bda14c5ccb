"""Numerical subspace quantale: exact small cases and sampled laws."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_subspaces as ref
from fixtures import rebased
from girardlab.catalog import mo2_subspace_model
from girardlab.cli import main
from girardlab.reports import InputError
from girardlab.subspaces import (
    TAU_RANK,
    _certifies_rank,
    _split,
    check_dimension,
    dualizing,
    equal,
    full,
    join,
    leq,
    meet,
    mul,
    ortho,
    random_subspace,
    random_subspace_within,
    residuum,
    span,
    tau_eq,
    unit,
    verify_quantale_laws,
    zero,
)


@pytest.fixture
def r2():
    return 2


@pytest.fixture
def r3():
    return 3


class TestSpan:
    def test_empty_is_zero(self, r2):
        assert span(r2, []).dim == 0

    def test_collinear_vectors(self, r2):
        s = span(r2, [(1.0, 1.0), (2.0, 2.0)])
        assert s.dim == 1
        assert equal(s, span(r2, [(1.0, 1.0)]))

    def test_near_degenerate_direction_dropped(self, r2):
        assert span(r2, [(1.0, 0.0), (1.0, 1e-12)]).dim == 1
        assert span(r2, [(1.0, 0.0), (1.0, 1e-3)]).dim == 2

    def test_dimension_mismatch(self, r2):
        with pytest.raises(InputError):
            span(r2, [(1.0, 2.0, 3.0)])

    @pytest.mark.parametrize("op", [leq, equal, join, meet, mul, residuum])
    def test_operands_from_different_ambients(self, r2, r3, op):
        # two lines, of one dimension: equal raises rather than compare them
        for s, t in ((span(r3, [(1, 0, 0)]), span(r2, [(1, 0)])), (full(r3), full(r2))):
            with pytest.raises(InputError, match=r"^operands live in R\^3 and R\^2$"):
                op(s, t)
            with pytest.raises(InputError, match=r"^operands live in R\^2 and R\^3$"):
                op(t, s)

    def test_huge_and_tiny_coordinates(self, r2):
        # squares of these entries over- or underflow; the rank decision
        # must neither warn nor change
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = span(r2, [(1e308, 1e308), (1e308, -1e308)])
            assert huge.dim == 2 and ortho(huge).dim == 0
            assert span(r2, [(1e308, 0.0), (1e308, 1e296)]).dim == 1
            assert span(r2, [(1e-200, 0.0), (1e-200, 1e-212)]).dim == 1
            assert span(r2, [(1e-200, 0.0), (1e-200, 1e-203)]).dim == 2

    def test_basis_orthonormal(self, r3):
        s = span(r3, [(1, 2, 3), (4, 5, 6), (7, 8, 10)])
        gram = s.basis.T @ s.basis
        assert np.allclose(gram, np.eye(s.dim), atol=1e-12)


class TestOrderOps:
    def test_zero_below_everything(self, r2):
        for t in (zero(r2), span(r2, [(1, 0)]), full(r2)):
            assert leq(zero(r2), t)

    def test_line_below_plane(self, r2):
        assert leq(span(r2, [(1, 0)]), full(r2))

    def test_skew_lines_incomparable(self, r2):
        s, t = span(r2, [(1, 1)]), span(r2, [(1, -1)])
        assert not equal(s, t)
        assert not leq(s, t) and not leq(t, s)


class TestOrtho:
    def test_full_to_zero(self, r3):
        assert ortho(full(r3)).dim == 0

    def test_diagonal_line(self, r2):
        assert equal(ortho(span(r2, [(1, 1)])), span(r2, [(1, -1)]))

    def test_weighted_line(self, r2):
        assert equal(ortho(span(r2, [(1, 2)])), span(r2, [(2, -1)]))

    def test_dimensions_add_exactly(self, r3):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = random_subspace(r3, rng)
            assert s.dim + ortho(s).dim == 3

    def test_involutive_and_order_reversing(self):
        n = 5
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = random_subspace(n, rng)
            t = random_subspace(n, rng)
            assert equal(ortho(ortho(s)), s)
            if leq(s, t):
                assert leq(ortho(t), ortho(s))


class TestCompareAcrossDimensions:
    def test_projector_computed_once_and_read_only(self, r3):
        s = span(r3, [(1.0, 2.0, 2.0)])
        p = s.projector()
        assert s.projector() is p and np.allclose(p, np.outer([1, 2, 2], [1, 2, 2]) / 9)
        with pytest.raises(ValueError):
            p[0, 0] = 0.0

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_shortcut_agrees_with_projectors(self, n):
        # equal and leq answer False from unequal dimensions alone; the
        # projector formulas agree on pairs of every dimension, 0 and n
        # included, the smaller one drawn inside the larger
        tau = tau_eq(n)
        rng = np.random.default_rng(n)
        pairs = [(a, b) for a in range(n + 1) for b in range(n + 1) if a < b]
        if n == 64:
            pairs = [(0, 64), (0, 1), (63, 64)] + [tuple(sorted(rng.choice(65, 2, replace=False)))
                                                  for _ in range(12)]
        for a, b in pairs:
            big = span(n, list(rng.standard_normal((n, b)).T))
            small = span(n, list((big.basis @ rng.standard_normal((b, a))).T))
            assert (small.dim, big.dim) == (a, b)
            for s, t in ((small, big), (big, small)):
                assert not equal(s, t) and not ref.equal(s.basis, t.basis, tau)
            assert leq(small, big) and ref.leq(small.basis, big.basis, tau)
            assert not leq(big, small) and not ref.leq(big.basis, small.basis, tau)


class TestMeetJoin:
    def test_plane_intersection(self, r3):
        m = meet(span(r3, [(1, 0, 0), (0, 1, 0)]), span(r3, [(0, 1, 0), (0, 0, 1)]))
        assert equal(m, span(r3, [(0, 1, 0)]))

    def test_join_with_zero(self, r3):
        s = span(r3, [(1, 2, 0)])
        assert equal(join(s, zero(r3)), s)

    def test_meet_with_complement_is_zero(self):
        n = 4
        for trial in range(1000):
            rng = np.random.default_rng((11, trial))
            s = random_subspace(n, rng)
            assert meet(s, ortho(s)).dim == 0
            assert join(s, ortho(s)).dim == 4

    def test_modular_dimension_law(self):
        n = 6
        rng = np.random.default_rng(17)
        for _ in range(300):
            s = random_subspace(n, rng)
            t = random_subspace(n, rng)
            assert join(s, t).dim + meet(s, t).dim == s.dim + t.dim


class TestMul:
    def test_disjoint_supports(self, r2):
        assert mul(span(r2, [(1, 0)]), span(r2, [(0, 1)])).dim == 0

    def test_unit_neutral_on_samples(self):
        n = 5
        e = unit(n)
        rng = np.random.default_rng(23)
        for _ in range(100):
            s = random_subspace(n, rng)
            assert equal(mul(e, s), s)
            assert equal(mul(s, e), s)

    def test_antidiagonal_squares_to_unit(self, r2):
        d = span(r2, [(1, -1)])
        assert equal(mul(d, d), unit(r2))

    def test_basis_independent(self):
        n = 6
        rng = np.random.default_rng(29)
        for _ in range(100):
            s = random_subspace(n, rng)
            t = random_subspace(n, rng)
            assert equal(mul(s, t), mul(rebased(s, rng), rebased(t, rng)))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_zero_operand(self, r3, side):
        # no Hadamard products at all: an n x 0 matrix splits to the zero subspace
        s = span(r3, [(1, 2, 3), (0, 1, 1)])
        product = mul(zero(r3), s) if side == "left" else mul(s, zero(r3))
        assert product.basis.shape == (3, 0)
        assert equal(product, zero(r3))
        _same(product, np.zeros((3, 0)))


class TestRandomSubspaceWithin:
    # the zero subspace can only draw dimension 0; seed 11 draws 0 out of 0..2
    @pytest.mark.parametrize("dims, seed", [((), 5), (((1, 0, 0), (0, 1, 0)), 11)],
                             ids=["zero-subspace", "zero-dimension-drawn"])
    def test_zero_result_draws_only_the_dimension(self, r3, dims, seed):
        # a size-0 normal draw leaves the generator where the dimension draw left it
        s = span(r3, list(dims))
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_subspace_within(s, rng)
        assert int(twin.integers(0, s.dim + 1)) == 0
        assert got.dim == 0 and equal(got, zero(r3))
        assert rng.bit_generator.state == twin.bit_generator.state


class TestUnitDualizing:
    def test_dimension_one_degenerates(self):
        n = 1
        assert equal(unit(n), full(n))
        assert dualizing(n).dim == 0

    def test_r2_antidiagonal(self, r2):
        assert equal(dualizing(r2), span(r2, [(1, -1)]))

    def test_r3_sum_zero_plane(self, r3):
        d = dualizing(r3)
        assert d.dim == 2
        assert equal(d, span(r3, [(1, -1, 0), (1, 0, -1)]))


class TestResiduum:
    def test_into_top_is_top(self, r3):
        s = span(r3, [(1, 1, 0)])
        assert equal(residuum(s, full(r3)), full(r3))

    def test_line_into_itself(self, r2):
        s = span(r2, [(1, 0)])
        assert equal(residuum(s, s), full(r2))

    def test_unit_is_left_neutral_for_residuum(self):
        n = 4
        rng = np.random.default_rng(31)
        for _ in range(100):
            t = random_subspace(n, rng)
            assert equal(residuum(unit(n), t), t)

    def test_linear_negation_of_axis(self, r2):
        s = span(r2, [(1, 0)])
        assert equal(residuum(s, dualizing(r2)), ortho(s))


class TestVerifyLaws:
    def test_all_pass_small(self):
        for n in (1, 2, 3):
            reports = verify_quantale_laws(n, 150, 42)
            assert all(r.passed for r in reports), [str(r) for r in reports if r.failed]

    def test_law_names(self):
        reports = verify_quantale_laws(2, 5, 0)
        assert [r.law for r in reports] == [
            "mul-commutative",
            "mul-associative",
            "unit-law",
            "join-distributive",
            "cyclicity-pivot",
            "adjointness",
            "double-negation",
            "ortho-is-linear-negation",
            "orthomodular",
        ]

    def test_requires_trials(self):
        with pytest.raises(InputError):
            verify_quantale_laws(2, 0, 1)


class TestDimension:
    def test_default_equality_tolerance(self):
        for n in (1, 2, 8):
            assert tau_eq(n) == pytest.approx(1e-8 * math.sqrt(n))

    @pytest.mark.parametrize("n", [0, 65])
    def test_dimension_cap(self, n):
        # every constructor checks n first: before the trial count and
        # before the vectors
        assert check_dimension(1) == 1 and check_dimension(64) == 64
        for make in (check_dimension, zero, full, unit, dualizing,
                     lambda n: span(n, [(1.0, "x")]),
                     lambda n: random_subspace(n, np.random.default_rng(0)),
                     lambda n: verify_quantale_laws(n, 0, 1)):
            with pytest.raises(InputError, match=r"^dimension must be in 1\.\.64$"):
                make(n)


def _same(got, want):
    """got (a Subspace) and want (a reference basis) are the same subspace."""
    assert got.dim == want.shape[1]
    assert got.complement.shape == (got.n, got.n - got.dim)
    assert np.linalg.norm(got.projector() - want @ want.T) <= tau_eq(got.n)


def _near_parallel(n, ratio, rng):
    """Two lines whose stacked unit bases have sigma_2 / sigma_1 = ratio."""
    q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    a, b = q[:, 0], q[:, 1]
    angle = 2 * math.atan(ratio)  # sigma ratio of [a, rotated a] is tan(angle / 2)
    return [a], [math.cos(angle) * a + math.sin(angle) * b]


@pytest.fixture
def linalg_calls(monkeypatch):
    """Every np.linalg svd, cholesky and qr call, as (name, shape, kwargs)."""
    calls = []

    def spy(name, real):
        def wrapped(a, *args, **kwargs):
            calls.append((name, a.shape, kwargs))
            return real(a, *args, **kwargs)
        return wrapped

    for name in ("svd", "cholesky", "qr"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return calls


class TestKernelDifferential:
    """Each operation against the former kernel in tests/reference_subspaces.py,
    which took a thin SVD per rank and a separate full SVD per complement."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    def test_random_operands(self, n):
        tau = TAU_RANK
        rng = np.random.default_rng(n)
        for _ in range(8 if n == 64 else 40):
            # vectors, not bases: span takes the rank decision in both kernels
            a = rng.standard_normal((n, int(rng.integers(0, n + 1))))
            b = rng.standard_normal((n, int(rng.integers(0, n + 1))))
            s, t = span(n, list(a.T)), span(n, list(b.T))
            s0, t0 = ref.orthonormal_range(a, tau), ref.orthonormal_range(b, tau)
            _same(s, s0)
            _same(ortho(s), ref.ortho(s0))
            _same(join(s, t), ref.join(s0, t0, tau))
            _same(meet(s, t), ref.meet(s0, t0, tau))
            _same(mul(s, t), ref.mul(s0, t0, tau))
            _same(residuum(s, t), ref.residuum(s0, t0, tau))
            seed = int(rng.integers(2**32))
            _same(random_subspace_within(s, np.random.default_rng(seed)),
                  ref.random_subspace_within(s.basis, np.random.default_rng(seed), tau))

    @pytest.mark.parametrize("n", [32, 64])
    def test_qr_route_operands(self, linalg_calls, n):
        # operands chosen so that each operation splits a generic n x k
        # matrix with 16 <= k < n columns, which takes the certified QR route
        tau = TAU_RANK
        rng = np.random.default_rng(300 + n)

        def drawn(k):
            a = rng.standard_normal((n, k))
            return span(n, list(a.T)), ref.orthonormal_range(a, tau)

        for _ in range(6):
            k = int(rng.integers(16, n))
            i = int(rng.integers(1, k))
            p = int(rng.integers(2, 5))
            q = int(rng.integers(-(-16 // p), (n - 1) // p + 1))
            (s, s0), (t, t0), (u, u0) = drawn(k), drawn(i), drawn(k - i)
            (v, v0), (w, w0) = drawn(p), drawn(q)
            seed = int(rng.integers(2**32))
            linalg_calls.clear()
            for got, want in (
                (s, s0),
                (join(t, u), ref.join(t0, u0, tau)),
                (meet(ortho(t), ortho(u)), ref.meet(ref.ortho(t0), ref.ortho(u0), tau)),
                (mul(v, w), ref.mul(v0, w0, tau)),
                (residuum(v, ortho(w)), ref.residuum(v0, ref.ortho(w0), tau)),
                (random_subspace_within(s, np.random.default_rng(seed)),
                 ref.random_subspace_within(s.basis, np.random.default_rng(seed), tau)),
            ):
                _same(got, want)
            splits = [shape for name, shape, _ in linalg_calls if name == "qr"]
            # join and meet split n x k matrices, mul and residuum n x pq ones
            assert splits[:4] == [(n, k), (n, k), (n, p * q), (n, p * q)]

    def test_qr_route_calls(self, linalg_calls):
        # a 64 x k spanning matrix with 16 <= k < 64 is certified of rank k
        # on its k x k Gram matrix and split by one QR; below 16 columns one
        # SVD decides.  The matrix is scaled first, so neither huge nor tiny
        # coordinates keep it off the QR route
        n = 64
        a = np.random.default_rng(29).standard_normal((64, 20))
        qr = [("cholesky", (20, 20), {}), ("qr", (64, 20), {"mode": "complete"})]
        for scale in (1.0, 1e308 / 5, 1e-300):
            linalg_calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = span(n, list(scale * a.T))
            assert linalg_calls == qr
            _same(got, ref.orthonormal_range(a, TAU_RANK))
            assert np.allclose(got.complement.T @ got.complement, np.eye(44), rtol=0, atol=1e-12)
        linalg_calls.clear()
        assert span(n, list(a[:, :15].T)).dim == 15
        assert linalg_calls == [("svd", (64, 15), {"full_matrices": True})]

    @pytest.mark.parametrize("scale", [1e308, 1.7e308])
    def test_overflowing_largest_singular_value(self, scale):
        # k vectors uniform(-1, 1) * scale in R^20.  Where sigma_0 overflows
        # to inf the SVD route (k < 16 and the square k = 20) counts the
        # rank on the rescaled matrix; 16 <= k < 20 take the QR route
        for k in range(1, 21):
            unit = np.random.default_rng(20).uniform(-1.0, 1.0, (20, k))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _split(unit * scale)
            _same(got, ref.orthonormal_range(unit, TAU_RANK))
            assert got.dim == k
            assert np.allclose(got.complement.T @ got.complement, np.eye(20 - k), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ratio, rank", [(1e-6, 20), (1e-7, 20), (3e-9, 20), (3e-10, 19),
                                             (1e-10, 19)])
    def test_qr_route_at_the_cutoff(self, linalg_calls, ratio, rank):
        # 18 orthonormal columns and two unit columns at angle 2 atan(ratio)
        # in their complement, mixed by a random rotation: sigma_min /
        # sigma_max = ratio and tr(G) = 20 = 10 sigma_max^2, so lambda_min /
        # tr(G) = ratio^2 / 10 passes the certificate's margin tau^2 + 4mu
        # = 3.9e-14 (m = 87) at 1e-6 only; from 1e-7 down the SVD decides
        n = 64
        rng = np.random.default_rng(29)
        q, _ = np.linalg.qr(rng.standard_normal((64, 20)))
        angle = 2 * math.atan(ratio)
        q[:, -1] = math.cos(angle) * q[:, -2] + math.sin(angle) * q[:, -1]
        a = q @ np.linalg.qr(rng.standard_normal((20, 20)))[0]
        spectrum = np.linalg.svd(a, compute_uv=False)
        assert spectrum[-1] / spectrum[0] == pytest.approx(ratio, rel=1e-3)
        linalg_calls.clear()
        got = span(n, list(a.T))
        route = ("qr", (64, 20), {"mode": "complete"}) if ratio == 1e-6 else \
            ("svd", (64, 20), {"full_matrices": True})
        assert linalg_calls == [("cholesky", (20, 20), {}), route]
        want = ref.orthonormal_range(a, TAU_RANK)
        assert got.dim == want.shape[1] == rank
        tol = max(tau_eq(n), 100 * np.finfo(float).eps / ratio) if rank == 20 else tau_eq(n)
        assert np.linalg.norm(got.projector() - want @ want.T) <= tol

    @pytest.mark.parametrize("g", [np.full((20, 20), np.nan), np.diag([np.inf] + [1.0] * 19)])
    def test_certificate_declines_non_finite_gram(self, g):
        # a Cholesky of NaNs completes without raising, so the trace guards it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _certifies_rank(g.copy(), 64 + 20 + 3)

    @pytest.mark.parametrize("k, zero_columns, rank", [(16, slice(None), 0), (20, 7, 19)])
    def test_qr_route_declines_zero_columns(self, linalg_calls, k, zero_columns, rank):
        n = 64
        a = np.random.default_rng(k).standard_normal((64, k))
        a[:, zero_columns] = 0.0
        linalg_calls.clear()
        got = span(n, list(a.T))
        assert linalg_calls == [("cholesky", (k, k), {}), ("svd", (64, k), {"full_matrices": True})]
        assert got.dim == rank
        _same(got, ref.orthonormal_range(a, TAU_RANK))

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    @pytest.mark.parametrize("ratio, rank", [(1e-8, 2), (3e-9, 2), (3e-10, 1), (1e-10, 1)])
    def test_near_parallel_lines(self, n, ratio, rank):
        # the join's second singular value sits within a factor 10 of tau_rank = 1e-9
        tau = TAU_RANK
        va, vb = _near_parallel(n, ratio, np.random.default_rng(n))
        a, b = np.array(va).T, np.array(vb).T
        s, t = span(n, va), span(n, vb)
        s0, t0 = ref.orthonormal_range(a, tau), ref.orthonormal_range(b, tau)
        # A kept direction with sigma ratio rho is only determined to about
        # eps / rho (Wedin's theorem), so near the cutoff both kernels, and one
        # kernel under swapped operands, agree only to a few times that.
        tol = 100 * np.finfo(float).eps / ratio if rank == 2 else tau_eq(n)
        pairs = [
            (span(n, va + vb), ref.orthonormal_range(np.hstack([a, b]), tau)),
            (join(s, t), ref.join(s0, t0, tau)),
            # nearly parallel hyperplanes: their meet decides the same rank
            (meet(ortho(s), ortho(t)), ref.meet(ref.ortho(s0), ref.ortho(t0), tau)),
            (mul(s, t), ref.mul(s0, t0, tau)),
            (residuum(s, t), ref.residuum(s0, t0, tau)),
        ]
        assert [got.dim for got, _ in pairs[:3]] == [rank, rank, n - rank]
        for got, want in pairs:
            assert got.dim == want.shape[1]
            assert np.linalg.norm(got.projector() - want @ want.T) <= tol

    def test_svd_calls(self, linalg_calls):
        # a product or join that may span R^n first factors its n x n Gram
        # matrix; the SVD decides only what that Cholesky does not certify
        n = 8
        rng = np.random.default_rng(5)
        s = span(n, list(rng.standard_normal((8, 3)).T))
        t = span(n, list(rng.standard_normal((8, 5)).T))
        certificate = ("cholesky", (8, 8), {})
        for op, operands, want in (
            (ortho, (s,), []),
            # complements of dimensions 5 and 3 join to R^8
            (meet, (s, t), [certificate]),
            # 3 * 3 Hadamard products of s and t's complement span R^8
            (residuum, (s, t), [certificate]),
            # the Gram matrix 2 P of the complement of s has rank 5
            (meet, (s, s), [certificate, ("svd", (8, 10), {"full_matrices": False})]),
            (join, (s, s), [("svd", (8, 6), {"full_matrices": True})]),
            # span takes one SVD of its raw vectors, whatever their number
            (span, (8, list(rng.standard_normal((8, 8)))), [("svd", (8, 8), {"full_matrices": False})]),
        ):
            linalg_calls.clear()
            op(*operands)
            assert linalg_calls == want, op.__name__

    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("op", ["mul", "join"])
    @pytest.mark.parametrize("ratio", [1e-2, 1e-6, 3e-9, 3e-10])
    def test_gram_certificate_margin(self, linalg_calls, n, op, ratio):
        # operands whose spanning matrix A spans R^n with sigma_n / sigma_0 =
        # ratio.  mul: a rotated basis of R^n times the line through v = (1,
        # 0.1, ..., ratio), so A = diag(v / |v|) Q and the certificate reads
        # the diagonal of the line's projector, with no factorisation.  join:
        # a hyperplane and a line at angle 2 atan(ratio) to it, so sigma^2 =
        # 1 +- cos(angle) on their plane and 1 elsewhere.
        tau = TAU_RANK
        rng = np.random.default_rng([n, len(op)])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if op == "mul":
            v = np.full(n, 0.1)
            v[0], v[-1] = 1.0, ratio
            s, t = span(n, list(q.T)), span(n, [v])
            a = (s.basis[:, :, None] * t.basis[:, None, :]).reshape(n, -1)
            want = ref.mul(s.basis, t.basis, tau)
        else:
            angle = 2 * math.atan(ratio)
            s = span(n, [q[:, 0]] + list(q[:, 2:].T))
            t = span(n, [math.cos(angle) * q[:, 0] + math.sin(angle) * q[:, 1]])
            a = np.hstack([s.basis, t.basis])
            want = ref.join(s.basis, t.basis, tau)
        spectrum = np.linalg.svd(a, compute_uv=False)
        assert spectrum[-1] / spectrum[0] == pytest.approx(ratio, rel=1e-3)
        # the written margin: lambda_min(G) / tr(G) must reach tau^2 + 4mu
        m = n + s.dim + t.dim + 3
        margin = tau ** 2 + 2 * m * np.finfo(float).eps
        rho = spectrum[-1] ** 2 / (spectrum ** 2).sum()
        assert abs(rho - margin) > 0.1 * margin
        certified = rho > margin
        # accepted at 1e-2, declined near the cutoff; at 1e-6 only the join
        # in R^64 falls short of the margin
        assert certified == (ratio == 1e-2 or ratio == 1e-6 and (n < 64 or op == "mul"))
        linalg_calls.clear()
        got = mul(s, t) if op == "mul" else join(s, t)
        certificate = [] if op == "mul" else [("cholesky", (n, n), {})]
        if certified:
            assert linalg_calls == certificate
            assert np.array_equal(got.basis, np.eye(n))
        else:
            assert linalg_calls == certificate + [("svd", a.shape, {"full_matrices": False})]
        assert got.dim == want.shape[1] == (n if ratio >= tau else n - 1)
        _same(got, want)

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("ratio", [1e-2, 1e-6, 3e-9, 3e-10])
    def test_product_certificate_margin(self, linalg_calls, n, ratio):
        # neither operand is R^n, so the n x n Gram matrix P_S o P_T is
        # factorised.  S is spanned by f_i = e_i + e_{i+n/2}, T by the unit
        # vector g on the first n/2 coordinates and h = v / |v| on the last,
        # v = (1, 0.1, ..., ratio): f_i o g and f_i o h are orthogonal
        # columns of norms sqrt(2 / n) and |h_i|, so A's singular values are
        # those, and sigma_n / sigma_0 = ratio
        tau = TAU_RANK
        k = n // 2
        v = np.full(k, 0.1)
        v[0], v[-1] = 1.0, ratio
        s = span(n, list(np.hstack([np.eye(k), np.eye(k)])))
        t = span(n, [np.r_[np.ones(k), np.zeros(k)], np.r_[np.zeros(k), v]])
        assert (s.dim, t.dim) == (k, 2)
        a = (s.basis[:, :, None] * t.basis[:, None, :]).reshape(n, -1)
        spectrum = np.linalg.svd(a, compute_uv=False)
        assert spectrum[-1] / spectrum[0] == pytest.approx(ratio, rel=1e-3)
        margin = tau ** 2 + 2 * (n + k + 2 + 3) * np.finfo(float).eps
        rho = spectrum[-1] ** 2 / (spectrum ** 2).sum()
        assert abs(rho - margin) > 0.1 * margin
        certified = rho > margin
        assert certified == (ratio >= 1e-6)
        linalg_calls.clear()
        got = mul(s, t)
        certificate = [("cholesky", (n, n), {})]
        if certified:
            assert linalg_calls == certificate
            assert np.array_equal(got.basis, np.eye(n))
        else:
            assert linalg_calls == certificate + [("svd", (n, n), {"full_matrices": False})]
        want = ref.mul(s.basis, t.basis, tau)
        assert got.dim == want.shape[1] == (n if ratio >= tau else n - 1)
        _same(got, want)

    # Spanning matrices with at least n columns, laid out to defeat
    # shortcuts that read only some columns or sums of column blocks: span
    # decides each with one SVD.

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    def test_random_spanning_matrices(self, n):
        rng = np.random.default_rng(200 + n)
        widths = {n, n * n, min(8 * n, n * n), min(8 * n + 1, n * n)}
        widths |= {int(k) for k in rng.integers(n, n * n + 1, size=6)}
        for k in sorted(widths):
            a = rng.standard_normal((n, k))
            _same(span(n, list(a.T)), ref.orthonormal_range(a, TAU_RANK))

    def test_zero_product(self):
        # coordinate subspaces on disjoint index sets: 64 Hadamard products,
        # every one exactly zero
        n = 16
        s, t = span(n, list(np.eye(16)[:8])), span(n, list(np.eye(16)[8:]))
        assert not (s.basis[:, :, None] * t.basis[:, None, :]).any()
        product = mul(s, t)
        assert product.dim == 0
        _same(product, ref.mul(s.basis, t.basis, TAU_RANK))
        _same(residuum(s, ortho(t)), ref.residuum(s.basis, t.complement, TAU_RANK))

    @pytest.mark.parametrize("n, k", [(3, 6), (8, 16), (8, 80), (16, 200), (64, 600)])
    def test_full_rank_behind_deficient_leading_columns(self, n, k):
        # the first n columns span one line and the n-wide column blocks
        # sum to a matrix of rank n - 1; the decomposition of all k columns
        # must still find rank n
        rng = np.random.default_rng(n + k)
        a = rng.standard_normal((n, k))
        a[:, :n] = rng.standard_normal((n, 1)) * rng.standard_normal(n)

        def block_sum(m):
            return np.hstack([m, np.zeros((n, -k % n))]).reshape(n, -1, n).sum(axis=1)

        a[:, n:2 * n] += rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n)) - block_sum(a)
        assert np.linalg.matrix_rank(a[:, :n]) == 1
        assert np.linalg.matrix_rank(block_sum(a)) == n - 1
        got = span(n, list(a.T))
        assert got.dim == n
        _same(got, ref.orthonormal_range(a, TAU_RANK))

    def test_small_leading_columns(self):
        # the first 3 columns, and the sum of the 3-wide column blocks,
        # where the two copies of the plane cancel, are well conditioned
        # but 1e-15 of the rest, which span a plane
        n = 3
        rng = np.random.default_rng(0)
        plane = 1e3 * rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
        a = np.hstack([1e-12 * np.eye(3), plane, -plane])
        got = span(n, list(a.T))
        assert got.dim == 2
        _same(got, ref.orthonormal_range(a, TAU_RANK))

    def test_underflowing_squares(self):
        # sigma_1 / sigma_0 = 5e-10, so A has rank 1; most squares of its
        # entries underflow to 0, and the computed ||A||_F = 1e-161 falls
        # far below sigma_0 = 1.5e-160.  Row 1 alternates in sign, so the
        # sum of the 2-wide column blocks keeps its direction
        n = 2
        a = np.zeros((2, 10000))
        a[0] = 1.5e-162
        a[0, 0] = 1e-161
        a[1] = 7.5e-172 * (-1.0) ** np.arange(10000)
        got = span(n, list(a.T))
        assert got.dim == 1
        _same(got, ref.orthonormal_range(a, TAU_RANK))

    @pytest.mark.parametrize("n", [4, 64])
    @pytest.mark.parametrize("wide", [False, True], ids=["n-8n", "over-8n"])
    @pytest.mark.parametrize("layout", ["leading", "generic"])
    @pytest.mark.parametrize("ratio, kept", [(1e-8, True), (3e-9, True), (3e-10, False),
                                             (1e-10, False)])
    def test_near_cutoff_spanning_matrices(self, linalg_calls, n, wide, layout, ratio, kept):
        # A has sigma_n / sigma_0 = ratio.  "leading" is [B, 1e-3 B, ...],
        # whose n-wide column blocks all span range(B); "generic" is
        # U diag(sigma) V^T for a random V.  span takes one SVD of either.
        rng = np.random.default_rng([n, int(wide)])
        copies = 10 if wide else 3
        k = copies * n
        sigma = np.full(n, 1e-3)
        sigma[0], sigma[-1] = 1.0, ratio
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if layout == "leading":
            w, _ = np.linalg.qr(rng.standard_normal((n, n)))
            b = (u * sigma) @ w.T
            a = np.hstack([b] + [1e-3 * b] * (copies - 1))
        else:
            v, _ = np.linalg.qr(rng.standard_normal((k, n)))
            a = (u * sigma) @ v.T
        assert (k > 8 * n) == wide
        spectrum = np.linalg.svd(a, compute_uv=False)
        assert spectrum[n - 1] / spectrum[0] == pytest.approx(ratio, rel=1e-3)
        linalg_calls.clear()
        got = span(n, list(a.T))
        assert linalg_calls == [("svd", (n, k), {"full_matrices": False})]
        want = ref.orthonormal_range(a, TAU_RANK)
        assert got.dim == want.shape[1] == (n if kept else n - 1)
        _same(got, want)

    @pytest.mark.parametrize("n", [4, 64])
    @pytest.mark.parametrize("ratio, kept", [(2e-9, True), (5e-10, False)])
    def test_repeated_blocks_near_cutoff(self, n, ratio, kept):
        # A = [C, ..., C] ten times: its blocks sum to 10 C, whose sigma_n is
        # sqrt(10) times A's, so at ratio 5e-10 a rule read off that sum
        # would keep a direction the SVD of A drops
        rng = np.random.default_rng(n)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sigma = np.full(n, 1e-6)
        sigma[0], sigma[-1] = 1.0, ratio
        a = np.hstack([(u * sigma) @ v.T] * 10)
        got, want = span(n, list(a.T)), ref.orthonormal_range(a, TAU_RANK)
        assert got.dim == want.shape[1] == (n if kept else n - 1)
        _same(got, want)

    # Products with more than 8n spanning columns.

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_wide_random_products(self, n):
        tau = TAU_RANK
        rng = np.random.default_rng(100 + n)
        for _ in range(6):
            r = int(rng.integers(9, n + 1))
            k = int(rng.integers(8 * n // r + 1, n + 1))
            a, b = rng.standard_normal((n, r)), rng.standard_normal((n, k))
            s, t = span(n, list(a.T)), span(n, list(b.T))
            s0, t0 = ref.orthonormal_range(a, tau), ref.orthonormal_range(b, tau)
            assert s.dim * t.dim > 8 * n
            _same(mul(s, t), ref.mul(s0, t0, tau))
            # s -> complement(t) is the complement of s * t
            _same(residuum(s, ortho(t)), ref.residuum(s0, ref.ortho(t0), tau))

    @pytest.mark.parametrize("n, a, b", [(16, range(0, 12), range(4, 16)),
                                         (32, range(0, 24), range(8, 32)),
                                         (64, range(0, 48), range(16, 64)),
                                         (64, range(0, 32), range(0, 32))])
    def test_wide_rank_deficient_products(self, n, a, b):
        # coordinate subspaces in rotated bases: their product is exactly the
        # coordinate subspace on the common indices, from |a| * |b| columns
        tau = TAU_RANK
        rng = np.random.default_rng(n + len(a))
        s = rebased(span(n, list(np.eye(n)[list(a)])), rng)
        t = rebased(span(n, list(np.eye(n)[list(b)])), rng)
        common = sorted(set(a) & set(b))
        product = mul(s, t)
        assert len(a) * len(b) > 8 * n and product.dim == len(common)
        _same(product, ref.mul(s.basis, t.basis, tau))
        _same(product, np.eye(n)[:, common])
        _same(residuum(s, ortho(t)), ref.residuum(s.basis, t.complement, tau))

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("ratio, kept", [(1e-8, True), (3e-9, True), (3e-10, False),
                                             (1e-10, False)])
    def test_wide_near_cutoff_products(self, n, ratio, kept):
        # s is the coordinate subspace on the first 3n/4 indices and t a generic
        # subspace of e_0's complement whose first basis vector is tilted towards
        # e_0.  The product is spanned by those e_i with singular values
        # |P_t e_i|, so e_0 sits at the given sigma ratio to the largest.
        tau = TAU_RANK
        m = 3 * n // 4
        rng = np.random.default_rng(n)
        s = rebased(span(n, list(np.eye(n)[:m])), rng)
        t_basis, _ = np.linalg.qr(rng.standard_normal((n, m)) * (np.arange(n) > 0)[:, None])
        largest = np.linalg.norm(t_basis[1:m], axis=1).max()
        angle = math.asin(ratio * largest)
        t_basis[:, 0] = math.cos(angle) * t_basis[:, 0] + math.sin(angle) * np.eye(n)[0]
        t = span(n, list(t_basis.T))
        products = (s.basis[:, :, None] * t.basis[:, None, :]).reshape(n, -1)
        sigma = np.linalg.svd(products, compute_uv=False)
        assert products.shape[1] > 8 * n
        assert sigma[m - 1] / sigma[0] == pytest.approx(ratio, rel=1e-3)
        got, want = mul(s, t), ref.mul(s.basis, t.basis, tau)
        assert got.dim == want.shape[1] == (m if kept else m - 1)
        tol = 100 * np.finfo(float).eps / ratio if kept else tau_eq(n)
        assert np.linalg.norm(got.projector() - want @ want.T) <= tol
        neg = residuum(s, ortho(t))
        assert neg.dim == n - got.dim
        assert np.linalg.norm(neg.projector() - (np.eye(n) - want @ want.T)) <= tol

    def test_wide_product_decompositions(self, linalg_calls):
        n = 16
        rng = np.random.default_rng(7)
        s = span(n, list(rng.standard_normal((16, 12)).T))
        t = span(n, list(rng.standard_normal((16, 12)).T))
        # one Cholesky factorisation of the 16 x 16 Gram matrix, P_s o P_t
        # or P_s + P_t, certifies rank 16; the product's 144 columns are
        # never formed
        certificate = ("cholesky", (16, 16), {})
        linalg_calls.clear()
        assert mul(s, t).dim == 16
        assert linalg_calls == [certificate]
        linalg_calls.clear()
        assert join(s, t).dim == 16
        assert linalg_calls == [certificate]
        # coordinate subspaces on 0..11 and 4..15: their product is the one on
        # 4..11, so the certificate fails and one thin SVD of the 16 x 144
        # spanning matrix decides
        s = rebased(span(n, list(np.eye(16)[:12])), rng)
        t = rebased(span(n, list(np.eye(16)[4:])), rng)
        linalg_calls.clear()
        assert mul(s, t).dim == 8
        assert linalg_calls == [certificate, ("svd", (16, 144), {"full_matrices": False})]
        linalg_calls.clear()
        assert main(["rn", "--dim", "16", "--trials", "20", "--seed", "1"]) == 0
        assert {c[0] for c in linalg_calls} == {"svd", "cholesky"}

    def test_full_operand_products(self, linalg_calls):
        # a certified result is R^n in the standard basis.  As an operand of
        # a product R^n in any basis has projector I, so the Gram matrix is
        # I o P_t, the diagonal of P_t, which certifies rank n without a
        # factorisation
        n = 16
        rng = np.random.default_rng(11)
        e, t = full(n), span(n, list(rng.standard_normal((16, 12)).T))
        rotated = span(n, list(rng.standard_normal((16, 16)).T))
        assert rotated.dim == 16 and not np.array_equal(rotated.basis, np.eye(16))
        for s, u in ((e, t), (t, e), (e, e), (mul(t, t), t), (rotated, t), (t, rotated)):
            linalg_calls.clear()
            got = mul(s, u)
            assert got.dim == 16
            assert linalg_calls == []
            _same(got, ref.mul(s.basis, u.basis, TAU_RANK))


def _bound_operands(n, rng):
    """0 and R^n as operations meet them: the shared bounds, bounds from
    factorisations (an SVD's U spans R^n, zero vectors span 0) and rebased
    bounds."""
    generic = span(n, list(rng.standard_normal((n, n)).T))
    assert generic.dim == n and not np.array_equal(generic.basis, np.eye(n))
    return [full(n), zero(n), generic, span(n, [np.zeros(n)] * 2), rebased(full(n), rng),
            rebased(generic, rng)]


class TestBoundOperands:
    """Operations with an operand of dimension 0 or n take no factorisation
    where the dimensions decide; each is held to the former kernel."""

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_shared_read_only_bounds(self, n):
        assert full(n) is full(n) and zero(n) is zero(n)
        assert np.array_equal(full(n).basis, np.eye(n)) and zero(n).basis.shape == (n, 0)
        assert _split(np.zeros((n, 0))) is zero(n)
        for a in (full(n).basis, full(n).projector(), zero(n).complement):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
        s = span(n, [np.ones(n)])
        assert mul(zero(n), s) is zero(n) and mul(s, zero(n)) is zero(n)
        assert join(full(n), s) is full(n) and join(s, full(n)) is full(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    def test_against_reference(self, linalg_calls, n):
        tau, tol = TAU_RANK, tau_eq(n)
        rng = np.random.default_rng(500 + n)
        bounds = _bound_operands(n, rng)
        dims = range(n + 1) if n <= 8 else (0, 1, 2, 63)
        others = bounds + [span(n, list(rng.standard_normal((n, k)).T)) for k in dims]
        for b in bounds:
            for o in others:
                for s, t in ((b, o), (o, b)):
                    assert equal(s, t) == ref.equal(s.basis, t.basis, tol)
                    assert leq(s, t) == ref.leq(s.basis, t.basis, tol)
                    linalg_calls.clear()
                    join_st = join(s, t)
                    if n in (s.dim, t.dim):  # R^n without a decomposition
                        assert join_st is full(n) and linalg_calls == []
                    _same(join_st, ref.join(s.basis, t.basis, tau))
                    _same(meet(s, t), ref.meet(s.basis, t.basis, tau))
                    _same(mul(s, t), ref.mul(s.basis, t.basis, tau))
                    _same(residuum(s, t), ref.residuum(s.basis, t.basis, tau))

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_vanishing_coordinate(self, linalg_calls, n):
        # t spans the coordinate hyperplane x_j = 0, so diag(P_t) has a 0:
        # the certificate declines, and the SVD of the product matrix gives
        # that hyperplane
        rng = np.random.default_rng(600 + n)
        j = int(rng.integers(n))
        vectors = rng.standard_normal((n, n - 1))
        vectors[j] = 0.0
        t = span(n, list(vectors.T))
        hyperplane = np.delete(np.eye(n), j, axis=1)
        for b in _bound_operands(n, rng):
            for s, u in ((b, t), (t, b)):
                linalg_calls.clear()
                got = mul(s, u)
                if b.dim == n:
                    assert linalg_calls == [("svd", (n, n * (n - 1)), {"full_matrices": False})]
                    _same(got, hyperplane)
                _same(got, ref.mul(s.basis, u.basis, TAU_RANK))

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    @pytest.mark.parametrize("ratio", [1e-2, 1e-6, 3e-9, 3e-10])
    def test_diagonal_certificate_at_the_margin(self, linalg_calls, n, ratio):
        # the line through v = (1, 0.1, ..., ratio) times R^n: the
        # certificate on the diagonal of the line's projector gives the
        # verdict of the dense Cholesky of P_S o P_T
        v = np.full(n, 0.1)
        v[0], v[-1] = 1.0, ratio
        t = span(n, [v])
        for b in _bound_operands(n, np.random.default_rng(700 + n)):
            if b.dim < n:
                continue
            dense = _certifies_rank(b.projector() * t.projector(), n + n + 1 + 3)
            assert dense == (ratio >= 1e-6)
            for s, u in ((b, t), (t, b)):
                linalg_calls.clear()
                got = mul(s, u)
                assert (got is full(n)) == dense
                assert linalg_calls == ([] if dense else [("svd", (n, n), {"full_matrices": False})])
                assert got.dim == (n if ratio >= TAU_RANK else n - 1)
                _same(got, ref.mul(s.basis, u.basis, TAU_RANK))


class TestResiduumByDefinition:
    """residuum(s, t) = ortho(s * ortho(t)) against the kernel of the
    stacked (I - P_t) diag(b), b over s's basis (reference_subspaces)."""

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_seeded_samples(self, n):
        rng = np.random.default_rng(800 + n)
        bounds = _bound_operands(n, rng)
        pairs = [(b, c) for b in bounds[:3] for c in bounds[:3]]
        pairs += [(b, random_subspace(n, rng)) for b in bounds] + [(random_subspace(n, rng), b)
                                                                    for b in bounds]
        pairs += [(random_subspace(n, rng), random_subspace(n, rng)) for _ in range(8 if n == 64 else 30)]
        pairs += [(unit(n), random_subspace(n, rng)), (dualizing(n), dualizing(n))]
        for _ in range(6):
            # coordinate subspaces on A and B in rotated bases: s -> t is the
            # coordinate subspace off A \ B, a proper one in general
            a, b = rng.random(n) < 0.5, rng.random(n) < 0.5
            pairs.append((rebased(span(n, list(np.eye(n)[a])), rng),
                          rebased(span(n, list(np.eye(n)[b])), rng)))
        proper = 0
        for s, t in pairs:
            want = ref.residuum_by_definition(s.basis, t.basis, 1e-8)
            # the kernel is the same at cutoffs 100 times either side
            assert ref.residuum_by_definition(s.basis, t.basis, 1e-6).shape == want.shape
            assert ref.residuum_by_definition(s.basis, t.basis, 1e-10).shape == want.shape
            got = residuum(s, t)
            _same(got, want)
            proper += 0 < got.dim < n
        assert proper >= 3


def _exact_rank(vectors) -> int:
    """Rank over Q of float vectors, each entry at its exact binary value."""
    rows = [[Fraction(float(x)) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestExactRank:
    """Integer operands against exact rational row reduction: a product or
    join whose Hadamard products or stacked vectors have exact rank below n
    is never R^n, whatever the certificate or the SVD make of them."""

    def test_exact_rank_oracle(self):
        assert _exact_rank([]) == 0
        assert _exact_rank([(1e15, 1e15 + 1), (1e15 + 1, 1e15 + 2)]) == 2
        assert _exact_rank([(1e15, 1e15 + 1), (2e15, 2e15 + 2), (0, 0)]) == 1
        assert _exact_rank([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_never_full_below_exact_rank(self, n):
        rng = np.random.default_rng(40 + n)
        i = np.arange(n)
        tried = 0
        for k in (0, 4, 8, 12, 15):
            # near-degenerate ramps (10^k, 10^k + 1, ...): with the ones they
            # span the same plane as (0, 1, ...) at every k
            pool = [np.ones(n), 10.0 ** k + i, 10.0 ** k + 1 + i, i * i, (-1.0) ** i,
                    10.0 ** k * (-1.0) ** i + i]
            pool += list(rng.integers(-2, 3, size=(3, n)).astype(float))
            for _ in range(40):
                u = [pool[j] for j in rng.choice(len(pool), int(rng.integers(1, 4)), replace=False)]
                v = [pool[j] for j in rng.choice(len(pool), int(rng.integers(1, 4)), replace=False)]
                s, t = span(n, u), span(n, v)
                products = _exact_rank([x * y for x in u for y in v])
                stacked = _exact_rank(u + v)
                assert mul(s, t).dim <= products
                assert join(s, t).dim <= stacked
                tried += (s.dim * t.dim >= n and products < n) + (s.dim + t.dim >= n and stacked < n)
        # the certificate is tried, and must decline, on rank-deficient cases
        assert tried >= 10


class TestMO2Bridge:
    def test_r2_subspaces_are_the_catalog_model(self, r2, linalg_calls):
        # 0, e, d, the x and y axes and R^2, in the catalog's element order
        o, table = mo2_subspace_model()
        x, one = span(r2, [(1, 0)]), full(r2)
        elements = [zero(r2), span(r2, [(1, 1)]), span(r2, [(1, -1)]), x, span(r2, [(0, 1)]), one]

        def index(a):
            (k,) = [j for j, b in enumerate(elements) if equal(a, b)]
            return k

        assert tuple(tuple(index(mul(a, b)) for b in elements) for a in elements) == table
        assert tuple(index(ortho(a)) for a in elements) == o.ortho
        assert np.array_equal([[leq(a, b) for b in elements] for a in elements], o.lattice.leq)
        # 1 * 1 has Gram matrix I and is certified on its diagonal; x * 1 has
        # diag(1, 0), so the certificate declines and the SVD decides
        linalg_calls.clear()
        assert mul(one, one) is one
        assert linalg_calls == []
        linalg_calls.clear()
        assert equal(mul(x, one), x)
        assert linalg_calls == [("svd", (2, 2), {"full_matrices": False})]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 5),
    vecs=st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=5), max_size=4),
)
def test_span_properties(n, vecs):
    """Integer-coordinate spans: rank bounds and complement arithmetic."""
    rows = [v[:n] + [0] * (n - len(v)) for v in vecs]
    s = span(n, [list(map(float, r)) for r in rows])
    assert 0 <= s.dim <= min(n, len(rows))
    assert s.dim + ortho(s).dim == n
    assert equal(ortho(ortho(s)), s)
    assert leq(s, full(n)) and leq(zero(n), s)
