import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrkrylov.linops import unvec, vec
from lrkrylov.lowrank import (
    Reweighter,
    SvdTriple,
    apply_transform,
    build_reweighter,
    build_reweighter_from_basis,
    precondition,
    shrink,
    svd,
    truncate,
)

from dense import full_svd, smooth_schatten, smooth_schatten_gradient

square = arrays(np.float64, (4, 4),
                elements=st.floats(-10, 10, allow_nan=False))


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 1.0]))
        assert np.allclose(f.sigma, [3, 1])
        assert np.allclose(f.U, np.eye(2))
        assert not hasattr(f, "V")  # nothing reads V, so none is kept

    def test_zero_matrix(self):
        assert np.all(svd(np.zeros((3, 3))).sigma == 0)

    def test_sigma_matches_gram_eigenvalues(self):
        X = np.random.default_rng(0).standard_normal((6, 6))
        ev = np.sort(np.linalg.eigvalsh(X.T @ X))[::-1]
        assert np.allclose(svd(X).sigma, np.sqrt(ev), atol=1e-9)

    def test_reconstruct(self):
        # X = U diag(sigma) V^T with the orthogonal V = X^T U / sigma
        X = np.random.default_rng(1).standard_normal((5, 5))
        f = svd(X)
        V = X.T @ f.U / f.sigma
        assert np.allclose(V.T @ V, np.eye(5), atol=1e-12)
        assert np.allclose((f.U * f.sigma) @ V.T, X, atol=1e-12)

    def test_repeat_factorization_deterministic(self):
        X = np.random.default_rng(2).standard_normal((5, 5))
        f1, f2 = svd(X), svd(X.copy())
        assert np.array_equal(f1.U, f2.U)

    def test_non_finite_rejected(self):
        X = np.eye(3)
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            svd(X)


EPS = np.finfo(float).eps


def orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def left_cases(n):
    """(name, X): random, rank n // 3, and graded (sigma from 1 down to
    1e-12) square matrices."""
    rng = np.random.default_rng(n)
    r = n // 3
    yield "random", rng.standard_normal((n, n))
    yield "rank", rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
    yield "graded", (orthogonal(rng, n) * np.logspace(0, -12, n)
                     ) @ orthogonal(rng, n).T


class TestLeftSvd:
    """``svd(X, left=True)``: U and sigma from eigh of the scaled Gram.

    The computed Gram and eigh's backward error perturb X X^T by about
    n eps sigma_1^2.  So U sigma^2 U^T, the Gram itself, is held to
    4 n eps sigma_1^2.  sigma and U sigma U^T = (X X^T)^(1/2) take the
    square root of that perturbation: by Weyl's bound and
    ||A^(1/2) - B^(1/2)|| <= ||A - B||^(1/2) for positive semidefinite A,
    B, they are held to sqrt(n eps) sigma_1, absolute.  So the small
    singular values of the rank-deficient and graded cases, which the Gram
    misses by up to about 2e-8 sigma_1 here, are not held relative to
    themselves.
    """

    @pytest.mark.parametrize("n", [6, 20, 64])
    def test_functions_of_sigma_match_full_svd(self, n):
        for _, X in left_cases(n):
            f, g = SvdTriple(*full_svd(X)[:2]), svd(X, left=True)
            top = f.sigma[0]
            assert np.all(np.diff(g.sigma) <= 0)
            assert np.allclose(g.U.T @ g.U, np.eye(n), atol=n * EPS * 10)
            assert np.max(np.abs(g.sigma - f.sigma)) <= np.sqrt(n * EPS) * top
            for power, tol in ((1, np.sqrt(n * EPS) * top),
                               (2, 4 * n * EPS * top**2)):
                want = (f.U * f.sigma**power) @ f.U.T
                got = (g.U * g.sigma**power) @ g.U.T
                assert np.linalg.norm(got - want, 2) <= tol

    def test_power_of_two_scaling_is_exact(self):
        X = np.random.default_rng(20).standard_normal((7, 7))
        g = svd(X, left=True)
        for k in (-600, -3, 1, 5, 600):
            gk = svd(np.ldexp(X, k), left=True)
            assert np.array_equal(gk.U, g.U)
            assert np.array_equal(gk.sigma, np.ldexp(g.sigma, k))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes(self, scale):
        # unscaled, X X^T overflows to inf at 1e200 and underflows to 0 at
        # 1e-200
        R = np.random.default_rng(21).standard_normal((6, 6))
        f, g = SvdTriple(*full_svd(R)[:2]), svd(scale * R, left=True)
        assert np.allclose(g.sigma / scale, f.sigma, rtol=1e-10, atol=0)
        got = (g.U * g.sigma) @ g.U.T / scale
        assert np.allclose(got, (f.U * f.sigma) @ f.U.T, atol=1e-12)

    def test_zero_matrix(self):
        g = svd(np.zeros((4, 4)), left=True)
        assert np.all(g.sigma == 0)
        assert np.allclose(g.U.T @ g.U, np.eye(4))
        assert np.all(truncate(np.zeros(16), 2) == 0)
        assert np.all(shrink(np.zeros((4, 4)), 0.0) == 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        X = np.eye(3)
        X[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            svd(X, left=True)
        with pytest.raises(ValueError, match="non-finite"):
            truncate(vec(X), 1)
        with pytest.raises(ValueError, match="non-finite"):
            shrink(X, 0.5)


class TestTruncate:
    def test_rank_one_unchanged(self):
        c = vec(np.outer([1.0, 2, 3], [4.0, 5, 6]))
        assert np.linalg.norm(truncate(c, 1) - c) <= 1e-12

    def test_full_rank_identity(self):
        c = np.random.default_rng(3).standard_normal(16)
        assert np.linalg.norm(truncate(c, 4) - c) <= 1e-10

    def test_out_of_range_kappa(self):
        c = np.zeros(16)
        with pytest.raises(ValueError):
            truncate(c, 0)
        with pytest.raises(ValueError):
            truncate(c, 5)

    def test_eckart_young_error(self):
        X = np.random.default_rng(4).standard_normal((4, 4))
        s = np.linalg.svd(X, compute_uv=False)
        err = np.linalg.norm(unvec(truncate(vec(X), 2), 4) - X, "fro")
        assert abs(err - np.sqrt(s[2] ** 2 + s[3] ** 2)) <= 1e-10

    def test_tie_at_the_cut(self):
        # sigma_kappa = sigma_kappa+1: U_k may hold any basis of the tied
        # pair, and U_k U_k^T X is still a best rank-kappa approximation
        rng = np.random.default_rng(22)
        sigma = np.array([3.0, 2.0, 2.0, 1.0, 0.5])
        X = (orthogonal(rng, 5) * sigma) @ orthogonal(rng, 5).T
        T = unvec(truncate(vec(X), 2), 5)
        assert np.linalg.svd(T, compute_uv=False)[2] <= 1e-12 * sigma[0]
        err = np.linalg.norm(T - X, "fro")
        assert abs(err - np.linalg.norm(sigma[2:])) <= 1e-12

    @given(square, st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_truncation_never_increases_distance(self, X, kappa):
        # tau_kappa is the metric projection onto rank-kappa matrices
        c = vec(X)
        t = truncate(c, kappa)
        assert np.linalg.norm(t - c) <= np.linalg.norm(c) + 1e-9


class TestShrink:
    def test_zero_threshold(self):
        X = np.random.default_rng(5).standard_normal((4, 4))
        assert np.allclose(shrink(X, 0.0), X, atol=1e-12)

    def test_large_threshold_annihilates(self):
        X = np.random.default_rng(6).standard_normal((4, 4))
        tau = svd(X).sigma[0] + 1.0
        assert np.all(shrink(X, tau) == 0)

    def test_diagonal_example(self):
        out = shrink(np.diag([5.0, 2.0, 1.0]), 1.5)
        assert np.allclose(out, np.diag([3.5, 0.5, 0.0]), atol=1e-12)

    def test_singular_value_at_threshold_maps_to_zero(self):
        # sigma = tau is dropped, not kept with a zero factor; the diagonal
        # Gram is exact, so sigma_2 equals tau to the last bit
        out = shrink(np.diag([5.0, 2.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([3.0, 0.0, 0.0]), atol=1e-14)
        assert out[1, 1] == 0 and out[2, 2] == 0
        # rotated, sigma_2 = sigma_3 = tau up to rounding: continuous there
        rng = np.random.default_rng(23)
        Q, P = orthogonal(rng, 4), orthogonal(rng, 4)
        got = shrink((Q * [3.0, 2.0, 2.0, 0.5]) @ P.T, 2.0)
        want = np.outer(Q[:, 0], P[:, 0])
        assert np.linalg.norm(got - want) <= 1e-12

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            shrink(np.eye(2), -0.1)
        with pytest.raises(ValueError):  # NaN would return a NaN matrix
            shrink(np.eye(2), np.nan)

    @given(square, square, st.floats(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_nonexpansive(self, X, Y, tau):
        lhs = np.linalg.norm(shrink(X, tau) - shrink(Y, tau), "fro")
        assert lhs <= np.linalg.norm(X - Y, "fro") + 1e-8


class TestSmoothSchatten:
    def test_zero_matrix(self):
        assert np.isclose(smooth_schatten(np.zeros((4, 4)), 1.0, 1e-2),
                          4 * np.sqrt(1e-2))
        assert np.all(smooth_schatten_gradient(np.zeros((4, 4)), 1.0,
                                               1e-2) == 0)

    def test_nuclear_norm_limit(self):
        X = np.diag([3.0, 4.0])
        assert abs(smooth_schatten(X, 1.0, 1e-14) - 7.0) <= 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((5, 5))
        for p, gamma in [(1.0, 1e-2), (0.75, 1.0)]:
            G = smooth_schatten_gradient(X, p, gamma)
            h = 1e-6
            for _ in range(5):
                E = rng.standard_normal((5, 5))
                fd = (smooth_schatten(X + h * E, p, gamma)
                      - smooth_schatten(X - h * E, p, gamma)) / (2 * h)
                assert abs(fd - np.sum(G * E)) <= 1e-5 * max(abs(fd), 1.0)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((4, 4))
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        assert np.isclose(smooth_schatten(Q @ X, 0.8, 0.1),
                          smooth_schatten(X, 0.8, 0.1))

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            smooth_schatten(np.eye(2), 1.0, 0.0)
        with pytest.raises(ValueError):
            smooth_schatten_gradient(np.eye(2), 1.0, -1.0)


def paper_reweighter(X, p, gamma):
    """The reweighter built from NumPy's SVD of X, and that SVD's V."""
    U, sigma, V = full_svd(X)
    return build_reweighter(SvdTriple(U, sigma), p, gamma), V


def explicit_pair(rw, V):
    """Dense transforms and diag(W) for cross-checking: the paper's
    S = V^T (x) U^T, and the package's S' = I (x) U^T."""
    n = rw.side
    with np.errstate(divide="ignore"):
        w = 1.0 / rw.inv_weights
    W_diag = np.tile(w, n)  # I (x) diag(w) scales rows of unvec
    return np.kron(V.T, rw.U.T), np.kron(np.eye(n), rw.U.T), W_diag


class TestReweighter:
    def test_identity_reweighter(self):
        # W_0 = S_0 = I, which the solvers run as no reweighter at all
        rw = Reweighter(np.eye(4), np.ones(4))
        v = np.random.default_rng(9).standard_normal(16)
        assert np.allclose(apply_transform(rw, v, "S"), v)
        assert np.allclose(precondition(rw, v, -2), v)

    def test_identity_iterate_gives_scalar_weights(self):
        p, gamma = 0.8, 0.5
        rw = build_reweighter(svd(np.eye(4)), p, gamma)
        v = np.random.default_rng(10).standard_normal(16)
        scale = (1 + gamma) ** (-2 * (p / 4 - 0.5))
        assert np.allclose(precondition(rw, v, -2), scale * v, atol=1e-12)

    def test_transform_is_orthogonal(self):
        rw = build_reweighter(
            svd(np.random.default_rng(11).standard_normal((4, 4))), 1.0, 1e-2)
        v = np.random.default_rng(12).standard_normal(16)
        s = apply_transform(rw, v, "S")
        assert np.isclose(np.linalg.norm(s), np.linalg.norm(v))
        assert np.allclose(apply_transform(rw, s, "S_transpose"), v,
                           atol=1e-10)

    @pytest.mark.parametrize("power", [-2, -1, 0, 1])
    def test_matches_explicit_kronecker(self, power):
        # the composite against the paper's S, the transform against S'
        rng = np.random.default_rng(13)
        rw, V = paper_reweighter(rng.standard_normal((4, 4)), 0.75, 1e-2)
        S, S1, W_diag = explicit_pair(rw, V)
        for _ in range(10):
            v = rng.standard_normal(16)
            want = S.T @ (W_diag**power * (S @ v))
            assert np.linalg.norm(precondition(rw, v, power) - want) <= 1e-12
            want_s = W_diag**power * (S1 @ v)
            got_s = apply_transform(rw, v, "S", weight_power=power)
            assert np.linalg.norm(got_s - want_s) <= 1e-12

    def test_one_sided_transform_equals_paper_transform(self):
        # (V (x) U)(I (x) D)(V^T (x) U^T) = I (x) U D U^T: S' = I (x) U^T
        # gives the paper's penalty ||W^q S v|| and composite S^T W^q S v
        rng = np.random.default_rng(18)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            rw, V = paper_reweighter(rng.standard_normal((n, n)),
                                     rng.uniform(0.1, 1.0),
                                     10.0 ** rng.uniform(-6, 0))
            S, _, W_diag = explicit_pair(rw, V)
            v = rng.standard_normal(n * n)
            for power in (-2, -1, 0, 1):
                paper = W_diag**power * (S @ v)
                one_sided = apply_transform(rw, v, "S", weight_power=power)
                assert np.isclose(np.linalg.norm(one_sided),
                                  np.linalg.norm(paper), rtol=1e-12, atol=0)
                want = S.T @ paper
                got = precondition(rw, v, power)
                assert np.linalg.norm(got - want) <= (
                    1e-12 * np.linalg.norm(want))

    def test_composed_powers(self):
        rw = build_reweighter(
            svd(np.random.default_rng(14).standard_normal((5, 5))), 1.0, 0.1)
        v = np.random.default_rng(15).standard_normal(25)
        twice = precondition(rw, precondition(rw, v, -1), -1)
        assert np.allclose(twice, precondition(rw, v, -2), atol=1e-12)

    def test_wrong_length_rejected(self):
        rw = Reweighter(np.eye(4), np.ones(4))
        with pytest.raises(ValueError, match="length 16"):
            apply_transform(rw, np.zeros(15), "S")
        with pytest.raises(ValueError, match="length 16"):
            precondition(rw, np.zeros(15), 0)
        with pytest.raises(ValueError):
            apply_transform(rw, np.zeros(16), "sideways")

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            build_reweighter(svd(np.eye(3)), 1.0, 0.0)
        with pytest.raises(ValueError):  # NaN would give all-NaN weights
            build_reweighter(svd(np.eye(3)), 1.0, np.nan)

    @pytest.mark.parametrize("p", [np.nan, -3.0, 0.0, 1.5, np.inf])
    def test_p_outside_unit_interval_rejected(self, p):
        # NaN gave all-NaN weights, and p = -3 weights spanning 34 to 5e-21
        with pytest.raises(ValueError, match="p must be"):
            build_reweighter(svd(np.diag([2.0, 1.0, 0.5])), p, 1.0)
        with pytest.raises(ValueError, match="p must be"):
            build_reweighter_from_basis(np.arange(1, 10.0), p)

    def test_paired_sign_flip_changes_no_bit(self):
        # negating column i of U negates only factors that meet in pairs
        # (U D U^T), and negation is exact
        rng = np.random.default_rng(17)
        rw = build_reweighter(svd(rng.standard_normal((6, 6))), 0.8, 1e-2)
        signs = np.where(np.arange(6) % 3 == 0, -1.0, 1.0)
        flipped = Reweighter(rw.U * signs, rw.inv_weights)
        for _ in range(5):
            v = rng.standard_normal(36)
            for power in (-2, -1, 0, 1):
                assert np.array_equal(precondition(flipped, v, power),
                                      precondition(rw, v, power))


class TestBasisVariantReweighter:
    def test_composite_closed_form(self):
        # S^T W^{-1} S v = vec(U Sigma^{3/2 - p/4} V^T) for v's own SVD
        rng = np.random.default_rng(16)
        v = rng.standard_normal(25)
        for p in (1.0, 0.75):
            rw = build_reweighter_from_basis(v, p)
            U, sigma, V = full_svd(unvec(v, 5))
            want = vec((U * sigma ** (1.5 - p / 4)) @ V.T)
            assert np.allclose(precondition(rw, v, -1), want, atol=1e-10)
            want2 = vec((U * sigma ** (2.0 - p / 2)) @ V.T)
            assert np.allclose(precondition(rw, v, -2), want2, atol=1e-10)

    def test_rank_one_stays_parallel(self):
        v = vec(np.outer([1.0, -2.0, 0.5], [0.3, 1.0, 2.0]))
        rw = build_reweighter_from_basis(v, 1.0)
        out = precondition(rw, v, -2)
        cos = v @ out / (np.linalg.norm(v) * np.linalg.norm(out))
        assert abs(abs(cos) - 1) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            build_reweighter_from_basis(np.zeros(16), 1.0)

    def test_inverse_weights_finite_for_singular_input(self):
        v = vec(np.outer([1.0, 0.0], [1.0, 0.0]))
        rw = build_reweighter_from_basis(v, 1.0)
        assert np.all(np.isfinite(rw.inv_weights))
