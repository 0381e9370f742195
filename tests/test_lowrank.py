import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrkrylov.linops import unvec, vec
from lrkrylov.lowrank import (
    apply_transform,
    build_reweighter,
    build_reweighter_from_basis,
    identity_reweighter,
    precondition,
    shrink,
    svd,
    truncate,
)

from dense import reconstruct, smooth_schatten, smooth_schatten_gradient

square = arrays(np.float64, (4, 4),
                elements=st.floats(-10, 10, allow_nan=False))


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 1.0]))
        assert np.allclose(f.sigma, [3, 1])
        assert np.allclose(f.U, np.eye(2))
        assert np.allclose(f.V, np.eye(2))

    def test_zero_matrix(self):
        assert np.all(svd(np.zeros((3, 3))).sigma == 0)

    def test_sigma_matches_gram_eigenvalues(self):
        X = np.random.default_rng(0).standard_normal((6, 6))
        ev = np.sort(np.linalg.eigvalsh(X.T @ X))[::-1]
        assert np.allclose(svd(X).sigma, np.sqrt(ev), atol=1e-9)

    def test_reconstruct(self):
        X = np.random.default_rng(1).standard_normal((5, 5))
        assert np.allclose(reconstruct(svd(X)), X, atol=1e-12)

    def test_sign_convention_deterministic(self):
        X = np.random.default_rng(2).standard_normal((5, 5))
        f1, f2 = svd(X), svd(X.copy())
        assert np.array_equal(f1.U, f2.U)
        for col in f1.U.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_non_finite_rejected(self):
        X = np.eye(3)
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            svd(X)


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
        s = svd(X).sigma
        err = np.linalg.norm(unvec(truncate(vec(X), 2), 4) - X, "fro")
        assert abs(err - np.sqrt(s[2] ** 2 + s[3] ** 2)) <= 1e-10

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


def explicit_pair(rw):
    """Dense S = V^T (x) U^T and diag(W) for cross-checking."""
    S = np.kron(rw.V.T, rw.U.T)
    n = rw.side
    with np.errstate(divide="ignore"):
        w = 1.0 / rw.inv_weights
    W_diag = np.tile(w, n)  # I (x) diag(w) scales rows of unvec
    return S, W_diag


class TestReweighter:
    def test_identity_reweighter(self):
        rw = identity_reweighter(4)
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
        rng = np.random.default_rng(13)
        rw = build_reweighter(svd(rng.standard_normal((4, 4))), 0.75, 1e-2)
        S, W_diag = explicit_pair(rw)
        for _ in range(10):
            v = rng.standard_normal(16)
            want = S.T @ (W_diag**power * (S @ v))
            assert np.linalg.norm(precondition(rw, v, power) - want) <= 1e-12
            want_s = W_diag**power * (S @ v)
            got_s = apply_transform(rw, v, "S", weight_power=power)
            assert np.linalg.norm(got_s - want_s) <= 1e-12

    def test_composed_powers(self):
        rw = build_reweighter(
            svd(np.random.default_rng(14).standard_normal((5, 5))), 1.0, 0.1)
        v = np.random.default_rng(15).standard_normal(25)
        twice = precondition(rw, precondition(rw, v, -1), -1)
        assert np.allclose(twice, precondition(rw, v, -2), atol=1e-12)

    def test_wrong_length_rejected(self):
        rw = identity_reweighter(4)
        with pytest.raises(ValueError):
            apply_transform(rw, np.zeros(15), "S")
        with pytest.raises(ValueError):
            apply_transform(rw, np.zeros(16), "sideways")

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            build_reweighter(svd(np.eye(3)), 1.0, 0.0)
        with pytest.raises(ValueError):  # NaN would give all-NaN weights
            build_reweighter(svd(np.eye(3)), 1.0, np.nan)


class TestBasisVariantReweighter:
    def test_composite_closed_form(self):
        # S^T W^{-1} S v = vec(U Sigma^{3/2 - p/4} V^T) for v's own SVD
        rng = np.random.default_rng(16)
        v = rng.standard_normal(25)
        for p in (1.0, 0.75):
            rw = build_reweighter_from_basis(v, p)
            f = svd(unvec(v, 5))
            want = vec((f.U * f.sigma ** (1.5 - p / 4)) @ f.V.T)
            assert np.allclose(precondition(rw, v, -1), want, atol=1e-10)
            want2 = vec((f.U * f.sigma ** (2.0 - p / 2)) @ f.V.T)
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
