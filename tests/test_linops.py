import numpy as np
import pytest
import scipy.sparse as sp

from lrkrylov import linops
from lrkrylov._tomo_kernels import trace_rays
from lrkrylov.linops import (
    _blur_band_matrix,
    gaussian_blur_operator,
    identity_operator,
    inpainting_operator,
    shaking_blur_operator,
    tomography_operator,
    unvec,
    vec,
)


def dense_adjoint(op):
    return np.column_stack([op.rmatvec(e) for e in np.eye(op.rows)])


class TestVecUnvec:
    def test_column_major(self):
        assert np.array_equal(unvec(np.array([1, 2, 3, 4]), 2),
                              [[1, 3], [2, 4]])

    def test_identity(self):
        assert np.array_equal(vec(np.eye(2)), [1, 0, 0, 1])

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.standard_normal(25)
            assert np.array_equal(vec(unvec(r, 5)), r)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="16"):
            unvec(np.zeros(15), 4)
        with pytest.raises(ValueError):
            vec(np.zeros((3, 4)))


class TestBlur:
    def test_zero_sigma_is_identity(self):
        op = gaussian_blur_operator(6, 0.0, 0)
        x = np.arange(36.0)
        assert np.allclose(op.matvec(x), x)

    def test_matches_explicit_kronecker(self):
        op = gaussian_blur_operator(8, 1.0, 3)
        B = _blur_band_matrix(8, 1.0, 3)
        K = np.kron(B, B)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(64)
            assert np.linalg.norm(op.matvec(x) - K @ x) <= 1e-12

    def test_row_sums(self):
        B = _blur_band_matrix(8, 1.0, 3)
        assert np.abs(B.sum(axis=1) - 1).max() <= 1e-14

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_blur_operator(8, -1.0, 3)
        with pytest.raises(ValueError):
            gaussian_blur_operator(8, 0.0, 3)

    # n = 8 is one band block; the others span several, and bandwidth 40
    # reaches past the neighbouring blocks
    @pytest.mark.parametrize("n, sigma, bandwidth", [
        (8, 1.5, 4), (33, 1, 3), (70, 2, 9), (70, 5, 40), (256, 2, 9)])
    def test_commutes_with_two_sided_products(self, n, sigma, bandwidth):
        op = gaussian_blur_operator(n, sigma, bandwidth)
        B = _blur_band_matrix(n, sigma, bandwidth)
        x = np.random.default_rng(2).standard_normal(n * n)
        X = unvec(x, n)
        for got, want in ((op.matvec(x), vec(B @ X @ B.T)),
                          (op.rmatvec(x), vec(B.T @ X @ B))):
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestTomography:
    def test_angle_zero_integrates_columns(self):
        # at angle 0 each ray runs along one pixel column with unit chords
        op = tomography_operator(4, [0.0], 4)
        assert np.allclose(op.matvec(np.ones(16)), 4.0)
        A = op.to_dense()
        for k in range(4):
            col = unvec(A[k], 4)[:, k]
            assert np.allclose(col, 1.0)
            assert unvec(A[k], 4)[:, np.arange(4) != k].sum() == 0

    def test_zero_image(self):
        op = tomography_operator(8, np.linspace(0, np.pi, 5), 8)
        assert np.all(op.matvec(np.zeros(64)) == 0)

    def test_adjoint_consistency(self):
        op = tomography_operator(16, np.linspace(0, np.pi, 10,
                                                 endpoint=False), 16)
        A = op.to_dense()
        assert np.linalg.norm(A.T - dense_adjoint(op)) <= 1e-10

    def test_matches_coo_construction(self):
        # the CSR built from the row-ordered rays is the matrix a COO build
        # gives, with the same column order in each row: products agree
        # bit for bit, not just to rounding
        n, det = 12, 9
        angles = np.deg2rad(np.linspace(0.0, 135.0, 7))
        offsets = (np.arange(det) - (det - 1) / 2.0) * (n / det)
        rows, cols, vals = trace_rays(n, angles, offsets)
        want = sp.csr_matrix((vals, (rows, cols)), shape=(7 * det, n * n))
        op = tomography_operator(n, angles, det)
        assert np.array_equal(op.to_dense(), want.toarray())
        rng = np.random.default_rng(0)
        for _ in range(5):
            x, y = rng.standard_normal(n * n), rng.standard_normal(7 * det)
            assert np.array_equal(op.matvec(x), want @ x)
            assert np.array_equal(op.rmatvec(y), want.T.tocsr() @ y)

    def test_empty_angles_rejected(self):
        with pytest.raises(ValueError):
            tomography_operator(8, [], 8)

    def test_limited_angle_underdetermined(self):
        op = tomography_operator(16, np.deg2rad(np.linspace(0, 90, 10)), 16)
        assert op.rows < op.cols


class TestInpainting:
    def test_all_true_identity_blur(self):
        op = inpainting_operator(4, np.ones(16, dtype=bool),
                                 identity_operator(4))
        x = np.arange(16.0)
        assert np.allclose(op.matvec(x), x)

    def test_large_mask_row_count(self):
        mask = np.zeros(65536, dtype=bool)
        mask[:27395] = True
        op = inpainting_operator(256, mask, identity_operator(256))
        assert op.shape == (27395, 65536)

    def test_composite_matches_two_steps(self):
        blur = gaussian_blur_operator(16, 1.0, 3)
        rng = np.random.default_rng(3)
        mask = rng.random(256) > 0.4
        op = inpainting_operator(16, mask, blur)
        x = rng.standard_normal(256)
        assert np.linalg.norm(
            op.matvec(x) - blur.matvec(x)[mask]) <= 1e-14

    def test_all_false_mask_rejected(self):
        with pytest.raises(ValueError):
            inpainting_operator(4, np.zeros(16, dtype=bool),
                                identity_operator(4))


def _walk(n_steps, seed):
    """The random walk of ``shaking_blur_operator``, drawn the same way."""
    rng = np.random.default_rng(seed)
    walk = [(0, 0)]
    for _ in range(n_steps - 1):
        di, dj = walk[-1]
        walk.append((di + int(rng.integers(-1, 2)),
                     dj + int(rng.integers(-1, 2))))
    return walk


# (n, steps, seed, largest |d| of the walk); walks with |d| >= n move
# whole copies out of the image
@pytest.mark.parametrize("n,n_steps,seed,reach", [
    (4, 1, 0, 0), (4, 12, 2, 4), (4, 12, 9, 5), (8, 6, 4, 4),
    (8, 12, 34, 8), (16, 8, 0, 3)])
def test_shaking_blur_forward_values(n, n_steps, seed, reach):
    # X[i, j] moves to (i + di, j + dj): vec(E_di X E_dj^T) with
    # E_d = eye(n, k=-d), which is kron(E_dj, E_di) vec(X)
    walk = _walk(n_steps, seed)
    assert max(abs(d) for step in walk for d in step) == reach
    A = sum(np.kron(np.eye(n, k=-dj), np.eye(n, k=-di)) for di, dj in walk)
    got = shaking_blur_operator(n, n_steps, seed).to_dense()
    assert np.allclose(got, A / len(walk), rtol=0, atol=1e-15)


@pytest.mark.parametrize("make_op", [
    lambda: gaussian_blur_operator(8, 1.0, 3),
    lambda: shaking_blur_operator(8, 6, seed=4),
    lambda: tomography_operator(8, np.linspace(0, np.pi, 6,
                                               endpoint=False), 8),
    lambda: inpainting_operator(
        8, np.random.default_rng(5).random(64) > 0.3,
        gaussian_blur_operator(8, 1.0, 2)),
    lambda: gaussian_blur_operator(40, 2.0, 9),  # two band blocks
])
def test_adjoint_of_generated_operators(make_op):
    op = make_op()
    A = op.to_dense()
    assert np.linalg.norm(A.T - dense_adjoint(op)) <= 1e-10
    assert np.all(op.matvec(np.zeros(op.cols)) == 0)
