import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from lrkrylov import linops
from lrkrylov._tomo_kernels import trace_rays
from lrkrylov.linops import (
    _blur_band_matrix,
    gaussian_blur_operator,
    inpainting_operator,
    shaking_blur_operator,
    tomography_operator,
    unvec,
    vec,
)
from lrkrylov.problems import phantom_problem

from dense import identity_operator, to_dense


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


class TestOperatorChecks:
    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            linops.LinearOperator(0, 4, 2, None, None)

    def test_image_side_must_square_to_cols(self):
        with pytest.raises(ValueError, match=r"image_side\^2 = 9 != cols = 4"):
            linops.LinearOperator(4, 4, 3, None, None)

    def test_applies_check_their_lengths(self):
        op = identity_operator(2)
        with pytest.raises(ValueError, match="expected length 4, got 3"):
            op.matvec(np.ones(3))
        with pytest.raises(ValueError, match="expected length 4, got 5"):
            op.rmatvec(np.ones(5))


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

    def test_band_wider_than_the_image_rejected(self):
        with pytest.raises(ValueError, match="bandwidth must not exceed n"):
            gaussian_blur_operator(4, 1.0, 5)

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
        A = to_dense(op)
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
        A = to_dense(op)
        assert np.linalg.norm(A.T - dense_adjoint(op)) <= 1e-10

    def test_matches_coo_construction(self):
        # the CSR built from the row-ordered rays is the matrix a COO build
        # gives, with the same column order in each row: products agree
        # bit for bit, not just to rounding
        n, det = 12, 9
        angles = np.deg2rad(np.linspace(0.0, 135.0, 7))
        offsets = (np.arange(det) - (det - 1) / 2.0) * (n / det)
        indptr, cols, vals = trace_rays(n, angles, offsets)
        rows = np.repeat(np.arange(7 * det), np.diff(indptr))
        want = sp.csr_matrix((vals, (rows, cols)), shape=(7 * det, n * n))
        op = tomography_operator(n, angles, det)
        assert np.array_equal(to_dense(op), want.toarray())
        rng = np.random.default_rng(0)
        for _ in range(5):
            x, y = rng.standard_normal(n * n), rng.standard_normal(7 * det)
            assert np.array_equal(op.matvec(x), want @ x)
            assert np.array_equal(op.rmatvec(y), want.T.tocsr() @ y)

    # SHA-256 of the little-endian bytes of each CSR array of A and A^T,
    # recorded from the COO-triplet build that preceded the direct CSR one;
    # any bit the tracer or the assembly moves fails here by name
    DIGESTS = {
        # the tomo-irn benchmark geometry: 60 angles over 90 degrees
        (128, 60): {
            "A.indptr": "25dc2355a687a0531a411452047d0ef1"
                        "cf868d1362c45edcc757f069975963d9",
            "A.indices": "960b38c19ea678b1388edcbb5408447e"
                         "6c84ee8ffd79ea58d8b8d05ec84f0fbf",
            "A.data": "e9a8d11b9d89c9b9383b546cbfcf6b18"
                      "97764d6e803079ec28766cda94de3e2b",
            "At.indptr": "1a9ea641f57112c0a9c0d6df2f815b98"
                         "a3afedcd82772f42ef42093a1652268f",
            "At.indices": "89037b482ca3cf681f9ec1eb3bf8aa39"
                          "c888a62b23f70b4eb613bc13bde69367",
            "At.data": "e5845d657d635d2ae175ecaa9c4a691a"
                       "9c4ade5321fa789dcf55c56d3de9297c",
        },
        # the phantom of tests/answers.json
        (32, 24): {
            "A.indptr": "79e26a94e93d963efbf38b039f2f83c6"
                        "e6c1b57e1180a0ee97802c30c378988e",
            "A.indices": "76735f33b3dd7a7bfc2c2480afb6d1f0"
                         "73006299d45f5dbc9098bc8dbb515c26",
            "A.data": "61a8b7764e74264beddfc9754c7782e6"
                      "684da8d3ac654e74b92fccdfb8997869",
            "At.indptr": "79c57fc0761d5873985d3266ec993f40"
                         "9388028ae5e60cbe0a8307e746c02886",
            "At.indices": "ecaa540caa6b327a572fb437d3ee3b02"
                          "65a94c5aceb67c801f9f91c45ada9a81",
            "At.data": "9f8b9ad54a931c89a57e4edf47a49c38"
                       "bbf3ba23b3c37060c1415462a33a6375",
        },
    }

    @pytest.mark.parametrize("n, n_angles", sorted(DIGESTS))
    def test_operator_bytes_are_pinned(self, n, n_angles):
        op = phantom_problem(n, n_angles=n_angles).op
        # the operator binds its CSR matrix as a default argument; the
        # adjoint's CSR copy is derived from it
        A = op.apply.__defaults__[0]
        matrices = {"A": A, "At": A.T.tocsr()}
        got = {}
        for m, X in matrices.items():
            for part in ("indptr", "indices", "data"):
                a = getattr(X, part)
                little = a.astype(a.dtype.newbyteorder("<")).tobytes()
                got[f"{m}.{part}"] = hashlib.sha256(little).hexdigest()
        assert got == self.DIGESTS[n, n_angles]

    def test_adjoint_is_a_view_of_the_matrix(self):
        op = tomography_operator(12, np.deg2rad(np.linspace(0, 90, 6)), 12)
        A = op.apply.__defaults__[0]
        At = op.apply_adjoint.__defaults__[0]
        assert A.format == "csr" and At.format == "csc"
        for part in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(A, part), getattr(At, part))

    def test_adjoint_matches_csr_transpose_at_benchmark_geometry(self):
        # the tomo-irn geometry: n=128, 60 angles over 90 degrees
        op = tomography_operator(
            128, np.deg2rad(np.linspace(0.0, 90.0, 60, endpoint=False)), 128)
        At = op.apply.__defaults__[0].T.tocsr()
        rng = np.random.default_rng(1)
        for _ in range(3):
            y = rng.standard_normal(op.rows)
            assert np.array_equal(op.rmatvec(y), At @ y)

    def test_empty_angles_rejected(self):
        with pytest.raises(ValueError):
            tomography_operator(8, [], 8)

    def test_no_detectors_rejected(self):
        with pytest.raises(ValueError, match="detector_count must be >= 1"):
            tomography_operator(8, [0.0], 0)

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
        assert (op.rows, op.cols) == (27395, 65536)

    def test_composite_matches_two_steps(self):
        blur = gaussian_blur_operator(16, 1.0, 3)
        rng = np.random.default_rng(3)
        mask = rng.random(256) > 0.4
        op = inpainting_operator(16, mask, blur)
        x = rng.standard_normal(256)
        assert np.linalg.norm(
            op.matvec(x) - blur.matvec(x)[mask]) <= 1e-14

    def test_mask_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length 16, got 15"):
            inpainting_operator(4, np.ones(15, dtype=bool),
                                identity_operator(4))

    def test_blur_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"must be n\^2 x n\^2"):
            inpainting_operator(4, np.ones(16, dtype=bool),
                                identity_operator(3))

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
    got = to_dense(shaking_blur_operator(n, n_steps, seed))
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
    A = to_dense(op)
    assert np.linalg.norm(A.T - dense_adjoint(op)) <= 1e-10
    assert np.all(op.matvec(np.zeros(op.cols)) == 0)
