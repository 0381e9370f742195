"""Matrix-free linear operators for blur, tomography and inpainting.

Vectors of length N = n*n are related to n x n images by column stacking
(``vec``/``unvec``); every operator works on the stacked vectors but is
applied via small n x n matrix products, never an N x N matrix.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._tomo_kernels import trace_rays

__all__ = [
    "LinearOperator",
    "vec",
    "unvec",
    "gaussian_blur_operator",
    "shaking_blur_operator",
    "tomography_operator",
    "inpainting_operator",
]


def vec(X):
    """Stack the columns of an n x n matrix into a length-n^2 vector."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {X.shape}")
    return X.reshape(-1, order="F")


def unvec(x, n):
    """Inverse of :func:`vec`: reshape a length-n^2 vector column-major."""
    x = np.asarray(x)
    if x.size != n * n:
        raise ValueError(f"expected a vector of length {n * n}, got {x.size}")
    return x.reshape(n, n, order="F")


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free forward map with its adjoint.

    ``apply`` maps R^N -> R^M, ``apply_adjoint`` maps R^M -> R^N, and
    ``image_side`` is n with n^2 = N.  Instances are immutable and their
    maps are pure, so they are safe to share across threads.
    """

    rows: int
    cols: int
    image_side: int
    apply: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    apply_adjoint: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("operator dimensions must be positive")
        if self.image_side * self.image_side != self.cols:
            raise ValueError(
                f"image_side^2 = {self.image_side ** 2} != cols = {self.cols}"
            )

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.cols:
            raise ValueError(f"expected length {self.cols}, got {x.size}")
        return self.apply(x)

    def rmatvec(self, y):
        y = np.asarray(y, dtype=float)
        if y.size != self.rows:
            raise ValueError(f"expected length {self.rows}, got {y.size}")
        return self.apply_adjoint(y)


def _blur_band_matrix(n, sigma, bandwidth):
    """Banded Toeplitz factor with Gaussian samples, rows summing to 1."""
    B = np.zeros((n, n))
    idx = np.arange(n)
    for d in range(-bandwidth, bandwidth + 1):
        if sigma > 0:
            w = np.exp(-(d * d) / (2.0 * sigma * sigma))
        else:
            w = 1.0 if d == 0 else 0.0
        rows = idx[(idx + d >= 0) & (idx + d < n)]
        B[rows, rows + d] = w
    B /= B.sum(axis=1, keepdims=True)
    return B


_BLOCK = 32  # rows per band block of a blur factor


def _band_product(B, bandwidth):
    """X -> B @ X in C order, by blocks of _BLOCK rows of the banded ``B``
    that keep only the columns the band reaches.  A block keeps the
    memory order of ``B`` (a transpose stays one), so that it rounds as
    the dense product does."""
    n = B.shape[0]
    blocks = []
    for i in range(0, n, _BLOCK):
        rows = slice(i, i + _BLOCK)
        cols = slice(max(i - bandwidth, 0), min(i + _BLOCK + bandwidth, n))
        blocks.append((rows, cols, B[rows, cols].copy(order="K")))

    def product(X):
        out = np.empty(X.shape)
        for rows, cols, block in blocks:
            np.matmul(block, X[cols], out=out[rows])
        return out

    return product


def gaussian_blur_operator(n, sigma, bandwidth):
    """Separable Gaussian blur A = B (x) B with zero boundary conditions.

    ``apply`` computes vec(B @ X @ B.T) as the transpose of B (B X)^T, by
    band blocks of B (``_band_product``), in O(n^2 (_BLOCK + 2 bandwidth))
    flops; ``apply_adjoint`` does the same with B^T.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0 and bandwidth > 0:
        raise ValueError("sigma must be positive for a nontrivial band")
    if bandwidth > n:
        raise ValueError("bandwidth must not exceed n")
    B = _blur_band_matrix(n, sigma, bandwidth)

    def two_sided(product):
        # B (B X)^T = (B X B^T)^T in C order: its transpose is what vec reads
        return lambda x: vec(product(product(unvec(x, n)).T).T)

    N = n * n
    return LinearOperator(N, N, n,
                          two_sided(_band_product(B, bandwidth)),
                          two_sided(_band_product(B.T, bandwidth)))


def shaking_blur_operator(n, n_steps=8, seed=0):
    """Motion-style blur averaging shifted copies along a random walk.

    A shift by (di, dj) moves X[i, j] to (i + di, j + dj) with zero
    boundary, one slice added per step of the walk; the adjoint shifts by
    (-di, -dj).
    """
    rng = np.random.default_rng(seed)
    di, dj = 0, 0
    trajectory = [(0, 0)]
    for _ in range(max(n_steps - 1, 0)):
        di += int(rng.integers(-1, 2))
        dj += int(rng.integers(-1, 2))
        trajectory.append((di, dj))
    w = 1.0 / len(trajectory)

    def span(d):
        """(target, source) slices of a shift by d along one axis."""
        return (slice(max(d, 0), max(n + d, 0)),
                slice(max(-d, 0), max(n - d, 0)))

    def shifted_sum(X, sign):
        out = np.zeros_like(X)
        for di, dj in trajectory:
            (ti, si), (tj, sj) = span(sign * di), span(sign * dj)
            out[ti, tj] += X[si, sj]
        return vec(w * out)

    N = n * n
    return LinearOperator(N, N, n, lambda x: shifted_sum(unvec(x, n), 1),
                          lambda y: shifted_sum(unvec(y, n), -1))


def tomography_operator(n, angles, detector_count):
    """Parallel-beam projector with exact chord-length weights.

    One row per (angle, detector) ray.  Assembled once as a CSR matrix
    A via the Siddon traversal in :mod:`lrkrylov._tomo_kernels`; the
    adjoint (back-projection) is ``A.T``, the CSC view over the same
    three arrays, whose products equal those of a CSR copy of the
    transpose bit for bit.
    """
    import scipy.sparse as sp  # imported here: only tomography needs scipy
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size == 0:
        raise ValueError("at least one projection angle is required")
    if detector_count < 1:
        raise ValueError("detector_count must be >= 1")
    spacing = n / detector_count
    offsets = (np.arange(detector_count) - (detector_count - 1) / 2.0) * spacing
    M = angles.size * detector_count
    N = n * n
    # sum_duplicates sorts each row's columns (a ray visits them in t
    # order, not by index) and would merge repeats, as a COO build does
    indptr, cols, vals = trace_rays(n, angles, offsets)
    A = sp.csr_matrix((vals, cols, indptr), shape=(M, N))
    A.sum_duplicates()
    return LinearOperator(
        rows=M,
        cols=N,
        image_side=n,
        apply=lambda x, A=A: A @ x,
        apply_adjoint=lambda y, At=A.T: At @ y,
    )


def inpainting_operator(n, mask, blur):
    """Blur then keep only the pixels where ``mask`` is true."""
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.size != n * n:
        raise ValueError(f"mask must have length {n * n}, got {mask.size}")
    if not mask.any():
        raise ValueError("mask keeps no pixels")
    if blur.rows != n * n or blur.cols != n * n:
        raise ValueError("blur operator must be n^2 x n^2")
    keep = np.flatnonzero(mask)

    def apply(x):
        return blur.apply(x)[keep]

    def apply_adjoint(y):
        full = np.zeros(n * n)
        full[keep] = y
        return blur.apply_adjoint(full)

    return LinearOperator(
        rows=keep.size,
        cols=n * n,
        image_side=n,
        apply=apply,
        apply_adjoint=apply_adjoint,
    )
