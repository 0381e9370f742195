"""Dense helpers that only the tests use.

Explicit-matrix operators and their assembly, NumPy's full SVD, the
smooth Schatten-p surrogate with its gradient, which the reweighter's
weights are derived from, and a reference RS-LR-GMRES cycle.  They build
dense n^2 x n^2 matrices, extra SVDs or whole bases per step, so they
stay out of the package, and take their SVDs from NumPy, not from the
code they check.
"""

import numpy as np

from lrkrylov.linops import LinearOperator
from lrkrylov.lowrank import truncate


def from_dense(A, image_side=None):
    """Wrap an explicit matrix as a LinearOperator."""
    A = np.asarray(A, dtype=float)
    m, n_cols = A.shape
    if image_side is None:
        image_side = int(round(np.sqrt(n_cols)))
    return LinearOperator(m, n_cols, image_side, lambda x: A @ x,
                          lambda y: A.T @ y)


def identity_operator(n):
    N = n * n
    return LinearOperator(N, N, n,
                          lambda x: np.array(x, dtype=float, copy=True),
                          lambda y: np.array(y, dtype=float, copy=True))


def to_dense(op):
    """Assemble the explicit matrix of ``op`` column by column."""
    A = np.empty((op.rows, op.cols))
    e = np.zeros(op.cols)
    for j in range(op.cols):
        e[j] = 1.0
        A[:, j] = op.apply(e)
        e[j] = 0.0
    return A


def full_svd(X):
    """(U, sigma, V) with X = U diag(sigma) V^T, from ``np.linalg.svd``."""
    U, sigma, Vt = np.linalg.svd(np.asarray(X, dtype=float))
    return U, sigma, Vt.T


def smooth_schatten(X, p, gamma):
    """Smooth Schatten-p value Tr((X^T X + gamma I)^{p/2})."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    s = np.linalg.svd(np.asarray(X, dtype=float), compute_uv=False)
    return float(np.sum((s * s + gamma) ** (p / 2.0)))


def smooth_schatten_gradient(X, p, gamma):
    """Gradient p (X X^T + gamma I)^{p/2 - 1} X, computed via the SVD."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    U, sigma, V = full_svd(X)
    scale = p * (sigma**2 + gamma) ** (p / 2.0 - 1.0)
    return (U * (scale * sigma)) @ V.T


def rs_lr_gmres_lstsq(op, b, restart_len, truncation_rank):
    """The first RS-LR-GMRES cycle from x = 0, with both projections, of
    A v_{m-1} on V_m and of b on A V_m, solved by ``np.linalg.lstsq`` on
    the whole basis: (residual norms, iterates), one per step."""
    V = [b / np.linalg.norm(b)]
    AV = [op.matvec(V[0])]
    residuals, iterates = [], []
    for _ in range(restart_len):
        B = np.column_stack(V)
        w = truncate(AV[-1] - B @ np.linalg.lstsq(B, AV[-1])[0],
                     truncation_rank)
        V.append(w / np.linalg.norm(w))
        AV.append(op.matvec(V[-1]))
        y = np.linalg.lstsq(np.column_stack(AV), b)[0]
        iterates.append(truncate(np.column_stack(V) @ y, truncation_rank))
        residuals.append(np.linalg.norm(b - op.matvec(iterates[-1])))
    return residuals, iterates
