"""Reference projected Tikhonov solve: one ``lstsq`` on the stacked matrix.

This is how ``lrkrylov.krylov.projected_tikhonov`` solved the projected
problem before it filtered the singular values of H.  It is kept here,
unchanged, as the oracle that the SVD filter must reproduce.
"""

import numpy as np


def projected_tikhonov(Hk, beta, lambda_hat):
    """Solve min ||H y - beta e1||^2 + lambda ||y||^2.

    Returns (y, projected residual norm ||H y - beta e1||).  lambda = 0
    with rank-deficient H falls back to the minimum-norm solution.
    """
    if lambda_hat < 0:
        raise ValueError("lambda_hat must be nonnegative")
    Hk = np.atleast_2d(np.asarray(Hk, dtype=float))
    mp1, k = Hk.shape
    rhs = np.zeros(mp1)
    rhs[0] = beta
    if lambda_hat > 0:
        A = np.vstack([Hk, np.sqrt(lambda_hat) * np.eye(k)])
        b = np.concatenate([rhs, np.zeros(k)])
    else:
        A, b = Hk, rhs
    y = np.linalg.lstsq(A, b, rcond=None)[0]
    return y, float(np.linalg.norm(Hk @ y - rhs))
