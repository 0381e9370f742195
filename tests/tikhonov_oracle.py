"""Reference projected Tikhonov solve and optimal-lambda search.

``projected_tikhonov`` is one ``lstsq`` on the stacked matrix: how
``lrkrylov.krylov.projected_tikhonov`` solved the projected problem
before it filtered the singular values of H.  ``optimal_lambda_search``
refines log grids of 129 points around the best lambda until its
neighbours lie within 1e-9 in log(lambda): how
``lrkrylov.krylov.optimal_lambda_search`` found lambda before it polished
its grid's best point by Newton's method.  Both are kept here, unchanged,
as the oracles that the library must reproduce.
"""

import numpy as np

from lrkrylov.krylov import _LAMBDA_GRID, _filtered

_REFINE = 129  # points of each grid that refines it
_RESOLUTION = 1e-9  # its last bracket in log(lambda): relative in lambda


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


def optimal_lambda_search(svd, target):
    """Minimize ||target - y(lambda)|| over lambda; y(lambda) is filtered
    from ``svd = projected_svd(H, beta)``.  One step, repeated: filter
    every lambda of a log grid at once, starting from _LAMBDA_GRID, then
    lay a grid of _REFINE points between the two neighbours of the best,
    until they lie within _RESOLUTION in log(lambda).  The bottom of the
    first grid stands for "no regularization needed": 0.0."""
    t = svd[1].T @ target
    grid = _LAMBDA_GRID
    while True:
        errs = np.linalg.norm(t - _filtered(svd, grid[:, None]), axis=1)
        i = int(np.argmin(errs))
        if i == 0 and grid is _LAMBDA_GRID:  # refined, still <= grid[1]
            return 0.0
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        if np.log(hi / lo) < _RESOLUTION:
            break
        grid = np.geomspace(lo, hi, _REFINE)
    lam = float(grid[i])
    return 0.0 if lam <= _LAMBDA_GRID[1] else lam
