"""Property tests of the projected Tikhonov layer against its oracle.

``krylov.projected_tikhonov`` filters the singular values of H; the
oracle in ``tikhonov_oracle.py`` solves the stacked problem
[H; sqrt(lambda) I] y = [beta e1; 0] by ``lstsq``.  The projected matrices
are those of real processes: k <= 40 Arnoldi (upper Hessenberg) or
Golub-Kahan (lower bidiagonal) steps on a random 49 x 49 operator whose
singular values run from 1 down to 1 / cond, cond <= 100.  A compression
V_{k+1}^T A Z_k of A has its singular values in that range too, so H is
no worse conditioned than A, and two backward-stable solvers must agree
to about cond^2 eps.

The zero rule's updated QR (``krylov._GivensQR``) is held to ``lstsq`` at
every k on operators of cond <= 1e8.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrkrylov.krylov import (
    arnoldi_start,
    arnoldi_step,
    gkb_start,
    gkb_step,
    _GivensQR,
    optimal_lambda_search,
    projected_svd,
    projected_tikhonov,
)

from dense import from_dense
from tikhonov_oracle import projected_tikhonov as oracle

SIDE = 7
SIZE = SIDE * SIDE
RTOL = 1e-10
LAMBDAS = st.one_of(st.just(0.0), st.floats(1e-14, 1e2))


@st.composite
def projected(draw, log_cond=2.0):
    """(H, beta): k steps of Arnoldi or Golub-Kahan on a random operator
    of cond <= 10^log_cond."""
    gkb = draw(st.booleans())
    k = draw(st.integers(1, 40))
    cond = 10.0 ** draw(st.floats(0.0, log_cond))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _ = np.linalg.qr(rng.standard_normal((SIZE, SIZE)))
    W, _ = np.linalg.qr(rng.standard_normal((SIZE, SIZE)))
    A = U @ np.diag(np.geomspace(1.0, 1.0 / cond, SIZE)) @ W.T
    op = from_dense(A, SIDE)
    start, step = (gkb_start, gkb_step) if gkb else (arnoldi_start,
                                                        arnoldi_step)
    state = start(op, rng.standard_normal(SIZE), k)
    for _ in range(k):
        step(state, op)
    H = state.M_mat() if gkb else state.H_mat()
    return np.array(H), draw(st.floats(0.1, 10.0))


def rhs(H, beta):
    e = np.zeros(H.shape[0])
    e[0] = beta
    return e


@settings(deadline=None)
@given(projected(), LAMBDAS)
def test_matches_stacked_lstsq(problem, lam):
    H, beta = problem
    y, resid = projected_tikhonov(H, beta, lam, projected_svd(H, beta))
    y0, resid0 = oracle(H, beta, lam)
    assert np.linalg.norm(y - y0) <= RTOL * np.linalg.norm(y0)
    # the residual is at most beta, which is its scale: with a near-square
    # H it can be as small as rounding, where no relative test holds
    assert abs(resid - resid0) <= RTOL * beta


@settings(deadline=None)
@given(projected(), LAMBDAS)
def test_residual_is_that_of_the_solution(problem, lam):
    H, beta = problem
    y, resid = projected_tikhonov(H, beta, lam, projected_svd(H, beta))
    assert resid == np.linalg.norm(H @ y - rhs(H, beta))


@settings(deadline=None)
@given(projected(), st.data())
def test_rank_deficient_gives_minimum_norm_solution(problem, data):
    H, beta = problem
    k = H.shape[1]
    zero = data.draw(st.sets(st.integers(0, k - 1), min_size=1,
                             max_size=max(k - 1, 1)))
    H[:, sorted(zero)] = 0.0
    y, resid = projected_tikhonov(H, beta, 0.0, projected_svd(H, beta))
    # not the lstsq oracle: with orthonormal columns beside the zero ones
    # (cond = 1) lstsq found one zero singular value as 7.1e-15, above its
    # 6.0e-15 cutoff, and returned entries of 2e13
    pinv = np.linalg.pinv(H)
    want = pinv @ rhs(H, beta)
    # the bound beta / sigma_min of ||y||: when e1 is orthogonal to the
    # range of H, y is 0 up to rounding and has no scale of its own
    scale = beta * np.linalg.norm(pinv, 2)
    assert np.linalg.norm(y - want) <= RTOL * scale
    # no component along the null space, which the zeroed columns span
    assert np.abs(y[sorted(zero)]).max() <= RTOL * scale
    assert abs(resid - np.linalg.norm(H @ want - rhs(H, beta))) <= RTOL * beta


@settings(deadline=None)
@given(projected(), st.floats(1e-10, 10.0), st.floats(0.0, 1e-2), st.data())
def test_optimal_lambda_beats_every_grid_point(problem, lam_true, noise,
                                               data):
    H, beta = problem
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    y_true, _ = oracle(H, beta, lam_true)
    target = y_true + noise * np.linalg.norm(y_true) * rng.standard_normal(
        y_true.size)
    grid = np.logspace(-16, 2, 37)

    def err(lam):
        return np.linalg.norm(target - oracle(H, beta, lam)[0])

    best = min(err(g) for g in grid)
    lam = optimal_lambda_search(projected_svd(H, beta), target)
    # lambda = 0 stands for the bottom of the grid, which it matches to
    # about grid[1] cond^2 ||y|| = 3e-12 ||y||
    assert err(lam) <= best + 1e-10 * np.linalg.norm(target)


@settings(deadline=None)
@given(projected(log_cond=8.0))
def test_givens_qr_matches_lstsq_at_every_step(problem):
    H, beta = problem
    qr = _GivensQR(beta, H.shape[1])
    for k in range(1, H.shape[1] + 1):
        Hk = H[: k + 1, :k]
        y, resid = qr.extend(Hk[:, -1])
        y0 = np.linalg.lstsq(Hk, rhs(Hk, beta), rcond=None)[0]
        # two backward-stable solvers agree on y to about cond(H) eps, so
        # within 1e-10 up to cond 1e4 and 1e-14 cond beyond (3.8e-10 has
        # been seen at cond 1e6)
        tol = RTOL * max(1.0, np.linalg.cond(Hk) / 1e4)
        assert np.linalg.norm(y - y0) <= tol * np.linalg.norm(y0)
        assert abs(resid - np.linalg.norm(Hk @ y0 - rhs(Hk, beta))) <= (
            RTOL * beta)


@settings(deadline=None)
@given(projected(), st.data())
def test_givens_qr_hands_a_zero_column_to_the_svd(problem, data):
    H, beta = problem
    zero = data.draw(st.integers(0, H.shape[1] - 1))
    H[:, zero] = 0.0
    qr = _GivensQR(beta, H.shape[1])
    for k in range(zero):
        assert qr.extend(H[: k + 2, k]) is not None
    # rank deficient: the caller takes the minimum-norm SVD path from here
    # (test_rank_deficient_gives_minimum_norm_solution)
    assert qr.extend(H[: zero + 2, zero]) is None
