"""Property tests of the Arnoldi and Golub-Kahan factorizations.

Random dense operators of a drawn rank, standard and flexible processes,
run past the 16 columns a basis starts with (so that its storage grows)
and past the step where the process must break down.  For a generic
operator of rank r with m rows and n columns and a generic start vector:

- Arnoldi (square, n = m) spans b and the range of A, so it breaks down
  at step min(r + 1, n);
- Golub-Kahan keeps V in the range of A^T.  When r < m, A^T u_{r+1} lies
  in span V_r, so it breaks down in the first half of step r + 1 (k = r,
  U has r + 1 columns); when r = m, U spans R^m after m steps and it
  breaks down in the second half of step m (k = m, U has m columns).

Breakdown must be flagged on exactly that step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrkrylov.krylov import arnoldi_start, arnoldi_step, gkb_start, gkb_step
from lrkrylov.lowrank import truncate

from dense import from_dense, identity_operator

PRECONDITIONERS = st.sampled_from([None, lambda v: truncate(v, 2)])


@st.composite
def operators(draw, square):
    """(A, image side, rank, seed) with A of the drawn rank."""
    side = draw(st.integers(3, 6))
    n = side * side
    rows = n if square else draw(st.integers(n - 8, n + 8))
    rank = draw(st.integers(1, min(rows, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, n))
         / np.sqrt(rank * n))
    return A, side, rank, seed


def run(start, step, op, b, steps, precondition):
    """The state after ``steps`` steps and the breakdown flag after each."""
    state = start(op, b, steps)
    flags = []
    for _ in range(steps):
        step(state, op, precondition)
        flags.append(state.breakdown)
    return state, flags


def orthonormality_loss(Q):
    return np.linalg.norm(np.eye(Q.shape[1]) - Q.T @ Q)


def check_arnoldi(A, state):
    # after a breakdown V has k columns and H's last row is dropped
    V, H = state.V_mat(), state.H_mat()
    assert np.linalg.norm(A @ state.Z_mat() - V @ H[: V.shape[1]]) <= 1e-10
    assert orthonormality_loss(V) <= 1e-12


def check_gkb(A, state):
    U, V, M = state.U_mat(), state.V_mat(), state.M_mat()
    k = state.k
    assert np.linalg.norm(A @ state.Z_mat() - U @ M[: U.shape[1]]) <= 1e-10
    assert np.linalg.norm(A.T @ U[:, :k] - V @ state.T_mat()) <= 1e-10
    assert orthonormality_loss(U) <= 1e-12
    assert orthonormality_loss(V) <= 1e-12


@given(operators(square=True), PRECONDITIONERS)
@settings(max_examples=40, deadline=None)
def test_arnoldi(case, precondition):
    A, side, rank, seed = case
    n = side * side
    b = np.random.default_rng(seed + 1).standard_normal(n)
    state, flags = run(arnoldi_start, arnoldi_step, from_dense(A, side), b,
                       n + 3, precondition)
    stop = min(rank + 1, n)
    assert flags == [it >= stop for it in range(1, n + 4)]
    assert state.k == stop
    check_arnoldi(A, state)


@given(operators(square=False), PRECONDITIONERS)
@settings(max_examples=40, deadline=None)
def test_gkb(case, precondition):
    A, side, rank, seed = case
    rows, n = A.shape
    b = np.random.default_rng(seed + 1).standard_normal(rows)
    state, flags = run(gkb_start, gkb_step, from_dense(A, side), b, n + 3,
                       precondition)
    stop = rank + 1 if rank < rows else rows
    assert flags == [it >= stop for it in range(1, n + 4)]
    assert state.U_mat().shape[1] == min(rank + 1, rows)
    # in about 5% of the r < m cases, rounding amplified by small alphas
    # leaves the first-half residual of step r + 1 at 1e-12..1e-9, above
    # the breakdown threshold; a V column in the null space of A is added
    # and the second half of the same step breaks down
    assert state.k == min(rank, rows) or (rank < rows and state.k == stop)
    check_gkb(A, state)


@given(st.integers(3, 6), st.integers(0, 2**32 - 1), PRECONDITIONERS,
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_identity_breaks_down_at_first_step(side, seed, precondition, gkb):
    # b is a rank-2 image, which a rank-2 truncation leaves as it is, so
    # the flexible processes break down at once too
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((side, 2)) @ rng.standard_normal((2, side))
    op, b = identity_operator(side), X.ravel()
    start, step = (gkb_start, gkb_step) if gkb else (arnoldi_start,
                                                     arnoldi_step)
    state, flags = run(start, step, op, b, 3, precondition)
    assert flags == [True, True, True]
    assert state.k == 1
    A = np.eye(side * side)
    if gkb:
        assert state.U_mat().shape[1] == 1
        check_gkb(A, state)
    else:
        assert state.V_mat().shape[1] == 1
        check_arnoldi(A, state)
