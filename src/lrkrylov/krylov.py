"""Arnoldi / Golub-Kahan factorizations (standard and flexible), projected
Tikhonov solves with their regularization-parameter rules, the hybrid
projection loop every Arnoldi/GKB solver runs, and the solvers of this
module: GMRES, LSQR, RS-LR-GMRES, LR-FGMRES, LR-FLSQR.

Each new basis vector is orthogonalized by block classical Gram-Schmidt
applied twice (CGS2), four matrix-vector products against the whole basis.
Bases are dense column-major (Fortran-order) arrays that start 16 columns
wide and double their width when full, so a step appends a column in
place and ``V_mat()`` and friends are views, not copies (desk scale,
N <= 65536, <= 200 steps).

Every lambda rule is served by one thin SVD H = P S Q^T of the projected
matrix per iteration, so a trial lambda costs O(k), not a least-squares
solve (the SVD-filter form of hybrid methods, Chung, Nagy & O'Leary 2008).
"""

from dataclasses import dataclass

import numpy as np

from .lowrank import truncate
from .report import Discrepancy, SolveReport

__all__ = [
    "ArnoldiState",
    "GkbState",
    "arnoldi_start",
    "arnoldi_step",
    "gkb_start",
    "gkb_step",
    "projected_svd",
    "projected_tikhonov",
    "secant_lambda_update",
    "optimal_lambda_search",
    "hybrid",
    "gmres",
    "lsqr",
    "rs_lr_gmres",
    "lr_fgmres",
    "lr_flsqr",
]

_BREAKDOWN_REL = 1e-12
_WIDTH = 16  # starting number of columns of every basis


def _orthogonalize(w, Q):
    """Block classical Gram-Schmidt applied twice (CGS2) against the
    orthonormal columns of ``Q``; returns (w, coefficients)."""
    h = Q.T @ w
    w = w - Q @ h
    h2 = Q.T @ w
    w = w - Q @ h2
    return w, h + h2


def _zeros(rows):
    return np.zeros((rows, _WIDTH), order="F")


def _room(a, cols, rows=0):
    """``a`` if it has ``cols`` columns and ``rows`` rows, else a copy of it
    in a zero Fortran array with each short dimension doubled."""
    r, c = a.shape
    if cols <= c and rows <= r:
        return a
    grown = np.zeros((2 * r if rows > r else r, 2 * c if cols > c else c),
                     order="F")
    grown[:r, :c] = a
    return grown


def _first_column(b):
    """(beta, basis array holding b / beta as its first column)."""
    b = np.asarray(b, dtype=float)
    beta = np.linalg.norm(b)
    if beta == 0:
        raise ValueError("start vector is zero")
    Q = _zeros(b.size)
    Q[:, 0] = b / beta
    return beta, Q


def _store_z(state, k, z, flexible):
    """Keep z as column k of Z.  Until its first preconditioned step a state
    has no Z array of its own, since there Z_k = V_k."""
    if flexible and state.Z is None:
        state.Z = state.V.copy(order="F")
    if state.Z is not None:
        state.Z = _room(state.Z, k + 1)
        state.Z[:, k] = z


@dataclass
class ArnoldiState:
    """Partial (flexible) Arnoldi factorization  A Z_k = V_{k+1} H_k.

    The bases are the leading columns of Fortran arrays that double their
    width when full, and the ``*_mat()`` methods return views into them.
    A standard run keeps no Z: there Z_k = V_k.  After a breakdown V has
    k columns.
    """

    beta: float
    V: np.ndarray
    H: np.ndarray
    Z: np.ndarray = None
    k: int = 0
    breakdown: bool = False

    def V_mat(self):
        return self.V[:, : self.k + 1 - self.breakdown]

    def Z_mat(self):
        return (self.V if self.Z is None else self.Z)[:, : self.k]

    def H_mat(self):
        return self.H[: self.k + 1, : self.k]


def arnoldi_start(op, b):
    if op.rows != op.cols:
        raise ValueError("Arnoldi requires a square operator")
    beta, V = _first_column(b)
    return ArnoldiState(beta, V, _zeros(_WIDTH))


def arnoldi_step(state, op, precondition=None):
    """Expand the factorization by one column; reports (not raises) breakdown."""
    if state.breakdown:
        return state
    k = state.k
    state.V = _room(state.V, k + 2)
    state.H = _room(state.H, k + 1, k + 2)
    v = state.V[:, k]
    z = precondition(v) if precondition is not None else v
    w = op.matvec(z)
    w, h = _orthogonalize(w, state.V[:, : k + 1])
    hnorm = np.linalg.norm(w)
    _store_z(state, k, z, precondition is not None)
    state.H[: k + 1, k] = h
    state.H[k + 1, k] = hnorm
    state.k = k + 1
    if hnorm <= _BREAKDOWN_REL * max(np.abs(h).max(), 1.0):
        state.breakdown = True
    else:
        state.V[:, k + 1] = w / hnorm
    return state


@dataclass
class GkbState:
    """Partial (flexible) Golub-Kahan factorization:
    A Z_k = U_{k+1} M_k  and  A^T U_k = V_k T_k.

    Storage as in ``ArnoldiState``; ``u`` counts the columns of U, which
    are k + 1, or k after a breakdown in the second half of a step.
    """

    beta: float
    U: np.ndarray
    V: np.ndarray
    M: np.ndarray
    T: np.ndarray
    Z: np.ndarray = None
    k: int = 0
    u: int = 1
    breakdown: bool = False

    def U_mat(self):
        return self.U[:, : self.u]

    def V_mat(self):
        return self.V[:, : self.k]

    def Z_mat(self):
        return (self.V if self.Z is None else self.Z)[:, : self.k]

    def M_mat(self):
        return self.M[: self.k + 1, : self.k]

    def T_mat(self):
        return self.T[: self.k, : self.k]


def gkb_start(op, b):
    beta, U = _first_column(b)
    return GkbState(beta, U, _zeros(op.cols), _zeros(_WIDTH), _zeros(_WIDTH))


def gkb_step(state, op, precondition=None):
    """One (flexible) Golub-Kahan step: new v_i, z_i, u_{i+1}."""
    if state.breakdown:
        return state
    k = state.k
    state.U = _room(state.U, k + 2)
    state.V = _room(state.V, k + 1)
    state.M = _room(state.M, k + 1, k + 2)
    state.T = _room(state.T, k + 1, k + 1)
    w = op.rmatvec(state.U[:, k])
    w, t = _orthogonalize(w, state.V[:, :k])
    tnorm = np.linalg.norm(w)
    if tnorm <= _BREAKDOWN_REL * max(np.abs(t).max() if k else 0.0, 1.0):
        state.breakdown = True
        return state
    state.V[:, k] = w / tnorm
    v = state.V[:, k]
    state.T[:k, k] = t
    state.T[k, k] = tnorm
    z = precondition(v) if precondition is not None else v
    w = op.matvec(z)
    w, m = _orthogonalize(w, state.U[:, : k + 1])
    mnorm = np.linalg.norm(w)
    _store_z(state, k, z, precondition is not None)
    state.M[: k + 1, k] = m
    state.M[k + 1, k] = mnorm
    state.k = k + 1
    if mnorm <= _BREAKDOWN_REL * max(np.abs(m).max(), 1.0):
        state.breakdown = True
    else:
        state.U[:, k + 1] = w / mnorm
        state.u = k + 2
    return state


def projected_svd(H, beta):
    """Thin SVD H = P diag(s) Q^T of a projected matrix, with c = beta P^T e1
    and lstsq's rank cutoff s_1 max(H.shape) eps: (s, Q, c, cutoff)."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    P, s, Qt = np.linalg.svd(H, full_matrices=False)
    cutoff = s[0] * max(H.shape) * np.finfo(float).eps if s.size else 0.0
    return s, Qt.T, beta * P[0], cutoff


def _filtered(svd, lambda_hat):
    """Q^T y(lambda) = s / (s^2 + lambda) * c; at lambda = 0 singular values
    at or below the cutoff count as zero (the minimum-norm solution)."""
    s, _, c, cutoff = svd
    if lambda_hat > 0:
        return s / (s * s + lambda_hat) * c
    keep = s > cutoff
    return np.where(keep, c, 0.0) / np.where(keep, s, 1.0)


def projected_tikhonov(Hk, beta, lambda_hat, svd=None):
    """Solve min ||H y - beta e1||^2 + lambda ||y||^2 by SVD filtering.

    ``svd`` is H's ``projected_svd`` when the caller already has it.
    Returns (y, projected residual norm ||H y - beta e1||).  lambda = 0
    with rank-deficient H falls back to the minimum-norm solution.
    """
    if lambda_hat < 0:
        raise ValueError("lambda_hat must be nonnegative")
    Hk = np.atleast_2d(np.asarray(Hk, dtype=float))
    svd = projected_svd(Hk, beta) if svd is None else svd
    y = svd[1] @ _filtered(svd, lambda_hat)
    rhs = np.zeros(Hk.shape[0])
    rhs[0] = beta
    return y, float(np.linalg.norm(Hk @ y - rhs))


def _stop_from(stop):
    if stop is None:
        return None
    if isinstance(stop, Discrepancy):
        return stop
    raise TypeError(f"unsupported stopping rule {stop!r}")


def secant_lambda_update(history, epsilon, theta, h_norm2=1.0, lam_max=1e10):
    """Next regularization parameter from secant iteration on
    d(lambda) = residual(lambda) - theta * epsilon.

    ``history`` holds (lambda_j, residual_j) pairs, oldest first.
    Bootstrap: lambda_0 = 0 by convention; if its residual misses the
    band [epsilon, theta * epsilon], probe lambda_1 = 1e-4 * h_norm2.
    """
    if not history:
        raise ValueError("need at least one (lambda, residual) pair")
    target = theta * epsilon
    lam_j, res_j = history[-1]
    d_j = res_j - target
    if epsilon <= res_j <= target:
        return lam_j
    if len(history) == 1:
        probe = min(1e-4 * h_norm2, lam_max)
        return probe if probe != lam_j else lam_j
    lam_p, res_p = history[-2]
    d_p = res_p - target
    if d_j == d_p:
        return lam_j
    lam = lam_j - d_j * (lam_j - lam_p) / (d_j - d_p)
    return float(min(max(lam, 0.0), lam_max))


def optimal_lambda_search(H, beta, target, grid=None, golden_iters=60,
                          svd=None):
    """Minimize ||target - y(lambda)|| over a log grid refined by
    golden-section search (test-harness oracle).  A trial costs O(k): for
    a tall H, Q is square and ||target - Q f|| = ||Q^T target - f||."""
    svd = projected_svd(H, beta) if svd is None else svd
    t = svd[1].T @ target

    def err(lam):
        return float(np.linalg.norm(t - _filtered(svd, lam)))

    if grid is None:
        grid = np.logspace(-16, 2, 37)
    vals = [err(g) for g in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if lo >= hi:
        return float(grid[i])
    # golden section on log(lambda)
    a, b = np.log(lo), np.log(hi)
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = err(np.exp(c)), err(np.exp(d))
    for _ in range(golden_iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = err(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = err(np.exp(d))
    lam = float(np.exp((a + b) / 2.0))
    if err(lam) > vals[i]:
        lam = float(grid[i])
    # the bottom of the grid stands for "no regularization needed"
    return 0.0 if lam <= grid[1] else lam


class _LambdaRule:
    """Per-iteration regularization parameter selection for hybrid solves.

    ``kind`` is one of zero / fixed / secant / optimal.  The secant rule
    keeps a (lambda, residual) history, so each inner cycle needs a fresh
    rule; the optimal rule needs the exact solution projected on the
    current basis.
    """

    def __init__(self, kind="zero", value=0.0, stop=None, lam_max=1e10):
        if kind not in ("zero", "fixed", "secant", "optimal"):
            raise ValueError(f"unknown lambda rule {kind!r}")
        self.kind = kind
        self.stop = stop
        self.lam_max = lam_max
        self.history = []
        self.current = value if kind == "fixed" else 0.0

    def solve(self, H, beta, target=None):
        """Projected Tikhonov with the rule's current lambda; for the
        optimal rule, pick lambda minimizing ||target - y(lambda)||.
        Every lambda is served by one SVD of H.
        Returns (y, projected residual, lambda used)."""
        svd = projected_svd(H, beta)
        if self.kind == "optimal" and target is not None:
            self.current = optimal_lambda_search(H, beta, target, svd=svd)
        lam = self.current
        y, resid = projected_tikhonov(H, beta, lam, svd=svd)
        if self.kind == "secant" and self.stop is not None:
            self.history.append((lam, resid))
            self.current = secant_lambda_update(
                self.history, self.stop.epsilon, self.stop.theta,
                h_norm2=float(np.linalg.norm(H) ** 2), lam_max=self.lam_max,
            )
        return y, resid, lam


def _make_rule(lambda_rule, stop):
    """A rule from None (zero), a number (fixed), a kind name or a rule."""
    if isinstance(lambda_rule, _LambdaRule):
        return lambda_rule
    if lambda_rule is None:
        return _LambdaRule("zero", stop=stop)
    if isinstance(lambda_rule, (int, float)):
        return _LambdaRule("fixed", value=float(lambda_rule), stop=stop)
    return _LambdaRule(lambda_rule, stop=stop)


def hybrid(op, b, max_iter, rule, report, gkb, stop=None, precondition=None,
           solution=None, x_target=None, x_exact=None, outer=0, offset=0,
           after=None):
    """The hybrid projection loop of every Arnoldi/GKB solver.

    Step k expands the (flexible when ``precondition`` is given) Arnoldi
    or Golub-Kahan factorization of ``op`` from ``b``, solves the projected
    Tikhonov problem with ``rule`` (the optimal rule aims at V_k^T
    ``x_target``), maps Z_k y through ``solution``, records the iterate as
    iteration ``offset + k`` of cycle ``outer`` and tests the stops; then
    ``after(x)`` runs.  Returns (x, projected residual, stop reason).
    """
    state = gkb_start(op, b) if gkb else arnoldi_start(op, b)
    step = gkb_step if gkb else arnoldi_step
    x, resid, reason = np.zeros(op.cols), state.beta, "max_iter"
    for it in range(1, max_iter + 1):
        step(state, op, precondition)
        if state.k < it:
            reason = "breakdown"
            break
        target = None
        if rule.kind == "optimal" and x_target is not None:
            target = state.V_mat()[:, : state.k].T @ x_target
        proj = state.M_mat() if gkb else state.H_mat()
        y, resid, lam = rule.solve(proj, state.beta, target)
        x = state.Z_mat() @ y  # not kept: one assembled basis at a time
        if solution is not None:
            x = solution(x)
        if report is not None:
            report.record(offset + it, outer, x, resid, lam, x_exact)
        if stop is not None and stop.satisfied(resid):
            reason = "discrepancy"
            break
        if state.breakdown:
            reason = "breakdown"
            break
        if after is not None:
            after(x)
    return x, resid, reason


def run_hybrid(name, op, b, max_iter, stop, lambda_rule, x_exact, gkb,
               **loop):
    """A single-loop solve as a report: the ``hybrid`` loop, its stop
    reason, and the spectrum of the best iterate."""
    stop = _stop_from(stop)
    rule = _make_rule(lambda_rule, stop)
    report = SolveReport(solver=name)
    _, _, report.stop_reason = hybrid(op, b, max_iter, rule, report, gkb,
                                      stop=stop, x_exact=x_exact, **loop)
    report.add_best_spectrum(op.image_side)
    return report


def gmres(op, b, max_iter, stop=None, lambda_rule=None, x_exact=None):
    """(Hybrid) GMRES via the Arnoldi factorization."""
    return run_hybrid("gmres", op, b, max_iter, stop, lambda_rule, x_exact,
                      gkb=False, x_target=x_exact)


def lsqr(op, b, max_iter, stop=None, lambda_rule=None, x_exact=None):
    """(Hybrid) LSQR via Golub-Kahan bidiagonalization."""
    return run_hybrid("lsqr", op, b, max_iter, stop, lambda_rule, x_exact,
                      gkb=True, x_target=x_exact)


def rs_lr_gmres(op, b, restart_len, truncation_rank, max_outer, stop=None,
                x_exact=None):
    """Restarted GMRES with rank truncation of basis vectors and iterates.

    Inner basis vectors are orthogonalized against the previous
    (non-orthonormal) basis through a Gram solve, then truncated; the
    outer update truncates x + V_m y with y from the oblique projection
    (U_m^T A V_m) y = U_m^T r, U_m = A V_m.
    """
    if op.rows != op.cols:
        raise ValueError("RS-LR-GMRES requires a square operator")
    stop = _stop_from(stop)
    b = np.asarray(b, dtype=float)
    n = op.image_side
    x = np.zeros(op.cols)
    report = SolveReport(solver="rs-lr-gmres")
    it = 0
    for outer in range(max_outer):
        r = b - op.matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= _BREAKDOWN_REL * np.linalg.norm(b):
            report.stop_reason = "zero_residual"
            break
        V, AV = _zeros(op.cols), _zeros(op.rows)  # basis and A times it
        V[:, 0] = r / rnorm
        AV[:, 0] = op.matvec(V[:, 0])
        m = 1
        stopped = False
        for _ in range(restart_len):
            it += 1
            u = AV[:, m - 1]
            Vm = V[:, :m]
            G = Vm.T @ Vm
            rhs = Vm.T @ u
            try:
                coef = np.linalg.solve(G, rhs)
            except np.linalg.LinAlgError:
                coef = np.linalg.solve(G + 1e-12 * np.eye(G.shape[0]), rhs)
            w = u - Vm @ coef
            wt = truncate(w, truncation_rank)
            wnorm = np.linalg.norm(wt)
            if wnorm > _BREAKDOWN_REL * max(np.linalg.norm(u), 1.0):
                V, AV = _room(V, m + 1), _room(AV, m + 1)
                V[:, m] = wt / wnorm
                AV[:, m] = op.matvec(V[:, m])
                m += 1
            # projected oblique solve on the current basis, for metrics
            Vm, Um = V[:, :m], AV[:, :m]
            Gk = Um.T @ Um
            rhsk = Um.T @ r
            try:
                y = np.linalg.solve(Gk, rhsk)
            except np.linalg.LinAlgError:
                y = np.linalg.solve(Gk + 1e-12 * np.eye(Gk.shape[0]), rhsk)
            xt = truncate(x + Vm @ y, truncation_rank)
            resid = np.linalg.norm(b - op.matvec(xt))
            report.record(it, outer, xt, resid, 0.0, x_exact)
            if stop is not None and stop.satisfied(resid):
                report.stop_reason = "discrepancy"
                stopped = True
                break
        x = report.final_x
        if stopped:
            break
    report.add_best_spectrum(n)
    return report


def lr_fgmres(op, b, kappa_B, kappa, max_iter, stop=None, lambda_rule=None,
              x_exact=None):
    """Flexible GMRES with rank-truncated solution basis vectors."""
    return run_hybrid("lr-fgmres", op, b, max_iter, stop, lambda_rule,
                      x_exact, gkb=False,
                      precondition=lambda v: truncate(v, kappa_B),
                      solution=lambda x: truncate(x, kappa))


def lr_flsqr(op, b, kappa_B, kappa, max_iter, stop=None, lambda_rule=None,
             x_exact=None):
    """Flexible LSQR with rank-truncated solution basis vectors."""
    return run_hybrid("lr-flsqr", op, b, max_iter, stop, lambda_rule,
                      x_exact, gkb=True,
                      precondition=lambda v: truncate(v, kappa_B),
                      solution=lambda x: truncate(x, kappa))
