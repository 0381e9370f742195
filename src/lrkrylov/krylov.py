"""Arnoldi / Golub-Kahan factorizations (standard and flexible), projected
Tikhonov solves with their regularization-parameter rules, the hybrid
projection loop every Arnoldi/GKB solver runs, and the solvers of this
module: GMRES, LSQR, RS-LR-GMRES, LR-FGMRES, LR-FLSQR.

Every Arnoldi step and Golub-Kahan half, standard or flexible, is one
half-step, ``_extend``: subtract w's part on the last two basis vectors
(local orthogonality, Parlett 1980), then one block classical
Gram-Schmidt pass, repeated only if it leaves 1/sqrt(2) of ||w|| or less
("twice is enough", Daniel, Gragg, Kaufman & Stewart 1976); write the
coefficients into the projected matrix, append the vector or report
breakdown.
Bases are dense column-major (Fortran-order) arrays sized once by the
start function from the step budget, so a step writes a column in place
and ``V_mat()`` and friends are views, not copies (desk scale,
N <= 65536, <= 200 steps).

Every lambda rule is served by one thin SVD H = P S Q^T of the projected
matrix per iteration, so a trial lambda costs O(k), not a least-squares
solve (the SVD-filter form of hybrid methods, Chung, Nagy & O'Leary 2008).

The hybrid loop builds an iterate Z_k y only where something reads it:
at every step of a flexible run, of a run whose iterates are mapped
(``solution``) or passed to ``after``, and of a run without ``x_exact``.
A standard run with ``x_exact`` has Z_k = V_k orthonormal, takes its
errors from coefficients and builds its last and best iterates once, at
the end.
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
_REORTH = 1 / np.sqrt(2)  # a second pass when one leaves less of ||w||
_LAMBDA_GRID = np.logspace(-16, 2, 37)  # trial lambdas of the optimal rule
_GOLDEN_ITERS = 60  # golden-section steps that refine the best of them
_LAMBDA_MAX = 1e10  # ceiling of the secant rule's lambda


def _orthogonalize(w, Q):
    """Block classical Gram-Schmidt against the orthonormal columns of
    ``Q``, repeated once when the first pass leaves ||w|| at or below
    _REORTH of its value; returns (w, summed coefficients)."""
    h = Q.T @ w
    w1 = w - Q @ h
    if np.linalg.norm(w1) > _REORTH * np.linalg.norm(w):
        return w1, h
    h2 = Q.T @ w1
    return w1 - Q @ h2, h + h2


def _first_column(b, cols):
    """(beta, basis array of ``cols`` columns, the first b / beta)."""
    b = np.asarray(b, dtype=float)
    beta = np.linalg.norm(b)
    if beta == 0:
        raise ValueError("start vector is zero")
    Q = np.empty((b.size, cols), order="F")
    Q[:, 0] = b / beta
    return beta, Q


def _preconditioned(state, v, precondition, steps):
    """z = precondition(v), kept as column k of Z, which the first call
    allocates with ``steps`` columns; a standard run (``precondition``
    None) keeps no Z, since there Z_k = V_k."""
    if precondition is None:
        return v
    z = precondition(v)
    if state.Z is None:
        state.Z = np.empty((v.size, steps), order="F")
    state.Z[:, state.k] = z
    return z


def _extend(w, Q, P, k):
    """The half-step every factorization shares: project w off the last
    two columns of Q, where a short recurrence puts most of it, so that
    one full pass keeps the norm; write the summed coefficients h and then
    ||w|| into column k of P, and return w / ||w||; None on breakdown,
    when ||w|| <= _BREAKDOWN_REL max(max |h|, 1) (0 for an empty h)."""
    near = Q[:, -2:]
    c = near.T @ w
    w, h = _orthogonalize(w - near @ c, Q)
    h[h.size - c.size:] += c
    norm = np.linalg.norm(w)
    P[: h.size, k] = h
    P[h.size, k] = norm
    if norm <= _BREAKDOWN_REL * max(np.abs(h).max(initial=0.0), 1.0):
        return None
    return w / norm


@dataclass
class ArnoldiState:
    """Partial (flexible) Arnoldi factorization  A Z_k = V_{k+1} H_k.

    The factors are the leading parts of Fortran arrays sized once for
    the step budget: V (N, steps + 1), H (steps + 1, steps) and, in a
    flexible run, Z (N, steps); the ``*_mat()`` methods return views into
    them.  A standard run keeps no Z: there Z_k = V_k.  After a breakdown
    V has k columns.
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


def arnoldi_start(op, b, steps):
    if op.rows != op.cols:
        raise ValueError("Arnoldi requires a square operator")
    beta, V = _first_column(b, steps + 1)
    return ArnoldiState(beta, V, np.zeros((steps + 1, steps), order="F"))


def arnoldi_step(state, op, precondition=None):
    """Expand the factorization by one column; reports (not raises) breakdown."""
    if state.breakdown:
        return state
    k = state.k
    z = _preconditioned(state, state.V[:, k], precondition,
                        state.H.shape[1])
    v = _extend(op.matvec(z), state.V[:, : k + 1], state.H, k)
    state.k = k + 1
    state.breakdown = v is None
    if v is not None:
        state.V[:, k + 1] = v
    return state


@dataclass
class GkbState:
    """Partial (flexible) Golub-Kahan factorization:
    A Z_k = U_{k+1} M_k  and  A^T U_k = V_k T_k.

    Storage as in ``ArnoldiState``: U (M, steps + 1), V and Z (N, steps),
    M (steps + 1, steps), T (steps, steps).  ``u`` counts the columns of
    U: k + 1, or k after a breakdown in the second half of a step.
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


def gkb_start(op, b, steps):
    beta, U = _first_column(b, steps + 1)
    return GkbState(beta, U, np.empty((op.cols, steps), order="F"),
                    np.zeros((steps + 1, steps), order="F"),
                    np.zeros((steps, steps), order="F"))


def gkb_step(state, op, precondition=None):
    """One (flexible) Golub-Kahan step: new v_i, z_i, u_{i+1}."""
    if state.breakdown:
        return state
    k = state.k
    v = _extend(op.rmatvec(state.U[:, k]), state.V[:, :k], state.T, k)
    if v is None:
        state.breakdown = True
        return state
    state.V[:, k] = v
    z = _preconditioned(state, state.V[:, k], precondition,
                        state.M.shape[1])
    u = _extend(op.matvec(z), state.U[:, : k + 1], state.M, k)
    state.k = k + 1
    state.breakdown = u is None
    if u is not None:
        state.U[:, k + 1] = u
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


def projected_tikhonov(H, beta, lambda_hat, svd):
    """Solve min ||H y - beta e1||^2 + lambda ||y||^2 by SVD filtering,
    given ``svd = projected_svd(H, beta)``.  Returns (y, projected
    residual norm ||H y - beta e1||); lambda = 0 with rank-deficient H
    falls back to the minimum-norm solution.
    """
    if not lambda_hat >= 0:  # written so that NaN fails
        raise ValueError("lambda_hat must be nonnegative")
    y = svd[1] @ _filtered(svd, lambda_hat)
    rhs = np.zeros(H.shape[0])
    rhs[0] = beta
    return y, float(np.linalg.norm(H @ y - rhs))


def _stop_from(stop):
    if stop is None:
        return None
    if isinstance(stop, Discrepancy):
        return stop
    raise TypeError(f"unsupported stopping rule {stop!r}")


def secant_lambda_update(history, epsilon, theta, h_norm2):
    """Next regularization parameter from secant iteration on
    d(lambda) = residual(lambda) - theta * epsilon.

    ``history`` holds (lambda_j, residual_j) pairs, oldest first.
    Bootstrap: lambda_0 = 0 by convention; if its residual misses the
    band [epsilon, theta * epsilon], probe lambda_1 = 1e-4 ||H||_F^2,
    where ``h_norm2`` = ||H||_F^2 of the projected matrix H.
    """
    if not history:
        raise ValueError("need at least one (lambda, residual) pair")
    target = theta * epsilon
    lam_j, res_j = history[-1]
    d_j = res_j - target
    if epsilon <= res_j <= target:
        return lam_j
    if len(history) == 1:
        return min(1e-4 * h_norm2, _LAMBDA_MAX)
    lam_p, res_p = history[-2]
    d_p = res_p - target
    if d_j == d_p:
        return lam_j
    lam = lam_j - d_j * (lam_j - lam_p) / (d_j - d_p)
    return float(min(max(lam, 0.0), _LAMBDA_MAX))


def optimal_lambda_search(svd, target):
    """Minimize ||target - y(lambda)|| over a log grid refined by
    golden-section search (test-harness oracle); y(lambda) is filtered
    from ``svd = projected_svd(H, beta)``.  A trial costs O(k): for a tall
    H, Q is square and ||target - Q f|| = ||Q^T target - f||."""
    t = svd[1].T @ target

    def err(lam):
        return float(np.linalg.norm(t - _filtered(svd, lam)))

    grid = _LAMBDA_GRID
    vals = [err(g) for g in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]  # lo < hi: the grid increases
    # golden section on log(lambda)
    a, b = np.log(lo), np.log(hi)
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = err(np.exp(c)), err(np.exp(d))
    for _ in range(_GOLDEN_ITERS):
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
    aims at the discrepancy ``stop``, which it requires, and keeps a
    (lambda, residual) history, so ``hybrid`` builds a fresh rule for each
    call (each IRN inner cycle); the optimal rule needs the exact solution
    projected on the current basis.
    """

    def __init__(self, kind, value, stop):
        if kind not in ("zero", "fixed", "secant", "optimal"):
            raise ValueError(f"unknown lambda rule {kind!r}")
        if kind == "secant" and stop is None:
            raise ValueError("the secant rule needs a discrepancy stop")
        self.kind = kind
        self.stop = stop
        self.history = []
        self.current = value if kind == "fixed" else 0.0

    def solve(self, H, beta, target):
        """Projected Tikhonov with the rule's current lambda; for the
        optimal rule, pick lambda minimizing ||target - y(lambda)||.
        Every lambda is served by one SVD of H.
        Returns (y, projected residual, lambda used)."""
        svd = projected_svd(H, beta)
        if self.kind == "optimal":
            self.current = optimal_lambda_search(svd, target)
        lam = self.current
        y, resid = projected_tikhonov(H, beta, lam, svd)
        if self.kind == "secant":
            self.history.append((lam, resid))
            self.current = secant_lambda_update(
                self.history, self.stop.epsilon, self.stop.theta,
                h_norm2=float(np.linalg.norm(H) ** 2),
            )
        return y, resid, lam


def hybrid(op, b, max_iter, report, gkb, lambda_rule="zero", lambda_value=0.0,
           stop=None, precondition=None, solution=None, x_target=None,
           x_exact=None, outer=0, after=None):
    """The hybrid projection loop of every Arnoldi/GKB solver.

    Step k expands the (flexible when ``precondition`` is given) Arnoldi
    or Golub-Kahan factorization of ``op`` from ``b``, solves the projected
    Tikhonov problem by a fresh ``lambda_rule`` (the optimal rule aims at
    V_k^T ``x_target``; ``lambda_value`` is the fixed rule's), maps Z_k y
    through ``solution``, records the iterate in cycle ``outer`` of
    ``report`` and tests the stops; then, unless this was the last step,
    ``after(x)`` runs.  A standard run with ``x_exact`` records errors from
    coefficients instead and builds x once, at the end (module docstring).
    Returns (x, stop reason).
    """
    rule = _LambdaRule(lambda_rule, lambda_value, stop)
    if rule.kind == "optimal" and x_target is None:
        raise ValueError("the optimal lambda rule needs the exact solution")
    state = (gkb_start if gkb else arnoldi_start)(op, b, max_iter)
    step = gkb_step if gkb else arnoldi_step
    # Z_k = V_k is orthonormal here: with t_j = z_j^T r_{j-1} and
    # r_j = r_{j-1} - t_j z_j from r_0 = x_exact, the error of Z_k y is
    # sqrt(||r_k||^2 + ||t - y||^2), one dot product and one axpy a column
    coeffs = (x_exact is not None and precondition is None
              and solution is None and after is None)
    if coeffs:
        r, t = np.array(x_exact, dtype=float), []
        scale = np.linalg.norm(r)
    x, reason = np.zeros(op.cols), "max_iter"
    last = best = None  # (k, y) of the iterates the coefficient path keeps
    for it in range(1, max_iter + 1):
        step(state, op, precondition)
        if state.k < it:
            reason = "breakdown"
            break
        target = None
        if rule.kind == "optimal":
            target = state.V_mat()[:, : state.k].T @ x_target
        proj = state.M_mat() if gkb else state.H_mat()
        y, resid, lam = rule.solve(proj, state.beta, target)
        if coeffs:
            z = state.Z_mat()[:, -1]
            t.append(z @ r)
            r -= t[-1] * z
            off = t - y
            err = np.sqrt(r @ r + off @ off) / scale
            last = (state.k, y)
            if report.record(outer, None, resid, lam, x_exact, err=err):
                best = last
        else:
            x = state.Z_mat() @ y  # not kept: one assembled basis at a time
            if solution is not None:
                x = solution(x)
            report.record(outer, x, resid, lam, x_exact)
        if stop is not None and stop.satisfied(resid):
            reason = "discrepancy"
            break
        if state.breakdown:
            reason = "breakdown"
            break
        if after is not None and it < max_iter:
            after(x)
    if last is not None:
        x = report.final_x = state.Z_mat()[:, : last[0]] @ last[1]
        if best is not None:
            report.best_x = (x if best is last
                             else state.Z_mat()[:, : best[0]] @ best[1])
    return x, reason


def run_hybrid(name, op, b, max_iter, stop, lambda_rule, lambda_value,
               x_exact, gkb, **loop):
    """A single-loop solve as a report: the ``hybrid`` loop, its stop
    reason, and the spectrum of the best iterate."""
    stop = _stop_from(stop)
    report = SolveReport(solver=name)
    _, report.stop_reason = hybrid(op, b, max_iter, report, gkb,
                                   lambda_rule, lambda_value, stop=stop,
                                   x_exact=x_exact, **loop)
    report.add_best_spectrum(op.image_side)
    return report


def gmres(op, b, max_iter, stop=None, lambda_rule="zero", lambda_value=0.0,
          x_exact=None):
    """(Hybrid) GMRES via the Arnoldi factorization."""
    return run_hybrid("gmres", op, b, max_iter, stop, lambda_rule,
                      lambda_value, x_exact, gkb=False, x_target=x_exact)


def lsqr(op, b, max_iter, stop=None, lambda_rule="zero", lambda_value=0.0,
         x_exact=None):
    """(Hybrid) LSQR via Golub-Kahan bidiagonalization."""
    return run_hybrid("lsqr", op, b, max_iter, stop, lambda_rule,
                      lambda_value, x_exact, gkb=True, x_target=x_exact)


def _gram_solve(B, r):
    """Least-squares coefficients of r on the columns of B from the Gram
    system (B^T B) c = B^T r, shifted by 1e-12 I when it is singular."""
    G = B.T @ B
    rhs = B.T @ r
    try:
        return np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.solve(G + 1e-12 * np.eye(G.shape[0]), rhs)


def rs_lr_gmres(op, b, restart_len, truncation_rank, max_outer, stop=None,
                x_exact=None):
    """Restarted GMRES with rank truncation of basis vectors and iterates.

    Inner basis vectors are orthogonalized against the previous
    (non-orthonormal) basis through a Gram solve, then truncated; the
    outer update truncates x + V_m y with y from the oblique projection
    (U_m^T A V_m) y = U_m^T r, U_m = A V_m.  A step whose truncated
    direction is negligible is recorded once and ends the cycle, since
    the next step would repeat it.
    """
    if op.rows != op.cols:
        raise ValueError("RS-LR-GMRES requires a square operator")
    stop = _stop_from(stop)
    b = np.asarray(b, dtype=float)
    n = op.image_side
    x = np.zeros(op.cols)
    report = SolveReport(solver="rs-lr-gmres")
    V = np.empty((op.cols, restart_len + 1), order="F")  # each cycle's basis
    AV = np.empty((op.rows, restart_len + 1), order="F")  # and A times it
    for outer in range(max_outer):
        r = b - op.matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= _BREAKDOWN_REL * np.linalg.norm(b):
            report.stop_reason = "zero_residual"
            break
        V[:, 0] = r / rnorm
        AV[:, 0] = op.matvec(V[:, 0])
        m = 1
        for _ in range(restart_len):
            u = AV[:, m - 1]
            Vm = V[:, :m]
            wt = truncate(u - Vm @ _gram_solve(Vm, u), truncation_rank)
            wnorm = np.linalg.norm(wt)
            grown = wnorm > _BREAKDOWN_REL * max(np.linalg.norm(u), 1.0)
            if grown:
                V[:, m] = wt / wnorm
                AV[:, m] = op.matvec(V[:, m])
                m += 1
            # projected oblique solve on the current basis, for metrics
            y = _gram_solve(AV[:, :m], r)
            xt = truncate(x + V[:, :m] @ y, truncation_rank)
            resid = np.linalg.norm(b - op.matvec(xt))
            report.record(outer, xt, resid, 0.0, x_exact)
            if stop is not None and stop.satisfied(resid):
                report.stop_reason = "discrepancy"
                break
            if not grown:
                break  # the next step would repeat this one: restart
        x = report.final_x
        if report.stop_reason == "discrepancy":
            break
    report.add_best_spectrum(n)
    return report


def lr_fgmres(op, b, kappa_B, kappa, max_iter, stop=None,
              lambda_rule="zero", lambda_value=0.0, x_exact=None):
    """Flexible GMRES with rank-truncated solution basis vectors."""
    return run_hybrid("lr-fgmres", op, b, max_iter, stop, lambda_rule,
                      lambda_value, x_exact, gkb=False,
                      precondition=lambda v: truncate(v, kappa_B),
                      solution=lambda x: truncate(x, kappa))


def lr_flsqr(op, b, kappa_B, kappa, max_iter, stop=None,
             lambda_rule="zero", lambda_value=0.0, x_exact=None):
    """Flexible LSQR with rank-truncated solution basis vectors."""
    return run_hybrid("lr-flsqr", op, b, max_iter, stop, lambda_rule,
                      lambda_value, x_exact, gkb=True,
                      precondition=lambda v: truncate(v, kappa_B),
                      solution=lambda x: truncate(x, kappa))
