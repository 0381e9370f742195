"""Arnoldi / Golub-Kahan factorizations (standard and flexible), projected
Tikhonov solves with their regularization-parameter rules, the hybrid
projection loop every Arnoldi/GKB solver runs, and the solvers of this
module: GMRES, LSQR, RS-LR-GMRES, LR-FGMRES, LR-FLSQR.

Every Arnoldi step and Golub-Kahan half, standard or flexible, is one
half-step, ``_extend``, reached through ``_forward`` where it applies A:
subtract w's part on the last two basis vectors (local orthogonality,
Parlett 1980), then one block classical Gram-Schmidt pass, repeated only
if it leaves 1/sqrt(2) of ||w|| or less ("twice is enough", Daniel,
Gragg, Kaufman & Stewart 1976); write the coefficients into the
projected matrix, append the vector or report breakdown.  The pass skips
its update sweep w - Q h when ||h|| = ||Q^T w|| <= 4 eps ||w||, and
writes h as zeros, so the projected matrix holds what was subtracted: in
a standard Golub-Kahan run the local step mostly leaves w orthogonal to
the older basis to rounding, and the loss it leaves is measured exactly
and corrected only where it is (partial reorthogonalization, Simon 1984).
There each basis also takes the full pass only when due (``_Sweeps``):
1 to _PERIOD_MAX half-steps apart, the period doubled after a pass that
skipped its update and halved after one that subtracted, so the
measurement grows sparse while the loss stays at rounding (Grcar 1981),
or sooner when _PROBES random-sign sums of the basis find the loss grown
past _PROBE_LOSS, at O(N) a half-step; a half-step between passes writes
zeros, as a skipped update does.  Arnoldi and flexible Golub-Kahan, whose
far coefficients are real, pass on every half-step.
The same half-step grows RS-LR-GMRES's two QR factors, V_m = Q R of its
truncated basis and A V_m = W S, by a column a step.  Bases are dense
column-major (Fortran-order) arrays sized once by the start function from
the step budget, so a step writes a column in place and ``V_mat()`` and
friends are views, not copies (desk scale, N <= 65536, <= 200 steps).
A solve hands its bases' storage back once it has built its answer, and
later solves take theirs from it (``_basis``), so a process allocates
its largest bases once and keeps their storage, at most _SPARE_MAX
arrays, until it exits: then the peak memory does not depend on whether
the heap has a hole that fits each new 10-50 MB basis.

The projected problem of each iteration is served, under the zero rule,
by an updated QR: one Givens rotation a step extends a QR factorization
of the projected matrix, y solves a triangular system and the projected
residual is the last entry of the rotated beta e1 (GMRES, Saad & Schultz
1986; LSQR, Paige & Saunders 1982).  A diagonal entry of R at lstsq's
rank cutoff hands that step and the rest of the run to the SVD, which
keeps the minimum-norm answer.  The other rules are served by one thin
SVD H = P S Q^T of the projected matrix per iteration, so a trial lambda
costs O(k), not a least-squares solve (the SVD-filter form of hybrid
methods, Chung, Nagy & O'Leary 2008); the optimal rule filters a log
grid of trial lambdas in one array expression, then polishes its best
point by safeguarded Newton iteration in log(lambda) on the closed-form
error and its first two derivatives, also O(k) each.

The hybrid loop builds an iterate Z_k y only where something reads it:
at every step of a flexible run, of a run whose iterates are mapped
(``solution``) or passed to ``after``, and of a run without ``x_exact``.
A standard run with ``x_exact`` has Z_k = V_k orthonormal, takes its
errors from coefficients and builds its last and best iterates once, at
the end.
"""

import math
import threading
from dataclasses import dataclass, field

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
_SKIP = 4 * np.finfo(float).eps  # no update when ||Q^T w|| is this of ||w||
_PERIOD_MAX = 8  # most half-steps between a standard GKB basis's passes
_PROBES = 2  # random-sign sums of that basis, checked between passes
_PROBE_LOSS = 1e-14  # a pass when they put ||Q^T w|| above this of ||w||
_LAMBDA_GRID = np.logspace(-16, 2, 37)  # the optimal rule's grid
_NEWTON_TOL = 1e-12  # the polish stops at a step this small in log(lambda)
_NEWTON_MAX = 64  # and after this many steps (bisection needs about 42)
_LAMBDA_MAX = 1e10  # ceiling of the secant rule's lambda
_SPARE_MAX = 3  # bases kept for later solves: a flexible GKB run holds 3

_spare = []  # storage of finished solves' bases, smallest first
_spare_lock = threading.Lock()


def _basis(rows, cols):
    """An uninitialized Fortran (rows, cols) array for a Krylov basis, on
    the smallest spare storage that holds it, else on new storage."""
    size = rows * cols
    with _spare_lock:
        i = next((i for i, s in enumerate(_spare) if s.size >= size), None)
        if i is None:
            store = np.empty(size)
            # glibc raises its mmap threshold to a mapped block's size when
            # it frees the block; kept storage is never freed, so free an
            # untouched block of the same size once, lest LAPACK workspaces
            # and set-up arrays below that size be mapped, and faulted in,
            # afresh on every call
            np.empty(size)
        else:
            store = _spare.pop(i)
    return store[:size].reshape((rows, cols), order="F")


def _give_back(*bases):
    """Keep the storage of bases that nothing reads any more for the next
    solves' ``_basis``: the _SPARE_MAX largest of all that is spare."""
    with _spare_lock:
        _spare.extend(a.base for a in bases if a is not None)
        _spare.sort(key=lambda s: s.size)
        del _spare[:-_SPARE_MAX]


def _orthogonalize(w, Q):
    """Block classical Gram-Schmidt against the orthonormal columns of
    ``Q``, repeated once when the first pass leaves ||w|| at or below
    _REORTH of its value; returns (w, summed coefficients, ||w||).  When
    ||h|| = ||Q^T w|| <= _SKIP ||w||, h is rounding: w comes back as it
    is, with zero coefficients, and without the update sweep w - Q h."""
    h = Q.T @ w
    norm = np.linalg.norm(w)
    if np.linalg.norm(h) <= _SKIP * norm:
        return w, np.zeros_like(h), norm
    w1 = w - Q @ h
    norm1 = np.linalg.norm(w1)
    if norm1 > _REORTH * norm:
        return w1, h, norm1
    h2 = Q.T @ w1
    w2 = w1 - Q @ h2
    return w2, h + h2, np.linalg.norm(w2)


def _first_column(b, cols):
    """(beta, basis array of ``cols`` columns, the first b / beta)."""
    b = np.asarray(b, dtype=float)
    beta = np.linalg.norm(b)
    if beta == 0:
        raise ValueError("start vector is zero")
    Q = _basis(b.size, cols)
    Q[:, 0] = b / beta
    return beta, Q


class _Sweeps:
    """When a basis Q of a standard Golub-Kahan run takes its full pass:
    ``period`` half-steps after the last, doubled after a pass that
    skipped its update (clean), halved after one that subtracted, 1 to
    _PERIOD_MAX; and between passes whenever a probe finds w off the
    span.  The probes are the rows of S = G Q^T, G of random signs with
    _PROBES rows, grown in place a column of Q at a time:
    E ||S w||^2 = _PROBES ||Q^T w||^2, at O(N) a half-step.  Where the
    loss grows fast, as when the process nears the rank of A, a skipped
    pass would leave it in the basis for good."""

    def __init__(self):
        self.period, self.wait = 1, 0  # wait: half-steps left to the pass
        self.S, self.n = None, 0  # the probes, and the columns they sum
        self.signs = np.random.default_rng(0)

    def due(self, w, Q):
        if self.S is None:
            self.S = np.zeros((_PROBES, w.size))
        for q in Q[:, self.n:].T:
            for s, add in zip(self.S, self.signs.integers(2, size=_PROBES)):
                (np.add if add else np.subtract)(s, q, out=s)
        self.n = Q.shape[1]
        self.wait -= 1
        return self.wait < 0 or (np.linalg.norm(self.S @ w) > _PROBE_LOSS
                                 * math.sqrt(_PROBES) * np.linalg.norm(w))

    def passed(self, clean):
        self.period = (min(2 * self.period, _PERIOD_MAX) if clean
                       else max(self.period // 2, 1))
        self.wait = self.period - 1


def _extend(w, Q, P, k, sweeps=None):
    """The half-step every factorization shares: project w off the last
    two columns of Q, where a short recurrence puts most of it, so that
    one full pass keeps the norm; write the summed coefficients h and then
    ||w|| into column k of P, and return w / ||w||; None on breakdown,
    when ||w|| <= _BREAKDOWN_REL max(max |h|, 1) (0 for an empty h).
    With a ``sweeps`` schedule the full pass runs only when that says it
    is due; a half-step between passes writes zero far coefficients, as a
    pass that skips its update does."""
    near = Q[:, -2:]
    c = near.T @ w
    w = w - near @ c
    if sweeps is None or sweeps.due(w, Q):
        w, h, norm = _orthogonalize(w, Q)
        if sweeps is not None:
            sweeps.passed(not h.any())
    else:
        h, norm = np.zeros(Q.shape[1]), np.linalg.norm(w)
    h[h.size - c.size:] += c
    P[: h.size, k] = h
    P[h.size, k] = norm
    if norm <= _BREAKDOWN_REL * max(np.abs(h).max(initial=0.0), 1.0):
        return None
    return np.divide(w, norm, out=w)  # w is a fresh array here


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


def _forward(state, op, precondition, Q, P, sweeps=None):
    """Advance by the half-step that applies A: z = precondition(v_k), kept
    as column k of Z, which the first flexible step allocates (a standard
    run keeps no Z: Z_k = V_k), then ``_extend`` by A z into Q and column k
    of P on the ``sweeps`` schedule, reporting breakdown.  Returns whether
    Q grew."""
    k = state.k
    z = state.V[:, k]
    if precondition is not None:
        z = precondition(z)
        if state.Z is None:
            state.Z = _basis(z.size, P.shape[1])
        state.Z[:, k] = z
    q = _extend(op.matvec(z), Q[:, : k + 1], P, k, sweeps)
    state.k = k + 1
    state.breakdown = q is None
    if q is not None:
        Q[:, k + 1] = q
    return q is not None


def arnoldi_step(state, op, precondition=None):
    """Expand the factorization by one column; reports (not raises) breakdown."""
    if not state.breakdown:
        _forward(state, op, precondition, state.V, state.H)
    return state


@dataclass
class GkbState:
    """Partial (flexible) Golub-Kahan factorization:
    A Z_k = U_{k+1} M_k  and  A^T U_k = V_k T_k.

    Storage as in ``ArnoldiState``: U (M, steps + 1), V and Z (N, steps),
    M (steps + 1, steps), T (steps, steps).  ``u`` counts the columns of
    U: k + 1, or k after a breakdown in the second half of a step.  A
    standard step (no ``precondition``) runs each basis's full pass on
    that basis's own schedule, ``sweeps`` (U's, V's): there M and T are
    bidiagonal, so a pass mostly finds rounding.  A flexible step passes
    on every half-step, as Arnoldi does: its far coefficients are real.
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
    sweeps: tuple = field(default_factory=lambda: (_Sweeps(), _Sweeps()))

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
    return GkbState(beta, U, _basis(op.cols, steps),
                    np.zeros((steps + 1, steps), order="F"),
                    np.zeros((steps, steps), order="F"))


def gkb_step(state, op, precondition=None):
    """One (flexible) Golub-Kahan step: new v_i, z_i, u_{i+1}."""
    if state.breakdown:
        return state
    k = state.k
    sweeps = state.sweeps if precondition is None else (None, None)
    v = _extend(op.rmatvec(state.U[:, k]), state.V[:, :k], state.T, k,
                sweeps[1])
    if v is None:
        state.breakdown = True
        return state
    state.V[:, k] = v
    if _forward(state, op, precondition, state.U, state.M, sweeps[0]):
        state.u = k + 2
    return state


def projected_svd(H, beta):
    """Thin SVD H = P diag(s) Q^T of a projected matrix, with c = beta P^T e1
    and lstsq's rank cutoff s_1 max(H.shape) eps: (s, Q, c, cutoff)."""
    P, s, Qt = np.linalg.svd(H, full_matrices=False)
    cutoff = s[0] * max(H.shape) * np.finfo(float).eps if s.size else 0.0
    return s, Qt.T, beta * P[0], cutoff


def _filtered(svd, lambda_hat):
    """Q^T y(lambda) = s / (s^2 + lambda) * c, one row per lambda of a
    column of positive lambdas; at lambda = 0 singular values at or below
    the cutoff count as zero (the minimum-norm solution)."""
    s, _, c, cutoff = svd
    if np.min(lambda_hat) > 0:
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


class _GivensQR:
    """QR factorization of a growing (k + 1) x k upper-Hessenberg projected
    matrix, for the zero rule: R (k x k) and the rotated right-hand side g,
    g = beta e1 at the start.  ``extend`` applies the stored rotations to
    the new column and forms one more, so ||H y - beta e1|| is least at
    R y = g[:k], where it is |g[k]|."""

    def __init__(self, beta, steps):
        self.R = np.zeros((steps, steps), order="F")
        self.g = np.zeros(steps + 1)
        self.g[0] = beta
        self.rotations = []  # (c, s) of each column so far
        self.diag = 0.0  # max |R_jj|

    def extend(self, col):
        """Add column k (its k + 2 entries) and return (y, |g[k + 1]|), or
        None when the new |R_kk| is at or below lstsq's rank cutoff
        (k + 2) eps max_j |R_jj|: then the caller needs the SVD."""
        k = len(self.rotations)
        h = col.tolist()
        for i, (c, s) in enumerate(self.rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        r = math.hypot(h[k], h[k + 1])
        self.diag = max(self.diag, r)
        if not r > col.size * np.finfo(float).eps * self.diag:
            return None  # written so that NaN and inf go to the SVD too
        c, s = h[k] / r, h[k + 1] / r
        self.rotations.append((c, s))
        self.R[:k, k] = h[:k]
        self.R[k, k] = r
        g = self.g
        g[k], g[k + 1] = c * g[k], -s * g[k]
        y = np.linalg.solve(self.R[: k + 1, : k + 1], g[: k + 1])
        return y, abs(float(g[k + 1]))


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
    """Minimize E(lambda) = ||target - y(lambda)||^2 (test-harness
    oracle), y(lambda) filtered from ``svd = projected_svd(H, beta)``:
    for a tall H, Q is square, so E = ||t - f||^2 with t = Q^T target and
    f = s c / (s^2 + lambda), O(k) a trial.  Filter all of _LAMBDA_GRID
    at once; its bottom point stands for "no regularization needed", 0.0.
    Otherwise polish the best point i by Newton's method on dE/dmu = 0,
    mu = log(lambda), in (grid[i - 1], grid[i + 1]): with r = t - f and
    w = lambda / (s^2 + lambda), dE/dmu = 2 sum(r f w) and d2E/dmu2 =
    2 sum(f^2 w^2 + r f w (1 - 2 w)).  A step that leaves the bracket or
    follows a curvature <= 0 bisects instead; the sign of dE/dmu keeps
    the half that holds the minimum.  Stop at a step below _NEWTON_TOL and
    return the better of that point and grid[i]; 0.0 if it is <= grid[1].
    """
    t = svd[1].T @ target
    grid = _LAMBDA_GRID
    errs = np.linalg.norm(t - _filtered(svd, grid[:, None]), axis=1)
    i = int(np.argmin(errs))
    if i == 0:
        return 0.0
    s, _, c, _ = svd
    s2, sc = s * s, s * c
    lam = float(grid[i])
    r = t - sc / (s2 + lam)
    at_grid = r @ r
    lo, hi = math.log(grid[i - 1]), math.log(grid[min(i + 1, grid.size - 1)])
    mu = math.log(lam)
    for _ in range(_NEWTON_MAX):
        f = sc / (s2 + lam)
        w = lam / (s2 + lam)
        r = t - f
        fw = f * w
        grad = float(r @ fw)  # halves of dE/dmu and d2E/dmu2
        curv = float(fw @ fw + (r * fw) @ (1.0 - 2.0 * w))
        if grad > 0:
            hi = mu
        else:
            lo = mu
        step = -grad / curv if curv > 0 else math.inf
        if not lo < mu + step < hi:
            step = 0.5 * (lo + hi) - mu
        mu += step
        lam = math.exp(mu)
        if abs(step) < _NEWTON_TOL:
            break
    r = t - sc / (s2 + lam)
    if not r @ r <= at_grid:
        lam = float(grid[i])
    return 0.0 if lam <= grid[1] else lam


def hybrid(op, b, max_iter, report, gkb, lambda_rule="zero", lambda_value=0.0,
           stop=None, precondition=None, solution=None, x_target=None,
           outer=0, after=None):
    """The hybrid projection loop of every Arnoldi/GKB solver.

    Step k expands the (flexible when ``precondition`` is given) Arnoldi
    or Golub-Kahan factorization of ``op`` from ``b`` and solves the
    projected Tikhonov problem with the lambda of ``lambda_rule``: 0, by
    the updated QR (module docstring) until a step is rank deficient;
    otherwise from one ``projected_svd``, with ``lambda_value`` ("fixed"),
    the best for V_k^T ``x_target`` ("optimal"), or the secant step toward
    ``stop`` that the previous step took, from a history each call starts
    afresh.  It maps Z_k y through ``solution``, records the iterate and
    its lambda in cycle ``outer`` of ``report`` and tests the stops; then,
    unless this was the last step, ``after(x)`` runs.  With ``report.x_exact``
    a standard run records errors from coefficients and builds its last and
    best iterates from the y's at the end.  Returns (x, stop reason).
    """
    if lambda_rule not in ("zero", "fixed", "secant", "optimal"):
        raise ValueError(f"unknown lambda rule {lambda_rule!r}")
    if lambda_rule == "secant" and stop is None:
        raise ValueError("the secant rule needs a discrepancy stop")
    if lambda_rule == "optimal" and x_target is None:
        raise ValueError("the optimal lambda rule needs a target on the "
                         "basis (x_target, from x_exact); the flexible and "
                         "low-rank solvers have none")
    lam = lambda_value if lambda_rule == "fixed" else 0.0
    history = []  # the secant rule's (lambda, residual) pairs
    state = (gkb_start if gkb else arnoldi_start)(op, b, max_iter)
    step = gkb_step if gkb else arnoldi_step
    qr = _GivensQR(state.beta, max_iter) if lambda_rule == "zero" else None
    target = np.empty(max_iter)  # V_k^T x_target, a dot product a column
    # Z_k = V_k is orthonormal here: with t_j = z_j^T r_{j-1} and
    # r_j = r_{j-1} - t_j z_j from r_0 = x_exact, the error of Z_k y is
    # sqrt(||r_k||^2 + ||t - y||^2), one dot product and one axpy a column
    coeffs = (report.x_exact is not None and precondition is None
              and solution is None and after is None)
    if coeffs:
        r, t = np.array(report.x_exact, dtype=float), []
        scale = np.linalg.norm(r)
    x, reason = np.zeros(op.cols), "max_iter"
    ys = []  # y of each step on the coefficient path
    for it in range(1, max_iter + 1):
        step(state, op, precondition)
        if state.k < it:
            reason = "breakdown"
            break
        proj = state.M_mat() if gkb else state.H_mat()
        if qr is not None and (solved := qr.extend(proj[:, -1])) is not None:
            y, resid = solved
        else:
            qr = None  # another rule, or rank deficient from here on
            svd = projected_svd(proj, state.beta)
            if lambda_rule == "optimal":
                target[it - 1] = state.V[:, it - 1] @ x_target
                lam = optimal_lambda_search(svd, target[:it])
            y, resid = projected_tikhonov(proj, state.beta, lam, svd)
        if coeffs:
            z = state.Z_mat()[:, -1]
            t.append(z @ r)
            r -= t[-1] * z
            off = t - y
            ys.append(y)
            report.record(outer, None, resid, lam,
                          err=np.sqrt(r @ r + off @ off) / scale)
        else:
            x = state.Z_mat() @ y  # not kept: one assembled basis at a time
            if solution is not None:
                x = solution(x)
            report.record(outer, x, resid, lam)
        if lambda_rule == "secant":
            history.append((lam, resid))
            lam = secant_lambda_update(history, stop.epsilon, stop.theta,
                                       float(np.linalg.norm(proj) ** 2))
        if stop is not None and stop.satisfied(resid):
            reason = "discrepancy"
            break
        if state.breakdown:
            reason = "breakdown"
            break
        if after is not None and it < max_iter:
            after(x)
    if ys:  # y of step j has j entries; j <= 0: an earlier call's best
        Z, j = state.Z_mat(), report.best[0] - len(report.iterations) + len(ys)
        x = report.final_x = Z[:, : len(ys)] @ ys[-1]
        if j > 0:
            report.best_x = x if j == len(ys) else Z[:, :j] @ ys[j - 1]
    _give_back(state.U if gkb else None, state.V, state.Z)
    return x, reason


def run_hybrid(name, op, b, max_iter, stop, lambda_rule, lambda_value,
               x_exact, gkb, **loop):
    """A single-loop solve as a report: the ``hybrid`` loop, its stop
    reason, and the spectrum of the best iterate."""
    stop = _stop_from(stop)
    report = SolveReport(name, x_exact)
    _, report.stop_reason = hybrid(op, b, max_iter, report, gkb, lambda_rule,
                                   lambda_value, stop=stop, **loop)
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


def rs_lr_gmres(op, b, restart_len, truncation_rank, max_outer, stop=None,
                x_exact=None):
    """Restarted GMRES with rank truncation of basis vectors and iterates.

    A cycle keeps its non-orthonormal basis V_m and A V_m as QR factors
    V_m = Q R and A V_m = W S, which ``_extend`` grows by a column a step.
    An inner step truncates u - Q Q^T u, u = A v_{m-1}; the outer update
    truncates x + Q (R y), with y from S y = W^T r, the least-squares
    solution of (A V_m) y = r.  A step whose truncated direction is
    negligible, or whose column breaks down either factor, is recorded
    once and ends the cycle, since the next step would repeat it; so does
    a start residual in the null space of A, at the first column.
    """
    if op.rows != op.cols:
        raise ValueError("RS-LR-GMRES requires a square operator")
    stop = _stop_from(stop)
    b = np.asarray(b, dtype=float)
    x = np.zeros(op.cols)
    report = SolveReport("rs-lr-gmres", x_exact, stop_reason="max_outer")
    Q = _basis(op.cols, restart_len + 1)  # V = Q R and
    W = _basis(op.cols, restart_len + 1)  # A V = W S of each cycle
    R = np.zeros((restart_len + 1, restart_len + 1), order="F")
    S = np.zeros_like(R)
    g = np.empty(restart_len + 1)  # W^T r
    for outer in range(max_outer):
        r = b - op.matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= _BREAKDOWN_REL * np.linalg.norm(b):
            report.stop_reason = "zero_residual"
            break
        v, m = r / rnorm, 0  # the next column of V, None when negligible
        for step in range(restart_len + 1):
            if step:  # v_m from u = A v_{m-1} off span(V_m), truncated
                wt = truncate(_orthogonalize(u, Q[:, :m])[0], truncation_rank)
                wnorm = np.linalg.norm(wt)
                grown = wnorm > _BREAKDOWN_REL * max(np.linalg.norm(u), 1.0)
                v = wt / wnorm if grown else None
            if v is not None:  # V = Q R and A V = W S grow by a column
                u = op.matvec(v)
                q = _extend(v, Q[:, :m], R, m)
                w = None if q is None else _extend(u, W[:, :m], S, m)
                if w is None:
                    v = None
                else:
                    Q[:, m], W[:, m], g[m] = q, w, w @ r
                    m += 1
            if step or v is None:
                y = np.linalg.solve(S[:m, :m], g[:m])
                xt = truncate(x + Q[:, :m] @ (R[:m, :m] @ y), truncation_rank)
                resid = np.linalg.norm(b - op.matvec(xt))
                report.record(outer, xt, resid, 0.0)
                if stop is not None and stop.satisfied(resid):
                    report.stop_reason = "discrepancy"
                    break
            if v is None:
                break  # the next step would repeat this one: restart
        x = report.final_x
        if report.stop_reason == "discrepancy":
            break
    _give_back(Q, W)
    report.add_best_spectrum(op.image_side)
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
