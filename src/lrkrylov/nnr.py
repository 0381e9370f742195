"""Iteratively reweighted and flexible nuclear-norm solvers.

The inner-outer IRN solvers rebuild the weight/transform pair from the
outer iterate and rerun a preconditioned Krylov method from x = 0; the
flexible variants fold the reweighting into a single flexible Krylov
loop, updating the preconditioner at every iteration.  Both run the
hybrid loop of ``krylov``.  The SVT baseline and the outer spectrum stop
live here too.
"""

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import krylov
from .krylov import optimal_lambda_search, secant_lambda_update
from .linops import LinearOperator, unvec, vec
from .lowrank import (
    apply_transform,
    build_reweighter,
    build_reweighter_from_basis,
    identity_reweighter,
    precondition,
    shrink,
    svd,
)
from .report import Discrepancy, SolveReport

__all__ = [
    "NnrConfig",
    "irn_nnrp",
    "flexible_nnrp",
    "svt",
    "secant_lambda_update",
    "outer_stop_singular_values",
    "optimal_lambda_search",
    "reweighted_krylov_solve",
]


def is_count(c, top=None, low=1):
    """True for an integer in [low, top] (JSON ``true`` is no count)."""
    return (isinstance(c, numbers.Integral) and not isinstance(c, bool)
            and c >= low and (top is None or c <= top))


@dataclass(frozen=True)
class NnrConfig:
    """Configuration shared by the IRN and flexible solvers.

    gamma follows the geometric schedule gamma_{k+1} = max(gamma_k /
    gamma_decay, gamma_min), applied per outer cycle (IRN) or per
    iteration (flexible, iterate-reweighted only: the "-v" variants build
    their weights from the basis vector alone and take no gamma).
    ``epsilon`` > 0 turns on the discrepancy stop, which the secant rule
    needs.  The solvers take the Krylov process (``gkb``) and the
    reweighting source (``from_basis``) as arguments.
    """

    p: float = 1.0
    gamma0: float = 1.0
    gamma_decay: float = 10.0
    gamma_min: float = 1e-10
    lambda_rule: str = "zero"  # zero | secant | fixed | optimal
    lambda_value: float = 0.0
    theta: float = 1.01
    epsilon: float = 0.0
    max_outer: int = 4
    max_inner: int = 50
    max_iter: int = 100
    tau_sigma: float = 0.1

    def __post_init__(self):
        for key, ok, want in (  # each test written so that NaN fails
                ("p", 0 < self.p <= 1, "in (0, 1]"),
                ("theta", self.theta > 1, "> 1"),
                ("gamma0", self.gamma0 > 0, "> 0"),
                ("gamma_decay", self.gamma_decay > 0, "> 0"),
                ("gamma_min", self.gamma_min > 0, "> 0"),
                ("epsilon", self.epsilon >= 0, ">= 0"),
                ("lambda_value", self.lambda_value >= 0, ">= 0"),
                ("tau_sigma", self.tau_sigma >= 0, ">= 0"),
                *((k, is_count(getattr(self, k)), "an integer >= 1")
                  for k in ("max_outer", "max_inner", "max_iter"))):
            if not (ok and getattr(self, key) <= sys.float_info.max):
                raise ValueError(f"{key} must be finite and {want}, got "
                                 f"{getattr(self, key)!r}")

    def stop(self):
        if self.epsilon > 0:
            return Discrepancy(self.epsilon, self.theta)
        return None


def outer_stop_singular_values(sigma_prev, sigma_curr, tau_sigma):
    """True iff two consecutive normalized spectra, arrays of equal
    length, differ by < tau_sigma in the 2-norm."""
    return float(np.linalg.norm(sigma_curr - sigma_prev)) < tau_sigma


def _reweighted_operator(op, rw, gkb, b):
    """The operator of one reweighted inner solve, with its true adjoint,
    and its start vector.

    gkb:     A_hat = A S^T W^{-1}          (right preconditioning), b
    arnoldi: A_hat = S A S^T W^{-1}        (orthogonal left + right), S b
    """
    if gkb:
        left = left_adjoint = lambda v: v
    else:
        left = lambda v: apply_transform(rw, v, "S")
        left_adjoint = lambda u: apply_transform(rw, u, "S_transpose")
    return LinearOperator(
        op.rows, op.cols, op.image_side,
        lambda x: left(op.matvec(apply_transform(rw, x, "S_transpose", -1))),
        lambda u: apply_transform(rw, op.rmatvec(left_adjoint(u)), "S", -1),
    ), left(b)


def reweighted_krylov_solve(op, b, reweighter, n_steps, report,
                            lambda_rule="zero", lambda_value=0.0, gkb=True,
                            stop=None, outer=0, x_exact=None):
    """Run one reweighted inner solve from x = 0 with a fixed (W, S) pair,
    by Golub-Kahan (``gkb``) or Arnoldi, under the lambda rule spelt as in
    ``NnrConfig``, recording each iterate in cycle ``outer`` of the
    ``SolveReport`` ``report``.  Returns (x, stop reason).  The inner
    cycle of the IRN solvers.
    """
    wop, b0 = _reweighted_operator(op, reweighter, gkb, b)
    x_target = None
    if lambda_rule == "optimal" and x_exact is not None:
        x_target = apply_transform(reweighter, x_exact, "S", 1)
    return krylov.hybrid(
        wop, b0, n_steps, report, gkb, lambda_rule, lambda_value, stop=stop,
        solution=lambda xh: apply_transform(reweighter, xh, "S_transpose",
                                            -1),
        x_target=x_target, x_exact=x_exact, outer=outer)


def irn_nnrp(op, b, config, gkb=True, x_exact=None):
    """Inner-outer iteratively reweighted nuclear-norm solver:
    irn-lsqr-nnrp with ``gkb``, irn-gmres-nnrp (Arnoldi) without.

    Each outer cycle rebuilds (W, S) from the SVD of the current iterate
    (identity at the start), reruns the preconditioned Krylov method from
    x = 0 until the discrepancy principle or the inner budget, then
    decreases gamma.  Outer iterations stop when consecutive normalized
    spectra agree to within tau_sigma.
    """
    b = np.asarray(b, dtype=float)
    n = op.image_side
    gamma = config.gamma0
    rw = identity_reweighter(n)
    stop = config.stop()
    report = SolveReport(solver=f"irn-{'lsqr' if gkb else 'gmres'}-nnrp")
    prev_spectrum = None
    for k in range(config.max_outer):
        x, reason = reweighted_krylov_solve(
            op, b, rw, config.max_inner, report, config.lambda_rule,
            config.lambda_value, gkb=gkb, stop=stop, outer=k, x_exact=x_exact)
        f = svd(unvec(x, n))  # one factorization: spectrum and weights
        spectrum = report.add_spectrum(k, f.sigma)
        if prev_spectrum is not None and outer_stop_singular_values(
                prev_spectrum, spectrum, config.tau_sigma):
            report.stop_reason = "singular_values"
            return report
        prev_spectrum = spectrum
        report.stop_reason = reason if reason == "breakdown" else "max_outer"
        if k + 1 < config.max_outer:  # no reweighter after the last cycle
            gamma = max(gamma / config.gamma_decay, config.gamma_min)
            rw = build_reweighter(f, config.p, gamma)
    return report


def flexible_nnrp(op, b, config, gkb=True, from_basis=False, x_exact=None):
    """Single-loop flexible nuclear-norm solver (heuristic): flexible
    Golub-Kahan (flsqr-nnrp) with ``gkb``, flexible Arnoldi (fgmres-nnrp)
    without, and the "-v" variant with ``from_basis``.

    The preconditioner applied to the i-th basis vector is built from the
    SVD of the previous iterate, or with ``from_basis`` of the basis
    vector itself; the net weight power is -2 for the Golub-Kahan family
    and -1 for the Arnoldi family.
    """
    n = op.image_side
    gamma = config.gamma0
    rw = identity_reweighter(n)
    power = -2 if gkb else -1
    stop = config.stop()

    def precond(v):
        source = build_reweighter_from_basis(v, config.p) if from_basis else rw
        return precondition(source, v, power)

    def after(x):
        nonlocal gamma, rw
        gamma = max(gamma / config.gamma_decay, config.gamma_min)
        rw = build_reweighter(svd(unvec(x, n)), config.p, gamma)

    name = f"{'flsqr' if gkb else 'fgmres'}-nnrp{'-v' if from_basis else ''}"
    return krylov.run_hybrid(name, op, b, config.max_iter, stop,
                             config.lambda_rule, config.lambda_value, x_exact,
                             gkb=gkb, precondition=precond,
                             after=None if from_basis else after)


def svt(op, b, tau, delta, max_iter, stop=None, x_exact=None):
    """Singular value thresholding baseline: alternate shrinkage with a
    dual gradient step on the constraint A x = b."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not delta > 0:
        raise ValueError("the step size delta must be positive")
    b = np.asarray(b, dtype=float)
    n = op.image_side
    y = np.zeros(op.rows)
    report = SolveReport(solver="svt")
    for _ in range(max_iter):
        x = vec(shrink(unvec(op.rmatvec(y), n), tau))
        resid_vec = b - op.matvec(x)
        resid = np.linalg.norm(resid_vec)
        y = y + delta * resid_vec
        report.record(0, x, resid, 0.0, x_exact)
        if stop is not None and stop.satisfied(resid):
            report.stop_reason = "discrepancy"
            break
    report.add_best_spectrum(n)
    return report
