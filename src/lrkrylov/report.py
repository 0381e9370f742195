"""Per-run metric collection shared by every solver."""

from dataclasses import dataclass, field

import numpy as np

from .linops import unvec
from .lowrank import svd

__all__ = ["SolveReport", "Discrepancy"]


@dataclass(frozen=True)
class Discrepancy:
    """Discrepancy-principle stopping rule: stop once the (projected)
    residual norm falls to theta * epsilon."""

    epsilon: float
    theta: float = 1.01

    def __post_init__(self):  # each test written so that NaN fails
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")
        if not self.theta > 1:
            raise ValueError("theta must be > 1")

    def satisfied(self, residual):
        return residual <= self.theta * self.epsilon


@dataclass
class SolveReport:
    """Iteration history of one solver run.

    Residuals are the true norms for RS-LR-GMRES and SVT and the
    projected norms for the Arnoldi/GKB solvers.  The two coincide except
    for LR-FGMRES and LR-FLSQR, which record the projected residual of the
    untruncated Z_k y but return its rank-kappa truncation.  Relative
    errors are NaN when no exact solution was supplied.  A solver that has
    an iterate's error without the iterate records it as ``err`` and sets
    ``final_x`` and ``best_x`` itself.
    """

    solver: str = ""
    iterations: list = field(default_factory=list)
    outer_indices: list = field(default_factory=list)
    rel_errors: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)
    spectra: list = field(default_factory=list)  # (outer index, sigma/sigma_1)
    final_x: np.ndarray | None = None
    best_x: np.ndarray | None = None
    stop_reason: str = "max_iter"

    def record(self, outer, x, residual, lam, x_exact=None, err=None):
        """Append iterate ``x`` of cycle ``outer`` as iteration len + 1, so
        iterations run 1, 2, ... across every cycle of the run, and return
        whether it is the new best.  ``err`` is its relative error when the
        caller already has it; then ``x`` may be None, and the caller sets
        ``final_x`` and ``best_x`` itself."""
        self.iterations.append(len(self.iterations) + 1)
        self.outer_indices.append(outer)
        self.residuals.append(float(residual))
        self.lambdas.append(float(lam))
        if err is None and x_exact is not None:
            err = np.linalg.norm(x_exact - x) / np.linalg.norm(x_exact)
        self.rel_errors.append(np.nan if err is None else float(err))
        best = len(self.rel_errors) == 1 or (
            x_exact is not None and err == np.nanmin(self.rel_errors))
        self.final_x = x
        if best:
            self.best_x = x
        return best

    def add_spectrum(self, outer, sigma):
        """Record sigma / sigma_1 for cycle ``outer`` and return it."""
        sigma = np.asarray(sigma, dtype=float)
        top = sigma[0] if sigma.size and sigma[0] > 0 else 1.0
        self.spectra.append((outer, sigma / top))
        return self.spectra[-1][1]

    def add_best_spectrum(self, n):
        """End of a single-loop run: the spectrum of the n x n best iterate
        (nothing when no iterate was recorded)."""
        if self.final_x is not None:
            self.add_spectrum(0, svd(unvec(self.best_x, n)).sigma)

    @property
    def best(self):
        """(iteration, relative error) of the minimum recorded error."""
        if not self.rel_errors or np.all(np.isnan(self.rel_errors)):
            return (len(self.iterations), np.nan)
        idx = int(np.nanargmin(self.rel_errors))
        return (idx + 1, self.rel_errors[idx])

    @property
    def min_rel_error(self):
        return self.best[1]
