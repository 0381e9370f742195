"""SVD-based primitives: rank truncation, singular value shrinkage, and
the reweighting transform of the smooth Schatten-p surrogate, built from
the left singular vectors U.

No caller reads V, so ``svd`` returns U and sigma only.  Truncation,
shrinkage and the reweighters of the flexible solvers take
``svd(X, left=True)``, the eigenvectors of the Gram matrix X X^T, which
costs less than the full SVD.  Its sigma is accurate only to about
sqrt(eps) sigma_1, absolute, so a spectrum that is recorded (the best
iterate's, the IRN outer cycle's, from which the IRN reweighter is built
too) keeps LAPACK's full SVD.

The weight matrix W = I (x) diag(w) and the orthogonal transform
S = I (x) U^T are never materialized; all applications go through
n x n two-matrix products (O(n^3) flops for vectors of length n^2).
The paper's S = V^T (x) U^T has the same penalty and S^T W^q S, since
(V (x) U)(I (x) D)(V^T (x) U^T) = I (x) U D U^T for diagonal D.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linops import unvec, vec

__all__ = [
    "SvdTriple",
    "Reweighter",
    "svd",
    "truncate",
    "shrink",
    "build_reweighter",
    "build_reweighter_from_basis",
    "apply_transform",
    "precondition",
]


@dataclass(frozen=True)
class SvdTriple:
    """Left singular vectors U and singular values sigma (nonincreasing)
    of a square matrix."""

    U: np.ndarray
    sigma: np.ndarray


def svd(X, left=False):
    """U and sigma of X = U diag(sigma) V^T from LAPACK's full SVD, column
    signs as LAPACK gives them; V^T is discarded.

    With ``left``, from ``eigh`` of the Gram matrix Y Y^T of Y = 2^-e X, 2^e
    the power of two above max |X|.  The scaling is exact, so the Gram
    cannot overflow or lose X to underflow, and 2^k X gives the same U and
    sigma times 2^k.  The Gram is known to about n eps sigma_1^2, so sigma
    is accurate to about sqrt(eps) sigma_1, absolute, and the columns of U
    for singular values below that may mix.  The flexible reweighters that
    take this path are ``build_reweighter_from_basis`` and
    ``nnr.flexible_nnrp``'s.

    Every caller pairs column i of U with itself (U_k U_k^T, U D U^T), so
    negating a column negates only factors that meet in pairs; negation
    is exact, so a sign convention would change no bit.
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix has non-finite entries")
    if not left:
        U, s, _ = np.linalg.svd(X)
        return SvdTriple(U, s)
    e = math.frexp(np.max(np.abs(X), initial=0.0))[1]
    Y = np.ldexp(X, -e)
    lam, Q = np.linalg.eigh(Y @ Y.T)  # ascending
    sigma = np.ldexp(np.sqrt(np.maximum(lam[::-1], 0.0)), e)
    return SvdTriple(Q[:, ::-1], sigma)


def truncate(c, kappa):
    """Best rank-kappa approximation U_k U_k^T X of the matricized vector
    (tau_kappa)."""
    c = np.asarray(c, dtype=float)
    n = int(round(np.sqrt(c.size)))
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    X = unvec(c, n)
    Uk = svd(X, left=True).U[:, :kappa]
    return vec(Uk @ (Uk.T @ X))


def shrink(X, tau):
    """Singular value shrinkage D_tau(X) = U max(Sigma - tau, 0) V^T,
    computed as U diag(max(sigma - tau, 0) / sigma) U^T X over the
    sigma > tau that it keeps."""
    if not tau >= 0:  # written so that NaN fails
        raise ValueError("tau must be nonnegative")
    f = svd(X, left=True)
    k = np.count_nonzero(f.sigma > tau)
    Uk, s = f.U[:, :k], f.sigma[:k]
    return (Uk * ((s - tau) / s)) @ (Uk.T @ X)


@dataclass(frozen=True)
class Reweighter:
    """The pair (W, S) stored implicitly through the left SVD factor.

    S = I (x) U^T and W = I (x) diag(inv_weights**-1); ``inv_weights``
    (the diagonal of W^{-1}) is stored because it stays finite for the
    basis-vector variant, where plain weights can blow up at sigma = 0.
    """

    U: np.ndarray
    inv_weights: np.ndarray

    @property
    def side(self):
        return self.U.shape[0]


def build_reweighter(f, p, gamma):
    """Reweighter from the ``svd`` f of the current iterate: inverse
    weights (sigma_i^2 + gamma)^{1/2 - p/4}."""
    if not 0 < p <= 1:  # written so that NaN fails
        raise ValueError(f"p must be in (0, 1], got {p!r}")
    if not gamma > 0:  # written so that NaN fails
        raise ValueError("gamma must be positive")
    inv_w = (f.sigma**2 + gamma) ** (0.5 - p / 4.0)
    return Reweighter(f.U, inv_w)


def build_reweighter_from_basis(v_i, p):
    """Reweighter from a basis vector ("(v)" variant): inverse weights
    sigma_i^{1/2 - p/4} taken from the SVD of unvec(v_i)."""
    if not 0 < p <= 1:  # written so that NaN fails
        raise ValueError(f"p must be in (0, 1], got {p!r}")
    v_i = np.asarray(v_i, dtype=float)
    if not np.any(v_i):
        raise ValueError("basis vector is zero")
    n = int(round(np.sqrt(v_i.size)))
    f = svd(unvec(v_i, n), left=True)
    inv_w = f.sigma ** (0.5 - p / 4.0)
    return Reweighter(f.U, inv_w)


def _weight_diag(rw, power):
    """Diagonal of W^power (power applied to the row index of unvec)."""
    with np.errstate(divide="ignore"):
        return rw.inv_weights ** (-power)


def apply_transform(rw, v, direction, weight_power=0):
    """Apply S or S^T with an optional weight in the transformed domain.

    direction "S":            W^q @ (S v)   = vec(D (U^T unvec(v)))
    direction "S_transpose":  S^T @ (W^q v) = vec(U (D unvec(v)))

    so round-tripping with weight_power 0 is the identity, and composing
    ("S", q) then ("S_transpose", 0) gives S^T W^q S.
    """
    M = unvec(np.asarray(v, dtype=float), rw.side)
    d = _weight_diag(rw, weight_power)
    if direction == "S":
        out = d[:, None] * (rw.U.T @ M)
    elif direction == "S_transpose":
        out = rw.U @ (d[:, None] * M)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return vec(out)


def precondition(rw, v, weight_power):
    """Composite S^T W^q S v = vec(U D U^T unvec(v)) in two products."""
    v = np.asarray(v, dtype=float)
    d = _weight_diag(rw, weight_power)
    return vec(rw.U @ (d[:, None] * (rw.U.T @ unvec(v, rw.side))))
