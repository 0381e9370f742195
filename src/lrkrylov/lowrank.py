"""SVD-based primitives: rank truncation, singular value shrinkage, and
the reweighting transform of the smooth Schatten-p surrogate, built from
the left singular vectors U.

The weight matrix W = I (x) diag(w) and the orthogonal transform
S = I (x) U^T are never materialized; all applications go through
n x n two-matrix products (O(n^3) flops for vectors of length n^2).
The paper's S = V^T (x) U^T has the same penalty and S^T W^q S, since
(V (x) U)(I (x) D)(V^T (x) U^T) = I (x) U D U^T for diagonal D.
"""

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
    "identity_reweighter",
    "apply_transform",
    "precondition",
]


@dataclass(frozen=True)
class SvdTriple:
    """Full SVD factors U, sigma (nonincreasing), V of a square matrix."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def svd(X):
    """Full SVD X = U diag(sigma) V^T, column signs as LAPACK gives them.

    ``truncate`` and ``shrink`` pair column i of U with column i of V,
    and the reweighter pairs each column of U with itself, so negating
    a column (of both U and V) negates only factors that meet in pairs;
    negation is exact, so a sign convention would change no bit.
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix has non-finite entries")
    U, s, Vt = np.linalg.svd(X)
    return SvdTriple(U, s, Vt.T)


def truncate(c, kappa):
    """Best rank-kappa approximation of the matricized vector (tau_kappa)."""
    c = np.asarray(c, dtype=float)
    n = int(round(np.sqrt(c.size)))
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must be in [1, {n}], got {kappa}")
    f = svd(unvec(c, n))
    Ck = (f.U[:, :kappa] * f.sigma[:kappa]) @ f.V[:, :kappa].T
    return vec(Ck)


def shrink(X, tau):
    """Singular value shrinkage D_tau(X) = U max(Sigma - tau, 0) V^T."""
    if not tau >= 0:  # written so that NaN fails
        raise ValueError("tau must be nonnegative")
    f = svd(X)
    return (f.U * np.maximum(f.sigma - tau, 0.0)) @ f.V.T


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


def identity_reweighter(n):
    """W_0 = I, S_0 = I: the starting reweighter of every solver."""
    return Reweighter(np.eye(n), np.ones(n))


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
    f = svd(unvec(v_i, n))
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
    v = np.asarray(v, dtype=float)
    n = rw.side
    if v.size != n * n:
        raise ValueError(f"expected length {n * n}, got {v.size}")
    M = unvec(v, n)
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
