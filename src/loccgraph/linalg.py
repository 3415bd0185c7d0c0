"""Dense complex linear algebra primitives with explicit tolerance handling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, NotInRange, ZeroVector


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds used throughout: zeros, PSD slack, rank cutoff."""

    zero_tol: float = 1e-9
    psd_tol: float = 1e-8
    rank_tol: float = 1e-7

    def __post_init__(self):
        if min(self.zero_tol, self.psd_tol, self.rank_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.zero_tol > self.rank_tol:
            raise ValueError("zero_tol must not exceed rank_tol")


DEFAULT_TOL = Tolerance()


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-d complex vector."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected 1-d vector, got shape {arr.shape}")
    return arr


def as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected 2-d matrix, got shape {arr.shape}")
    return arr


def hermitize(m) -> np.ndarray:
    arr = as_matrix(m)
    return (arr + arr.conj().T) / 2.0


def frame(vectors: Sequence) -> np.ndarray:
    """Stack vectors as the columns of a d x n map from index space."""
    cols = [as_vector(v) for v in vectors]
    if not cols:
        raise DimensionMismatch("frame needs at least one column")
    d = cols[0].shape[0]
    if any(c.shape[0] != d for c in cols):
        raise DimensionMismatch("frame columns must share a dimension")
    return np.stack(cols, axis=1)


def gram(vectors: Sequence) -> np.ndarray:
    """Gram matrix with the inner product conjugate-linear in the first slot."""
    x = frame(vectors)
    return hermitize(x.conj().T @ x)


def psd_check(m, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Return (is PSD within psd_tol, smallest eigenvalue)."""
    arr = hermitize(m)
    if arr.shape[0] == 0:
        return True, 0.0
    smallest = float(np.linalg.eigvalsh(arr)[0])
    return smallest >= -tol.psd_tol, smallest


def _rank(sv: np.ndarray, tol: Tolerance) -> int:
    """The rank rule: singular values (descending) above rank_tol relative
    to the largest."""
    if sv.size == 0 or sv[0] <= 0:
        return 0
    return int(np.count_nonzero(sv > tol.rank_tol * sv[0]))


def numeric_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count singular values above rank_tol relative to the largest."""
    arr = np.asarray(m, dtype=complex)
    if arr.size == 0:
        return 0
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return _rank(np.linalg.svd(arr, compute_uv=False), tol)


def span_basis(x, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column span of x: the left singular vectors
    that numeric_rank counts, so its width is numeric_rank(x)."""
    u, sv, _ = np.linalg.svd(as_matrix(x), full_matrices=False)
    return u[:, : _rank(sv, tol)]


def eigh_desc(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition ordered by descending eigenvalue."""
    w, v = np.linalg.eigh(hermitize(m))
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def least_squares_preimage(
    x: np.ndarray, v, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, float | np.ndarray]:
    """Solve X* phi = v / mu for a unit phi and scale mu > 0.

    The least-squares solution phi0 of X* phi = v is accepted when its
    residual is at most rank_tol * ||v||; then phi = phi0 / ||phi0|| and
    mu = ||phi0||, so X* phi = v / mu holds to the same accuracy.

    A vector v gives (phi, mu). A matrix v is one right-hand side per
    column, solved in one call: it gives the unit columns phi and the array
    of their scales mu, and every column must pass both checks.
    """
    xm = as_matrix(x)
    rhs = np.asarray(v, dtype=complex)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != xm.shape[1]:
        raise DimensionMismatch("right-hand side length must match frame columns")
    cols = rhs.reshape(rhs.shape[0], -1)
    vnorm = np.linalg.norm(cols, axis=0)
    if (vnorm <= tol.zero_tol).any():
        raise ZeroVector("preimage of the zero vector is undefined")
    phi0, *_ = np.linalg.lstsq(xm.conj().T, cols, rcond=None)
    residual = np.linalg.norm(xm.conj().T @ phi0 - cols, axis=0)
    k = int(np.argmax(residual / vnorm))
    if residual[k] > tol.rank_tol * vnorm[k]:
        raise NotInRange(
            f"residual {residual[k]:.3e} exceeds {tol.rank_tol:.1e} * ||v|| = "
            f"{tol.rank_tol * vnorm[k]:.3e}"
        )
    mu = np.linalg.norm(phi0, axis=0)
    if (mu <= tol.zero_tol).any():
        raise NotInRange("least-squares solution collapsed to zero")
    if rhs.ndim == 1:
        return phi0[:, 0] / mu[0], float(mu[0])
    return phi0 / mu, mu


def orthonormal_columns(cols: Iterable[np.ndarray], dim: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the span of vectors in C^dim: the left singular
    vectors whose singular values exceed rank_tol relative to the largest."""
    vecs = [as_vector(c) for c in cols]
    if any(v.shape[0] != dim for v in vecs):
        raise DimensionMismatch("column dimension mismatch")
    if not vecs:
        return np.zeros((dim, 0), dtype=complex)
    return span_basis(np.stack(vecs, axis=1), tol)


def complete_basis(partial: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis of C^d: the
    given columns first, then the trailing columns of a complete QR."""
    arr = as_matrix(partial)
    d, k = arr.shape
    q, _ = np.linalg.qr(arr, mode="complete")
    full = np.concatenate([arr, q[:, k:]], axis=1)
    if k > d or np.abs(full.conj().T @ full - np.eye(d)).max() > 10 * tol.rank_tol:
        raise DimensionMismatch("could not complete to a full basis")
    return full
