"""Low-rank PSD matrices with unit diagonal and a prescribed zero pattern.

Used to build concrete vector representations whose overlap graph equals a
target graph: entries on non-edges are exactly zero, entries on edges are
bounded away from zero, and the rank is capped. The construction is the
smallest-eigenvalue shift M = I + S/|lambda_min(S)| of a signed adjacency
matrix S of the graph, which is PSD with unit diagonal and has rank n minus
the multiplicity of lambda_min(S). For the cycle C_n it reaches the minimum
semidefinite rank n - 2: the plain cycle (odd n) and the cycle with one
negative edge (even n) both have -2cos(pi/n) as a double smallest
eigenvalue.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import InvalidInput
from .graphs import Graph, adjacency_matrix
from .linalg import DEFAULT_TOL, Tolerance, eigh_desc, hermitize, numeric_rank


def pattern_constrained_lowrank(g: Graph, rank: int) -> Optional[np.ndarray]:
    """Real PSD matrix of rank <= rank, unit diagonal, zeros exactly off the
    edge pattern of g, and |entry| >= 1/maxdegree on every edge. Tries the
    adjacency matrix of g and the same with one edge's sign flipped; None
    when neither shift reaches the rank."""
    if rank < 1 or rank > g.n:
        raise InvalidInput(f"rank {rank} out of range for n={g.n}")
    a = adjacency_matrix(g).astype(float)
    signings = [a]
    if g.edges:
        i, j = g.edge_list()[0]
        flipped = a.copy()
        flipped[i - 1, j - 1] = flipped[j - 1, i - 1] = -1.0
        signings.append(flipped)
    for s in signings:
        lam = np.linalg.eigvalsh(s)[0]
        m = np.eye(g.n) - s / lam if lam < 0 else np.eye(g.n)
        if numeric_rank(m) <= rank:
            return m
    return None


def vectors_from_gram(
    m: np.ndarray, rank: Optional[int] = None, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Columns x_i with <x_i, x_j> = m_ij, living in dimension rank(m)."""
    m = hermitize(np.asarray(m, dtype=complex))
    w, v = eigh_desc(m)
    r = rank if rank is not None else numeric_rank(m, tol)
    r = max(r, 1)
    w = w[:r].clip(min=0.0)
    x = (v[:, :r] * np.sqrt(w)).conj().T
    if np.abs(x.imag).max() < tol.zero_tol:
        x = x.real.astype(complex)
    return x
