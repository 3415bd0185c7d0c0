"""Low-rank PSD matrices with unit diagonal and a prescribed zero pattern.

Used to build concrete vector representations whose overlap graph equals a
target graph: entries on non-edges are forced to zero, entries on edges are
kept away from zero, and the rank is capped. The search is alternating
projection between the pattern constraints and the rank-r PSD cone; it is
heuristic, so callers get None when no attempt converges.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import InvalidInput
from .graphs import Graph, adjacency_matrix
from .linalg import DEFAULT_TOL, Tolerance, eigh_desc, hermitize, numeric_rank


def pattern_constrained_lowrank(
    g: Graph,
    rank: int,
    edge_floor: Optional[float] = 1e-3,
    seed: int = 0,
    restarts: int = 20,
    iters: int = 4000,
    feas_tol: float = 1e-10,
) -> Optional[np.ndarray]:
    """Real PSD matrix of rank <= rank, unit diagonal, zeros exactly off the
    edge pattern of g, and |entry| >= edge_floor on every edge. None when no
    restart converges."""
    if rank < 1 or rank > g.n:
        raise InvalidInput(f"rank {rank} out of range for n={g.n}")
    edge_mask = adjacency_matrix(g)
    non_edge_mask = ~edge_mask & ~np.eye(g.n, dtype=bool)
    for attempt in range(restarts):
        rng = np.random.default_rng(seed + attempt)
        x = rng.normal(size=(rank, g.n))
        m = x.T @ x
        best = np.inf
        since_best = 0
        for _ in range(iters):
            p = m.copy()
            p[non_edge_mask] = 0.0
            np.fill_diagonal(p, 1.0)
            if edge_floor is not None:
                small = edge_mask & (np.abs(p) < edge_floor)
                signs = np.where(p >= 0, 1.0, -1.0)
                p[small] = signs[small] * edge_floor
            p = (p + p.T) / 2
            w, v = np.linalg.eigh(p)
            keep = w[-rank:].clip(min=0.0)
            m = (v[:, -rank:] * keep) @ v[:, -rank:].T
            viol = max(
                np.abs(np.diagonal(m) - 1.0).max(),
                np.abs(m[non_edge_mask]).max() if non_edge_mask.any() else 0.0,
                (edge_floor - np.abs(m[edge_mask])).max() if edge_floor else 0.0,
            )
            if viol < feas_tol:
                out = m.copy()
                out[non_edge_mask] = 0.0
                np.fill_diagonal(out, 1.0)
                return (out + out.T) / 2
            if viol < best * (1 - 1e-6):
                best, since_best = viol, 0
            else:
                since_best += 1
                if since_best > 400:
                    break
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
