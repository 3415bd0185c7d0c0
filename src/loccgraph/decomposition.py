"""Splitting a Gram matrix into PSD pieces with constrained supports.

Two routes produce splittings. The chordal route peels rank-one terms off
along a perfect elimination ordering, so each support is a clique of the
pattern graph; it is exact up to roundoff whenever the pattern graph is
chordal and the matrix respects the pattern. The feasibility route runs
alternating projections between the per-support PSD cones and the affine
constraint that the pieces sum to the target; it covers patterns the
chordal route cannot, at the price of iterative accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidCover, NegativePivot, NotPSD, PatternViolation
from .graphs import Graph, adjacency_matrix, is_chordal, is_clique
from .linalg import DEFAULT_TOL, Tolerance, eigh_desc, hermitize, psd_check


@dataclass(frozen=True)
class DecompositionTerm:
    """Rank-one piece v v* with v zero outside its support (1-based)."""

    support: frozenset[int]
    vector: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())

    @property
    def weight(self) -> float:
        return float(np.linalg.norm(self.vector) ** 2)


@dataclass(frozen=True)
class Decomposition:
    n: int
    terms: tuple[DecompositionTerm, ...]
    residual: float
    step_min_eigs: tuple[float, ...] = field(default=())

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=complex)
        for t in self.terms:
            out += t.matrix()
        return out


def _pattern_leaks(m: np.ndarray, g: Graph, bound: float) -> list[tuple[int, int, float]]:
    off = (np.abs(m) > bound) & ~adjacency_matrix(g)
    rows, cols = np.nonzero(np.triu(off, k=1))
    return [
        (i + 1, j + 1, float(abs(m[i, j])))
        for i, j in zip(rows.tolist(), cols.tolist())
    ]


def chordal_decompose(
    m: np.ndarray,
    g: Graph,
    tol: Tolerance = DEFAULT_TOL,
    track_steps: bool = False,
) -> Decomposition:
    """Peel m into rank-one terms supported on cliques of chordal g.

    Eliminating vertex v subtracts the rank-one piece built from column v of
    the running residual; within a perfect elimination ordering that column
    lives on v plus its not-yet-eliminated neighbours, which form a clique.
    step_min_eigs records the smallest residual eigenvalue after each peel
    when track_steps is set.
    """
    m = hermitize(np.asarray(m, dtype=complex))
    if m.shape != (g.n, g.n):
        raise PatternViolation(f"matrix shape {m.shape} does not match n={g.n}")
    scale = max(1.0, float(np.linalg.norm(m)))
    leaks = _pattern_leaks(m, g, tol.zero_tol * scale)
    if leaks:
        raise PatternViolation(f"nonzero entries off the pattern: {leaks[:5]}")
    ok, min_eig = psd_check(m, tol)
    if not ok:
        raise NotPSD(f"matrix has eigenvalue {min_eig:.3g}")
    chord = is_chordal(g)
    if not chord.chordal:
        raise PatternViolation(f"pattern graph has a chordless cycle {chord.hole}")

    adj = adjacency_matrix(g)
    later = np.ones(g.n, dtype=bool)
    r = m.copy()
    terms: list[DecompositionTerm] = []
    steps: list[float] = []
    for v in chord.ordering:
        vi = v - 1
        later[vi] = False
        pivot = float(r[vi, vi].real)
        if pivot < -tol.psd_tol * scale:
            raise NegativePivot(f"pivot {pivot:.3g} at vertex {v}")
        if pivot <= tol.zero_tol * scale:
            r[vi, :] = 0.0
            r[:, vi] = 0.0
            continue
        # v and its neighbours not yet eliminated
        allowed = adj[vi] & later
        allowed[vi] = True
        col = r[:, vi].copy()
        stray = np.flatnonzero(~allowed & (np.abs(col) > 10 * tol.zero_tol * scale))
        if stray.size:
            u = int(stray[0]) + 1
            raise PatternViolation(
                f"eliminating {v}: residual entry at {u} of size {abs(col[u-1]):.3g}"
            )
        w = np.where(allowed, col, 0.0) / np.sqrt(pivot)
        keep = allowed & (np.abs(w) > tol.zero_tol * scale)
        keep[vi] = True
        support = frozenset((np.flatnonzero(keep) + 1).tolist())
        vec = np.where(keep, w, 0.0)
        terms.append(DecompositionTerm(support, vec))
        r = hermitize(r - np.outer(vec, vec.conj()))
        r[vi, :] = 0.0
        r[:, vi] = 0.0
        if track_steps:
            steps.append(float(np.linalg.eigvalsh(r).min()))
    residual = float(np.linalg.norm(r))
    return Decomposition(g.n, tuple(terms), residual, tuple(steps))


@dataclass(frozen=True)
class DecompositionReport:
    ok: bool
    residual: float
    rel_residual: float
    supports_ok: bool
    bad_supports: tuple[frozenset[int], ...]


def verify_decomposition(
    m: np.ndarray,
    dec: Decomposition,
    host: Optional[Graph] = None,
    tol: Tolerance = DEFAULT_TOL,
    rel_bound: float = 1e-8,
) -> DecompositionReport:
    """Check the terms sum back to m and sit on cliques of host."""
    m = hermitize(np.asarray(m, dtype=complex))
    scale = max(1.0, float(np.linalg.norm(m)))
    residual = float(np.linalg.norm(m - dec.matrix()))
    bad: list[frozenset[int]] = []
    if host is not None:
        clique = {s: is_clique(host, s) for s in {t.support for t in dec.terms}}
        bad += [t.support for t in dec.terms if not clique[t.support]]
    # entries of each term's vector that are nonzero outside its support
    inside = np.zeros((len(dec.terms), dec.n), dtype=bool)
    for row, t in enumerate(dec.terms):
        inside[row, [i - 1 for i in t.support if 1 <= i <= dec.n]] = True
    vectors = np.array([t.vector for t in dec.terms]).reshape(inside.shape)
    stray = ((np.abs(vectors) > tol.zero_tol * scale) & ~inside).any(axis=1)
    bad += [t.support for t, off in zip(dec.terms, stray) if off]
    supports_ok = not bad
    rel = residual / scale
    return DecompositionReport(
        rel <= rel_bound and supports_ok, residual, rel, supports_ok, tuple(bad)
    )


# the feasibility search gives up after this many iterations without a new
# best gap
STALL_WINDOW = 3000


@dataclass(frozen=True)
class FeasibilityResult:
    decomposition: Decomposition
    supports: tuple[frozenset[int], ...]
    blocks: tuple[np.ndarray, ...]
    gap: float
    iterations: int
    converged: bool


def _clip_psd(block: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(hermitize(block))
    w = w.clip(min=0.0)
    return (v * w) @ v.conj().T


def feasibility_search(
    m: np.ndarray,
    supports: Sequence[frozenset[int]],
    tol: Tolerance = DEFAULT_TOL,
    max_iter: int = 60000,
    gap_tol: Optional[float] = None,
) -> Optional[FeasibilityResult]:
    """Alternating projections for m = sum of PSD blocks on given supports.

    Projection one: clip each block to the PSD cone on its support.
    Projection two: distribute the remaining gap across the blocks covering
    each entry. Returns None when the gap stalls above gap_tol, which is
    evidence (not proof) of infeasibility.
    """
    m = hermitize(np.asarray(m, dtype=complex))
    n = m.shape[0]
    supports = tuple(frozenset(s) for s in supports)
    if not supports:
        raise InvalidCover("need at least one support")
    for s in supports:
        if not s or min(s) < 1 or max(s) > n:
            raise InvalidCover(f"support {sorted(s)} out of range")
    idx = [np.array(sorted(s)) - 1 for s in supports]
    scale = max(1.0, float(np.linalg.norm(m)))
    if gap_tol is None:
        gap_tol = 1e-7 * scale

    counts = np.zeros((n, n))
    for ix in idx:
        counts[np.ix_(ix, ix)] += 1.0
    uncovered = counts == 0
    if np.abs(m[uncovered]).max(initial=0.0) > tol.zero_tol * scale:
        return None

    blocks = [np.zeros((len(ix), len(ix)), dtype=complex) for ix in idx]

    def run(iters_left: int) -> tuple[float, int]:
        best, since_best, used = np.inf, 0, 0
        gap = np.inf
        while used < iters_left:
            used += 1
            total = np.zeros((n, n), dtype=complex)
            for b, ix in zip(blocks, idx):
                total[np.ix_(ix, ix)] += b
            r = m - total
            for k, ix in enumerate(idx):
                blocks[k] = blocks[k] + r[np.ix_(ix, ix)] / counts[np.ix_(ix, ix)]
                blocks[k] = _clip_psd(blocks[k])
            total[:] = 0.0
            for b, ix in zip(blocks, idx):
                total[np.ix_(ix, ix)] += b
            gap = float(np.linalg.norm(m - total))
            if gap <= gap_tol:
                return gap, used
            if gap < best * (1 - 1e-6):
                best, since_best = gap, 0
            else:
                since_best += 1
                if since_best > STALL_WINDOW:
                    return gap, used
        return gap, used

    gap, used = run(max_iter)
    converged = gap <= gap_tol
    if converged:
        # drop near-null eigenvalue dust so the terms come out clean, then
        # let the projections re-balance what the truncation disturbed
        for k in range(len(blocks)):
            w, v = np.linalg.eigh(hermitize(blocks[k]))
            w[w < max(tol.psd_tol, 10 * gap)] = 0.0
            blocks[k] = (v * w) @ v.conj().T
        gap2, used2 = run(max(2000, max_iter - used))
        used += used2
        if gap2 <= gap_tol:
            gap = gap2
        else:
            total = np.zeros((n, n), dtype=complex)
            for b, ix in zip(blocks, idx):
                total[np.ix_(ix, ix)] += b
            gap = float(np.linalg.norm(m - total))
            converged = gap <= gap_tol
    if not converged:
        return None

    terms: list[DecompositionTerm] = []
    term_floor = max(10 * gap, 1e-12 * scale)
    for s, b, ix in zip(supports, blocks, idx):
        w, v = eigh_desc(hermitize(b))
        for col in range(len(w)):
            if w[col] <= term_floor:
                continue
            vec = np.zeros(n, dtype=complex)
            vec[ix] = np.sqrt(w[col]) * v[:, col]
            sup = frozenset(
                int(i) + 1 for i in ix if abs(vec[i]) > tol.zero_tol * scale
            )
            terms.append(DecompositionTerm(sup or frozenset({int(ix[0]) + 1}), vec))
    dec = Decomposition(n, tuple(terms), gap)
    return FeasibilityResult(dec, supports, tuple(blocks), gap, used, True)
