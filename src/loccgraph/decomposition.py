"""Splitting a Gram matrix into PSD pieces with constrained supports.

Three routes produce splittings. The chordal route peels rank-one terms off
along a perfect elimination ordering, so each support is a clique of the
pattern graph; it is exact up to roundoff whenever the pattern graph is
chordal and the matrix respects the pattern. The dominance route needs no
chordality: when the comparison matrix of m on its pattern graph is a
nonsingular M-matrix, a positive diagonal scaling makes m diagonally
dominant, and m splits in closed form into one PSD piece per edge plus a
nonnegative diagonal (factor width two: Boman, Chen, Parekh & Toledo 2005,
"On factor width and symmetric H-matrices"). The feasibility route covers
patterns the chordal route cannot: accelerated projected gradient on the
squared distance from the target to sums of PSD pieces on the supports. It
ends with a splitting, at the price of iterative accuracy, or with a dual
witness, a Hermitian Y whose shift Y + eps*I is PSD on every support and
has negative inner product with the target, which proves that no splitting
exists (theorem of alternatives for generalized inequalities, Boyd &
Vandenberghe, Convex Optimization, section 5.9).
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


def comparison_matrix(m: np.ndarray, g: Graph) -> np.ndarray:
    """|m_ii| on the diagonal, -|m_ij| on the edges of g, 0 elsewhere."""
    c = np.where(adjacency_matrix(g), -np.abs(m), 0.0)
    np.fill_diagonal(c, np.abs(np.diagonal(m)))
    return c


def dominance_slack(
    m: np.ndarray, g: Graph, x: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """(Cx)_i less the margin psd_tol * (|C|x)_i it must clear, C the
    comparison matrix of m on g.

    Row i of diag(x) m diag(x) restricted to g is diagonally dominant when
    (Cx)_i > 0. The margin stays far above the roundoff in Cx, and it rejects
    a scaling read off a (nearly) singular C, where Cx is tiny against |C|x.
    """
    c = comparison_matrix(m, g)
    return c @ x - tol.psd_tol * (np.abs(c) @ x)


def dominance_scaling(
    m: np.ndarray, g: Graph, tol: Tolerance = DEFAULT_TOL
) -> Optional[np.ndarray]:
    """x = C^-1 1 for the comparison matrix C of m on g, when it is positive
    and every row clears its margin (C is then a nonsingular M-matrix and
    m, cut to g, a symmetric H-matrix); None otherwise."""
    try:
        x = np.linalg.solve(comparison_matrix(m, g), np.ones(g.n))
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(x).all() and (x > 0).all()):
        return None
    if (dominance_slack(m, g, x, tol) <= 0).any():
        return None
    return x


def dominance_split(
    m: np.ndarray, g: Graph, x: np.ndarray, groups: Sequence[frozenset[int]]
) -> Decomposition:
    """Split m into rank-one PSD pieces on the edges of g and the vertices,
    given a dominance scaling x (see dominance_scaling).

    Edge ij gives v with v_i = sqrt(|m_ij| x_j / x_i) and v_j = conj(m_ij) / v_i,
    so that v_i conj(v_j) = m_ij; vertex i gives sqrt((Cx)_i / x_i) e_i, the
    rest of m_ii. Each piece takes as support the first group holding its
    edge or vertex, so groups, cliques of g covering its edges and vertices,
    set the outcomes. Entries of m off g are left out, and show in the
    residual.
    """
    m = np.asarray(m, dtype=complex)
    n = g.n
    member = np.zeros((len(groups), n), dtype=bool)
    for k, s in enumerate(groups):
        member[k, [i - 1 for i in s]] = True
    i, j = np.array(g.edge_list(), dtype=int).reshape(-1, 2).T - 1
    rows = len(i)
    vectors = np.zeros((rows + n, n), dtype=complex)
    mag = np.abs(m[i, j])
    head = np.sqrt(mag * x[j] / x[i])
    vectors[np.arange(rows), i] = head
    vectors[np.arange(rows), j] = m[i, j].conj() / head
    rest = comparison_matrix(m, g) @ x / x
    vectors[rows + np.arange(n), np.arange(n)] = np.sqrt(np.maximum(rest, 0.0))
    owner = np.concatenate([
        np.argmax(member[:, i] & member[:, j], axis=0),
        np.argmax(member, axis=0),
    ])
    terms = tuple(
        DecompositionTerm(groups[k], vec) for k, vec in zip(owner.tolist(), vectors)
    )
    residual = float(np.linalg.norm(m - vectors.T @ vectors.conj()))
    return Decomposition(n, terms, residual)


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


@dataclass(frozen=True)
class DualWitness:
    """Proof that no splitting exists: Y + shift*I is PSD on every support
    and its inner product with m is value < 0 (by more than margin).

    Any splitting m = sum of PSD B_S on the supports would give
    <Y + shift*I, m> = sum of <(Y + shift*I)|_S, B_S> >= 0, since the inner
    product of two PSD matrices is nonnegative.
    """

    matrix: np.ndarray
    shift: float
    value: float
    margin: float

    @property
    def holds(self) -> bool:
        return self.value < -self.margin


def _witness(
    m: np.ndarray, y: np.ndarray, cells: Sequence, tol: Tolerance
) -> DualWitness:
    lowest = min(float(np.linalg.eigvalsh(y[c])[0]) for c in cells)
    shift = max(0.0, -lowest)
    trace = float(np.trace(m).real)
    value = float(np.vdot(y, m).real) + shift * trace
    # roundoff in the block eigenvalues and the inner product stays far
    # below this, so a witness that holds is not an artefact of rounding
    margin = tol.psd_tol * float(np.linalg.norm(y)) * trace
    return DualWitness(y, shift, value, margin)


def dual_witness(
    m: np.ndarray,
    y: np.ndarray,
    supports: Sequence[frozenset[int]],
    tol: Tolerance = DEFAULT_TOL,
) -> DualWitness:
    """Shift and shifted inner product of a candidate witness y against m.

    The shift is the smallest eigenvalue of y on any support, negated, or 0
    when every block is PSD already. Only y, m and the supports are read.
    """
    m = hermitize(np.asarray(m, dtype=complex))
    y = hermitize(np.asarray(y, dtype=complex))
    cells = [np.ix_(ix, ix) for ix in (np.array(sorted(s)) - 1 for s in supports)]
    return _witness(m, y, cells, tol)


@dataclass(frozen=True)
class FeasibilityResult:
    """A converged search carries a decomposition, an infeasible one a
    witness; neither means the iteration budget ran out."""

    decomposition: Optional[Decomposition]
    supports: tuple[frozenset[int], ...]
    blocks: tuple[np.ndarray, ...]
    gap: float
    iterations: int
    converged: bool
    witness: Optional[DualWitness] = None


def _clip_psd(block: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """block with its eigenvalues below floor set to zero."""
    w, v = np.linalg.eigh(hermitize(block))
    w[w < floor] = 0.0
    return (v * w) @ v.conj().T


def feasibility_search(
    m: np.ndarray,
    supports: Sequence[frozenset[int]],
    tol: Tolerance = DEFAULT_TOL,
    max_iter: int = 60000,
    gap_tol: Optional[float] = None,
) -> Optional[FeasibilityResult]:
    """Split m into PSD blocks on the given supports, or prove none exists.

    Minimises 1/2 ||m - sum_S E_S(B_S)||^2 over PSD blocks B_S. The first
    iterate is the averaged split clip(m|_S / counts), where counts[i, j]
    is the number of supports holding both i and j; later iterates are
    accelerated projected gradient steps (FISTA, Beck & Teboulle 2009) of
    length 1 / max(counts). The search stops at the first of:

    - gap ||r|| <= gap_tol, r the residual: converged. Eigenvalue dust is
      trimmed and one averaged step re-balances the blocks (kept when the
      gap stays within gap_tol); the result carries the decomposition;
    - Y = -r / ||r|| is a dual witness (see DualWitness). At the optimum
      -r is PSD on every support and <-r, m> = -||r||^2, so the test holds
      once the iterates are close to an optimum with a nonzero residual.
      The result carries the witness;
    - max_iter iterates: neither.

    Returns None when m has weight on an entry no support covers.
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
    cells = [np.ix_(ix, ix) for ix in idx]
    scale = max(1.0, float(np.linalg.norm(m)))
    if gap_tol is None:
        gap_tol = 1e-7 * scale

    counts = np.zeros((n, n))
    for c in cells:
        counts[c] += 1.0
    uncovered = counts == 0
    if np.abs(m[uncovered]).max(initial=0.0) > tol.zero_tol * scale:
        return None

    def residual(blocks: Sequence[np.ndarray]) -> np.ndarray:
        total = np.zeros((n, n), dtype=complex)
        for b, c in zip(blocks, cells):
            total[c] += b
        return m - total

    def averaged_step(blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        r = residual(blocks)
        return [_clip_psd(b + r[c] / counts[c]) for b, c in zip(blocks, cells)]

    blocks = averaged_step([np.zeros((len(ix), len(ix)), dtype=complex) for ix in idx])
    r = residual(blocks)
    gap = float(np.linalg.norm(r))
    iterations = 1
    step = 1.0 / counts.max()
    ahead, momentum = blocks, 1.0
    witness = None
    while gap > gap_tol:
        candidate = _witness(m, -r / gap, cells, tol)
        if candidate.holds:
            witness = candidate
            break
        if iterations >= max_iter:
            break
        r_ahead = residual(ahead)
        new = [_clip_psd(b + step * r_ahead[c]) for b, c in zip(ahead, cells)]
        following = (1.0 + np.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
        beta = (momentum - 1.0) / following
        ahead = [a + beta * (a - b) for a, b in zip(new, blocks)]
        blocks, momentum = new, following
        r = residual(blocks)
        gap = float(np.linalg.norm(r))
        iterations += 1

    if gap > gap_tol:
        return FeasibilityResult(
            None, supports, tuple(blocks), gap, iterations, False, witness
        )

    # drop near-null eigenvalue dust so the terms come out clean, then let
    # one averaged step re-balance what the truncation disturbed
    floor = max(tol.psd_tol, 10 * gap)
    polished = averaged_step([_clip_psd(b, floor) for b in blocks])
    iterations += 1
    polished_gap = float(np.linalg.norm(residual(polished)))
    if polished_gap <= gap_tol:
        blocks, gap = polished, polished_gap

    terms: list[DecompositionTerm] = []
    term_floor = max(10 * gap, tol.psd_tol * scale)
    for b, ix in zip(blocks, idx):
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
    return FeasibilityResult(dec, supports, tuple(blocks), gap, iterations, True)
