"""Splitting a Gram matrix into PSD pieces with constrained supports, and
the convex search for the outcome operators such a splitting comes from.

Two routes produce splittings in closed form. The chordal route peels
rank-one terms off along a perfect elimination ordering, so each support is
a clique of the pattern graph; it is exact up to roundoff whenever the
pattern graph is chordal and the matrix respects the pattern. The dominance
route needs no chordality: when the comparison matrix of m on its pattern
graph is a nonsingular M-matrix, a positive diagonal scaling makes m
diagonally dominant, and m splits in closed form into one PSD piece per edge
plus a nonnegative diagonal (factor width two: Boman, Chen, Parekh & Toledo
2005, "On factor width and symmetric H-matrices").

The feasibility search covers everything else, in the measuring side's own
span rather than in index space: an outcome operator silent outside a
support S lives on S's face of that span (support_faces), and the search
looks for PSD blocks on the faces that sum to the identity. It ends with
those blocks, whose pieces push forward to a splitting of m = X* X, or with
a dual witness, a Hermitian Y on the span whose shift Y + eps*I is PSD on
every face and has negative trace, which proves that no such operators
exist (theorem of alternatives for generalized inequalities, Boyd &
Vandenberghe, Convex Optimization, section 5.9). All faces empty is the
spanning obstruction, Y = -I.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidCover, InvalidInput, NegativePivot, NotPSD, PatternViolation
from .graphs import Graph, adjacency_matrix, is_chordal, is_perfect_elimination_ordering
from .linalg import DEFAULT_TOL, Tolerance, eigh_desc, hermitize, psd_check, span_basis, svd


@dataclass(frozen=True)
class DecompositionTerm:
    """Rank-one piece v v* with v zero outside its support (1-based): one
    row of a Decomposition, built when Decomposition.terms is read."""

    support: frozenset[int]
    vector: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Rank-one pieces v v*, one per row: row k of vectors (k x n) is zero
    outside row k of supports (boolean k x n), the states piece k lives on.
    residual is ||m - sum v v*|| for the matrix m that was split."""

    vectors: np.ndarray
    supports: np.ndarray
    residual: float

    def __post_init__(self):
        if (self.vectors.ndim != 2 or self.supports.shape != self.vectors.shape
                or self.supports.dtype != bool):
            raise InvalidInput(f"pieces {self.vectors.shape} with supports "
                               f"{self.supports.shape}")

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def terms(self) -> tuple[DecompositionTerm, ...]:
        return tuple(
            DecompositionTerm(s, v) for s, v in zip(support_sets(self.supports), self.vectors)
        )


def support_mask(supports: Sequence[Iterable[int]], n: int) -> np.ndarray:
    """The boolean k x n mask of k non-empty supports of 1-based states;
    InvalidCover names the first support that is empty or out of 1..n."""
    sizes = np.fromiter(map(len, supports), dtype=int, count=len(supports))
    members = np.array(list(itertools.chain.from_iterable(supports)))
    if members.size and members.dtype.kind not in "iu":
        raise InvalidCover("supports must list integer state indices")
    members = members.astype(int)
    row = np.repeat(np.arange(len(supports)), sizes)
    bad = sizes == 0
    bad[row[(members < 1) | (members > n)]] = True
    if bad.any():
        raise InvalidCover(f"support {sorted(supports[bad.argmax()])} out of range")
    mask = np.zeros((len(supports), n), dtype=bool)
    mask[row, members - 1] = True
    return mask


def support_sets(mask: np.ndarray) -> tuple[frozenset[int], ...]:
    """Each row of a boolean support mask as a set of 1-based states."""
    rows, cols = np.nonzero(mask)
    cuts = np.searchsorted(rows, np.arange(1, len(mask)))
    return tuple(frozenset(c.tolist()) for c in np.split(cols + 1, cuts)[:len(mask)])


def _pattern_leaks(m: np.ndarray, adj: np.ndarray, bound: float) -> list[tuple[int, int, float]]:
    off = (np.abs(m) > bound) & ~adj
    np.fill_diagonal(off, False)
    if not off.any():
        return []
    rows, cols = np.nonzero(np.triu(off, k=1))
    return [
        (i + 1, j + 1, float(abs(m[i, j])))
        for i, j in zip(rows.tolist(), cols.tolist())
    ]


def chordal_decompose(
    m: np.ndarray,
    g: Graph,
    tol: Tolerance = DEFAULT_TOL,
    ordering: Optional[Sequence[int]] = None,
    *,
    _singular: Optional[bool] = None,
) -> Decomposition:
    """Peel m into rank-one terms supported on cliques of chordal g.

    Eliminating vertex v subtracts the rank-one piece built from column v of
    the running residual; within a perfect elimination ordering that column
    lives on v plus its not-yet-eliminated neighbours, which form a clique.
    The peel follows the given ordering, which must be a perfect elimination
    ordering of g, or else the one is_chordal finds (kept on g).

    With rows and columns taken in that ordering the peel is the Cholesky
    factorisation of m, which has no fill (Rose 1970, "Triangulated graphs
    and the elimination process"): column j of the factor is the piece of
    the j-th vertex. One LAPACK call computes it, and when it completes
    with every pivot above zero_tol * scale it also proves m PSD: the
    computed factor L has L L* = m + E with |E| <= gamma_{n+1} |L| |L*|
    (Higham 2002, Accuracy and Stability of Numerical Algorithms, ch. 10),
    so no eigenvalue of m lies below -||E||, about 1e-12 for a Gram of
    100 unit vectors and far inside psd_tol. Only when the factorisation
    fails or a pivot is at most that floor does the PSD check's eigensolve
    run: a matrix with an eigenvalue below -psd_tol raises NotPSD, and a
    singular one (more states than the rank of their span) takes the
    elimination loop, which skips each vertex whose pivot vanishes. Both
    routes end in _cut_to_cliques.

    Outside callers leave _singular unset: m may be any array-like, its
    Hermitian part is peeled, and NotPSD takes precedence over a graph or
    ordering that admits no peel. A caller whose m is a complex Gram,
    exactly Hermitian and PSD by construction, passes _singular, whether
    it is singular by its shape, and m is peeled as it is. A singular Gram
    goes straight to the elimination loop, which still raises NegativePivot
    below -psd_tol.
    """
    if _singular is None:
        m = hermitize(np.asarray(m, dtype=complex))
    if m.shape != (g.n, g.n):
        raise PatternViolation(f"matrix shape {m.shape} does not match n={g.n}")
    scale = max(1.0, float(np.linalg.norm(m)))
    adj = adjacency_matrix(g)
    leaks = _pattern_leaks(m, adj, tol.zero_tol * scale)
    if leaks:
        raise PatternViolation(f"nonzero entries off the pattern: {leaks[:5]}")
    chord = is_chordal(g)
    misfit = None
    if ordering is None:
        ordering = chord.ordering
        if not chord.chordal:
            misfit = f"pattern graph has a chordless cycle {chord.hole}"
    # is_chordal verified its own ordering; any other is checked here
    elif (tuple(ordering) != chord.ordering
          and not is_perfect_elimination_ordering(g, ordering)):
        misfit = f"{list(ordering)} is no perfect elimination ordering"

    pieces = None
    if not misfit:
        order = np.asarray(ordering, dtype=int) - 1
        if not _singular:
            pieces = _cholesky_pieces(m, order, tol.zero_tol * scale)
    if pieces is None:
        if not _singular:
            ok, min_eig = psd_check(m, tol)
            if not ok:
                raise NotPSD(f"matrix has eigenvalue {min_eig:.3g}")
        if misfit:
            raise PatternViolation(misfit)
        pieces = _eliminated_pieces(m, order, tol, scale)
    return _cut_to_cliques(m, adj, order, *pieces, tol, scale)


def _cholesky_pieces(
    m: np.ndarray, order: np.ndarray, floor: float
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The peel's (vertices, vectors, pivots) in elimination order from one
    Cholesky factorisation of m permuted to order; None when it fails or a
    pivot is at most floor."""
    try:
        factor = np.linalg.cholesky(m[order][:, order])
    except np.linalg.LinAlgError:
        return None
    pivots = np.diagonal(factor).real ** 2
    if not (pivots > floor).all():
        return None
    vectors = np.empty_like(factor)
    vectors[:, order] = factor.T
    return order, vectors, pivots


def _eliminated_pieces(
    m: np.ndarray, order: np.ndarray, tol: Tolerance, scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The peel's (vertices, vectors, pivots) one vertex at a time: a
    vertex whose pivot is at most zero_tol * scale gives no piece, and one
    below -psd_tol * scale raises NegativePivot."""
    r = m.copy()
    vertices, vectors, pivots = [], [], []
    for vi in order.tolist():
        pivot = float(r[vi, vi].real)
        if pivot < -tol.psd_tol * scale:
            raise NegativePivot(f"pivot {pivot:.3g} at vertex {vi + 1}")
        if pivot > tol.zero_tol * scale:
            w = r[:, vi] / np.sqrt(pivot)
            r -= w[:, None] * w.conj()
            vertices.append(vi)
            vectors.append(w)
            pivots.append(pivot)
        r[vi, :] = 0.0
        r[:, vi] = 0.0
    return (np.array(vertices, dtype=int), np.array(vectors).reshape(-1, len(m)),
            np.array(pivots))


def _cut_to_cliques(
    m: np.ndarray,
    adj: np.ndarray,
    order: np.ndarray,
    vertices: np.ndarray,
    vectors: np.ndarray,
    pivots: np.ndarray,
    tol: Tolerance,
    scale: float,
) -> Decomposition:
    """The peel's pieces cut to their cliques: the piece of vertex v may
    live on v and its neighbours eliminated after it. An entry elsewhere
    of the residual column, w times sqrt(pivot), above 10 * zero_tol *
    scale raises PatternViolation; entries of at most zero_tol * scale
    become zero. The residual is ||m - sum v v*|| over the cut pieces."""
    rows = np.arange(len(vertices))
    position = np.empty(len(order), dtype=int)
    position[order] = np.arange(len(order))
    allowed = adj[vertices] & (position > position[vertices][:, None])
    allowed[rows, vertices] = True
    size = np.abs(vectors)
    column = size * np.sqrt(pivots)[:, None]
    stray = ~allowed & (column > 10 * tol.zero_tol * scale)
    if stray.any():
        k, u = np.argwhere(stray)[0]
        raise PatternViolation(
            f"eliminating {vertices[k] + 1}: residual entry at {u + 1} "
            f"of size {column[k, u]:.3g}"
        )
    keep = allowed & (size > tol.zero_tol * scale)
    keep[rows, vertices] = True
    vectors = np.where(keep, vectors, 0.0)
    residual = float(np.linalg.norm(m - vectors.T @ vectors.conj()))
    return Decomposition(vectors, keep, residual)


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
    return _slack(comparison_matrix(m, g), x, tol)


def _slack(c: np.ndarray, x: np.ndarray, tol: Tolerance) -> np.ndarray:
    return c @ x - tol.psd_tol * (np.abs(c) @ x)


def dominance_scaling(
    m: np.ndarray, g: Graph, tol: Tolerance = DEFAULT_TOL
) -> Optional[np.ndarray]:
    """x = C^-1 1 for the comparison matrix C of m on g, when it is positive
    and every row clears its margin (C is then a nonsingular M-matrix and
    m, cut to g, a symmetric H-matrix); None otherwise."""
    c = comparison_matrix(m, g)
    try:
        x = np.linalg.solve(c, np.ones(g.n))
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(x).all() and (x > 0).all()):
        return None
    if (_slack(c, x, tol) <= 0).any():
        return None
    return x


def dominance_split(
    m: np.ndarray, g: Graph, x: np.ndarray, groups: Sequence[Iterable[int]]
) -> Decomposition:
    """Split m into rank-one PSD pieces on the edges of g and the vertices,
    given a dominance scaling x (see dominance_scaling).

    Edge ij gives v with v_i = sqrt(|m_ij| x_j / x_i) and v_j = conj(m_ij) / v_i,
    so that v_i conj(v_j) = m_ij; vertex i gives sqrt((Cx)_i / x_i) e_i, the
    rest of m_ii. Each piece takes as support the first group holding its
    edge or vertex, so groups, cliques of g covering its edges and vertices,
    set the outcomes. Entries of m off g are left out, and show in the
    residual. A scaling that is not positive, or groups that miss an edge or
    a vertex, raise InvalidCover.
    """
    m = np.asarray(m, dtype=complex)
    n = g.n
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not (np.isfinite(x).all() and (x > 0).all()):
        raise InvalidCover(f"scaling needs {n} positive entries")
    member = support_mask(groups, n)
    # the edges ij, i < j, in the order of g.edge_list()
    i, j = np.nonzero(np.triu(adjacency_matrix(g), 1))
    rows = len(i)
    vectors = np.zeros((rows + n, n), dtype=complex)
    mag = np.abs(m[i, j])
    head = np.sqrt(mag * x[j] / x[i])
    vectors[np.arange(rows), i] = head
    vectors[np.arange(rows), j] = m[i, j].conj() / head
    rest = comparison_matrix(m, g) @ x / x
    vectors[rows + np.arange(n), np.arange(n)] = np.sqrt(np.maximum(rest, 0.0))
    if not np.isfinite(vectors).all():
        raise InvalidCover("scaling overflows the split")
    holds = np.concatenate([member[:, i] & member[:, j], member], axis=1)
    if not holds.any(axis=0).all():
        raise InvalidCover("supports miss an edge or a vertex")
    owner = np.argmax(holds, axis=0)
    residual = float(np.linalg.norm(m - vectors.T @ vectors.conj()))
    return Decomposition(vectors, member[owner], residual)


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
    """Check the terms sum back to m and sit on cliques of host.

    bad_supports lists the support of each term that is no clique of host,
    then of each term with an entry above zero_tol * scale outside it."""
    m = hermitize(np.asarray(m, dtype=complex))
    scale = max(1.0, float(np.linalg.norm(m)))
    vectors, supports = dec.vectors, dec.supports
    inside = supports.astype(float)
    not_clique = np.zeros(len(supports), dtype=bool)
    if host is not None:
        apart = ~adjacency_matrix(host)
        np.fill_diagonal(apart, False)
        not_clique = ((inside @ apart) * inside).any(axis=1)
    stray = ((np.abs(vectors) > tol.zero_tol * scale) & ~supports).any(axis=1)
    residual = float(np.linalg.norm(m - vectors.T @ vectors.conj()))
    bad = support_sets(supports[np.concatenate(
        [np.flatnonzero(not_clique), np.flatnonzero(stray)])])
    supports_ok = not bad
    rel = residual / scale
    return DecompositionReport(
        rel <= rel_bound and supports_ok, residual, rel, supports_ok, bad
    )


@dataclass(frozen=True)
class Faces:
    """The measuring side's span and the face each support leaves in it.

    span is an orthonormal basis U (d x r) of the span of the states;
    bases[k] is an orthonormal basis W_S (r x k_S), in U's coordinates, of
    the part of that span orthogonal to every state outside supports[k]. An
    operator on the span that is PSD and silent on the states outside S is
    U W_S F W_S* U* for a PSD k_S x k_S block F.
    """

    span: np.ndarray
    supports: tuple[frozenset[int], ...]
    bases: tuple[np.ndarray, ...]

    @property
    def d_eff(self) -> int:
        return self.span.shape[1]

    @property
    def entries(self) -> tuple[tuple[frozenset[int], int], ...]:
        """Each support with the rank of the states outside it, d_eff - k_S."""
        return tuple(
            (s, self.d_eff - w.shape[1]) for s, w in zip(self.supports, self.bases)
        )

    @property
    def empty(self) -> bool:
        return all(w.shape[1] == 0 for w in self.bases)

    def lift(self, y: np.ndarray) -> np.ndarray:
        """U y U*: an r x r matrix on the span as an operator on C^d."""
        return self.span @ y @ self.span.conj().T


def support_faces(
    x: np.ndarray, supports: Sequence[frozenset[int]], tol: Tolerance = DEFAULT_TOL
) -> Faces:
    """The faces of the given supports (1-based) for the states that are
    the columns of the frame x."""
    return faces_in_span(span_basis(x, tol), x, supports, tol)


def faces_in_span(
    span: np.ndarray,
    x: np.ndarray,
    supports: Sequence[frozenset[int]],
    tol: Tolerance = DEFAULT_TOL,
) -> Faces:
    """support_faces given span, an orthonormal basis of the span of x's
    columns (span_basis(x, tol), which a state set keeps as alice_span)."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[1]
    supports = tuple(frozenset(s) for s in supports)
    if not supports:
        raise InvalidCover("need at least one support")
    for s in supports:
        if not s or min(s) < 1 or max(s) > n:
            raise InvalidCover(f"support {sorted(s)} out of range")
    coords = span.conj().T @ x
    bases = []
    for s in supports:
        outside = np.ones(n, dtype=bool)
        outside[[i - 1 for i in s]] = False
        # the left singular vectors past the outside states' rank
        uo, so, _ = svd(coords[:, outside])
        rank = int(np.count_nonzero(so > tol.rank_tol * so.max(initial=0.0)))
        bases.append(uo[:, rank:])
    return Faces(span, supports, tuple(bases))


def _by_width(bases: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The nonempty face bases grouped by width k: for each k in increasing
    order, the positions of its faces and their bases as one (m, r, k)
    stack."""
    widths = np.array([w.shape[1] for w in bases])
    at_width = (np.flatnonzero(widths == k) for k in range(1, widths.max(initial=0) + 1))
    return [(at, np.stack([bases[i] for i in at])) for at in at_width if at.size]


def _face_blocks(stacks: Sequence[tuple], y: np.ndarray) -> list[np.ndarray]:
    """W_S* y W_S for every face, as one (m, k, k) stack per width."""
    return [w.conj().transpose(0, 2, 1) @ y @ w for _, w in stacks]


def _face_sum(stacks: Sequence[tuple], blocks: Sequence[np.ndarray], r: int) -> np.ndarray:
    """sum_S W_S F_S W_S*, the blocks F_S given as one stack per width."""
    return sum((np.tensordot(w @ f, w.conj(), axes=([0, 2], [0, 2]))
                for (_, w), f in zip(stacks, blocks)), np.zeros((r, r), dtype=complex))


def _lowest(blocks: Iterable[np.ndarray]) -> float:
    """The lowest eigenvalue of any block in the stacks (0 for none)."""
    return min((float(np.linalg.eigvalsh(b)[:, 0].min()) for b in blocks), default=0.0)


def _psd_part(f: np.ndarray) -> np.ndarray:
    """Each block of the stack with its negative eigenvalues set to zero:
    the nearest point of the product of PSD cones."""
    w, v = np.linalg.eigh(f)
    return (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().transpose(0, 2, 1)


@dataclass(frozen=True)
class DualWitness:
    """Proof that no measurement exists: Y + shift*I, Y Hermitian on the
    span, is PSD on every face, and its trace value = tr Y + shift*r is
    negative (by more than margin).

    Blocks F_S with sum_S W_S F_S W_S* = I would give
    tr(Y + shift*I) = sum_S <W_S* (Y + shift*I) W_S, F_S> >= 0, since the
    inner product of two PSD matrices is nonnegative.
    """

    matrix: np.ndarray
    shift: float
    value: float
    margin: float

    @property
    def holds(self) -> bool:
        return self.value < -self.margin


def _witness(y: np.ndarray, lowest: float, tol: Tolerance) -> DualWitness:
    r = y.shape[0]
    shift = max(0.0, -lowest)
    value = float(np.trace(y).real) + shift * r
    # roundoff in the block eigenvalues and the trace stays far below this,
    # so a witness that holds is not an artefact of rounding
    margin = tol.psd_tol * float(np.linalg.norm(y)) * r
    return DualWitness(y, shift, value, margin)


def dual_witness(faces: Faces, z, tol: Tolerance = DEFAULT_TOL) -> DualWitness:
    """Shift and shifted trace of a candidate witness z, an operator on C^d,
    read on the span as Y = U* z U. The figures do not depend on which
    orthonormal bases of the span and faces were computed."""
    y = hermitize(faces.span.conj().T @ np.asarray(z, dtype=complex) @ faces.span)
    return _witness(y, _lowest(_face_blocks(_by_width(faces.bases), y)), tol)


def _fewer_pieces(pieces: list[tuple]) -> list[tuple]:
    """(support, V_S) pairs, V_S V_S* the block of S on the span, recast
    with fewer columns and the same sum of blocks.

    While the map (H_S) -> sum_S V_S H_S V_S* on Hermitian H_S has more
    unknowns, sum_S rho_S^2 for rho_S the columns of V_S, than the dimension
    of its image, it has a kernel (Pataki 1998, "On the rank of extreme
    matrices in semidefinite programs"), and the blocks V_S (I + t H_S) V_S*
    keep that sum. Their traces sum to 0, so some H_S has a negative
    eigenvalue, and at the t where the first block turns singular it loses
    a column. The image only shrinks as columns go, so its first basis
    serves throughout.
    """
    if not pieces:
        return pieces
    # vec(V H V*) = (V kron conj V) vec(H) for H laid out row by row
    u, sv, _ = svd(
        np.hstack([np.kron(f, f.conj()) for _, f in pieces]), full_matrices=False)
    image = u[:, sv > 1e-9 * sv[0]].conj().T
    while True:
        sizes = [f.shape[1] ** 2 for _, f in pieces]
        # the first blocks whose unknowns outnumber the image's dimension
        # have a kernel element, which is one of the whole map with zeros
        # on the other blocks: the last column of a complete QR of the
        # adjoint of their map in image coordinates
        used = int(np.searchsorted(np.cumsum(sizes), len(image), side="right")) + 1
        if used > len(pieces):
            return pieces
        local = image @ np.hstack([np.kron(f, f.conj()) for _, f in pieces[:used]])
        kernel = np.linalg.qr(local.conj().T, mode="complete")[0][:, -1]
        kernel = np.concatenate([kernel, np.zeros(sum(sizes[used:]))])
        # a kernel element's conjugate is one too, so its Hermitian or its
        # anti-Hermitian part is a nonzero Hermitian one
        parts = [p.reshape(f.shape[1], -1) for p, (_, f) in
                 zip(np.split(kernel, np.cumsum(sizes)[:-1]), pieces)]
        h = max(([p + p.conj().T for p in parts], [1j * (p - p.conj().T) for p in parts]),
                key=lambda hs: sum(np.linalg.norm(b) for b in hs))
        low = min(np.linalg.eigvalsh(b)[0] for b in h)
        if not low < 0.0:
            return pieces
        shrunk = [(s, f, *np.linalg.eigh(np.eye(len(b)) - b / low))
                  for (s, f), b in zip(pieces, h)]
        pieces = [(s, f @ (q[:, w > 1e-12] * np.sqrt(w[w > 1e-12])))
                  for s, f, w, q in shrunk if (w > 1e-12).any()]


@dataclass(frozen=True)
class FeasibilityResult:
    """A converged search carries the rank-one pieces weight * dir dir* of
    the outcome operators (piece k on supports[k], dir a unit vector in
    C^d), an infeasible one a witness; neither means the iteration budget
    ran out."""

    supports: tuple[frozenset[int], ...]
    weights: np.ndarray
    directions: np.ndarray
    gap: float
    iterations: int
    converged: bool
    witness: Optional[DualWitness] = None


def feasibility_search(
    faces: Faces,
    tol: Tolerance = DEFAULT_TOL,
    max_iter: int = 60000,
) -> FeasibilityResult:
    """Find outcome operators on the faces that sum to the identity on the
    span, or prove none exist.

    Minimises 1/2 ||I - sum_S W_S F_S W_S*||^2 over PSD blocks F_S by
    accelerated projected gradient steps (FISTA, Beck & Teboulle 2009) of
    length 1 / lambda_max(sum_S W_S W_S*), from F = 0. It keeps one
    k_S x k_S block per face, so its memory is O(sum_S k_S^2 + r K + r^2)
    for K = sum_S k_S. The search stops at the first of:

    - gap ||R|| <= 1e-11 * sqrt(r), R the residual: converged. Each
      block's eigenvectors above max(10 gap, zero_tol), reduced in rank by
      _fewer_pieces and mapped to C^d by U, are the pieces;
    - Y = -R / ||R|| is a dual witness (see DualWitness). At the optimum
      W_S* R W_S is negative semidefinite on every face and tr R = ||R||^2,
      so the test holds once the iterates are close to an optimum with a
      nonzero residual;
    - max_iter steps: neither.

    Restricting the blocks to the faces is facial reduction (Permenter &
    Parrilo 2018, "Partial facial reduction"): every operator the search
    can return is silent outside its support, however rank-deficient the
    states are.
    """
    r = faces.d_eff
    gap_tol = 1e-11 * np.sqrt(r)
    eye = np.eye(r, dtype=complex)
    stacks = _by_width(faces.bases)
    # lambda_max is 1 or more unless every face is empty (then Y = -I holds
    # after one idle step)
    spread = _face_sum(stacks, [np.eye(w.shape[2]) for _, w in stacks], r)
    step = 1.0 / max(1.0, float(np.linalg.eigvalsh(spread)[-1]))

    # the blocks F_S, the residual R and the blocks W_S* R W_S (the negated
    # gradient), at the iterate and, by linearity, at the extrapolated point
    res, grad = eye, _face_blocks(stacks, eye)
    blocks = [np.zeros_like(g) for g in grad]
    ahead, ahead_grad = blocks, grad
    gap = float(np.sqrt(r))
    iterations = 0
    momentum = 1.0
    witness = None
    while gap > gap_tol:
        # tr Y bounds the shifted trace from below, so most steps skip the
        # eigenvalues
        y = -res / gap
        if iterations and float(np.trace(y).real) < 0.0:
            candidate = _witness(y, _lowest(-g / gap for g in grad), tol)
            if candidate.holds:
                witness = candidate
                break
        if iterations >= max_iter:
            break
        new = [_psd_part(a + step * g) for a, g in zip(ahead, ahead_grad)]
        following = (1.0 + np.sqrt(1.0 + 4.0 * momentum**2)) / 2.0
        beta = (momentum - 1.0) / following
        new_res = eye - _face_sum(stacks, new, r)
        new_grad = _face_blocks(stacks, new_res)
        ahead = [f + beta * (f - b) for f, b in zip(new, blocks)]
        ahead_grad = [(1.0 + beta) * g_new - beta * g for g_new, g in zip(new_grad, grad)]
        blocks, res, grad, momentum = new, new_res, new_grad, following
        gap = float(np.linalg.norm(res))
        iterations += 1

    pieces = []
    if gap <= gap_tol:
        floor = max(10 * gap, tol.zero_tol)
        by_face = {i: f for (at, _), fs in zip(stacks, blocks) for i, f in zip(at, fs)}
        for i in sorted(by_face):
            w, v = eigh_desc(by_face[i])
            keep = w > floor
            if keep.any():
                piece = faces.bases[i] @ (v[:, keep] * np.sqrt(w[keep]))
                pieces.append((faces.supports[i], piece))
    pieces = _fewer_pieces(pieces)
    vectors = np.hstack([np.zeros((r, 0))] + [f for _, f in pieces]).T @ faces.span.T
    weights = np.linalg.norm(vectors, axis=1) ** 2
    return FeasibilityResult(
        tuple(s for s, f in pieces for _ in f.T), weights,
        vectors / np.sqrt(weights)[:, None], gap, iterations, gap <= gap_tol, witness,
    )
