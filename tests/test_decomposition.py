import collections

import numpy as np
import pytest

import brute
from loccgraph.decomposition import (
    Decomposition,
    DecompositionTerm,
    chordal_decompose,
    comparison_matrix,
    dominance_scaling,
    dominance_split,
    dual_witness,
    feasibility_search,
    support_faces,
    verify_decomposition,
)
from loccgraph.errors import InvalidCover, NotPSD, PatternViolation
from loccgraph.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    greedy_clique_cover,
    is_clique,
    maximal_cliques,
    path_graph,
)
from loccgraph.linalg import DEFAULT_TOL


def _frame(m) -> np.ndarray:
    """x with x* x = m, one row per nonzero eigenvalue of m."""
    w, v = np.linalg.eigh(m)
    keep = w > 1e-12 * w.max()
    return np.sqrt(w[keep])[:, None] * v[:, keep].conj().T


def _pushed(x, result) -> Decomposition:
    """The pieces of a converged search as a splitting of x* x: piece
    w d d* gives the term sqrt(w) x* d on its support."""
    vectors = np.sqrt(result.weights)[:, None] * (result.directions @ x.conj())
    terms = tuple(DecompositionTerm(s, v) for s, v in zip(result.supports, vectors))
    return Decomposition(x.shape[1], terms, 0.0)


def _step_min_eigs(m, dec) -> list[float]:
    """The smallest eigenvalue of m less the first k terms, for each k."""
    residual = np.asarray(m, dtype=complex)
    out = []
    for t in dec.terms:
        residual = residual - t.matrix()
        out.append(float(np.linalg.eigvalsh(residual)[0]))
    return out


def _p3_psd() -> np.ndarray:
    # conforms to the path 1-2-3, strictly positive on its edges
    return np.array([
        [1.0, 0.5, 0.0],
        [0.5, 1.0, 0.5],
        [0.0, 0.5, 1.0],
    ])


def test_chordal_decompose_path():
    g = path_graph(3)
    m = _p3_psd()
    dec = chordal_decompose(m, g)
    rep = verify_decomposition(m, dec, host=g)
    assert rep.ok and rep.supports_ok
    for term in dec.terms:
        assert is_clique(g, term.support)


def test_chordal_decompose_rejects_pattern_leak():
    g = path_graph(3)
    m = _p3_psd()
    m[0, 2] = m[2, 0] = 0.3
    with pytest.raises(PatternViolation):
        chordal_decompose(m, g)


def test_chordal_decompose_rejects_non_psd():
    g = path_graph(3)
    m = _p3_psd()
    m[1, 1] = -0.5
    with pytest.raises(NotPSD):
        chordal_decompose(m, g)


def test_chordal_decompose_rejects_non_chordal_graph():
    g = cycle_graph(4)
    m = np.eye(4) + 0.3 * np.array([
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [1, 0, 0, 1],
        [0, 1, 1, 0],
    ])  # conforms to C_4 with edges 12,13,24,34
    c4 = Graph.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    with pytest.raises(PatternViolation):
        chordal_decompose(m, c4)
    del g


def test_chordal_decompose_zero_rows():
    g = path_graph(3)
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    dec = chordal_decompose(m, g)
    assert verify_decomposition(m, dec, host=g).ok
    assert all(t.support == frozenset({1}) for t in dec.terms)


def test_step_residuals_tracked():
    g = complete_graph(4)
    rng = np.random.default_rng(0)
    m = brute.random_conforming_psd(g, rng)
    dec = chordal_decompose(m, g)
    steps = _step_min_eigs(m, dec)
    assert steps
    assert min(steps) >= -1e-8
    assert verify_decomposition(m, dec, host=g).ok


def test_verify_decomposition_detects_bad_support():
    g = path_graph(3)
    m = _p3_psd()
    dec = chordal_decompose(m, g)
    # declare a support that is not a clique of the host we verify against
    bad = Decomposition(
        dec.n,
        tuple(
            DecompositionTerm(frozenset({1, 3}), t.vector) for t in dec.terms
        ),
        dec.residual,
    )
    rep = verify_decomposition(m, bad, host=g)
    assert not rep.supports_ok


_C4 = np.eye(4) + 0.5 * np.array([
    [0, 1, 1, 0],
    [1, 0, 0, 1],
    [1, 0, 0, 1],
    [0, 1, 1, 0],
])
_C4_EDGES = [frozenset(e) for e in [(1, 2), (1, 3), (2, 4), (3, 4)]]


def test_feasibility_search_c4_splits():
    # identity plus C_4-patterned coupling is splittable over the C_4 edges
    c4 = Graph.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    x = _frame(_C4)
    result = feasibility_search(support_faces(x, _C4_EDGES))
    assert result.converged and result.witness is None
    rep = verify_decomposition(_C4, _pushed(x, result), host=c4, rel_bound=1e-6)
    assert rep.ok and rep.supports_ok


def test_feasibility_search_rejects_uncovered_entries():
    m = np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3))
    # supports never put 1 and 3 together, but m[0, 2] is 0.5
    faces = support_faces(_frame(m), [frozenset({1, 2}), frozenset({2, 3})])
    result = feasibility_search(faces)
    assert not result.converged and result.witness.holds


def test_feasibility_search_validates_cover():
    x = _frame(np.eye(3))
    with pytest.raises(InvalidCover):
        support_faces(x, [frozenset({1, 5})])  # out of range
    with pytest.raises(InvalidCover):
        support_faces(x, [])
    # uncovered vertex carrying weight: infeasible rather than invalid
    result = feasibility_search(support_faces(x, [frozenset({1, 2})]))
    assert not result.converged and result.witness.holds


def test_feasibility_infeasible_instance_returns_none():
    # rank-one all-ones matrix cannot split into edge-supported PSD parts:
    # any such split zeroes an off-diagonal entry that must stay 1
    m = np.ones((3, 3))
    supports = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
    faces = support_faces(_frame(m), supports, DEFAULT_TOL)
    result = feasibility_search(faces, max_iter=4000)
    assert not result.converged and not result.supports
    # the verifier's check, recomputed from the faces and the lifted witness
    assert dual_witness(faces, faces.lift(result.witness.matrix)).holds


def test_dual_witness_fails_when_tampered():
    # the triangle's faces are all empty, so only the trace can be forged;
    # the uncovered entry of test_feasibility_search_rejects_uncovered_entries
    # leaves nonempty faces whose blocks can be forged too
    m = np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3))
    for m, supports in [
        (np.ones((3, 3)), [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]),
        (m, [frozenset({1, 2}), frozenset({2, 3})]),
    ]:
        faces = support_faces(_frame(m), supports)
        z = faces.lift(feasibility_search(faces).witness.matrix)
        assert dual_witness(faces, z).holds
        forged = [-z, np.eye(z.shape[0])]
        for w in faces.bases:
            if 0 < w.shape[1] < faces.d_eff:
                # this face's block negative definite
                y = faces.span.conj().T @ z @ faces.span
                y = y - w @ (w.conj().T @ y @ w + np.eye(w.shape[1])) @ w.conj().T
                forged.append(faces.lift(y))
        for y in forged:
            assert not dual_witness(faces, y).holds


def test_dual_witness_never_holds_against_a_splittable_matrix():
    # the C_4 matrix of test_feasibility_search_c4_splits splits over its
    # edges, so no Y whatsoever can certify the opposite
    # (C_4 has rank 3: its frame acts on C^3)
    x = _frame(_C4)
    faces = support_faces(x, _C4_EDGES)
    d = x.shape[0]
    rng = np.random.default_rng(5)
    frame_op = x @ x.conj().T
    candidates = [-frame_op, -np.eye(d), frame_op - 2 * np.eye(d)]
    for _ in range(200):
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        candidates.append(h + h.conj().T)
    for y in candidates:
        assert not dual_witness(faces, y).holds


def test_feasibility_search_stops_at_its_iteration_budget():
    # a random chordal case that takes the search more than a few steps
    rng = np.random.default_rng(11)
    for _ in range(2):  # the second case of the random test above
        g = brute.random_chordal(6, rng)
        m = brute.random_conforming_psd(g, rng)
    faces = support_faces(_frame(m), [frozenset(c) for c in maximal_cliques(g)])
    full = feasibility_search(faces)
    assert full.converged and full.iterations > 3
    result = feasibility_search(faces, max_iter=3)
    assert result.iterations == 3 and result.gap > 0
    assert not result.converged
    assert not result.supports and result.witness is None


def test_random_chordal_roundtrips():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        g = brute.random_chordal(n, rng)
        m = brute.random_conforming_psd(g, rng)
        dec = chordal_decompose(m, g)
        rep = verify_decomposition(m, dec, host=g)
        assert rep.ok and rep.supports_ok
        scale = max(1.0, float(np.linalg.norm(m)))
        assert min(_step_min_eigs(m, dec), default=0.0) >= -1e-8 * scale
        for term in dec.terms:
            assert is_clique(g, term.support)
        assert rep.residual <= 1e-8 * max(1.0, float(np.linalg.norm(m)))


def test_feasibility_over_maximal_cliques_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = brute.random_chordal(6, rng)
        m = brute.random_conforming_psd(g, rng)
        x = _frame(m)
        faces = support_faces(x, [frozenset(c) for c in maximal_cliques(g)])
        result = feasibility_search(faces)
        assert result.converged
        rep = verify_decomposition(m, _pushed(x, result), host=g, rel_bound=1e-5)
        assert rep.ok and rep.supports_ok


def test_feasibility_search_returns_few_pieces():
    # full-rank splittings over the maximal cliques of random graphs: the
    # block ranks rho_S meet Pataki's bound sum rho_S^2 <= r^2, and the
    # pieces still sum to the identity on the span
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = brute.random_graph(8, 0.5, rng)
        m = brute.random_conforming_psd(g, rng)
        x = _frame(m)
        faces = support_faces(x, [frozenset(c) for c in maximal_cliques(g)])
        result = feasibility_search(faces)
        assert result.converged and faces.d_eff == 8
        ranks = collections.Counter(result.supports)
        assert sum(k * k for k in ranks.values()) <= faces.d_eff**2
        d = result.directions
        total = (result.weights[:, None] * d).T @ d.conj()
        assert np.allclose(total, faces.span @ faces.span.conj().T, atol=1e-9)
        rep = verify_decomposition(m, _pushed(x, result), host=g, rel_bound=1e-7)
        assert rep.ok and rep.supports_ok


def _reference_report_supports(m, dec, host, tol=DEFAULT_TOL):
    """Term-by-term loops: clique test per term, then off-support entries."""
    scale = max(1.0, float(np.linalg.norm(m)))
    bad = [t.support for t in dec.terms if not is_clique(host, t.support)]
    for t in dec.terms:
        if any(
            abs(t.vector[i]) > tol.zero_tol * scale and i + 1 not in t.support
            for i in range(dec.n)
        ):
            bad.append(t.support)
    return tuple(bad)


def test_verify_decomposition_bad_supports_match_term_loop():
    g = path_graph(4)
    m = np.eye(4)
    vec = np.array([1.0, 0.5, 0.0, 0.0])
    terms = (
        DecompositionTerm(frozenset({1, 2}), vec),
        DecompositionTerm(frozenset({1, 3}), vec),        # not a clique, leaks at 2
        DecompositionTerm(frozenset({1}), vec),           # leaks at 2
        DecompositionTerm(frozenset({1, 3}), vec),        # repeated
        DecompositionTerm(frozenset({0, 9}), np.zeros(4)),  # out of range
    )
    dec = Decomposition(4, terms, 0.0)
    rep = verify_decomposition(m, dec, host=g)
    assert rep.bad_supports == _reference_report_supports(m, dec, g)
    assert rep.bad_supports == (
        frozenset({1, 3}), frozenset({1, 3}), frozenset({0, 9}),
        frozenset({1, 3}), frozenset({1}), frozenset({1, 3}),
    )
    assert not rep.supports_ok and not rep.ok


def test_dominance_split_rebuilds_an_h_matrix():
    # a 5-cycle with a complex phase: not chordal, and dominant only after
    # scaling, since row 1 carries more off-diagonal weight than its diagonal
    g = cycle_graph(5)
    m = np.eye(5, dtype=complex)
    weights = [0.6j, 0.3, 0.3, 0.3, 0.6]
    for (i, j), w in zip([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], weights):
        m[i - 1, j - 1], m[j - 1, i - 1] = w, np.conj(w)
    c = comparison_matrix(m, g)
    assert (c @ np.ones(5))[0] < 0
    x = dominance_scaling(m, g)
    assert x is not None and (x > 0).all()
    groups = greedy_clique_cover(g)
    dec = dominance_split(m, g, x, groups)
    assert {t.support for t in dec.terms} == set(groups)
    rep = verify_decomposition(m, dec, host=g)
    assert rep.ok and rep.rel_residual < 1e-14


def test_dominance_scaling_refuses_a_non_h_matrix():
    # a PSD matrix on the 4-cycle whose comparison matrix is singular
    g = cycle_graph(4)
    m = np.eye(4) + 0.5 * np.array(
        [[0, 1, 0, -1], [1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, 1, 0]]
    )
    assert np.linalg.eigvalsh(m)[0] >= -1e-12
    assert dominance_scaling(m, g) is None
    # and one whose comparison matrix has a negative eigenvalue
    assert dominance_scaling(np.eye(4) + 0.6 * (m - np.eye(4)) / 0.5, g) is None
