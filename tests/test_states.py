import numpy as np
import pytest

from loccgraph.errors import InvalidInput, NotMutuallyOrthogonal
from loccgraph.graphs import complement
from loccgraph.states import ProductStateSet

E2 = np.eye(2, dtype=complex)
E3 = np.eye(3, dtype=complex)


def _example1() -> ProductStateSet:
    a = [E2[0], E2[0] + E2[1], E2[0] - E2[1], E2[0] + E2[1]]
    b = [E3[0], E3[1], E3[1], E3[2]]
    return ProductStateSet.from_vectors(a, b)


def test_shapes_and_labels():
    s = _example1()
    assert (s.n, s.d_alice, s.d_bob) == (4, 2, 3)
    assert s.labels == ("1", "2", "3", "4")
    assert s.index_of("3") == 3
    with pytest.raises(InvalidInput):
        s.index_of("nope")


def test_normalization():
    s = _example1()
    norms = np.linalg.norm(s.alice, axis=1)
    assert np.allclose(norms, 1.0)


def test_reserved_label_rejected():
    with pytest.raises(InvalidInput):
        ProductStateSet.from_vectors([E2[0]], [E2[0]], labels=("inconclusive",))


def test_duplicate_labels_rejected():
    with pytest.raises(InvalidInput):
        ProductStateSet.from_vectors(
            [E2[0], E2[1]], [E2[0], E2[1]], labels=("x", "x")
        )


def test_gram_matrices():
    s = _example1()
    ga = s.alice_gram()
    assert ga.shape == (4, 4)
    assert np.allclose(np.diag(ga), 1.0)
    assert np.isclose(abs(ga[0, 1]), 1 / np.sqrt(2))
    prod = s.product_gram()
    assert np.allclose(prod, np.eye(4), atol=1e-12)


def test_build_graphs_overlap_semantics():
    s = _example1()
    graphs = s.build_graphs()
    assert sorted(graphs.alice.edges) == [(1, 2), (1, 3), (1, 4), (2, 4)]
    assert sorted(graphs.bob.edges) == [(2, 3)]
    # non-orthogonality graphs of an orthonormal set never share an edge
    assert not (graphs.alice.edges & graphs.bob.edges)
    host = graphs.bob_orthogonality()
    assert host == complement(graphs.bob)
    assert graphs.alice.edges <= host.edges


def test_validate_orthonormal_flags_bad_pairs():
    a = [E2[0], E2[0]]
    b = [E2[0], E2[0]]
    s = ProductStateSet.from_vectors(a, b)
    rep = s.validate_orthonormal()
    assert not rep.ok
    assert ("1", "2") in [(p[0], p[1]) for p in rep.nonorthogonal_pairs]
    with pytest.raises(NotMutuallyOrthogonal):
        s.require_orthonormal()


def test_swapped_roundtrip():
    s = _example1()
    t = s.swapped()
    assert (t.d_alice, t.d_bob) == (3, 2)
    assert np.allclose(t.alice, s.bob)
    g = s.build_graphs()
    gt = t.build_graphs()
    assert gt.alice == g.bob and gt.bob == g.alice


def test_subset_preserves_order_and_labels():
    s = _example1()
    t = s.subset(("4", "2"))
    assert t.labels == ("4", "2")
    assert t.n == 2
    assert np.allclose(t.bob[0], s.bob[3])
    with pytest.raises(InvalidInput):
        s.subset(("1", "9"))


def test_unnormalized_input_fails_validation_when_not_normalizing():
    s = ProductStateSet.from_vectors(
        [2.0 * E2[0], E2[1]], [E2[0], E2[1]], normalize=False
    )
    rep = s.validate_orthonormal()
    assert not rep.ok
    label, deviation = rep.unit_deviations[0]
    assert label == "1" and deviation > 0.5


def _pairwise_edges(vectors, tol=1e-9):
    from loccgraph.linalg import gram

    g = gram(list(vectors))
    n = len(vectors)
    return frozenset(
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(g[i, j]) > tol
    )


def test_build_graphs_matches_pairwise_loop():
    import brute
    from loccgraph.families import generate

    sets = [
        generate(spec) for specs in brute.SWEEP_SPECS.values() for spec in specs
    ]
    rng = np.random.default_rng(31)
    sets += [
        brute.random_product_instance(int(rng.integers(3, 9)), rng)[0]
        for _ in range(20)
    ]
    for s in sets:
        graphs = s.build_graphs()
        assert graphs.alice.edges == _pairwise_edges(s.alice)
        assert graphs.bob.edges == _pairwise_edges(s.bob)
