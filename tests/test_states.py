import json
import pickle
import weakref

import numpy as np
import pytest

from loccgraph.criteria import decide
from loccgraph.errors import InvalidInput, NotMutuallyOrthogonal
from loccgraph.graphs import complement
from loccgraph.linalg import Tolerance
from loccgraph.locc import simulate
from loccgraph.serialize import (
    protocol_from_json,
    protocol_to_json,
    states_from_json,
    states_to_json,
)
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


def test_inconclusive_is_an_ordinary_label():
    # Bob plans hold only labelled columns, so no label is reserved
    base = _example1()
    s = ProductStateSet(base.alice, base.bob, ("inconclusive", "2", "3", "4"))
    back = states_from_json(json.loads(json.dumps(states_to_json(s))))
    assert back.labels == s.labels
    v = decide(back)
    protocol = protocol_from_json(json.loads(json.dumps(protocol_to_json(v.protocol))))
    assert "inconclusive" in {l for plan in protocol.bob for l in plan.labels}
    assert dict(simulate(back, protocol).per_state)["inconclusive"] >= 1 - 1e-9


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


def test_validate_orthonormal_pairs_in_row_order():
    # all four states share their Bob part; Alice parts 1, 2 and 4 overlap
    a = [E3[0], E3[0] + E3[1], E3[2], E3[1]]
    b = [E2[0]] * 4
    s = ProductStateSet.from_vectors(a, b)
    g = s.product_gram()
    expected = tuple(
        (s.labels[i], s.labels[j], float(abs(g[i, j])))
        for i in range(s.n)
        for j in range(i + 1, s.n)
        if abs(g[i, j]) > 1e-9
    )
    pairs = s.validate_orthonormal().nonorthogonal_pairs
    assert pairs == expected
    assert [(p[0], p[1]) for p in pairs] == [("1", "2"), ("2", "4")]


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


def test_gram_matrices_are_computed_once_and_read_only():
    import brute
    from loccgraph.families import generate
    from loccgraph.linalg import gram

    sets = [
        generate(spec) for specs in brute.SWEEP_SPECS.values() for spec in specs
    ]
    sets.append(_example1())
    for s in sets:
        for work in (s, s.swapped()):
            for get, rows in ((work.alice_gram, work.alice), (work.bob_gram, work.bob)):
                g = get()
                assert get() is g
                assert not g.flags.writeable
                assert np.abs(g - gram(list(rows))).max() <= 1e-12
            with pytest.raises(ValueError):
                work.alice_gram()[0, 0] = 0.0
            assert np.array_equal(work.product_gram(), work.alice_gram() * work.bob_gram())
        assert np.array_equal(s.swapped().alice_gram(), s.bob_gram())
        frame = s.alice_frame()
        assert frame.shape == (s.d_alice, s.n)
        assert np.shares_memory(frame, s.alice) and not frame.flags.writeable


def test_zero_vector_names_the_first_zero_state():
    from loccgraph.errors import ZeroVector

    ones = np.ones((3, 2), dtype=complex)
    holes = ones.copy()
    holes[[1, 2]] = 0.0
    with pytest.raises(ZeroVector, match="Alice part of state y is zero"):
        ProductStateSet(holes, ones, ("x", "y", "z"))
    with pytest.raises(ZeroVector, match="Bob part of state y is zero"):
        ProductStateSet(ones, holes, ("x", "y", "z"))


def test_swapped_shares_arrays_and_grams():
    s = _example1()
    t = s.swapped()
    assert t.alice is s.bob and t.bob is s.alice and t.labels is s.labels
    assert t.alice_gram() is s.bob_gram() and t.bob_gram() is s.alice_gram()
    back = t.swapped()
    assert back.alice is s.alice and back.bob is s.bob
    assert back.alice_gram() is s.alice_gram() and back.bob_gram() is s.bob_gram()


def test_swapped_is_one_set_that_swaps_back():
    s = _example1()
    t = s.swapped()
    assert s.swapped() is t and t.swapped() is s
    assert s.swapped().swapped() is s
    # a swapped set refers back weakly: dropping the origin frees it, and
    # the swapped set then makes a new one from the shared parts
    origin = ProductStateSet.from_vectors(s.alice, s.bob)
    alone = origin.swapped()
    gone = weakref.ref(origin)
    del origin
    assert gone() is None
    back = alone.swapped()
    assert back.alice is alone.bob and back.alice_gram() is alone.bob_gram()
    assert back.swapped() is alone and alone.swapped() is back
    # a pickled copy keeps the states and derives the rest again
    copy = pickle.loads(pickle.dumps(alone))
    assert np.array_equal(copy.alice, alone.alice) and copy.labels == alone.labels
    assert copy.swapped().swapped() is copy


def test_derived_facts_are_kept_per_tolerance():
    # Alice's two parts overlap by about 1e-8: an edge at zero_tol 1e-9,
    # none at 1e-7
    s = ProductStateSet.from_vectors([(1, 0), (1e-8, 1)], [(1, 0), (0, 1)])
    fine = Tolerance(zero_tol=1e-9, rank_tol=1e-9)
    coarse = Tolerance(zero_tol=1e-7, rank_tol=1e-7)
    g_fine, g_coarse = s.build_graphs(fine), s.build_graphs(coarse)
    assert g_fine.alice.edges == {(1, 2)} and not g_coarse.alice.edges
    assert s.build_graphs(fine) is g_fine and s.build_graphs(coarse) is g_coarse
    assert g_fine.bob_orthogonality() is g_fine.bob_orthogonality()
    # two Alice parts 1e-8 apart: rank 2 at rank_tol 1e-9, 1 at 1e-7
    s = ProductStateSet.from_vectors([(1, 0), (1, 1e-8)], [(1, 0), (0, 1)])
    assert s.alice_span(fine).shape == (2, 2) and s.alice_span(coarse).shape == (2, 1)
    assert s.alice_span(fine) is s.alice_span(fine)
    assert not s.alice_span(fine).flags.writeable


def test_subset_grams_are_sub_blocks():
    from loccgraph.families import generate

    s = generate("bennett")
    labels = ("9", "2", "5", "4")
    t = s.subset(labels)
    idx = [s.index_of(l) - 1 for l in labels]
    for sub, full in ((t.alice_gram(), s.alice_gram()), (t.bob_gram(), s.bob_gram())):
        assert np.array_equal(sub, full[np.ix_(idx, idx)])
        assert not sub.flags.writeable
    assert not t.alice.flags.writeable and not t.bob.flags.writeable
    assert np.array_equal(t.alice, s.alice[idx]) and t.labels == labels
    for bad in ((), ("2", "2")):
        with pytest.raises(InvalidInput):
            s.subset(bad)
