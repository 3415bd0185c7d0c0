import json
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from loccgraph.criteria import decide
from loccgraph.errors import InvalidInput, NotMutuallyOrthogonal
from loccgraph.families import generate
from loccgraph.graphs import Graph, adjacency_matrix, complement
from loccgraph.linalg import DEFAULT_TOL, Tolerance, numeric_rank
from loccgraph.locc import simulate
from loccgraph.serialize import (
    protocol_from_json,
    protocol_to_json,
    states_from_json,
    states_to_json,
)
from loccgraph.states import OrthonormalityReport, ProductStateSet

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


def test_validate_orthonormal_units_in_row_order():
    # states a and c are off unit length, b is a unit vector
    s = ProductStateSet.from_vectors(
        [2.0 * E3[0], E3[1], 0.5 * E3[2]], [E2[0]] * 3, labels=("a", "b", "c"),
        normalize=False,
    )
    g = s.product_gram()
    expected = tuple(
        (s.labels[i], float(abs(g[i, i] - 1.0)))
        for i in range(s.n)
        if abs(g[i, i] - 1.0) > 10 * Tolerance().zero_tol
    )
    assert s.validate_orthonormal().unit_deviations == expected == (("a", 3.0), ("c", 0.75))


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


def test_label_positions_give_minus_one_for_labels_the_set_lacks():
    s = _example1()
    named = ProductStateSet(s.alice, s.bob, ("w", "x", "y", "z"))
    assert named.label_positions(["y", "ww", "w", "", "z"]).tolist() == [2, -1, 0, -1, 3]
    # labels read off another set: "1" to "4" name no state here
    assert named.label_positions(s.label_array()).tolist() == [-1] * 4
    assert s.label_positions(named.label_array()).tolist() == [-1] * 4
    assert s.label_positions(s.label_array()).tolist() == [0, 1, 2, 3]
    assert named.label_positions([]).tolist() == []
    assert not named.label_array().flags.writeable
    assert named.label_array().tolist() == list(named.labels)


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


@pytest.mark.parametrize("spec", ["bennett", "tiles", "bullseye:11"])
def test_the_host_is_the_alice_graph_when_no_pair_is_orthogonal_on_both_sides(spec):
    from loccgraph.families import generate

    s = generate(spec)
    for work in (s, s.swapped()):
        graphs = work.build_graphs()
        assert graphs.bob_orthogonality() is graphs.alice
        assert graphs.alice == complement(graphs.bob)


@pytest.mark.parametrize("name", ["q7", "g4"])
def test_the_host_outgrows_the_alice_graph_when_pairs_are_orthogonal_on_both_sides(name):
    import brute
    from loccgraph.graphs import is_subgraph

    graphs = brute.pinned_set(name)[0].build_graphs()
    host = graphs.bob_orthogonality()
    assert host is not graphs.alice and host == complement(graphs.bob)
    assert is_subgraph(graphs.alice, host)
    assert host.edge_count() > graphs.alice.edge_count()


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


def _reference_intake(s: ProductStateSet, tol: Tolerance):
    """The report and graphs as built one fact at a time: each overlap graph
    through Graph.from_matrix, the host as the complement of Bob's, and the
    report from the product Gram."""
    alice, bob = (Graph.from_matrix(np.abs(g) > tol.zero_tol)
                  for g in (s.alice_gram(), s.bob_gram()))
    g = s.product_gram()
    off = np.abs(np.diagonal(g) - 1.0)
    units = tuple((s.labels[i], float(off[i]))
                  for i in np.flatnonzero(off > 10 * tol.zero_tol))
    rows, cols = np.nonzero(np.triu(np.abs(g) > tol.zero_tol, k=1))
    pairs = tuple((s.labels[i], s.labels[j], float(abs(g[i, j])))
                  for i, j in zip(rows, cols))
    return OrthonormalityReport(not units and not pairs, units, pairs), alice, bob, complement(bob)


def _near_tolerance_part(d: int, rng: np.random.Generator, zero_tol: float) -> np.ndarray:
    """A basis vector plus a random vector scaled so that overlaps land
    near zero_tol, near its square root (so that products of overlaps land
    near it) or well clear of it."""
    scale = rng.choice([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1 / zero_tol ** 0.5, 1e4, 1e9])
    noise = rng.normal(size=d) + 1j * rng.normal(size=d)
    return np.eye(d)[rng.integers(d)] + scale * zero_tol * noise / np.linalg.norm(noise)


def test_the_intake_matches_building_each_fact_alone():
    rng = np.random.default_rng(5)
    near = shared = 0
    for trial in range(240):
        tol = Tolerance(zero_tol=float(rng.choice([1e-9, 1e-7])), rank_tol=1e-7)
        n, d_a, d_b = (int(x) for x in rng.integers((1, 1, 1), (10, 5, 5)))
        s = ProductStateSet.from_vectors(
            [_near_tolerance_part(d_a, rng, tol.zero_tol) for _ in range(n)],
            [_near_tolerance_part(d_b, rng, tol.zero_tol) for _ in range(n)],
            normalize=bool(trial % 4),
        )
        report, alice, bob, host = _reference_intake(s, tol)
        graphs = s.build_graphs(tol)
        assert s.validate_orthonormal(tol) == report, trial
        assert (graphs.alice, graphs.bob, graphs.bob_orthogonality()) == (alice, bob, host)
        assert (graphs.bob_orthogonality() is graphs.alice) == (host == alice), trial
        for got, want in ((graphs.alice, alice), (graphs.bob, bob)):
            assert np.array_equal(adjacency_matrix(got), adjacency_matrix(want))
            assert got.edge_count() == len(want.edges)
        magnitudes = np.abs([s.alice_gram(), s.bob_gram(), s.product_gram()])
        near += bool(((magnitudes > tol.zero_tol / 3) & (magnitudes < 3 * tol.zero_tol)).any())
        shared += host == alice
    # the sets reach the threshold and both kinds of host
    assert near >= 100 and 20 <= shared <= 220


def _proof_agrees(s: ProductStateSet, rows) -> bool:
    """Whether d_alice states at rows prove the rank; when they do, the
    frame, the rows, the kept rank and the span all have rank d_alice."""
    proved = s.proves_full_rank(rows)
    if proved:
        d = s.d_alice
        assert numeric_rank(s.alice_frame()) == numeric_rank(s.alice[rows]) == d
        assert s.alice_rank() == s.alice_span().shape[1] == d
    return proved


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 6),
       st.one_of(st.floats(-9, 0), st.floats(-7, -5)),
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.1, 0.5, 1.5]))
def test_a_proved_rank_is_the_numeric_rank(seed, d, extra, exponent, spread):
    # d rows spread away from an orthonormal basis, one scaled by
    # 10**exponent, shuffled among extra rows of norms 1e-9 to 10. The
    # scaled row's least Gershgorin disc meets the proof's margin, 4e-14
    # tr(Gram), near exponents -7 to -5 when the spread is below the scale
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(_complex(rng, d, d))
    basis = q + spread * _complex(rng, d, d) / np.sqrt(2 * d)
    basis[0] *= 10.0 ** exponent
    others = _complex(rng, extra, d) * 10.0 ** rng.uniform(-9, 1, size=(extra, 1))
    order = rng.permutation(d + extra)
    alice = np.concatenate([basis, others])[order]
    s = ProductStateSet(alice, np.ones((d + extra, 1)), tuple(map(str, range(d + extra))))
    _proof_agrees(s, list(np.argsort(order)[:d]))


@pytest.mark.parametrize("scale,proved,rank", [
    (1.0, True, 3), (3e-7, True, 3), (2.5e-7, False, 3), (5e-8, False, 2)])
def test_the_rank_proof_keeps_its_margin(scale, proved, rank):
    # the least disc is scale^2 against 4 rank_tol^2 tr(Gram) = 4e-14 (2 +
    # scale^2): the proof holds down to scale 2.83e-7, while numeric_rank
    # counts the scaled row down to 1e-7
    alice = np.eye(3, dtype=complex)
    alice[0] *= scale
    s = ProductStateSet(alice, np.ones((3, 1)), ("1", "2", "3"))
    assert _proof_agrees(s, [0, 1, 2]) == proved
    assert s.alice_rank() == rank


def test_the_rank_proof_needs_d_alice_states():
    s = ProductStateSet(np.eye(3, dtype=complex), np.ones((3, 1)), ("1", "2", "3"))
    assert not s.proves_full_rank([0, 1]) and not s.proves_full_rank([0, 1, 2, 0])
    assert ("rank", DEFAULT_TOL.rank_tol) not in s._derived
    assert _proof_agrees(s, [2, 0, 1])


def test_kept_witness_rows_prove_only_themselves():
    # decide keeps the witness rows it proved; other rows are tested, and
    # rows that repeat a state prove nothing, as on a fresh set
    s = generate("bennett")
    v = decide(s)
    assert v.certificate.kind == "MinDimNoSimplicial"
    a, b, c = [i - 1 for i in v.certificate.data["alpha_witness"]]
    fresh = ProductStateSet(s.alice, s.bob, s.labels)
    for rows in ([a, b, c], [a, a, b], [c, b, a]):
        assert s.proves_full_rank(rows) == fresh.proves_full_rank(rows) == (len(set(rows)) == 3)


def test_a_tiny_witness_part_refuses_the_proof():
    # an Alice part scaled by 1e-8 and its Bob part by 1e8 leave the set
    # orthonormal; the proof refuses, and the rank falls back to the SVD
    s = generate("bennett")
    witness = [i - 1 for i in decide(s).certificate.data["alpha_witness"]]
    alice, bob = s.alice.copy(), s.bob.copy()
    alice[witness[0]] *= 1e-8
    bob[witness[0]] *= 1e8
    scaled = ProductStateSet(alice, bob, s.labels)
    scaled.require_orthonormal()
    assert _proof_agrees(s, witness)
    assert not _proof_agrees(scaled, witness)
    assert scaled.alice_rank() == numeric_rank(scaled.alice_frame())


@pytest.mark.parametrize("alice_overlap,proved", [(0.4, True), (0.6, False)])
def test_bob_overlaps_just_above_zero_tol_allow_large_alice_overlaps(alice_overlap, proved):
    # the product of the overlaps stays under zero_tol, so the set is
    # orthonormal and independent in the host, yet its Alice Gram is far
    # from the identity: discs 1 - 2 * overlap
    s = brute.equal_overlap_set(alice_overlap, 1.5e-9)
    s.require_orthonormal()
    graphs = s.build_graphs()
    assert graphs.bob.edge_count() == 3 and graphs.bob_orthogonality().edge_count() == 0
    assert _proof_agrees(s, [0, 1, 2]) == proved
    assert s.alice_rank() == 3
