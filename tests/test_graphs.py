import itertools

import numpy as np
import pytest

import brute
from loccgraph.errors import InvalidInput, SearchBudgetExceeded
from loccgraph.graphs import (
    CliqueCover,
    Graph,
    adjacency_matrix,
    chordal_sandwich,
    chromatic_number,
    complement,
    complete_graph,
    cycle_graph,
    edge_clique_cover_number,
    empty_graph,
    eta_plus_bounds,
    find_isomorphism,
    find_two_clique_cover,
    greedy_clique_cover,
    independence_number,
    independent_set_of_size,
    is_chordal,
    is_clique,
    is_perfect_elimination_ordering,
    is_subgraph,
    lex_bfs_order,
    maximal_cliques,
    path_graph,
    sandwich_simplicial_vertices,
    simplicial_vertices,
)


def test_graph_validation():
    with pytest.raises(InvalidInput):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InvalidInput):
        Graph.from_edges(3, [(0, 2)])
    with pytest.raises(InvalidInput):
        Graph.from_edges(3, [(2, 4)])
    g = Graph.from_edges(3, [(2, 1), (1, 2)])
    assert g.edges == frozenset({(1, 2)})


def test_constructors():
    assert complete_graph(4).edges == frozenset(
        (i, j) for i in range(1, 5) for j in range(i + 1, 5)
    )
    assert empty_graph(3).edges == frozenset()
    assert len(cycle_graph(5).edges) == 5
    assert len(path_graph(5).edges) == 4
    with pytest.raises(InvalidInput):
        cycle_graph(2)


def test_complement_involution():
    g = cycle_graph(5)
    assert complement(complement(g)) == g
    # C_4 complement is the perfect matching on the two diagonals
    c4 = Graph.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert complement(c4).edges == frozenset({(1, 4), (2, 3)})


def test_simplicial_vertices():
    # path 1-2-3: the ends are simplicial, the middle is not
    assert simplicial_vertices(path_graph(3)) == frozenset({1, 3})
    assert simplicial_vertices(cycle_graph(4)) == frozenset()
    assert simplicial_vertices(complete_graph(3)) == frozenset({1, 2, 3})


def test_lex_bfs_gives_peo_on_chordal():
    g = Graph.from_edges(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    order = lex_bfs_order(g)
    assert sorted(order) == [1, 2, 3, 4, 5]
    assert is_perfect_elimination_ordering(g, tuple(reversed(order)))


def test_is_chordal_outputs():
    res = is_chordal(path_graph(4))
    assert res.chordal and res.ordering is not None
    assert is_perfect_elimination_ordering(path_graph(4), res.ordering)
    res = is_chordal(cycle_graph(5))
    assert not res.chordal
    hole = res.hole
    assert hole is not None and len(hole) >= 4
    # hole witness is an induced cycle: consecutive adjacent, others not
    g = cycle_graph(5)
    k = len(hole)
    for a in range(k):
        assert g.has_edge(hole[a], hole[(a + 1) % k])
    for a in range(k):
        for b in range(a + 2, k):
            if (a, b) != (0, k - 1):
                assert not g.has_edge(hole[a], hole[b])


def test_maximal_cliques_bull():
    # triangle 1-2-3 with pendants 4 (at 1) and 5 (at 2)
    g = Graph.from_edges(5, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5)])
    cliques = {tuple(sorted(c)) for c in maximal_cliques(g)}
    assert cliques == {(1, 2, 3), (1, 4), (2, 5)}


def test_independence_number_witness():
    size, witness = independence_number(cycle_graph(7))
    assert size == 3
    g = cycle_graph(7)
    assert all(not g.has_edge(u, v) for u, v in itertools.combinations(witness, 2))


def test_simplicial_vertices_match_definition():
    # simplicial: every two neighbours are adjacent
    for n in range(1, 6):
        for g in brute.all_graphs(n):
            adj = g.adjacency()
            expected = {
                v for v in g.vertices
                if all(g.has_edge(a, b) for a, b in itertools.combinations(adj[v], 2))
            }
            assert simplicial_vertices(g) == expected


def test_independent_set_of_size_matches_brute_alpha():
    for n in range(1, 6):
        for g in brute.all_graphs(n):
            alpha = brute.brute_alpha(g)
            for k in range(n + 2):
                # a search tree of depth n has fewer than 2^(n+1) nodes
                found = independent_set_of_size(g, k, node_budget=2 ** (n + 1))
                if k > alpha:
                    assert found is None
                    continue
                assert found is not None and len(found) == k
                assert all(
                    not g.has_edge(u, v) for u, v in itertools.combinations(found, 2)
                )


def test_independent_set_of_size_budget():
    # C_7 has no independent 4-set, and proving it takes more than one node
    with pytest.raises(SearchBudgetExceeded):
        independent_set_of_size(cycle_graph(7), 4, node_budget=1)
    # lowest degree first walks a long cycle greedily, one node per member
    found = independent_set_of_size(cycle_graph(97), 48, node_budget=48)
    assert found == frozenset(range(1, 97, 2))


def test_chromatic_number_coloring():
    k, coloring = chromatic_number(cycle_graph(5))
    assert k == 3
    g = cycle_graph(5)
    assert all(coloring[u] != coloring[v] for u, v in g.edges)
    assert chromatic_number(complete_graph(4))[0] == 4
    assert chromatic_number(empty_graph(3))[0] == 1


def test_edge_clique_cover_examples():
    assert edge_clique_cover_number(complete_graph(4)).count == 1
    assert edge_clique_cover_number(cycle_graph(4)).count == 4
    assert edge_clique_cover_number(cycle_graph(5)).count == 5
    # isolated vertices need their own singleton cliques
    g = Graph.from_edges(3, [(1, 2)])
    assert edge_clique_cover_number(g).count == 2


def test_clique_cover_covers():
    g = cycle_graph(4)
    good = CliqueCover((frozenset({1, 2}), frozenset({2, 3}),
                        frozenset({3, 4}), frozenset({1, 4})))
    assert good.covers(g)
    bad = CliqueCover((frozenset({1, 2}), frozenset({3, 4})))
    assert not bad.covers(g)


def test_two_clique_cover():
    # path 1-2-3: cliques {1,2} and {2,3} cover vertices and both edges
    cover = find_two_clique_cover(path_graph(3), path_graph(3).edges)
    assert cover is not None
    assert CliqueCover(tuple(cover)).covers(path_graph(3))
    # C_4 has no two-clique cover of its four edges
    assert find_two_clique_cover(cycle_graph(4), cycle_graph(4).edges) is None


def test_sandwich_simplicial_vertices():
    # with lo = hi they are hi's simplicial vertices; a simplicial vertex of
    # any chordal graph between lo and hi is one
    rng = np.random.default_rng(5)
    met = 0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        hi = brute.random_graph(n, 0.7, rng)
        lo = Graph.from_edges(n, [e for e in sorted(hi.edges) if rng.random() < 0.6])
        assert sandwich_simplicial_vertices(hi, hi) == simplicial_vertices(hi)
        found = sandwich_simplicial_vertices(lo, hi)
        assert found == {v for v in lo.vertices
                         if is_clique(hi, {v} | lo.adjacency()[v])}
        sandwich = brute.brute_chordal_sandwich(lo, hi)
        if sandwich is not None:
            met += 1
            assert simplicial_vertices(sandwich) <= found
    assert met > 100


def test_chordal_sandwich_basics():
    c4 = cycle_graph(4)
    # C_4 sandwiched between itself and itself: no chordal graph exists
    assert chordal_sandwich(c4, c4) is None
    # C_4 inside K_4: adding one diagonal works
    filled = chordal_sandwich(c4, complete_graph(4))
    assert filled is not None
    assert is_chordal(filled).chordal
    assert c4.edges <= filled.edges
    with pytest.raises(InvalidInput):
        chordal_sandwich(complete_graph(3), empty_graph(3))


def test_chordal_sandwich_budget():
    # both bounds non-chordal so no fast path applies; 30 free edges
    g_lo = cycle_graph(10)
    diameters = [(i, i + 5) for i in range(1, 6)]
    g_hi = complement(Graph.from_edges(10, diameters))
    assert g_lo.edges <= g_hi.edges
    assert not is_chordal(g_lo).chordal and not is_chordal(g_hi).chordal
    with pytest.raises(SearchBudgetExceeded):
        chordal_sandwich(g_lo, g_hi, budget=20)


def test_chordal_sandwich_matches_brute_force():
    # both bounds non-chordal, so the branch and bound on hole chords runs
    rng = np.random.default_rng(41)
    searched = found = 0
    while searched < 60:
        n = int(rng.integers(4, 8))
        lo = brute.random_graph(n, float(rng.uniform(0.2, 0.6)), rng)
        missing = sorted(complement(lo).edges)
        picks = rng.permutation(len(missing))[: int(rng.integers(1, 9))]
        hi = Graph.from_edges(n, sorted(lo.edges) + [missing[k] for k in picks])
        if is_chordal(lo).chordal or is_chordal(hi).chordal:
            continue
        searched += 1
        got = chordal_sandwich(lo, hi)
        assert (got is None) == (brute.brute_chordal_sandwich(lo, hi) is None)
        if got is not None:
            found += 1
            assert is_chordal(got).chordal
            assert lo.edges <= got.edges <= hi.edges
    assert 0 < found < searched


def test_eta_bounds_on_cycles():
    b = eta_plus_bounds(cycle_graph(5))
    assert b.lower == 2 and b.upper == 3 and not b.certified
    b = eta_plus_bounds(path_graph(4))
    assert b.lower == b.upper == 2 and b.certified


def test_find_isomorphism():
    c5 = cycle_graph(5)
    # C_5 is self-complementary
    mapping = find_isomorphism(c5, complement(c5))
    assert mapping is not None
    h = complement(c5)
    for u, v in c5.edges:
        assert h.has_edge(mapping[u], mapping[v])
    assert find_isomorphism(c5, path_graph(5)) is None
    # P_4 is self-complementary too
    p4 = path_graph(4)
    assert find_isomorphism(p4, complement(p4)) is not None


# ---------------------------------------------------------------------------
# oracle comparisons at small sizes (the exhaustive sweep lives in the
# acceptance suite; these are quick spot checks for development)

def test_oracles_random_n5():
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = brute.random_graph(5, float(rng.uniform(0.1, 0.9)), rng)
        assert is_chordal(g).chordal == brute.brute_is_chordal(g)
        assert independence_number(g)[0] == brute.brute_alpha(g)
        assert chromatic_number(g)[0] == brute.brute_chromatic(g)
        assert edge_clique_cover_number(g).count == brute.brute_edge_clique_cover(g)


def test_greedy_clique_cover_covers_every_edge_and_vertex():
    rng = np.random.default_rng(29)
    graphs = [cycle_graph(5), complete_graph(4), empty_graph(3), path_graph(6)]
    graphs += [brute.random_graph(9, float(rng.uniform(0.1, 0.9)), rng) for _ in range(60)]
    for g in graphs:
        cover = greedy_clique_cover(g)
        assert CliqueCover(cover).covers(g)
        assert len(set(cover)) == len(cover)
    assert greedy_clique_cover(complete_graph(4)) == (frozenset({1, 2, 3, 4}),)
    assert greedy_clique_cover(empty_graph(2)) == (frozenset({1}), frozenset({2}))


def test_random_chordal_generator_is_chordal():
    rng = np.random.default_rng(3)
    for _ in range(25):
        g = brute.random_chordal(7, rng)
        assert brute.brute_is_chordal(g)
        assert is_chordal(g).chordal


def test_neighbour_masks_define_the_graph():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (1, 4)])
    assert g.nbrs == (0b1010, 0b0101, 0b0010, 0b0001)
    assert g == Graph(4, g.nbrs) and hash(g) == hash(Graph(4, g.nbrs))
    assert g.edge_list() == [(1, 2), (1, 4), (2, 3)]
    assert g.adjacency() == {1: {2, 4}, 2: {1, 3}, 3: {2}, 4: {1}}
    a = adjacency_matrix(g)
    expected = np.array(
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=bool
    )
    assert a.dtype == bool and np.array_equal(a, expected)
    assert Graph.from_matrix(a) == g
    assert not g.has_edge(1, 1) and not g.has_edge(0, 2) and not g.has_edge(1, 5)
    with pytest.raises(InvalidInput):
        Graph(3, (0b010, 0b000, 0b000))   # 1 ~ 2 but not 2 ~ 1
    with pytest.raises(InvalidInput):
        Graph(2, (0b01, 0b00))            # self-loop
    with pytest.raises(InvalidInput):
        Graph(2, (0b110, 0b000))          # bit beyond n
    with pytest.raises(InvalidInput):
        Graph(3, (0, 0))                  # one mask per vertex


def test_mask_symmetry_check_matches_the_adjacency_matrix():
    # random masks, some with one entry flipped or a self-loop, at sizes
    # across several row widths of the packed bit matrix
    rng = np.random.default_rng(41)
    for trial in range(600):
        n = int(rng.integers(1, 20)) if trial < 500 else int(rng.integers(20, 100))
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        a = upper | upper.T
        damage = rng.random()
        if damage < 0.3:
            v, w = rng.integers(0, n, size=2)
            a[v, w] = not a[v, w]
        elif damage < 0.4:
            v = rng.integers(0, n)
            a[v, v] = True
        nbrs = tuple(sum(1 << int(w) for w in np.flatnonzero(row)) for row in a)
        valid = not a.diagonal().any() and bool((a == a.T).all())
        if valid:
            g = Graph(n, nbrs)
            assert np.array_equal(adjacency_matrix(g), a)
        else:
            with pytest.raises(InvalidInput):
                Graph(n, nbrs)


def test_maximal_cliques_match_brute_force():
    for n in range(1, 6):
        for g in brute.all_graphs(n):
            expected = sorted(
                sorted(c)
                for size in range(1, n + 1)
                for c in itertools.combinations(g.vertices, size)
                if is_clique(g, c)
                and not any(is_clique(g, c + (v,)) for v in g.vertices if v not in c)
            )
            assert [sorted(c) for c in maximal_cliques(g)] == expected


def test_edge_count_counts_the_edge_set():
    rng = np.random.default_rng(5)
    graphs = list(brute.all_graphs(4))
    graphs += [brute.random_graph(int(rng.integers(1, 100)), float(rng.random()), rng)
               for _ in range(30)]
    for g in graphs:
        assert g.edge_count() == len(g.edges)


def _built_graphs(monkeypatch) -> list:
    """Record every graph built through Graph._from_masks, the constructor
    that skips the public mask check."""
    built = []
    from_masks = Graph._from_masks.__func__

    def recording(cls, n, nbrs):
        built.append(from_masks(cls, n, nbrs))
        return built[-1]

    monkeypatch.setattr(Graph, "_from_masks", classmethod(recording))
    return built


def _assert_public_check_passes(graphs):
    for g in graphs:
        assert Graph(g.n, g.nbrs) == g, (g.n, g.nbrs)


def test_every_graph_the_engine_builds_passes_the_public_check(monkeypatch):
    built = _built_graphs(monkeypatch)
    small = [g for n in range(1, 6) for g in brute.all_graphs(n)]
    rng = np.random.default_rng(43)
    graphs = small + [
        brute.random_graph(int(rng.integers(1, 41)), float(rng.random()), rng)
        for _ in range(200)
    ]
    for g in graphs:
        assert Graph.from_matrix(adjacency_matrix(g)) == g
        assert complement(complement(g)) == g
    makers = (complete_graph, empty_graph, path_graph)
    named = [make(n) for n in range(1, 41) for make in makers]
    named += [cycle_graph(n) for n in range(3, 41)]
    # each of graphs from its edges, its matrix and two complements
    assert len(built) == len(graphs) * 4 + len(named)
    _assert_public_check_passes(built)


def test_every_node_of_the_sandwich_search_passes_the_public_check(monkeypatch):
    # both bounds non-chordal, so the search builds nodes of its own
    rng = np.random.default_rng(47)
    pairs = []
    for lo in brute.all_graphs(5):
        if is_chordal(lo).chordal:
            continue
        missing = sorted(complement(lo).edges)
        picks = rng.permutation(len(missing))[: int(rng.integers(1, len(missing)))]
        hi = Graph.from_edges(5, sorted(lo.edges) + [missing[k] for k in picks])
        if not is_chordal(hi).chordal:
            pairs.append((lo, hi))
    built = _built_graphs(monkeypatch)
    found = 0
    for lo, hi in pairs:
        got = chordal_sandwich(lo, hi)
        found += got is not None
    # one root per search, and more below the roots of some
    assert 0 < found < len(pairs) < len(built)
    _assert_public_check_passes(built)


def test_from_matrix_needs_a_symmetric_square_matrix():
    with pytest.raises(InvalidInput):
        Graph.from_matrix(np.zeros((2, 3), dtype=bool))
    with pytest.raises(InvalidInput):
        Graph.from_matrix(np.zeros(3, dtype=bool))
    with pytest.raises(InvalidInput):
        Graph.from_matrix([[0, 1], [0, 0]])
    with pytest.raises(InvalidInput):
        Graph.from_matrix(np.zeros((0, 0), dtype=bool))
    # a set diagonal is dropped, not refused
    assert Graph.from_matrix(np.ones((2, 2), dtype=bool)) == complete_graph(2)


def test_is_subgraph_is_edge_set_inclusion():
    graphs = [g for n in range(1, 5) for g in brute.all_graphs(n)]
    for g in graphs[::3]:
        for h in graphs[::5]:
            assert is_subgraph(g, h) == (g.edges <= h.edges), (g, h)


def test_eta_bounds_run_one_independence_search(monkeypatch):
    import loccgraph.graphs as graphs

    searched = []
    original = graphs.independence_number

    def counting(g, budget=40):
        searched.append(g)
        return original(g, budget)

    monkeypatch.setattr(graphs, "independence_number", counting)
    for g in (cycle_graph(5), path_graph(4), cycle_graph(7), complement(path_graph(7))):
        searched.clear()
        b = eta_plus_bounds(g)
        assert searched == [g]
        assert b.upper == chromatic_number(complement(g))[0]
        assert b.lower == original(g)[0]
