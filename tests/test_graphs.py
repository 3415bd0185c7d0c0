import collections
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from loccgraph.errors import InvalidInput, SearchBudgetExceeded
from loccgraph.graphs import (
    CliqueCover,
    Graph,
    adjacency_matrix,
    chordal_sandwich,
    chromatic_number,
    clique_search,
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


def test_an_ordering_of_floats_is_no_perfect_elimination_ordering():
    g = path_graph(4)
    assert not is_perfect_elimination_ordering(g, [4.0, 3.0, 2.0, 1.0])
    assert not is_perfect_elimination_ordering(g, 5)
    # the ordering is_chordal kept on g is proved, with float entries too
    kept = is_chordal(g).ordering
    assert is_perfect_elimination_ordering(g, [float(v) for v in kept])


def test_is_chordal_outputs():
    res = is_chordal(path_graph(4))
    assert res.chordal and res.ordering is not None
    assert is_perfect_elimination_ordering(path_graph(4), res.ordering)
    res = is_chordal(cycle_graph(5))
    assert not res.chordal and res.ordering is None
    _assert_induced_cycle(cycle_graph(5), res.hole)
    # found once, then kept
    assert res.hole is res.hole


def _assert_induced_cycle(g, hole):
    """hole lists distinct vertices of a chordless cycle of length >= 4:
    consecutive members adjacent, the last to the first, no others."""
    k = len(hole)
    assert k >= 4 and len(set(hole)) == k
    for a, b in itertools.combinations(range(k), 2):
        assert g.has_edge(hole[a], hole[b]) == (b - a in (1, k - 1)), (hole, a, b)


def test_holes_are_induced_cycles():
    # every non-chordal graph on at most 5 vertices and 60 random graphs on
    # 7 (seed 11); the verdict against the subset-by-subset oracle
    rng = np.random.default_rng(11)
    graphs = [g for n in range(1, 6) for g in brute.all_graphs(n)]
    graphs += [brute.random_graph(7, 0.5, rng) for _ in range(60)]
    holes = 0
    for g in graphs:
        res = is_chordal(g)
        assert res.chordal == brute.brute_is_chordal(g)
        if res.chordal:
            assert res.hole is None
        else:
            _assert_induced_cycle(g, res.hole)
            holes += 1
    assert holes > 100


def test_deciding_a_bullseye_orders_once_and_finds_no_hole(monkeypatch):
    # the host is the Alice graph object, so one lex-BFS pass decides the
    # chordality of both, and no rung reads a hole
    from loccgraph import graphs as graph_module
    from loccgraph.criteria import ALICE_FIRST, BOB_FIRST, decide
    from loccgraph.families import generate

    calls = collections.Counter()
    for name in ("find_hole", "_lex_bfs"):
        def counting(g, _name=name, _real=getattr(graph_module, name)):
            calls[_name] += 1
            return _real(g)
        monkeypatch.setattr(graph_module, name, counting)
    s = generate("bullseye:11")
    for direction in (ALICE_FIRST, BOB_FIRST):
        assert decide(s, direction).certificate.kind == "MinDimNoSimplicial"
    assert calls == {"_lex_bfs": 2}


def test_deciding_a_bullseye_builds_no_complement(monkeypatch):
    # the search for alpha(host), its witness and chi(bob) runs on Bob's
    # overlap graph, the host's complement, at n = 177 as at any size
    from loccgraph import graphs as graph_module
    from loccgraph.criteria import ALICE_FIRST, BOB_FIRST, decide
    from loccgraph.families import generate

    s = generate("bullseye:45")
    built = []
    real = graph_module.complement
    monkeypatch.setattr(graph_module, "complement", lambda g: built.append(g) or real(g))
    for direction in (ALICE_FIRST, BOB_FIRST):
        assert decide(s, direction).certificate.kind == "MinDimNoSimplicial"
    assert built == []


def _chordality_oracle_corpus():
    """2,000 random graphs and 400 random chordal ones on at most 14
    vertices (seed 53), then cycles, paths and bullseye overlap graphs on
    63 to 161 vertices: each graph with whether the brute oracle runs."""
    rng = np.random.default_rng(53)
    for _ in range(2000):
        yield brute.random_graph(int(rng.integers(1, 15)), float(rng.random()), rng), True
    for _ in range(400):
        yield brute.random_chordal(int(rng.integers(1, 15)), rng), True
    from loccgraph.families import generate
    bullseye = {d: generate(f"bullseye:{d}").build_graphs() for d in (17, 33, 41)}
    for n in (63, 64, 65, 129, 161):
        yield cycle_graph(n), False
        yield path_graph(n), False
        # bullseye:d has 4d - 3 states; n = 63, 64 are induced subgraphs
        graphs = bullseye[min(d for d in bullseye if 4 * d - 3 >= n)]
        for g in (graphs.alice, graphs.bob, graphs.bob_orthogonality()):
            yield Graph._from_masks(n, tuple(m & (1 << n) - 1 for m in g.nbrs[:n])), False


def test_one_pass_chordality_matches_the_oracles():
    # against the subset-by-subset oracle, networkx, and the two-pass
    # reference: the reversed lex-BFS order of the old refinement, then the
    # full pairwise perfect elimination check; a chordal graph's ordering
    # is that reversed order
    import networkx as nx

    chordal = holes = 0
    for g, small in _chordality_oracle_corpus():
        res = is_chordal(g)
        reference = tuple(reversed(brute.reference_lex_bfs_order(g)))
        assert lex_bfs_order(g) == reference[::-1]
        # on a fresh copy, which keeps no chordality, every ordering is
        # checked pairwise
        two_pass = is_perfect_elimination_ordering(Graph(g.n, g.nbrs), reference)
        assert res.chordal == two_pass, (g.n, g.nbrs)
        assert res.ordering == (reference if two_pass else None)
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from(g.edge_list())
        assert res.chordal == nx.is_chordal(nxg)
        if small:
            assert res.chordal == brute.brute_is_chordal(g)
        chordal += res.chordal
        holes += not res.chordal
    assert chordal > 1000 and holes > 800


@pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 128, 129, 200])
def test_masks_from_a_matrix_match_the_byte_slices(n):
    rng = np.random.default_rng(n)
    for p in (0.0, 0.3, 0.7, 1.0):
        a = np.triu(rng.random((n, n)) < p, k=1)
        a = a | a.T
        a.setflags(write=False)
        g = Graph._from_adjacency(a)
        assert g.nbrs == brute.reference_masks(a)
        assert all(type(m) is int for m in g.nbrs)
        assert Graph(n, g.nbrs) == g and adjacency_matrix(g) is a


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
    # simplicial: every two neighbours are adjacent; the matrix kernel
    # against the vertex-by-vertex reference on every graph with n <= 6
    for n in range(1, 7):
        for g in brute.all_graphs(n):
            assert simplicial_vertices(g) == brute.brute_closed_cliques(g, g)


def test_independence_number_budget():
    # budget 0 allows no node, and every search takes at least one
    with pytest.raises(SearchBudgetExceeded):
        independence_number(cycle_graph(7), budget=0)


def test_capped_search_runs_deeper_than_the_recursion_limit():
    # the search keeps its own stack: a clique of k vertices deeper than
    # Python's recursion limit is found, one node per member
    k = sys.getrecursionlimit() + 200
    assert independence_number(empty_graph(k)) == (k, frozenset(range(1, k + 1)))


def test_colouring_search_runs_deeper_than_the_recursion_limit():
    # an even cycle plus a disjoint C_5: the search's colouring has three
    # classes and its clique two, so the exact colouring search tries two
    # colours, colouring the whole cycle before the C_5 fails
    n = sys.getrecursionlimit() + 200
    n += n % 2
    g = Graph.from_edges(n + 5, [*cycle_graph(n).edge_list(),
                                 *((n + u, n + v) for u, v in cycle_graph(5).edge_list())])
    chi, coloring = chromatic_number(g)
    assert chi == 3
    assert all(coloring[u] != coloring[v] for u, v in g.edges)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_clique_search_matches_brute_force(n, p, seed):
    g = brute.random_graph(n, p, np.random.default_rng(seed))
    co = complement(g)
    alpha = brute.brute_alpha(g)
    size, witness = independence_number(g)
    assert size == len(witness) == alpha
    assert not any(g.has_edge(u, v) for u, v in itertools.combinations(witness, 2))
    chi, coloring = chromatic_number(g)
    assert chi == brute.brute_chromatic(g) == max(coloring.values())
    assert set(coloring) == set(g.vertices)
    assert all(coloring[u] != coloring[v] for u, v in g.edges)
    # the search's colour classes partition the vertices into independent
    # sets; every node adds a vertex to a distinct clique: at most 2^n nodes
    _, classes = clique_search(co, 2 ** n)
    assert sorted(v for c in classes for v in _members(c)) == list(g.vertices)
    assert not any(co.has_edge(u, v) for c in classes
                   for u, v in itertools.combinations(_members(c), 2))


def _members(mask: int) -> list[int]:
    return [v + 1 for v in range(mask.bit_length()) if mask >> v & 1]


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
        assert found == brute.brute_closed_cliques(lo, hi)
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


def test_greedy_clique_cover_matches_the_reference():
    # the same cliques in the same order as the cover that scored each
    # candidate through a max over its bits: seeded random graphs, and the
    # measuring side's overlap graph of every sweep set, both ways
    from loccgraph.families import generate

    rng = np.random.default_rng(31)
    graphs = [brute.random_graph(int(rng.integers(1, 41)), p, rng)
              for p in np.linspace(0.1, 0.9, 9) for _ in range(12)]
    for specs in brute.SWEEP_SPECS.values():
        for spec in specs:
            s = generate(spec)
            graphs += [s.build_graphs().alice, s.swapped().build_graphs().alice]
    for g in graphs:
        assert greedy_clique_cover(g) == brute.reference_greedy_clique_cover(g)


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
    # the search starts at lo itself and builds the nodes below it; each
    # hole it reads is found in a graph rebuilt from the node's masks
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
    # one clique search of the complement gives alpha(g) and bounds
    # chi(complement(g)); the exact colouring search that C_5 needs past
    # that bound is not a second clique search
    import loccgraph.graphs as graphs

    searched = []
    original = graphs.clique_search

    def counting(g, *args):
        searched.append(g)
        return original(g, *args)

    monkeypatch.setattr(graphs, "clique_search", counting)
    for g in (cycle_graph(5), path_graph(4), cycle_graph(7), complement(path_graph(7))):
        searched.clear()
        b = eta_plus_bounds(g)
        assert searched == [complement(g)]
        assert b.upper == chromatic_number(complement(g))[0]
        assert b.lower == independence_number(g)[0]
