"""Independent brute-force oracles and random instance generators.

Everything here is written against the definitions, not the library
algorithms: subset enumeration with bitmasks, no elimination orderings, no
branch and bound. Slow on purpose; only used at tiny sizes.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator, Optional

import numpy as np

from loccgraph import Graph
from loccgraph.decomposition import Decomposition, support_mask


def all_graphs(n: int) -> Iterator[Graph]:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        yield Graph.from_edges(n, edges)


def _neighbour_masks(g: Graph) -> list[int]:
    """nbr[v]: bit u set when u ~ v, vertices 0-based, from the edge list."""
    nbr = [0] * g.n
    for i, j in g.edges:
        nbr[i - 1] |= 1 << (j - 1)
        nbr[j - 1] |= 1 << (i - 1)
    return nbr


def _independent_table(nbr: list[int]) -> list[bool]:
    """ind[mask]: no two vertices of mask adjacent, i.e. the lowest one has
    no neighbour in mask and the others are independent."""
    ind = [True] * (1 << len(nbr))
    for mask in range(1, len(ind)):
        low = mask & -mask
        rest = mask ^ low
        ind[mask] = ind[rest] and not nbr[low.bit_length() - 1] & rest
    return ind


@functools.cache
def _large_subsets(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every subset of n vertices with at least 4 members, as its mask and
    its members (0-based)."""
    return tuple(
        (mask, tuple(v for v in range(n) if mask >> v & 1))
        for mask in range(1 << n) if mask.bit_count() >= 4
    )


def brute_is_chordal(g: Graph) -> bool:
    """No induced cycle on 4 or more vertices, checked subset by subset: a
    subset is one when each member has exactly two neighbours in it and it
    is connected."""
    nbr = _neighbour_masks(g)
    for mask, members in _large_subsets(g.n):
        if any((nbr[v] & mask).bit_count() != 2 for v in members):
            continue
        # 2-regular induced subgraph; connected means a single cycle
        seen, frontier = 0, mask & -mask
        while frontier:
            seen |= frontier
            step = 0
            for v in members:
                if frontier >> v & 1:
                    step |= nbr[v]
            frontier = step & mask & ~seen
        if seen == mask:
            return False
    return True


def reference_lex_bfs_order(g: Graph) -> tuple[int, ...]:
    """Lexicographic BFS visit order, ties to the smallest vertex, by
    partition refinement that splits every cell at every visit: the order
    graphs.lex_bfs_order and is_chordal must keep."""
    cells = [(1 << g.n) - 1]
    order: list[int] = []
    while cells:
        low = cells[0] & -cells[0]
        order.append(low.bit_length())
        cells[0] ^= low
        nb = g.nbrs[order[-1] - 1]
        cells = [part for cell in cells for part in (cell & nb, cell & ~nb) if part]
    return tuple(order)


def reference_masks(a: np.ndarray) -> tuple[int, ...]:
    """Neighbour masks of the boolean matrix a, each row's slice of the
    packed bytes read as a little-endian int."""
    n, width = len(a), (len(a) + 7) // 8
    raw = np.packbits(a, axis=1, bitorder="little").tobytes()
    return tuple(int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(n))


def brute_closed_cliques(lo: Graph, hi: Graph) -> frozenset[int]:
    """Vertices v whose closed lo-neighbourhood is a hi-clique, checked
    vertex by vertex and pair by pair on the edge sets; with lo = hi these
    are the simplicial vertices."""
    closed = {v: {v} for v in lo.vertices}
    for i, j in lo.edges:
        closed[i].add(j)
        closed[j].add(i)
    return frozenset(
        v for v in lo.vertices
        if all(pair in hi.edges for pair in itertools.combinations(sorted(closed[v]), 2))
    )


def brute_alpha(g: Graph) -> int:
    ind = _independent_table(_neighbour_masks(g))
    return max(mask.bit_count() for mask in range(len(ind)) if ind[mask])


def brute_chromatic(g: Graph) -> int:
    """Fewest independent sets whose union is every vertex; enough to try
    unions of maximal ones, since colour classes can be enlarged."""
    nbr = _neighbour_masks(g)
    ind = _independent_table(nbr)
    # closed[mask]: mask and its neighbours; an independent set is maximal
    # when that is every vertex
    closed = [0] * len(ind)
    for mask in range(1, len(ind)):
        low = mask & -mask
        closed[mask] = closed[mask ^ low] | low | nbr[low.bit_length() - 1]
    full = len(ind) - 1
    maximal = [m for m in range(1, len(ind)) if ind[m] and closed[m] == full]
    reach = {0}
    for k in range(1, g.n + 1):
        reach = {r | s for r in reach for s in maximal}
        if full in reach:
            return k
    return g.n


def brute_edge_clique_cover(g: Graph) -> int:
    """Smallest set of cliques covering every vertex and every edge."""
    nbr = _neighbour_masks(g)
    n = g.n
    # every clique (bit v - 1 for vertex v) with the vertices adjacent to
    # all of its members, built by adding vertices in increasing order: a
    # clique takes v exactly when v is adjacent to all of its members. A
    # clique is maximal when no vertex is adjacent to all of its members.
    # Each clique also keeps its rows: bit (v - 1) * n for each member v
    cliques = [(0, (1 << n) - 1, 0)]
    for v in range(n):
        cliques += [(mask | 1 << v, common & nbr[v], rows | 1 << v * n)
                    for mask, common, rows in cliques if common >> v & 1]
    # each maximal clique as an n x n grid of bits, bit u * n + w set when
    # u and w (0-based, u == w included) are both in it: the clique's mask
    # in each of its rows, so a set of cliques covers every vertex and
    # every edge when the OR of their grids is the grid of the closed
    # neighbourhoods
    maximal = [mask * rows for mask, common, rows in cliques if not common]
    everything = sum((nbr[v] | 1 << v) << (v * n) for v in range(n))
    # ecc can exceed n (complete bipartite), but never the number of
    # maximal cliques: taking all of them is always a cover
    for count in range(1, len(maximal) + 1):
        for combo in itertools.combinations(maximal, count):
            if functools.reduce(operator.or_, combo) == everything:
                return count
    return len(maximal)


def brute_chordal_sandwich(lo: Graph, hi: Graph) -> Optional[Graph]:
    """A chordal graph between lo and hi, by adding every set of the free
    edges (those of hi missing from lo) in turn, fewest first; None when no
    such graph is chordal. For n <= 7 and a handful of free edges."""
    free = sorted(hi.edges - lo.edges)
    for k in range(len(free) + 1):
        for extra in itertools.combinations(free, k):
            g = Graph.from_edges(lo.n, sorted(lo.edges) + list(extra))
            if brute_is_chordal(g):
                return g
    return None


def two_clique_unions(n: int) -> Iterator[Graph]:
    """Every graph that is a union of at most two cliques covering n vertices."""
    verts = list(range(1, n + 1))
    seen = set()
    subsets = []
    for size in range(n + 1):
        subsets.extend(itertools.combinations(verts, size))
    for s1 in subsets:
        for s2 in subsets:
            if set(s1) | set(s2) != set(verts):
                continue
            edges = frozenset(
                tuple(sorted(p))
                for s in (s1, s2)
                for p in itertools.combinations(s, 2)
            )
            if edges in seen:
                continue
            seen.add(edges)
            yield Graph.from_edges(n, list(edges))


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_chordal(n: int, rng: np.random.Generator,
                   p: Optional[float] = None) -> Graph:
    """G(n, p) plus elimination fill-in along a random vertex order."""
    if p is None:
        p = float(rng.uniform(0.2, 0.7))
    order = list(rng.permutation(np.arange(1, n + 1)))
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in random_graph(n, p, rng).edges:
        adj[i].add(j)
        adj[j].add(i)
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        for a, b in itertools.combinations(later, 2):
            adj[a].add(b)
            adj[b].add(a)
    edges = [(i, j) for i in adj for j in adj[i] if i < j]
    return Graph.from_edges(n, edges)


def random_conforming_psd(g: Graph, rng: np.random.Generator,
                          complex_entries: bool = True) -> np.ndarray:
    """Random PSD matrix whose off-diagonal support sits inside g's cliques."""
    from loccgraph import maximal_cliques

    m = np.zeros((g.n, g.n), dtype=complex)
    for clique in maximal_cliques(g):
        members = sorted(clique)
        k = len(members)
        x = rng.normal(size=(k, k))
        if complex_entries:
            x = x + 1j * rng.normal(size=(k, k))
        block = x @ x.conj().T
        for a, u in enumerate(members):
            for b, v in enumerate(members):
                m[u - 1, v - 1] += block[a, b]
    return m


def _product_set(g: Graph, m: np.ndarray):
    """Orthonormal product set whose measuring side has Gram matrix m, scaled
    to unit diagonal, and whose listening side overlaps exactly on the
    complement of g; None when m is too close to singular or to g's pattern
    losing an edge."""
    from loccgraph import ProductStateSet, complement
    from loccgraph.minrank import vectors_from_gram

    n = g.n
    d = np.sqrt(np.real(np.diag(m)))
    if d.min() < 1e-3:
        return None
    m = m / np.outer(d, d)
    np.fill_diagonal(m, 1.0)
    edge_mags = [abs(m[i - 1, j - 1]) for i, j in g.edges]
    if edge_mags and min(edge_mags) < 1e-4:
        return None
    if np.linalg.eigvalsh(m)[0] < 1e-6:
        return None
    x = vectors_from_gram(m)
    gbar = complement(g)
    adj = np.zeros((n, n))
    for i, j in gbar.edges:
        adj[i - 1, j - 1] = adj[j - 1, i - 1] = 1.0
    degmax = adj.sum(axis=1).max()
    t = 0.9 / max(1.0, degmax)
    w, v = np.linalg.eigh(np.eye(n) + t * adj)
    bob = (v * np.sqrt(w)) @ v.T
    states = ProductStateSet.from_vectors(list(x.T), list(bob.T))
    graphs = states.build_graphs()
    if graphs.alice == g and graphs.bob == gbar:
        return states
    return None


def random_product_instance(n: int, rng: np.random.Generator):
    """Orthonormal product set whose measuring-side overlap graph is a random
    chordal graph of full rank; returns (states, graph).

    The listening side realizes exactly the complementary overlaps, so the
    admissible supports are precisely the cliques of the returned graph.
    """
    for _ in range(60):
        g = random_chordal(n, rng)
        states = _product_set(g, random_conforming_psd(g, rng))
        if states is not None:
            return states, g
    raise RuntimeError(f"no usable random instance at n={n}")


def random_nonchordal_instance(n: int, rng: np.random.Generator):
    """Like random_product_instance, on a random non-chordal graph g.

    For half the draws, at random, the Gram matrix comes from
    random_conforming_psd, so it splits over the cliques of g. The others
    are I plus a random Hermitian matrix on the edges of g, scaled so that
    the smallest eigenvalue is between 0.001 and 0.05; many of those split
    over no set of cliques of g.
    """
    for _ in range(200):
        g = random_graph(n, float(rng.uniform(0.3, 0.7)), rng)
        if brute_is_chordal(g):
            continue
        if rng.random() < 0.5:
            m = random_conforming_psd(g, rng)
        else:
            h = np.zeros((n, n), dtype=complex)
            for i, j in g.edges:
                h[i - 1, j - 1] = rng.normal() + 1j * rng.normal()
            h = h + h.conj().T
            lowest = np.linalg.eigvalsh(h)[0]  # negative: h has zero trace
            m = np.eye(n) + h * (1 - float(rng.uniform(1e-3, 0.05))) / -lowest
        states = _product_set(g, m)
        if states is not None:
            return states, g
    raise RuntimeError(f"no usable non-chordal instance at n={n}")


def random_dominant_instance(n: int, rng: np.random.Generator):
    """Like random_nonchordal_instance, with a Gram matrix I + h that is
    strictly diagonally dominant: h is a random Hermitian matrix on the
    edges of g, scaled so that its largest absolute row sum is between 0.2
    and 0.9."""
    for _ in range(200):
        g = random_graph(n, float(rng.uniform(0.3, 0.7)), rng)
        if brute_is_chordal(g):
            continue
        h = np.zeros((n, n), dtype=complex)
        for i, j in g.edges:
            h[i - 1, j - 1] = rng.normal() + 1j * rng.normal()
        h = h + h.conj().T
        m = np.eye(n) + h * float(rng.uniform(0.2, 0.9)) / np.abs(h).sum(axis=1).max()
        states = _product_set(g, m)
        if states is not None:
            return states, g
    raise RuntimeError(f"no usable diagonally dominant instance at n={n}")


# every built-in family at the sizes the soundness sweep decides in both
# directions
SWEEP_SPECS = {
    "example1": ["example1"],
    "example2": ["example2"],
    "example3": ["example3"],
    "example4": ["example4"],
    "pentagon-path": ["pentagon-path"],
    "bennett": ["bennett"],
    "bennett-subset": ["bennett-subset:2,8,6,4,9"],
    "tiles": ["tiles"],
    "bullseye": ["bullseye:5", "bullseye:9", "bullseye:15"],
    "bullseye-recursive": ["bullseye-recursive:5", "bullseye-recursive:7"],
    "cycle-rep": ["cycle-rep:6", "cycle-rep:8"],
    "path-rep": ["path-rep:8", "path-rep:14", "path-rep:20"],
}


def greedy_integer_set(d: int, n: int, rng: np.random.Generator,
                       draws: int = 2000, bob_values=(0, 1, -1)):
    """Orthogonal product set in C^d x C^d with {0, +1, -1} vectors, built
    greedily: each draw takes a random pair of nonzero vectors from the pool
    and keeps it when, against every kept state, it is orthogonal on at
    least one side. Returns the normalised set of the first n kept states,
    or None when the draws run out first.

    Unlike the sets above, its measuring side is often rank-deficient
    (n > d) and its Gram entries are small integers over norms, so it
    reaches rungs that the full-rank generators miss. Bob's entries come
    from bob_values; with (0, 1) his vectors overlap unless their supports
    are disjoint, so many pairs are orthogonal on both sides.
    """
    from loccgraph import ProductStateSet

    def pool(values):
        return np.array(
            [v for v in itertools.product(values, repeat=d) if any(v)], dtype=float
        )

    pool_a, pool_b = pool((0, 1, -1)), pool(bob_values)
    alice: list[np.ndarray] = []
    bob: list[np.ndarray] = []
    for _ in range(draws):
        i, j = rng.integers((len(pool_a), len(pool_b)))
        a, b = pool_a[i], pool_b[j]
        if all(a @ x == 0 or b @ y == 0 for x, y in zip(alice, bob)):
            alice.append(a)
            bob.append(b)
            if len(alice) == n:
                return ProductStateSet.from_vectors(alice, bob)
    return None


def integer_corpus(seeds, draws: int = 40):
    """The greedy_integer_set corpus: per seed, from one default_rng(seed),
    each draw takes d in 3..5 and n in 5..12, with Bob's entries in
    (0, 1, -1) on even draws and (0, 1) on odd ones. Yields (seed, draw,
    set) for each draw that found a set."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for draw in range(draws):
            d, n = int(rng.integers(3, 6)), int(rng.integers(5, 13))
            s = greedy_integer_set(d, n, rng, bob_values=(0, 1, -1) if draw % 2 == 0 else (0, 1))
            if s is not None:
                yield seed, draw, s


def equal_overlap_set(alice_overlap: float, bob_overlap: float, d: int = 3):
    """d product states in C^d x C^d whose Alice parts overlap pairwise by
    alice_overlap and Bob parts by bob_overlap. With Bob's overlap just
    above zero_tol and the product under it, the set is orthonormal and
    independent in the host, yet its Alice parts overlap far from zero."""
    from loccgraph import ProductStateSet

    def parts(c):
        w, v = np.linalg.eigh((1 - c) * np.eye(d) + c * np.ones((d, d)))
        return v @ np.diag(np.sqrt(w)) @ v.T

    return ProductStateSet.from_vectors(parts(alice_overlap), parts(bob_overlap))


# sets of greedy_integer_set's kind that reach rungs no family reaches, as
# {name: (direction, kind, alice vectors, bob vectors)}; from_vectors
# normalises them
PINNED_SETS = {
    "sandwich": (
        "alice-first", "ChordalSandwich",
        [(1, 1, 0, 0), (1, -1, 1, 1), (1, -1, -1, -1), (0, 0, -1, 1), (-1, -1, -1, 1),
         (-1, 1, -1, -1), (-1, -1, 1, -1), (1, -1, -1, -1), (1, -1, -1, -1)],
        [(1, -1, 1, 1), (1, 1, 0, 1), (-1, 0, 1, -1), (1, -1, 1, 1), (1, 0, -1, 0),
         (0, 1, 1, -1), (0, 1, 0, 1), (1, -1, 0, -1), (1, 1, 1, 0)],
    ),
    "alpha-chi": (
        "alice-first", "AlphaLessThanChi",
        [(1, 0, 1), (0, -1, -1), (0, 1, -1), (-1, -1, 1), (1, -1, -1)],
        [(0, 1, 1), (1, -1, 1), (1, 0, 0), (0, 0, -1), (1, 1, 0)],
    ),
    "bob-complement": (
        "bob-first", "ChordalBobComplement",
        [(1, -1, 0, -1, 0), (0, 0, 1, 0, 0), (1, 0, -1, -1, -1), (-1, 0, 0, -1, 1),
         (1, -1, 0, 1, 0), (-1, -1, 0, 0, -1)],
        [(-1, 0, 0, 1, -1), (-1, -1, 1, -1, -1), (1, 1, 1, 0, -1), (-1, 1, 0, 0, 0),
         (-1, -1, 1, 0, 1), (-1, 1, 1, 0, -1)],
    ),
    # q7 and g4 have pairs orthogonal on both sides, so the host is larger
    # than Alice's overlap graph: the host has no simplicial vertex, yet
    # each is distinguishable alice-first (q7: Alice measures |+>, |->,
    # |2>), so MinDimNoSimplicial must not fire on them
    "q7": (
        "alice-first", "ChordalSandwich",
        [(1, 0, 0), (1, 1, 0), (0, 1, 0), (1, -1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1)],
        [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1),
         (0, 0, 1, 0), (0, 0, 1, 0)],
    ),
    "g4": (
        "alice-first", "ChordalSandwich",
        [(0, -1, -1, -1), (-1, 0, -1, 1), (1, 1, 0, 1), (-1, -1, 1, 0), (-1, 0, -1, 1),
         (0, 0, 1, 0), (1, -1, 0, 1), (-1, 1, 0, -1)],
        [(1, -1, 0, -1), (-1, 0, 0, 1), (1, 0, 0, 1), (-1, 1, 0, 1), (-1, -1, 0, -1),
         (0, 0, 1, 0), (0, 0, 1, 0), (0, -1, 0, 0)],
    ),
    # greedy_integer_set(4, n, default_rng(17), bob_values=(0, 1)), draw 18:
    # at minimum dimension (d_eff = chi = 4) no graph between Alice's
    # overlap graph and the strictly larger host is chordal, yet the set is
    # distinguishable bob-first, so NonChordalSandwichAtMinDim must not fire
    "host-sandwich": (
        "bob-first", "FeasibleDecomposition",
        [(1, -1, -1, 0), (-1, -1, -1, 0), (0, 1, -1, 1), (0, 1, -1, 1), (1, 0, -1, -1),
         (-1, -1, 0, 1), (-1, 1, 0, -1), (-1, 0, -1, -1), (-1, -1, 0, 1), (-1, 0, 1, 1)],
        [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0),
         (0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)],
    ),
}

# rank-deficient sets (n > d_eff) on which a convex search over n x n Gram
# splittings, blind to the kernel of the Gram matrix, stalled (S1
# bob-first) or returned a splitting outside the range of Alice's frame
# (S2 alice-first), as {name: (alice vectors, bob vectors, {direction:
# kind})}; from_vectors normalises them
FACE_SETS = {
    "S1": (
        [(1, 1, 0, 1), (1, 1, 0, 1), (1, 0, 0, -1), (1, -1, 0, 0), (0, 0, 1, 0)],
        [(1, -1, 1, 0), (1, 1, 0, 1), (1, -1, -1, -1), (1, 0, 1, 0), (0, 0, 1, -1)],
        {"alice-first": "ChordalAliceGraph", "bob-first": "FeasibleDecomposition"},
    ),
    "S2": (
        [(1, 0, 1, -1), (-1, -1, 0, -1), (0, -1, -1, 1), (0, 1, 1, 1), (1, 1, -1, 0),
         (1, -1, 0, 1)],
        [(-1, 0, 1, -1), (0, 1, 1, 0), (1, 0, 0, -1), (0, 1, -1, 0), (-1, 0, 0, 1),
         (-1, 0, 0, -1)],
        {"alice-first": "FeasibleDecomposition", "bob-first": "ChordalAliceGraph"},
    ),
}

# a qubit measuring side whose host is covered by the two host cliques
# {1,2,3,5} and {1,3,4,6}: alice-first, their union is a chordal sandwich
QUBIT_COVER = (
    [(1, 0), (1, 1), (0, 1), (1, -1), (1, 1), (1, -1)],
    [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 1, 0)],
)

# a valid set whose 4 x 8 Alice frame numpy's SVD (OpenBLAS) does not
# factor, though it factors the conjugate transpose; alice-first it is
# ChordalAliceGraph
SVD_SET = (
    [(-1, -1, 1, -1), (1, 1, -1, 0), (1, 0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 0),
     (0, 0, 0, -1), (-1, -1, 1, 0), (0, 0, 0, -1)],
    [(-1, -1, -1, 0), (0, -1, 1, 1), (-1, 1, 1, 1), (-1, -1, 1, -1), (-1, 0, -1, 0),
     (-1, 1, 0, 1), (1, -1, 0, -1), (0, -1, 1, 1)],
)


def pinned_set(name: str):
    """The named PINNED_SETS entry as (states, direction, kind)."""
    from loccgraph import ProductStateSet

    direction, kind, alice, bob = PINNED_SETS[name]
    return ProductStateSet.from_vectors(alice, bob), direction, kind


def face_set(name: str):
    """The named FACE_SETS entry as (states, {direction: kind})."""
    from loccgraph import ProductStateSet

    alice, bob, kinds = FACE_SETS[name]
    return ProductStateSet.from_vectors(alice, bob), kinds


def splitting(n: int, pieces, residual: float = 0.0) -> Decomposition:
    """A Decomposition of n states from (support, vector) pairs."""
    supports = [frozenset(support) for support, _ in pieces]
    vectors = np.array([np.asarray(v, dtype=complex) for _, v in pieces]).reshape(-1, n)
    return Decomposition(vectors, support_mask(supports, n), residual)


def reference_lift(states, dec):
    """synthesize_protocol as first written: the whole eigendecomposition of
    I minus the lifted pieces, every direction above zero_tol appended to
    the last outcome, and each POVM array a concatenated copy."""
    from loccgraph.linalg import DEFAULT_TOL as tol, eigh_desc, svd_preimage
    from loccgraph.locc import Povm, Protocol, _bob_plans, outcome_numbers

    phis, mus = svd_preimage(states.alice_frame(), states.alice_svd(tol), dec.vectors.T, tol)
    outcomes, firsts = outcome_numbers(dec.supports)
    weights = mus ** 2
    w, v = eigh_desc(np.eye(states.d_alice) - (phis * weights) @ phis.conj().T)
    fill = w > tol.zero_tol
    extra = int(fill.sum())
    povm = Povm(
        np.concatenate([phis.T, v[:, fill].T]),
        np.concatenate([weights, w[fill]]),
        np.concatenate([outcomes, np.repeat(outcomes[-1:], extra)]),
        np.concatenate([dec.supports, np.repeat(dec.supports[-1:], extra, axis=0)]),
    )
    return Protocol(povm, *_bob_plans(states, dec.supports[firsts], tol))


def reference_greedy_clique_cover(g: Graph) -> tuple[frozenset[int], ...]:
    """graphs.greedy_clique_cover as first written: each candidate common
    neighbour scored by a max over its bits, most uncovered edges closed
    first, then the lowest vertex."""
    from loccgraph.graphs import _bits

    left = list(g.nbrs)
    cover: list[frozenset[int]] = []
    for v in g.vertices:
        if not g.nbrs[v - 1]:
            cover.append(frozenset({v}))
        while left[v - 1]:
            w = (left[v - 1] & -left[v - 1]).bit_length()
            clique = 1 << (v - 1) | 1 << (w - 1)
            common = g.nbrs[v - 1] & g.nbrs[w - 1]
            while common:
                u = max(
                    _bits(common),
                    key=lambda u: ((left[u - 1] & clique).bit_count(), -u),
                )
                if not left[u - 1] & clique:
                    break
                clique |= 1 << (u - 1)
                common &= g.nbrs[u - 1]
            for u in _bits(clique):
                left[u - 1] &= ~clique
            cover.append(frozenset(_bits(clique)))
    return tuple(cover)


def reference_dominance_split(m: np.ndarray, g: Graph, x: np.ndarray, groups):
    """decomposition.dominance_split as first written: the edges read from
    g.edge_list() and each group made a frozenset."""
    from loccgraph.decomposition import comparison_matrix

    m = np.asarray(m, dtype=complex)
    n = g.n
    x = np.asarray(x, dtype=float)
    member = support_mask([frozenset(s) for s in groups], n)
    i, j = np.array(g.edge_list(), dtype=int).reshape(-1, 2).T - 1
    rows = len(i)
    vectors = np.zeros((rows + n, n), dtype=complex)
    mag = np.abs(m[i, j])
    head = np.sqrt(mag * x[j] / x[i])
    vectors[np.arange(rows), i] = head
    vectors[np.arange(rows), j] = m[i, j].conj() / head
    rest = comparison_matrix(m, g) @ x / x
    vectors[rows + np.arange(n), np.arange(n)] = np.sqrt(np.maximum(rest, 0.0))
    holds = np.concatenate([member[:, i] & member[:, j], member], axis=1)
    owner = np.argmax(holds, axis=0)
    residual = float(np.linalg.norm(m - vectors.T @ vectors.conj()))
    return Decomposition(vectors, member[owner], residual)


def reference_simulation(states, protocol) -> dict:
    """The protocol run element by element, straight from its definition:
    state i fires element e with probability w_e |<d_e, a_i>|^2; an element
    whose support misses i leaks that probability; Bob, told the outcome,
    finds i with probability |<b, b_i>|^2 summed over the columns b of that
    outcome labelled with i, and only an outcome one of whose elements
    declares i counts. Completeness is the largest eigenvalue of
    |sum_e w_e d_e d_e* - I|."""
    povm = protocol.alice
    elements, plans = povm.elements, protocol.bob
    success, leakage = {}, 0.0
    for i, label in enumerate(states.labels):
        a, b = states.alice[i], states.bob[i]
        total = 0.0
        for outcome in sorted({e.outcome for e in elements}):
            fired = 0.0
            declared = False
            for e in elements:
                if e.outcome != outcome:
                    continue
                p = e.weight * abs(np.vdot(e.direction, a)) ** 2
                fired += p
                if i + 1 in e.support:
                    declared = True
                else:
                    leakage = max(leakage, p)
            found = 0.0
            for plan in plans:
                if plan.outcome != outcome:
                    continue
                for column, owner in zip(plan.basis.T, plan.labels):
                    if owner == label:
                        found += abs(np.vdot(column, b)) ** 2
            if declared:
                total += fired * found
        success[label] = total
    operator_sum = sum(
        (e.weight * np.outer(e.direction, e.direction.conj()) for e in elements),
        np.zeros((povm.dim, povm.dim), dtype=complex),
    )
    deviation = float(np.abs(np.linalg.eigvalsh(operator_sum - np.eye(povm.dim))).max())
    return {
        "per_state": success,
        "min_success": min(success.values()),
        "completeness_deviation": deviation,
        "max_support_leakage": leakage,
    }
