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
    # clique[mask]: the vertices of mask (bit v - 1 for vertex v) are
    # pairwise adjacent, i.e. the lowest one is adjacent to all the others
    # and the others form a clique
    clique = [True] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        clique[mask] = clique[rest] and rest & ~nbr[low.bit_length() - 1] == 0
    # each maximal clique as one mask: a bit per vertex it holds, then a bit
    # per edge it holds, so a set of cliques covers when the OR is all ones
    edge_pairs = sorted(g.edges)
    maximal = []
    for mask in range(1, 1 << n):
        if not clique[mask] or any(
            not mask >> k & 1 and clique[mask | 1 << k] for k in range(n)
        ):
            continue
        edges = sum(
            1 << k for k, (i, j) in enumerate(edge_pairs)
            if mask >> (i - 1) & 1 and mask >> (j - 1) & 1
        )
        maximal.append(mask | edges << n)
    everything = (1 << (n + len(edge_pairs))) - 1
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
                       draws: int = 2000):
    """Orthogonal product set in C^d x C^d with {0, +1, -1} vectors, built
    greedily: each draw takes a random pair of nonzero vectors from the pool
    and keeps it when, against every kept state, it is orthogonal on at
    least one side. Returns the normalised set of the first n kept states,
    or None when the draws run out first.

    Unlike the sets above, its measuring side is often rank-deficient
    (n > d) and its Gram entries are small integers over norms, so it
    reaches rungs that the full-rank generators miss.
    """
    from loccgraph import ProductStateSet

    pool = np.array(
        [v for v in itertools.product((0, 1, -1), repeat=d) if any(v)], dtype=float
    )
    alice: list[np.ndarray] = []
    bob: list[np.ndarray] = []
    for _ in range(draws):
        a, b = pool[rng.integers(len(pool), size=2)]
        if all(a @ x == 0 or b @ y == 0 for x, y in zip(alice, bob)):
            alice.append(a)
            bob.append(b)
            if len(alice) == n:
                return ProductStateSet.from_vectors(alice, bob)
    return None


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

# a qubit measuring side whose host has a two-clique cover: it reaches the
# distinguishable SingleQubitSandwich rung alice-first
QUBIT_COVER = (
    [(1, 0), (1, 1), (0, 1), (1, -1), (1, 1), (1, -1)],
    [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 1, 0)],
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
