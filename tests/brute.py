"""Independent brute-force oracles and random instance generators.

Everything here is written against the definitions, not the library
algorithms: subset enumeration with bitmasks, no elimination orderings, no
branch and bound. Slow on purpose; only used at tiny sizes.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

import numpy as np

from loccgraph import Graph


def all_graphs(n: int) -> Iterator[Graph]:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        yield Graph.from_edges(n, edges)


def _adj_masks(g: Graph) -> list[int]:
    adj = [0] * (g.n + 1)
    for i, j in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _is_clique_mask(mask: int, adj: list[int], n: int) -> bool:
    members = [v for v in range(1, n + 1) if mask >> v & 1]
    return all(adj[u] >> v & 1 for u, v in itertools.combinations(members, 2))


def brute_is_chordal(g: Graph) -> bool:
    """No induced cycle on 4 or more vertices, checked subset by subset."""
    adj = _adj_masks(g)
    verts = list(range(1, g.n + 1))
    for size in range(4, g.n + 1):
        for subset in itertools.combinations(verts, size):
            inside = set(subset)
            degs = [sum(1 for u in subset if adj[v] >> u & 1) for v in subset]
            if any(d != 2 for d in degs):
                continue
            # 2-regular induced subgraph; connected means a single cycle
            seen = {subset[0]}
            frontier = [subset[0]]
            while frontier:
                v = frontier.pop()
                for u in subset:
                    if u not in seen and adj[v] >> u & 1:
                        seen.add(u)
                        frontier.append(u)
            if len(seen) == size:
                return False
    return True


def brute_alpha(g: Graph) -> int:
    adj = _adj_masks(g)
    best = 0
    for mask in range(1 << g.n):
        members = [v for v in range(1, g.n + 1) if mask >> (v - 1) & 1]
        if len(members) <= best:
            continue
        if all(not (adj[u] >> v & 1) for u, v in itertools.combinations(members, 2)):
            best = len(members)
    return best


def brute_chromatic(g: Graph) -> int:
    if not g.edges:
        return 1 if g.n else 0
    adj = _adj_masks(g)

    def colorable(k: int) -> bool:
        color = [0] * (g.n + 1)

        def go(v: int) -> bool:
            if v > g.n:
                return True
            for c in range(1, k + 1):
                if any(adj[v] >> u & 1 and color[u] == c for u in range(1, v)):
                    continue
                color[v] = c
                if go(v + 1):
                    return True
                color[v] = 0
            return False

        return go(1)

    for k in range(2, g.n + 1):
        if colorable(k):
            return k
    return g.n


def brute_edge_clique_cover(g: Graph) -> int:
    """Smallest set of cliques covering every vertex and every edge."""
    adj = _adj_masks(g)
    n = g.n
    maximal = []
    for mask in range(1, 1 << n):
        bits = mask << 1  # shift to 1-based vertex bits
        if not _is_clique_mask(bits, adj, n):
            continue
        grown = any(
            v for v in range(1, n + 1)
            if not bits >> v & 1 and _is_clique_mask(bits | 1 << v, adj, n)
        )
        if not grown:
            maximal.append(mask)
    all_vertices = (1 << n) - 1
    edge_pairs = sorted(g.edges)
    # ecc can exceed n (complete bipartite), but never the number of
    # maximal cliques: taking all of them is always a cover
    for count in range(1, len(maximal) + 1):
        for combo in itertools.combinations(maximal, count):
            covered = 0
            for m in combo:
                covered |= m
            if covered != all_vertices:
                continue
            ok = all(
                any(m >> (i - 1) & 1 and m >> (j - 1) & 1 for m in combo)
                for i, j in edge_pairs
            )
            if ok:
                return count
    return len(maximal)


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


def random_product_instance(n: int, rng: np.random.Generator):
    """Orthonormal product set whose measuring-side overlap graph is a random
    chordal graph of full rank; returns (states, graph).

    The listening side realizes exactly the complementary overlaps, so the
    admissible supports are precisely the cliques of the returned graph.
    """
    from loccgraph import ProductStateSet, complement
    from loccgraph.minrank import vectors_from_gram

    for _ in range(60):
        g = random_chordal(n, rng)
        m = random_conforming_psd(g, rng)
        d = np.sqrt(np.real(np.diag(m)))
        if d.min() < 1e-3:
            continue
        m = m / np.outer(d, d)
        np.fill_diagonal(m, 1.0)
        edge_mags = [abs(m[i - 1, j - 1]) for i, j in g.edges]
        if edge_mags and min(edge_mags) < 1e-4:
            continue
        if np.linalg.eigvalsh(m)[0] < 1e-6:
            continue
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
            return states, g
    raise RuntimeError(f"no usable random instance at n={n}")


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
