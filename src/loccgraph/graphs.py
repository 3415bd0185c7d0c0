"""Undirected graphs on vertices 1..n with certificate-carrying algorithms.

Everything here is deterministic: ties are broken by vertex index, witnesses
are reproducible, and every nontrivial answer (orderings, holes, independent
sets, colorings, covers) is returned so callers can re-verify it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import InvalidInput, SearchBudgetExceeded


def _norm_edge(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise InvalidInput(f"self-loop at vertex {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; vertices are 1..n, edges unordered pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput("graph needs at least one vertex")
        for i, j in self.edges:
            if not (1 <= i < j <= self.n):
                raise InvalidInput(f"edge ({i},{j}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        return cls(n, frozenset(_norm_edge(int(i), int(j)) for i, j in edges))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_edge(self, i: int, j: int) -> bool:
        return _norm_edge(i, j) in self.edges if i != j else False

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degree_sequence(self) -> tuple[int, ...]:
        adj = self.adjacency()
        return tuple(sorted(len(adj[v]) for v in self.vertices))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidInput("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def complement(g: Graph) -> Graph:
    full = {(i, j) for i in g.vertices for j in range(i + 1, g.n + 1)}
    return Graph(g.n, frozenset(full - set(g.edges)))


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    vs = sorted(set(vertices))
    return all(g.has_edge(a, b) for idx, a in enumerate(vs) for b in vs[idx + 1:])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph relabeled to 1..k; second item maps new index-1 to old."""
    keep = tuple(sorted(set(vertices)))
    if not keep:
        raise InvalidInput("induced subgraph needs at least one vertex")
    pos = {v: i + 1 for i, v in enumerate(keep)}
    edges = [(pos[i], pos[j]) for i, j in g.edges if i in pos and j in pos]
    return Graph.from_edges(len(keep), edges), keep


def _neighbour_masks(g: Graph) -> list[int]:
    """Bit w-1 of entry v is set when w is adjacent to v; entry 0 is unused."""
    nbr_mask = [0] * (g.n + 1)
    for i, j in g.edges:
        nbr_mask[i] |= 1 << (j - 1)
        nbr_mask[j] |= 1 << (i - 1)
    return nbr_mask


def _bits(mask: int):
    """Vertices whose bits are set in mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood induces a clique."""
    nbr_mask = _neighbour_masks(g)
    # N(v) is a clique when each neighbour w sees the rest of N(v)
    return frozenset(
        v for v in g.vertices
        if all(
            (nbr_mask[v] & ~nbr_mask[w]) == 1 << (w - 1) for w in _bits(nbr_mask[v])
        )
    )


# ---------------------------------------------------------------------------
# chordality


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    ordering: Optional[tuple[int, ...]]
    hole: Optional[tuple[int, ...]]


def lex_bfs_order(g: Graph) -> tuple[int, ...]:
    """Lexicographic BFS visit order; ties go to the smallest vertex."""
    adj = g.adjacency()
    labels: dict[int, tuple[int, ...]] = {v: () for v in g.vertices}
    unvisited = set(g.vertices)
    order: list[int] = []
    for t in range(g.n):
        v = max(unvisited, key=lambda u: (labels[u], -u))
        order.append(v)
        unvisited.remove(v)
        stamp = g.n - t
        for w in adj[v]:
            if w in unvisited:
                labels[w] = labels[w] + (stamp,)
    return tuple(order)


def is_perfect_elimination_ordering(g: Graph, order: Sequence[int]) -> bool:
    """Full pairwise check that later neighborhoods are cliques."""
    if sorted(order) != list(g.vertices):
        return False
    pos = {v: i for i, v in enumerate(order)}
    adj = g.adjacency()
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if not is_clique(g, later):
            return False
    return True


def find_hole(g: Graph) -> Optional[tuple[int, ...]]:
    """Find a chordless cycle of length >= 4, scanning in vertex order.

    For each vertex v with two non-adjacent neighbors x, y we look for an
    x-y path avoiding the rest of N[v]; the shortest such path is induced,
    so closing it through v yields a hole.
    """
    adj = g.adjacency()
    for v in g.vertices:
        nbrs = sorted(adj[v])
        for ai, x in enumerate(nbrs):
            for y in nbrs[ai + 1:]:
                if y in adj[x]:
                    continue
                blocked = (adj[v] | {v}) - {x, y}
                path = _shortest_path_avoiding(adj, x, y, blocked)
                if path is not None:
                    return (v, *path)
    return None


def _shortest_path_avoiding(
    adj: dict[int, set[int]], src: int, dst: int, blocked: set[int]
) -> Optional[tuple[int, ...]]:
    parent: dict[int, int] = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        for w in sorted(adj[u]):
            if w in blocked or w in parent:
                continue
            parent[w] = u
            queue.append(w)
    return None


def is_chordal(g: Graph) -> ChordalityResult:
    """Lex-BFS ordering verified independently; a hole witnesses failure."""
    order = tuple(reversed(lex_bfs_order(g)))
    if is_perfect_elimination_ordering(g, order):
        return ChordalityResult(True, order, None)
    hole = find_hole(g)
    if hole is None:
        raise RuntimeError("ordering rejected but no hole found; inconsistent state")
    return ChordalityResult(False, None, hole)


# ---------------------------------------------------------------------------
# cliques and classic parameters


def maximal_cliques(g: Graph) -> tuple[frozenset[int], ...]:
    """Bron-Kerbosch with pivoting; output sorted for determinism."""
    adj = g.adjacency()
    out: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(g.vertices), set())
    return tuple(sorted(out, key=lambda c: sorted(c)))


def independence_number(g: Graph, budget: int = 40) -> tuple[int, frozenset[int]]:
    """Exact maximum independent set by branch and bound."""
    if g.n > budget:
        raise SearchBudgetExceeded(f"independence search limited to n <= {budget}")
    nbr_mask = _neighbour_masks(g)
    best_size = 0
    best_set = 0

    def expand(cand: int, size: int, picked: int):
        nonlocal best_size, best_set
        if size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            best_size, best_set = size, picked
            return
        v = max(_bits(cand), key=lambda u: ((cand & nbr_mask[u]).bit_count(), -u))
        vbit = 1 << (v - 1)
        expand(cand & ~nbr_mask[v] & ~vbit, size + 1, picked | vbit)
        expand(cand & ~vbit, size, picked)

    expand((1 << g.n) - 1, 0, 0)
    return best_size, frozenset(_bits(best_set))


def independent_set_of_size(
    g: Graph, k: int, node_budget: int
) -> Optional[frozenset[int]]:
    """Some independent set of exactly k vertices, or None when none exists.

    Depth-first search that branches on the candidate of lowest degree among
    the candidates and includes it first, so sparse regions fill the set
    greedily before any backtracking. A branch is cut once its candidates
    cannot reach k. Raises SearchBudgetExceeded after node_budget branch
    nodes without an answer either way.
    """
    nbr_mask = _neighbour_masks(g)
    stack = [((1 << g.n) - 1, 0, 0)]
    nodes = 0
    while stack:
        cand, size, picked = stack.pop()
        if size >= k:
            return frozenset(_bits(picked))
        if size + cand.bit_count() < k:
            continue
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"independent set search for size {k} limited to {node_budget} nodes"
            )
        v = min(_bits(cand), key=lambda u: ((cand & nbr_mask[u]).bit_count(), u))
        vbit = 1 << (v - 1)
        stack.append((cand & ~vbit, size, picked))
        stack.append((cand & ~nbr_mask[v] & ~vbit, size + 1, picked | vbit))
    return None


def _greedy_coloring(g: Graph) -> dict[int, int]:
    """DSATUR greedy colouring, colours numbered from 1."""
    adj = g.adjacency()
    color: dict[int, int] = {}
    saturation: dict[int, set[int]] = {v: set() for v in g.vertices}
    while len(color) < g.n:
        v = max(
            (u for u in g.vertices if u not in color),
            key=lambda u: (len(saturation[u]), len(adj[u]), -u),
        )
        c = 1
        while c in saturation[v]:
            c += 1
        color[v] = c
        for w in adj[v]:
            saturation[w].add(c)
    return color


def chromatic_number(g: Graph, budget: int = 40) -> tuple[int, dict[int, int]]:
    """Exact chromatic number with a proper colouring witness."""
    if g.n > budget:
        raise SearchBudgetExceeded(f"colouring search limited to n <= {budget}")
    if not g.edges:
        return 1, {v: 1 for v in g.vertices}
    omega, _ = independence_number(complement(g), budget)
    greedy = _greedy_coloring(g)
    upper = max(greedy.values())
    if upper == omega:
        return upper, greedy
    adj = g.adjacency()

    def try_k(k: int) -> Optional[dict[int, int]]:
        color: dict[int, int] = {}

        def rec() -> bool:
            if len(color) == g.n:
                return True
            v = max(
                (u for u in g.vertices if u not in color),
                key=lambda u: (
                    len({color[w] for w in adj[u] if w in color}),
                    len(adj[u]),
                    -u,
                ),
            )
            used = {color[w] for w in adj[v] if w in color}
            limit = min(k, (max(color.values()) if color else 0) + 1)
            for c in range(1, limit + 1):
                if c in used:
                    continue
                color[v] = c
                if rec():
                    return True
                del color[v]
            return False

        return dict(color) if rec() else None

    for k in range(omega, upper):
        witness = try_k(k)
        if witness is not None:
            return k, witness
    return upper, greedy


@dataclass(frozen=True)
class CliqueCover:
    cliques: tuple[frozenset[int], ...]

    def covers(self, g: Graph) -> bool:
        if any(not is_clique(g, c) for c in self.cliques):
            return False
        covered_vertices = set().union(*self.cliques) if self.cliques else set()
        if covered_vertices != set(g.vertices):
            return False
        return all(
            any(i in c and j in c for c in self.cliques) for i, j in g.edges
        )


@dataclass(frozen=True)
class CoverResult:
    count: int
    cover: CliqueCover
    exact: bool


def edge_clique_cover_number(
    g: Graph, exact_bound: int = 12, allow_heuristic: bool = False
) -> CoverResult:
    """Minimum number of cliques covering every edge and every vertex.

    Exact branch and bound over maximal cliques up to exact_bound vertices;
    beyond that a greedy cover is returned (flagged exact=False) when
    allow_heuristic is set, otherwise the search refuses.
    """
    adj = g.adjacency()
    isolated = tuple(sorted(v for v in g.vertices if not adj[v]))
    singletons = tuple(frozenset({v}) for v in isolated)
    edges = g.edge_list()
    if not edges:
        return CoverResult(len(singletons), CliqueCover(singletons), True)

    cliques = maximal_cliques(g)
    cliques = tuple(c for c in cliques if len(c) >= 2)
    edge_in = {
        e: tuple(ci for ci, c in enumerate(cliques) if e[0] in c and e[1] in c)
        for e in edges
    }

    def greedy() -> list[int]:
        uncovered = set(edges)
        chosen: list[int] = []
        while uncovered:
            ci = max(
                range(len(cliques)),
                key=lambda i: (
                    sum(1 for e in uncovered if e[0] in cliques[i] and e[1] in cliques[i]),
                    -i,
                ),
            )
            chosen.append(ci)
            uncovered = {
                e for e in uncovered if not (e[0] in cliques[ci] and e[1] in cliques[ci])
            }
        return chosen

    if g.n > exact_bound:
        if not allow_heuristic:
            raise SearchBudgetExceeded(
                f"exact edge clique cover limited to n <= {exact_bound}"
            )
        chosen = greedy()
        cover = CliqueCover(tuple(cliques[i] for i in chosen) + singletons)
        return CoverResult(len(chosen) + len(singletons), cover, False)

    best: list[int] = greedy()
    max_clique_edges = max(len(c) * (len(c) - 1) // 2 for c in cliques)

    def dfs(uncovered: frozenset[tuple[int, int]], chosen: list[int]):
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        need = (len(uncovered) + max_clique_edges - 1) // max_clique_edges
        if len(chosen) + need >= len(best):
            return
        target = min(uncovered, key=lambda e: (len(edge_in[e]), e))
        for ci in edge_in[target]:
            nxt = frozenset(
                e for e in uncovered if not (e[0] in cliques[ci] and e[1] in cliques[ci])
            )
            chosen.append(ci)
            dfs(nxt, chosen)
            chosen.pop()

    dfs(frozenset(edges), [])
    cover = CliqueCover(tuple(cliques[i] for i in sorted(set(best))) + singletons)
    return CoverResult(len(best) + len(singletons), cover, True)


def find_two_clique_cover(
    host: Graph, need_edges: Iterable[tuple[int, int]]
) -> Optional[tuple[frozenset[int], ...]]:
    """One or two maximal cliques of host covering all vertices and need_edges.

    Complete for the class of unions of at most two cliques: any such cover
    can be grown to maximal cliques without losing coverage.
    """
    need = [tuple(_norm_edge(*e)) for e in need_edges]
    cliques = maximal_cliques(host)
    all_vertices = set(host.vertices)

    def ok(parts: tuple[frozenset[int], ...]) -> bool:
        if set().union(*parts) != all_vertices:
            return False
        return all(any(i in c and j in c for c in parts) for i, j in need)

    for c in cliques:
        if ok((c,)):
            return (c,)
    for ai, c1 in enumerate(cliques):
        for c2 in cliques[ai + 1:]:
            if ok((c1, c2)):
                return (c1, c2)
    return None


# ---------------------------------------------------------------------------
# chordal sandwich


def chordal_sandwich(
    g_lo: Graph, g_hi: Graph, budget: int = 25
) -> Optional[Graph]:
    """A chordal graph G with g_lo <= G <= g_hi, or None when none exists.

    Branch and bound on hole chords: every admissible chordal graph must
    chord each hole of the current candidate, so branching over the hole's
    available chords is exhaustive.
    """
    if g_lo.n != g_hi.n:
        raise InvalidInput("sandwich endpoints need the same vertex count")
    if not g_lo.edges <= g_hi.edges:
        raise InvalidInput("lower graph must be a subgraph of the upper graph")
    if is_chordal(g_lo).chordal:
        return g_lo
    if is_chordal(g_hi).chordal:
        return g_hi
    free = g_hi.edges - g_lo.edges
    if len(free) > budget:
        raise SearchBudgetExceeded(
            f"sandwich search limited to {budget} free edges, got {len(free)}"
        )
    seen: set[frozenset[tuple[int, int]]] = set()

    def search(edges: frozenset[tuple[int, int]]) -> Optional[frozenset]:
        if edges in seen:
            return None
        seen.add(edges)
        res = is_chordal(Graph(g_lo.n, edges))
        if res.chordal:
            return edges
        hole = res.hole
        k = len(hole)
        chords = sorted(
            _norm_edge(hole[a], hole[b])
            for a in range(k)
            for b in range(a + 2, k)
            if not (a == 0 and b == k - 1)
        )
        for e in chords:
            if e in g_hi.edges and e not in edges:
                found = search(edges | {e})
                if found is not None:
                    return found
        return None

    result = search(g_lo.edges)
    return Graph(g_lo.n, result) if result is not None else None


# ---------------------------------------------------------------------------
# minimum rank bounds


@dataclass(frozen=True)
class EtaBounds:
    lower: int
    lower_witness: frozenset[int]
    upper: int
    upper_coloring: dict[int, int] = field(compare=False)
    certified: bool = False


def eta_plus_bounds(g: Graph, budget: int = 40) -> EtaBounds:
    """Outer bounds on the invertible-diagonal PSD minimum rank.

    Lower bound: independence number. Upper bound: chromatic number of the
    complement. Certified when they coincide.
    """
    lower, witness = independence_number(g, budget)
    upper, coloring = chromatic_number(complement(g), budget)
    return EtaBounds(lower, witness, upper, coloring, lower == upper)


# ---------------------------------------------------------------------------
# isomorphism


def _wl_colors(g: Graph) -> dict[int, int]:
    adj = g.adjacency()
    color = {v: len(adj[v]) for v in g.vertices}
    for _ in range(g.n):
        sig = {
            v: (color[v], tuple(sorted(color[w] for w in adj[v]))) for v in g.vertices
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in g.vertices}
        if new == color:
            break
        color = new
    return color


def find_isomorphism(g: Graph, h: Graph) -> Optional[dict[int, int]]:
    """Vertex bijection g -> h preserving adjacency, or None."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    if g.degree_sequence() != h.degree_sequence():
        return None
    cg, ch = _wl_colors(g), _wl_colors(h)
    if sorted(cg.values()) != sorted(ch.values()):
        return None
    adj_g, adj_h = g.adjacency(), h.adjacency()
    class_size = {c: sum(1 for v in cg.values() if v == c) for c in set(cg.values())}
    order = sorted(g.vertices, key=lambda v: (class_size[cg[v]], cg[v], v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in sorted(h.vertices):
            if w in used or ch[w] != cg[v]:
                continue
            if any((u in adj_g[v]) != (mapping[u] in adj_h[w]) for u in mapping):
                continue
            mapping[v] = w
            used.add(w)
            if rec(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return dict(mapping) if rec(0) else None
