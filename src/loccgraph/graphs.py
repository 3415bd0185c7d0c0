"""Undirected graphs on vertices 1..n with certificate-carrying algorithms.

Everything here is deterministic: ties are broken by vertex index, witnesses
are reproducible, and every nontrivial answer (orderings, holes, independent
sets, colorings, covers) is returned so callers can re-verify it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidInput, SearchBudgetExceeded


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 1..n, stored as neighbour bitmasks:
    bit w-1 of nbrs[v-1] is set when v and w are adjacent."""

    n: int
    nbrs: tuple[int, ...]

    def __post_init__(self):
        nbrs = tuple(map(int, self.nbrs))
        object.__setattr__(self, "nbrs", nbrs)
        if self.n < 1:
            raise InvalidInput("graph needs at least one vertex")
        if len(nbrs) != self.n or min(nbrs) < 0 or max(nbrs) >> self.n:
            raise InvalidInput(f"need {self.n} neighbour masks of {self.n} bits")
        # no vertex sees itself, and each sees every vertex that sees it
        if any(m >> v & 1 or any(not nbrs[w - 1] >> v & 1 for w in _bits(m))
               for v, m in enumerate(nbrs)):
            raise InvalidInput("neighbour masks must be symmetric without self-loops")

    @classmethod
    def _from_masks(cls, n: int, nbrs: tuple[int, ...]) -> "Graph":
        """A graph from int masks symmetric and loopless by construction;
        only n is checked."""
        if n < 1:
            raise InvalidInput("graph needs at least one vertex")
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "nbrs", nbrs)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        nbrs = [0] * n
        for i, j in edges:
            i, j = sorted((int(i), int(j)))
            if not (1 <= i < j <= n):
                raise InvalidInput(f"edge ({i},{j}) needs two distinct vertices in 1..{n}")
            nbrs[i - 1] |= 1 << (j - 1)
            nbrs[j - 1] |= 1 << (i - 1)
        return cls._from_masks(n, tuple(nbrs))

    @classmethod
    def from_matrix(cls, a) -> "Graph":
        """Graph joining i != j wherever the symmetric boolean matrix a is set."""
        a = np.array(a, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not (a == a.T).all():
            raise InvalidInput(f"need a symmetric square matrix, got shape {a.shape}")
        np.fill_diagonal(a, False)
        a.setflags(write=False)
        return cls._from_adjacency(a)

    @classmethod
    def _from_adjacency(cls, a: np.ndarray) -> "Graph":
        """A graph from a read-only boolean matrix, symmetric with a clear
        diagonal by construction, which it keeps as its adjacency_matrix,
        with its edge count; only n is checked."""
        rows = np.packbits(a, axis=1, bitorder="little")
        # each packed row as one bytes object, read as a little-endian int
        raw = rows.view(f"V{rows.shape[1]}").ravel().tolist()
        nbrs = tuple(map(int.from_bytes, raw, itertools.repeat("little")))
        g = cls._from_masks(len(a), nbrs)
        g.__dict__["_adjacency_matrix"] = a
        g.__dict__["_edge_count"] = int(np.count_nonzero(a)) // 2
        return g

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edges as (i, j) pairs with i < j."""
        return frozenset(self.edge_list())

    def has_edge(self, i: int, j: int) -> bool:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            return False
        return bool(self.nbrs[i - 1] >> (j - 1) & 1)

    def adjacency(self) -> dict[int, set[int]]:
        return {v: set(_bits(m)) for v, m in zip(self.vertices, self.nbrs)}

    def edge_list(self) -> list[tuple[int, int]]:
        # the bits above v's own are its later neighbours, lowest first
        return [
            (v, w) for v in self.vertices for w in _bits(self.nbrs[v - 1] >> v << v)
        ]

    def edge_count(self) -> int:
        """len(self.edges), counted from the masks without building them,
        or kept from the matrix the graph was built from."""
        if "_edge_count" not in self.__dict__:
            self.__dict__["_edge_count"] = sum(m.bit_count() for m in self.nbrs) // 2
        return self.__dict__["_edge_count"]

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self.nbrs))


def _kept(fn):
    """fn(g) computed once per graph and kept on it, as Graph.edges is; for
    functions of the graph alone whose results are immutable."""
    key = f"_{fn.__name__}"

    @wraps(fn)
    def once(g: Graph):
        if key not in g.__dict__:
            g.__dict__[key] = fn(g)
        return g.__dict__[key]

    return once


@_kept
def adjacency_matrix(g: Graph) -> np.ndarray:
    """Read-only boolean n x n matrix, entry [v-1, w-1] set when v ~ w."""
    width = (g.n + 7) // 8
    raw = b"".join([m.to_bytes(width, "little") for m in g.nbrs])
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(g.n, width)
    a = np.unpackbits(rows, axis=1, count=g.n, bitorder="little").view(bool)
    a.setflags(write=False)
    return a


def _full(n: int) -> int:
    return (1 << n) - 1


def _mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def _bits(mask: int):
    """Vertices whose bits are set in mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _clique_mask(nbrs: Sequence[int], mask: int) -> bool:
    # each member sees every other member
    return all(mask & ~nbrs[w - 1] == 1 << (w - 1) for w in _bits(mask))


def complete_graph(n: int) -> Graph:
    return Graph._from_masks(n, tuple(_full(n) ^ (1 << v) for v in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph._from_masks(n, (0,) * n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidInput("cycle needs n >= 3")
    return Graph._from_masks(
        n, tuple((1 << (v + 1) % n) | (1 << (v - 1) % n) for v in range(n))
    )


def path_graph(n: int) -> Graph:
    # bit v+1 and, past the first vertex, bit v-1
    return Graph._from_masks(
        n, tuple(((2 << v) | (1 << v >> 1)) & _full(n) for v in range(n))
    )


def complement(g: Graph) -> Graph:
    full = _full(g.n)
    return Graph._from_masks(
        g.n, tuple((full & ~m) ^ (1 << v) for v, m in enumerate(g.nbrs))
    )


def is_subgraph(g: Graph, h: Graph) -> bool:
    """Whether every edge of g is an edge of h."""
    pairs = itertools.zip_longest(g.nbrs, h.nbrs, fillvalue=0)
    return not any(a & ~b for a, b in pairs)


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """Whether the vertices form a clique of g; the one clique_search kept is proved."""
    vs = set(vertices)
    if vs == g.__dict__.get("_clique_search"):
        return True
    if not all(1 <= v <= g.n for v in vs):
        # a vertex outside the graph is adjacent to nothing
        return len(vs) <= 1
    return _clique_mask(g.nbrs, _mask(vs))


@_kept
def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood induces a clique."""
    return sandwich_simplicial_vertices(g, g)


def sandwich_simplicial_vertices(lo: Graph, hi: Graph) -> frozenset[int]:
    """Vertices v whose closed lo-neighbourhood N[v] (v and its
    lo-neighbours) is a clique of hi. A simplicial vertex of any graph
    between lo and hi is one; when lo is hi they are hi's simplicial
    vertices. With C and H the adjacency matrices of lo and hi plus the
    identity, row v of (C @ H) * C sums to the number of ordered pairs of
    N[v] that hi joins or that coincide: |N[v]|^2 just when N[v] is a
    hi-clique. The counts are exact in float64."""
    c = adjacency_matrix(lo) + np.eye(lo.n)
    h = c if hi is lo else adjacency_matrix(hi) + np.eye(hi.n)
    size = c.sum(axis=1)
    pairs = ((c @ h) * c).sum(axis=1)
    return frozenset((np.flatnonzero(pairs == size * size) + 1).tolist())


# ---------------------------------------------------------------------------
# chordality


@dataclass(frozen=True)
class ChordalityResult:
    """A perfect elimination ordering, or else a hole: a chordless cycle
    found in the graph's masks nbrs when first read, then kept. (The masks,
    not the graph, so a graph keeping its result forms no cycle.)"""

    chordal: bool
    ordering: Optional[tuple[int, ...]]
    nbrs: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def hole(self) -> Optional[tuple[int, ...]]:
        if self.chordal:
            return None
        hole = find_hole(Graph._from_masks(len(self.nbrs), self.nbrs))
        if hole is None:
            raise RuntimeError("not chordal but no hole found; inconsistent state")
        return hole


def _lex_bfs(g: Graph):
    """Lexicographic BFS, ties to the smallest vertex: each vertex as it is
    visited, with its visited neighbours and the latest of them (0 if none).

    Partition refinement: the unvisited vertices sit in cells ordered by
    decreasing label, and visiting v moves v's neighbours in each cell
    ahead of the rest of that cell. A cell's vertices share their visited
    neighbours, and the latest of them is kept in the bits above the n
    vertex bits.
    """
    n, nbrs = g.n, g.nbrs
    full = _full(n)
    cells, seen = [full], 0
    while cells:
        low = cells[0] & -cells[0]
        v = low.bit_length()
        nb = nbrs[v - 1]
        yield v, nb & seen, cells[0] >> n
        seen |= low
        cells[0] ^= low
        if not cells[0] & full:
            del cells[0]
        if nb & ~seen:
            tag, refined = v << n, []
            for cell in cells:
                inside = cell & nb
                if inside:
                    refined.append(inside | tag)
                    cell ^= inside
                if cell & full:
                    refined.append(cell)
            cells = refined


def lex_bfs_order(g: Graph) -> tuple[int, ...]:
    """Lexicographic BFS visit order; ties go to the smallest vertex."""
    return tuple(v for v, _, _ in _lex_bfs(g))


def is_perfect_elimination_ordering(g: Graph, order: Sequence[int]) -> bool:
    """Whether order lists each vertex of g once so that each vertex's later
    neighbours form a clique. The ordering is_chordal kept on g is proved
    already, even with float entries; any other is checked pairwise, and is
    False unless it is an iterable of ints."""
    try:
        order = tuple(order)
    except TypeError:
        return False
    if not all(isinstance(v, (int, float)) for v in order):
        return False
    kept = g.__dict__.get("_is_chordal")
    if kept is not None and order == kept.ordering:
        return True
    if not all(isinstance(v, int) for v in order) or sorted(order) != list(g.vertices):
        return False
    later = _full(g.n)
    for v in order:
        later ^= 1 << (v - 1)
        if not _clique_mask(g.nbrs, g.nbrs[v - 1] & later):
            return False
    return True


def find_hole(g: Graph) -> Optional[tuple[int, ...]]:
    """Find a chordless cycle of length >= 4, scanning in vertex order.

    For each vertex v with two non-adjacent neighbors x, y we look for an
    x-y path avoiding the rest of N[v]; the shortest such path is induced,
    so closing it through v yields a hole.
    """
    nbrs = g.nbrs
    for v in g.vertices:
        around = list(_bits(nbrs[v - 1]))
        for ai, x in enumerate(around):
            for y in around[ai + 1:]:
                if nbrs[x - 1] >> (y - 1) & 1:
                    continue
                blocked = (nbrs[v - 1] | 1 << (v - 1)) & ~_mask((x, y))
                path = _shortest_path_avoiding(nbrs, x, y, blocked)
                if path is not None:
                    return (v, *path)
    return None


def _shortest_path_avoiding(
    nbrs: Sequence[int], src: int, dst: int, blocked: int
) -> Optional[tuple[int, ...]]:
    parent: dict[int, int] = {src: 0}
    seen = blocked | 1 << (src - 1)
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        fresh = nbrs[u - 1] & ~seen
        seen |= fresh
        for w in _bits(fresh):
            parent[w] = u
            queue.append(w)
    return None


@_kept
def is_chordal(g: Graph) -> ChordalityResult:
    """One lex-BFS pass with the Rose-Tarjan-Lueker test ("Algorithmic
    aspects of vertex elimination on graphs", 1976): the reversed visit
    order is a perfect elimination ordering iff each vertex's visited
    neighbours, less the latest of them, are neighbours of that latest one.
    A graph is chordal iff its lex-BFS order passes, so the pass stops at
    the first vertex that fails; a hole, found when read, witnesses that."""
    nbrs = g.nbrs
    order = []
    for v, earlier, latest in _lex_bfs(g):
        if earlier and earlier & ~nbrs[latest - 1] != 1 << (latest - 1):
            return ChordalityResult(False, None, nbrs)
        order.append(v)
    return ChordalityResult(True, tuple(reversed(order)), nbrs)


# ---------------------------------------------------------------------------
# cliques and classic parameters


@_kept
def maximal_cliques(g: Graph) -> tuple[frozenset[int], ...]:
    """Bitset Bron-Kerbosch with Tomita pivoting: the pivot is the smallest
    vertex of P | X with the most neighbours in P. Output sorted for
    determinism."""
    nbrs = g.nbrs
    out: list[int] = []

    def expand(r: int, p: int, x: int):
        if not p | x:
            out.append(r)
            return
        pivot = max(_bits(p | x), key=lambda u: (p & nbrs[u - 1]).bit_count())
        for v in _bits(p & ~nbrs[pivot - 1]):
            vbit = 1 << (v - 1)
            expand(r | vbit, p & nbrs[v - 1], x & nbrs[v - 1])
            p ^= vbit
            x |= vbit

    expand(0, _full(g.n), 0)
    return tuple(sorted((frozenset(_bits(c)) for c in out), key=sorted))


def clique_search(
    g: Graph, node_budget: int
) -> tuple[frozenset[int], tuple[int, ...]]:
    """A maximum clique of g, and the classes (masks) of the colouring that
    bounded the search, as many as chi(g) or more.

    Bitset branch and bound (Tomita & Kameda 2007; San Segundo et al. 2011).
    g is coloured once, first fit by decreasing degree (Welsh-Powell). The
    search dives from the last class, bounded by the classes that still
    meet its candidates, and colours them again only after a branch fails.
    It cuts a branch whose size plus bound cannot beat the best clique,
    stops at a clique as large as the colouring, and raises
    SearchBudgetExceeded past node_budget branches. It keeps its own stack,
    so a dive may run deeper than Python's recursion limit; g keeps the clique.
    """
    nbrs = g.nbrs
    by_degree: dict[int, int] = {}
    for v, m in enumerate(nbrs):
        d = m.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    classes = _first_fit(nbrs, [by_degree[d] for d in sorted(by_degree, reverse=True)])
    cap = len(classes)
    best, found, nodes = 0, 0, 0
    # each of cls[:top] meets cand in an independent set; a parent waits on
    # the stack with its branch vertex already taken out of its candidates
    size, picked, cand, cls, top = 0, 0, _full(g.n), classes, len(classes)
    stack: list[tuple[int, int, int, list[int], int]] = []
    while True:
        while top and not cls[top - 1] & cand:
            top -= 1
        if size + top <= best:
            if not stack:
                break
            size, picked, cand, cls, top = stack.pop()
        else:
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(f"clique search limited to {node_budget} nodes")
            low = cls[top - 1] & cand
            low &= -low
            # the rest of its class sees none of it, so the child's bound is top - 1
            child = cand & nbrs[low.bit_length() - 1]
            if child and size + 1 < cap:
                stack.append((size, picked, cand ^ low, cls, top))
                size, picked, cand, top = size + 1, picked | low, child, top - 1
                continue
            if size + 1 > best:
                best, found = size + 1, picked | low
                if best == cap:
                    break
            cand ^= low
        cls = _first_fit(nbrs, [m for c in cls[:top] if (m := c & cand)])
        top = len(cls)
    clique = g.__dict__["_clique_search"] = frozenset(_bits(found))
    return clique, tuple(classes)


def _first_fit(nbrs: Sequence[int], groups: list[int]) -> list[int]:
    """Classes of the first-fit colouring of the vertices of groups (disjoint
    nonempty masks) taken group by group, lowest first in each, built a
    class at a time. Taken class by class, a proper colouring's vertices
    need no more classes than it had (Culberson 1992)."""
    out = []
    while groups:
        new = blocked = 0
        for grp in groups:
            free = grp & ~blocked
            while free:
                low = free & -free
                new |= low
                blocked |= nbrs[low.bit_length() - 1]
                free &= ~(blocked | low)
        out.append(new)
        groups = [rest for grp in groups if (rest := grp & ~new)]
    return out


def independence_number(g: Graph, budget: int = 40) -> tuple[int, frozenset[int]]:
    """Exact maximum independent set: a maximum clique of the complement,
    found within budget · n search nodes."""
    clique, _ = clique_search(complement(g), budget * g.n)
    return len(clique), clique


def _clique_and_colouring(
    g: Graph, budget: int
) -> tuple[frozenset[int], tuple[int, ...]]:
    """A maximum clique of g and the classes (masks) of a colouring with
    chi(g) colours; the clique search and the colouring search below each
    spend at most budget · n nodes.

    The clique search's colouring is exact when it has as many classes as
    the clique has vertices. Otherwise k colours are tried from the
    clique's size up, by backtracking in DSATUR order: the next vertex has
    the most distinct colours among its neighbours, then the highest
    degree, then the lowest index, and takes the lowest colour that fits
    first. The backtracking keeps its own stack, one entry per coloured
    vertex, and counts a node per colour it gives.
    """
    limit = budget * g.n
    clique, classes = clique_search(g, limit)
    nbrs, nodes = g.nbrs, 0
    for k in range(len(clique), len(classes)):
        col = [0] * k  # col[c-1]: the vertices coloured c
        # each coloured vertex, its colour and the highest colour in use
        # before it; v is 0 until the next vertex is chosen, c the last
        # colour it tried
        stack: list[tuple[int, int, int]] = []
        left, top, v, c = _full(g.n), 0, 0, 0
        while left:
            if not v:
                v = max(_bits(left), key=lambda u: (
                    sum(1 for m in col[:top] if m & nbrs[u - 1]),
                    nbrs[u - 1].bit_count(),
                    -u,
                ))
            c = next((d for d in range(c + 1, min(k, top + 1) + 1)
                      if not col[d - 1] & nbrs[v - 1]), 0)
            if c:
                nodes += 1
                if nodes > limit:
                    raise SearchBudgetExceeded(f"colouring search limited to {limit} nodes")
                col[c - 1] |= 1 << (v - 1)
                left ^= 1 << (v - 1)
                stack.append((v, c, top))
                top, v, c = max(top, c), 0, 0
            elif stack:
                v, c, top = stack.pop()
                col[c - 1] ^= 1 << (v - 1)
                left |= 1 << (v - 1)
            else:
                break
        if not left:
            return clique, tuple(col)
    return clique, classes


def chromatic_number(g: Graph, budget: int = 40) -> tuple[int, dict[int, int]]:
    """Exact chromatic number with a colouring witness (each vertex to its
    colour in 1..chi), from one clique search of g and, when its colouring
    is not exact, one colouring search, each within budget · n nodes."""
    _, classes = _clique_and_colouring(g, budget)
    return len(classes), {v: i for i, c in enumerate(classes, 1) for v in _bits(c)}


@dataclass(frozen=True)
class CliqueCover:
    cliques: tuple[frozenset[int], ...]

    def covers(self, g: Graph) -> bool:
        if not all(is_clique(g, c) for c in self.cliques):
            return False
        if set().union(*self.cliques) != set(g.vertices):
            return False
        masks = [_mask(c) for c in self.cliques]
        return all(any(m & e == e for m in masks) for e in map(_mask, g.edges))


@dataclass(frozen=True)
class CoverResult:
    count: int
    cover: CliqueCover


def edge_clique_cover_number(g: Graph, exact_bound: int = 12) -> CoverResult:
    """Minimum number of cliques covering every edge and every vertex.

    Exact branch and bound over maximal cliques, started from a greedy
    cover; a graph with edges on more than exact_bound vertices is refused.
    """
    singletons = tuple(frozenset({v}) for v in g.vertices if not g.nbrs[v - 1])
    edges = g.edge_list()
    if not edges:
        return CoverResult(len(singletons), CliqueCover(singletons))
    if g.n > exact_bound:
        raise SearchBudgetExceeded(
            f"exact edge clique cover limited to n <= {exact_bound}"
        )

    cliques = tuple(c for c in maximal_cliques(g) if len(c) >= 2)
    # bit e of covered[ci] is set, and ci listed in edge_in[e], when clique
    # ci holds edges[e]; sets of edges are masks over the sorted edge list
    index = {edge: e for e, edge in enumerate(edges)}
    covered, edge_in = [0] * len(cliques), [[] for _ in edges]
    for ci, c in enumerate(cliques):
        for e in map(index.__getitem__, itertools.combinations(sorted(c), 2)):
            covered[ci] |= 1 << e
            edge_in[e].append(ci)

    # greedy start: the clique covering the most uncovered edges, lowest first
    best: list[int] = []
    uncovered = _full(len(edges))
    while uncovered:
        gains = [(uncovered & m).bit_count() for m in covered]
        ci = gains.index(max(gains))
        best.append(ci)
        uncovered &= ~covered[ci]
    max_clique_edges = max(len(c) * (len(c) - 1) // 2 for c in cliques)

    def dfs(uncovered: int, chosen: list[int]):
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        need = (uncovered.bit_count() + max_clique_edges - 1) // max_clique_edges
        if len(chosen) + need >= len(best):
            return
        # the edge in the fewest cliques, then the first in sorted order
        target = min(_bits(uncovered), key=lambda e: (len(edge_in[e - 1]), e))
        for ci in edge_in[target - 1]:
            chosen.append(ci)
            dfs(uncovered & ~covered[ci], chosen)
            chosen.pop()

    dfs(_full(len(edges)), [])
    cover = CliqueCover(tuple(cliques[i] for i in sorted(set(best))) + singletons)
    return CoverResult(len(best) + len(singletons), cover)


def greedy_clique_cover(g: Graph) -> tuple[frozenset[int], ...]:
    """Cliques covering every edge and every vertex of g, without clique
    enumeration.

    From the lowest vertex with an uncovered edge, a clique grows along that
    edge, then by the common neighbour closing the most uncovered edges
    (lowest first) while some closes one. An isolated vertex is a singleton.
    """
    left = list(g.nbrs)  # bit w-1 of left[v-1]: edge vw not yet covered
    cover: list[frozenset[int]] = []
    for v in g.vertices:
        if not g.nbrs[v - 1]:
            cover.append(frozenset({v}))
        while left[v - 1]:
            w = (left[v - 1] & -left[v - 1]).bit_length()
            clique = 1 << (v - 1) | 1 << (w - 1)
            common = g.nbrs[v - 1] & g.nbrs[w - 1]
            while common:
                # the common neighbour closing the most uncovered edges,
                # the lowest of those
                best = most = 0
                rest = common
                while rest:
                    low = rest & -rest
                    rest ^= low
                    count = (left[low.bit_length() - 1] & clique).bit_count()
                    if count > most:
                        best, most = low, count
                if not most:
                    break
                clique |= best
                common &= g.nbrs[best.bit_length() - 1]
            for u in _bits(clique):
                left[u - 1] &= ~clique
            cover.append(frozenset(_bits(clique)))
    return tuple(cover)


def find_two_clique_cover(
    host: Graph, need_edges: Iterable[tuple[int, int]]
) -> Optional[tuple[frozenset[int], ...]]:
    """One or two maximal cliques of host covering all vertices and need_edges.

    Complete for the class of unions of at most two cliques: any such cover
    can be grown to maximal cliques without losing coverage.
    """
    need = [_mask(e) for e in need_edges]
    cliques = maximal_cliques(host)
    masks = [_mask(c) for c in cliques]
    full = _full(host.n)

    def ok(m1: int, m2: int = 0) -> bool:
        return m1 | m2 == full and all(m1 & e == e or m2 & e == e for e in need)

    for a in range(len(cliques)):
        if ok(masks[a]):
            return (cliques[a],)
    for a, b in itertools.combinations(range(len(cliques)), 2):
        if ok(masks[a], masks[b]):
            return (cliques[a], cliques[b])
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
    if not is_subgraph(g_lo, g_hi):
        raise InvalidInput("lower graph must be a subgraph of the upper graph")
    if is_chordal(g_lo).chordal:
        return g_lo
    if is_chordal(g_hi).chordal:
        return g_hi
    free = sum((hi & ~lo).bit_count() for lo, hi in zip(g_lo.nbrs, g_hi.nbrs)) // 2
    if free > budget:
        raise SearchBudgetExceeded(
            f"sandwich search limited to {budget} free edges, got {free}"
        )
    seen: set[tuple[int, ...]] = set()

    def search(g: Graph) -> Optional[Graph]:
        if g.nbrs in seen:
            return None
        seen.add(g.nbrs)
        res = is_chordal(g)
        if res.chordal:
            return g
        hole = res.hole
        k = len(hole)
        chords = sorted(
            tuple(sorted((hole[a], hole[b])))
            for a in range(k)
            for b in range(a + 2, k)
            if not (a == 0 and b == k - 1)
        )
        for i, j in chords:
            if g_hi.has_edge(i, j) and not g.has_edge(i, j):
                grown = list(g.nbrs)
                grown[i - 1] |= 1 << (j - 1)
                grown[j - 1] |= 1 << (i - 1)
                found = search(Graph._from_masks(g.n, tuple(grown)))
                if found is not None:
                    return found
        return None

    return search(g_lo)  # which keeps its chordality and hole


# ---------------------------------------------------------------------------
# minimum rank bounds


@dataclass(frozen=True)
class EtaBounds:
    lower: int
    lower_witness: frozenset[int]
    upper: int
    certified: bool = False


def eta_bounds_of_complement(g: Graph, budget: int = 40) -> EtaBounds:
    """eta_plus_bounds(complement(g)) without building the complement: the
    clique number of g with a maximum clique, and chi(g), from one clique
    search of g (see chromatic_number for the budget), kept on g per budget."""
    kept = g.__dict__.setdefault("_eta_bounds_of_complement", {})
    if budget not in kept:
        clique, classes = _clique_and_colouring(g, budget)
        kept[budget] = EtaBounds(len(clique), clique, len(classes), len(clique) == len(classes))
    return kept[budget]


def eta_plus_bounds(g: Graph, budget: int = 40) -> EtaBounds:
    """Outer bounds on the invertible-diagonal PSD minimum rank, from one
    clique search of g's complement.

    Lower bound: independence number, the complement's clique number, with
    the clique as witness. Upper bound: chromatic number of the complement,
    which the search's colouring meets or an exact colouring search settles.
    Certified when they coincide. Each search spends at most budget · n
    nodes.
    """
    return eta_bounds_of_complement(complement(g), budget)


# ---------------------------------------------------------------------------
# isomorphism


def _wl_colors(g: Graph) -> dict[int, int]:
    color = {v: m.bit_count() for v, m in zip(g.vertices, g.nbrs)}
    for _ in range(g.n):
        sig = {
            v: (color[v], tuple(sorted(color[w] for w in _bits(g.nbrs[v - 1]))))
            for v in g.vertices
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in g.vertices}
        if new == color:
            break
        color = new
    return color


def find_isomorphism(g: Graph, h: Graph) -> Optional[dict[int, int]]:
    """Vertex bijection g -> h preserving adjacency, or None."""
    if g.n != h.n or g.degree_sequence() != h.degree_sequence():
        return None
    cg, ch = _wl_colors(g), _wl_colors(h)
    if sorted(cg.values()) != sorted(ch.values()):
        return None
    class_size = {c: sum(1 for v in cg.values() if v == c) for c in set(cg.values())}
    order = sorted(g.vertices, key=lambda v: (class_size[cg[v]], cg[v], v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in h.vertices:
            if w in used or ch[w] != cg[v]:
                continue
            if any(g.has_edge(u, v) != h.has_edge(mapping[u], w) for u in mapping):
                continue
            mapping[v] = w
            used.add(w)
            if rec(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return dict(mapping) if rec(0) else None
