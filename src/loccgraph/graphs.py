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
        rows = np.packbits(a, axis=1, bitorder="little")
        return cls._from_masks(
            len(a), tuple(int.from_bytes(r.tobytes(), "little") for r in rows)
        )

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
        """len(self.edges), counted from the masks without building them."""
        return sum(m.bit_count() for m in self.nbrs) // 2

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


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Boolean n x n matrix, entry [v-1, w-1] set when v ~ w."""
    width = (g.n + 7) // 8
    raw = b"".join([m.to_bytes(width, "little") for m in g.nbrs])
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(g.n, width)
    return np.unpackbits(rows, axis=1, count=g.n, bitorder="little").view(bool)


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
    vs = set(vertices)
    if not all(1 <= v <= g.n for v in vs):
        # a vertex outside the graph is adjacent to nothing
        return len(vs) <= 1
    return _clique_mask(g.nbrs, _mask(vs))


@_kept
def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood induces a clique."""
    return frozenset(v for v in g.vertices if _clique_mask(g.nbrs, g.nbrs[v - 1]))


# ---------------------------------------------------------------------------
# chordality


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    ordering: Optional[tuple[int, ...]]
    hole: Optional[tuple[int, ...]]


def lex_bfs_order(g: Graph) -> tuple[int, ...]:
    """Lexicographic BFS visit order; ties go to the smallest vertex.

    Partition refinement: the unvisited vertices sit in cells ordered by
    decreasing label, and visiting v moves v's neighbours in each cell
    ahead of the rest of that cell.
    """
    cells = [_full(g.n)]
    order: list[int] = []
    while cells:
        low = cells[0] & -cells[0]
        order.append(low.bit_length())
        cells[0] ^= low
        nb = g.nbrs[order[-1] - 1]
        cells = [part for cell in cells for part in (cell & nb, cell & ~nb) if part]
    return tuple(order)


def is_perfect_elimination_ordering(g: Graph, order: Sequence[int]) -> bool:
    """Full pairwise check that later neighborhoods are cliques."""
    if sorted(order) != list(g.vertices):
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


def independence_number(g: Graph, budget: int = 40) -> tuple[int, frozenset[int]]:
    """Exact maximum independent set by branch and bound."""
    if g.n > budget:
        raise SearchBudgetExceeded(f"independence search limited to n <= {budget}")
    nbrs = g.nbrs
    best_size = 0
    best_set = 0

    def expand(cand: int, size: int, picked: int):
        nonlocal best_size, best_set
        if size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            best_size, best_set = size, picked
            return
        v = max(_bits(cand), key=lambda u: ((cand & nbrs[u - 1]).bit_count(), -u))
        vbit = 1 << (v - 1)
        expand(cand & ~nbrs[v - 1] & ~vbit, size + 1, picked | vbit)
        expand(cand & ~vbit, size, picked)

    expand(_full(g.n), 0, 0)
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
    nbrs = g.nbrs
    stack = [(_full(g.n), 0, 0)]
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
        v = min(_bits(cand), key=lambda u: ((cand & nbrs[u - 1]).bit_count(), u))
        vbit = 1 << (v - 1)
        stack.append((cand & ~vbit, size, picked))
        stack.append((cand & ~nbrs[v - 1] & ~vbit, size + 1, picked | vbit))
    return None


def _coloring(g: Graph, k: int) -> Optional[dict[int, int]]:
    """A proper colouring with colours 1..k, or None when there is none.

    Backtracking in DSATUR order: the next vertex has the most distinct
    colours among its neighbours, then the highest degree, then the lowest
    index, and takes the lowest colour that fits first. With k >= n the
    first branch never fails, so it is the greedy DSATUR colouring.
    """
    nbrs = g.nbrs
    color: dict[int, int] = {}
    classes = [0] * k  # classes[c-1]: the vertices coloured c

    def rec(left: int, top: int) -> bool:
        # top: the highest colour in use
        if not left:
            return True
        v = max(
            _bits(left),
            key=lambda u: (
                sum(1 for m in classes[:top] if m & nbrs[u - 1]),
                nbrs[u - 1].bit_count(),
                -u,
            ),
        )
        vbit = 1 << (v - 1)
        for c in range(1, min(k, top + 1) + 1):
            if classes[c - 1] & nbrs[v - 1]:
                continue
            color[v] = c
            classes[c - 1] |= vbit
            if rec(left ^ vbit, max(top, c)):
                return True
            del color[v]
            classes[c - 1] ^= vbit
        return False

    return dict(color) if rec(_full(g.n), 0) else None


def chromatic_number(g: Graph, budget: int = 40) -> tuple[int, dict[int, int]]:
    """Exact chromatic number with a proper colouring witness."""
    if g.n > budget:
        raise SearchBudgetExceeded(f"colouring search limited to n <= {budget}")
    omega, _ = independence_number(complement(g), budget)
    return _chromatic_from(g, omega)


def _chromatic_from(g: Graph, omega: int) -> tuple[int, dict[int, int]]:
    """Chromatic number of g with a colouring witness, given its clique
    number omega: the greedy colouring when it uses omega colours, else the
    fewest colours from omega up that admit one."""
    greedy = _coloring(g, g.n)
    upper = max(greedy.values())
    if upper == omega:
        return upper, greedy
    for k in range(omega, upper):
        witness = _coloring(g, k)
        if witness is not None:
            return k, witness
    return upper, greedy


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
    # bit e of covered[ci] is set when clique ci holds edges[e]; sets of
    # edges are masks over the sorted edge list
    covered = [
        _mask(e + 1 for e, (i, j) in enumerate(edges) if i in c and j in c)
        for c in cliques
    ]
    edge_in = [
        tuple(ci for ci, m in enumerate(covered) if m >> e & 1)
        for e in range(len(edges))
    ]

    # greedy start: the clique covering the most uncovered edges, lowest first
    best: list[int] = []
    uncovered = _full(len(edges))
    while uncovered:
        ci = max(
            range(len(cliques)),
            key=lambda i: ((uncovered & covered[i]).bit_count(), -i),
        )
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

    def search(nbrs: tuple[int, ...]) -> Optional[Graph]:
        if nbrs in seen:
            return None
        seen.add(nbrs)
        g = Graph._from_masks(g_lo.n, nbrs)
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
                grown = list(nbrs)
                grown[i - 1] |= 1 << (j - 1)
                grown[j - 1] |= 1 << (i - 1)
                found = search(tuple(grown))
                if found is not None:
                    return found
        return None

    return search(g_lo.nbrs)


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
    complement, whose clique number is that same independence number.
    Certified when they coincide.
    """
    lower, witness = independence_number(g, budget)
    upper, coloring = _chromatic_from(complement(g), lower)
    return EtaBounds(lower, witness, upper, coloring, lower == upper)


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
