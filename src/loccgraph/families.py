"""Built-in product-state families with known overlap structure.

Each generator returns a ProductStateSet; family_invariant_report recomputes
the structural facts a family promises (overlap graphs, complements,
parameters, rank margins) and fails loudly when generation drifted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import AssertionFailure, InvalidSpec
from .graphs import (
    Graph,
    adjacency_matrix,
    complement,
    cycle_graph,
    find_isomorphism,
    independence_number,
    path_graph,
    simplicial_vertices,
)
from .graphs import chromatic_number as _chromatic
from .linalg import DEFAULT_TOL, Tolerance
from .minrank import pattern_constrained_lowrank, vectors_from_gram
from .states import ProductStateSet


def _e(dim: int, k: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def _example1() -> ProductStateSet:
    a = [_e(2, 0), _e(2, 0) + _e(2, 1), _e(2, 0) - _e(2, 1), _e(2, 0) + _e(2, 1)]
    b = [_e(3, 0), _e(3, 1), _e(3, 1), _e(3, 2)]
    return ProductStateSet.from_vectors(a, b)


def _example2() -> ProductStateSet:
    a = [_e(2, 0), _e(2, 0) + _e(2, 1), _e(2, 0) - _e(2, 1), _e(2, 1)]
    b = [_e(2, 0), _e(2, 1), _e(2, 1), _e(2, 0)]
    return ProductStateSet.from_vectors(a, b)


def _example3() -> ProductStateSet:
    a = [
        _e(4, 0) + _e(4, 1),
        _e(4, 1) + _e(4, 2),
        _e(4, 0) + _e(4, 3),
        _e(4, 2) + _e(4, 3),
    ]
    b = [_e(2, 0), _e(2, 1), _e(2, 1), _e(2, 0)]
    return ProductStateSet.from_vectors(a, b)


def _pentagon_path() -> ProductStateSet:
    a = [_e(3, 0), _e(3, 0) + _e(3, 1), _e(3, 1), _e(3, 2), _e(3, 2)]
    b = [
        _e(3, 0),
        _e(3, 2),
        _e(3, 0) + _e(3, 1),
        _e(3, 0) - _e(3, 1) + _e(3, 2),
        _e(3, 1) + _e(3, 2),
    ]
    return ProductStateSet.from_vectors(a, b)


def _bennett() -> ProductStateSet:
    e = lambda k: _e(3, k)
    a = [
        e(1), e(0), e(0), e(2), e(2),
        e(1) + e(2), e(1) - e(2), e(0) + e(1), e(0) - e(1),
    ]
    b = [
        e(1), e(0) + e(1), e(0) - e(1), e(1) + e(2), e(1) - e(2),
        e(0), e(0), e(2), e(2),
    ]
    return ProductStateSet.from_vectors(a, b)


def _tiles() -> ProductStateSet:
    e = lambda k: _e(3, k)
    stopper = e(0) + e(1) + e(2)
    a = [e(0), e(2), e(1) - e(2), e(0) - e(1), stopper]
    b = [e(0) - e(1), e(1) - e(2), e(0), e(2), stopper]
    return ProductStateSet.from_vectors(a, b, labels=("2", "4", "6", "8", "stopper"))


def _fourier_ring(d: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The two shifted Fourier families living on coordinates 0..d-2 and
    1..d-1 of C^d; every cross overlap of the two is nonzero."""
    m = d - 1
    omega = np.exp(2j * np.pi / m)
    f = np.array(
        [[omega ** (j * k) / np.sqrt(m) for k in range(m)] for j in range(m)]
    )
    flat = [np.concatenate([f[:, k], [0.0]]) for k in range(m)]
    shifted = [np.concatenate([[0.0], f[:, k]]) for k in range(m)]
    return flat, shifted


def _bullseye(d: int) -> ProductStateSet:
    if d < 3:
        raise InvalidSpec("bullseye needs dimension at least 3")
    flat, shifted = _fourier_ring(d)
    a: list[np.ndarray] = []
    b: list[np.ndarray] = []
    labels: list[str] = []
    for k in range(d - 1):
        a.append(_e(d, 0)); b.append(flat[k]); labels.append(f"r1k{k}")
    for k in range(d - 1):
        a.append(flat[k]); b.append(_e(d, d - 1)); labels.append(f"r2k{k}")
    for k in range(d - 1):
        a.append(shifted[k]); b.append(_e(d, 0)); labels.append(f"r3k{k}")
    for k in range(d - 1):
        a.append(_e(d, d - 1)); b.append(shifted[k]); labels.append(f"r4k{k}")
    center = np.zeros(d, dtype=complex)
    for m in range(1, d - 1):
        center[m] = 2.0 ** (-m)
    a.append(center); b.append(center); labels.append("center")
    return ProductStateSet.from_vectors(a, b, labels=tuple(labels))


def bullseye_expected_alice(d: int) -> Graph:
    """Ring-of-rings overlap pattern: two complete end groups, two empty
    middle groups, consecutive groups fully joined, center joined to both
    middle groups."""
    m = d - 1
    g1 = list(range(1, m + 1))
    g2 = list(range(m + 1, 2 * m + 1))
    g3 = list(range(2 * m + 1, 3 * m + 1))
    g4 = list(range(3 * m + 1, 4 * m + 1))
    c = 4 * m + 1
    edges = []
    for grp in (g1, g4):
        edges += [(i, j) for i in grp for j in grp if i < j]
    for left, right in ((g1, g2), (g2, g3), (g3, g4)):
        edges += [(i, j) for i in left for j in right]
    edges += [(i, c) for i in g2 + g3]
    return Graph.from_edges(4 * m + 1, edges)


_OVERLAP_FLOOR = 1e-4


def _bullseye_recursive_pairs(
    d: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    if d == 1:
        one = np.ones(1, dtype=complex)
        return [(one, one)]
    flat, shifted = _fourier_ring(d)
    ring: list[tuple[np.ndarray, np.ndarray]] = []
    for k in range(d - 1):
        ring.append((_e(d, 0), flat[k]))
    for k in range(d - 1):
        ring.append((flat[k], _e(d, d - 1)))
    for k in range(d - 1):
        ring.append((shifted[k], _e(d, 0)))
    for k in range(d - 1):
        ring.append((_e(d, d - 1), shifted[k]))
    inner = _bullseye_recursive_pairs(d - 2, rng)
    probes = flat + shifted
    for _ in range(50):
        z = rng.normal(size=(d - 2, d - 2)) + 1j * rng.normal(size=(d - 2, d - 2))
        u, _ = np.linalg.qr(z)
        lifted = []
        for ia, ib in inner:
            la = np.zeros(d, dtype=complex)
            lb = np.zeros(d, dtype=complex)
            la[1 : d - 1] = u @ ia
            lb[1 : d - 1] = u @ ib
            lifted.append((la, lb))
        ok = all(
            abs(np.vdot(p, w)) >= _OVERLAP_FLOOR
            for p in probes
            for la, lb in lifted
            for w in (la, lb)
        )
        if ok:
            return ring + lifted
    raise AssertionFailure(
        f"no rotation made all inner overlaps exceed {_OVERLAP_FLOOR} at d={d}"
    )


def _bullseye_recursive(d: int, seed: int) -> ProductStateSet:
    if d < 1 or d % 2 == 0:
        raise InvalidSpec("recursive bullseye needs an odd dimension")
    rng = np.random.default_rng(seed)
    pairs = _bullseye_recursive_pairs(d, rng)
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    return ProductStateSet.from_vectors(a, b)


def _sqrt_overlap_side(g: Graph, t: float) -> np.ndarray:
    """Columns of (I + t A(g))^(1/2): unit vectors overlapping exactly on
    the edges of g."""
    w, v = np.linalg.eigh(np.eye(g.n) + t * adjacency_matrix(g))
    if w.min() <= 0:
        raise AssertionFailure(f"overlap weight {t} is too large for this graph")
    return (v * np.sqrt(w)) @ v.T


_ARC_MARGIN = 1e-6


def _min_subset_margin(x: np.ndarray, n: int) -> float:
    """Smallest singular value over all (n-2)-column subsets of x."""
    worst = np.inf
    for drop_a in range(n):
        for drop_b in range(drop_a + 1, n):
            keep = [i for i in range(n) if i != drop_a and i != drop_b]
            sv = np.linalg.svd(x[:, keep], compute_uv=False)
            worst = min(worst, sv[-1])
    return float(worst)


def _cycle_rep(n: int) -> ProductStateSet:
    if n < 4:
        raise InvalidSpec("cycle representation needs n >= 4")
    cn = cycle_graph(n)
    m = pattern_constrained_lowrank(cn, n - 2)
    if m is None:
        raise AssertionFailure(f"no rank-{n-2} cycle representation for n={n}")
    x = vectors_from_gram(m, rank=n - 2)
    bob = _sqrt_overlap_side(complement(cn), 1.0 / (n - 2))
    return ProductStateSet.from_vectors(list(x.T), list(bob.T))


def _path_rep(n: int) -> ProductStateSet:
    if n < 2:
        raise InvalidSpec("path representation needs n >= 2")
    # staircase in C^(n-1): e1, e1+e2, ..., e_{n-2}+e_{n-1}, e_{n-1}
    a = [_e(n - 1, 0)]
    for k in range(2, n):
        a.append(_e(n - 1, k - 2) + _e(n - 1, k - 1))
    a.append(_e(n - 1, n - 2))
    bob = _sqrt_overlap_side(complement(path_graph(n)), 1.0 / (n - 1))
    return ProductStateSet.from_vectors(a, list(bob.T))


FAMILIES = (
    "example1",
    "example2",
    "example3",
    "example4",
    "pentagon-path",
    "bennett",
    "bennett-subset",
    "tiles",
    "bullseye",
    "bullseye-recursive",
    "cycle-rep",
    "path-rep",
)


def parse_family(spec: str) -> tuple[str, dict]:
    name, _, arg = spec.strip().partition(":")
    name = name.strip().lower()
    if name not in FAMILIES:
        raise InvalidSpec(f"unknown family {name!r}; known: {', '.join(FAMILIES)}")
    arg = arg.strip()
    if name == "bennett-subset":
        if not arg:
            raise InvalidSpec("bennett-subset needs labels, e.g. bennett-subset:2,8,6,4,9")
        return name, {"labels": tuple(s.strip() for s in arg.split(","))}
    if name in ("bullseye", "bullseye-recursive", "cycle-rep", "path-rep"):
        if not arg:
            raise InvalidSpec(f"{name} needs a size, e.g. {name}:5")
        try:
            size = int(arg)
        except ValueError:
            raise InvalidSpec(f"{name} size must be an integer, got {arg!r}") from None
        key = "d" if name.startswith("bullseye") else "n"
        return name, {key: size}
    if arg:
        raise InvalidSpec(f"family {name} takes no parameters")
    return name, {}


def generate(spec: Union[str, tuple[str, dict]], seed: int = 0) -> ProductStateSet:
    name, params = parse_family(spec) if isinstance(spec, str) else spec
    if name == "example1" or name == "example4":
        return _example1()
    if name == "example2":
        return _example2()
    if name == "example3":
        return _example3()
    if name == "pentagon-path":
        return _pentagon_path()
    if name == "bennett":
        return _bennett()
    if name == "bennett-subset":
        return _bennett().subset(params["labels"])
    if name == "tiles":
        return _tiles()
    if name == "bullseye":
        return _bullseye(params["d"])
    if name == "bullseye-recursive":
        return _bullseye_recursive(params["d"], seed)
    if name == "cycle-rep":
        return _cycle_rep(params["n"])
    if name == "path-rep":
        return _path_rep(params["n"])
    raise InvalidSpec(f"unhandled family {name!r}")


# ---------------------------------------------------------------------------
# invariants

_BENNETT_ALICE_EDGES = (
    (3, 9), (7, 9), (5, 7), (2, 8), (6, 8), (4, 6),
    (2, 3), (4, 5),
    (3, 8), (7, 8), (4, 7), (2, 9), (6, 9), (5, 6),
    (1, 6), (1, 7), (1, 8), (1, 9),
)

_FIXED_ALICE = {
    "example1": (4, ((1, 2), (1, 3), (1, 4), (2, 4))),
    "example4": (4, ((1, 2), (1, 3), (1, 4), (2, 4))),
    "example2": (4, ((1, 2), (1, 3), (2, 4), (3, 4))),
    "example3": (4, ((1, 2), (1, 3), (2, 4), (3, 4))),
    "pentagon-path": (5, ((1, 2), (2, 3), (4, 5))),
    "bennett": (9, _BENNETT_ALICE_EDGES),
    "tiles": (5, ((1, 4), (1, 5), (2, 3), (2, 5), (3, 4))),
}

_FIXED_BOB = {
    "example1": (4, ((2, 3),)),
    "example4": (4, ((2, 3),)),
    "example2": (4, ((1, 4), (2, 3))),
    "example3": (4, ((1, 4), (2, 3))),
    "pentagon-path": (5, ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))),
}


@dataclass(frozen=True)
class FamilyReport:
    family: str
    params: dict
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def family_invariant_report(
    spec: Union[str, tuple[str, dict]],
    states: Optional[ProductStateSet] = None,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
) -> FamilyReport:
    """Recompute what the family promises; AssertionFailure on any miss."""
    name, params = parse_family(spec) if isinstance(spec, str) else spec
    if states is None:
        states = generate((name, params), seed=seed)
    checks: list[tuple[str, bool, str]] = []

    def check(label: str, ok: bool, detail: str = ""):
        checks.append((label, bool(ok), detail))

    report = states.validate_orthonormal(tol)
    check("orthonormal product set", report.ok,
          f"{len(report.nonorthogonal_pairs)} bad pairs")
    graphs = states.build_graphs(tol)
    ga, gb = graphs.alice, graphs.bob

    if name in _FIXED_ALICE:
        n, edges = _FIXED_ALICE[name]
        check("overlap graph (measuring side)",
              ga == Graph.from_edges(n, edges), str(sorted(ga.edges)))
    if name in _FIXED_BOB:
        n, edges = _FIXED_BOB[name]
        check("overlap graph (listening side)",
              gb == Graph.from_edges(n, edges), str(sorted(gb.edges)))

    if name in ("bennett", "tiles"):
        check("listening side is the complement", gb == complement(ga))
    if name == "bennett":
        check("three independent states", independence_number(ga)[0] == 3)
        check("no simplicial vertices", not simplicial_vertices(ga))
    if name == "bennett-subset":
        full = Graph.from_edges(9, _BENNETT_ALICE_EDGES)
        order = [int(l) for l in params["labels"]]
        expected = [
            (a + 1, b + 1)
            for a in range(len(order))
            for b in range(a + 1, len(order))
            if full.has_edge(order[a], order[b])
        ]
        check("induced overlap pattern",
              ga == Graph.from_edges(len(order), expected))
        check("listening side is the complement", gb == complement(ga))
    if name == "tiles":
        check("two independent states", independence_number(ga)[0] == 2)
        check("cover number three", _chromatic(gb)[0] == 3)
    if name == "bullseye":
        d = params["d"]
        check("state count", states.n == 4 * d - 3, str(states.n))
        expected = bullseye_expected_alice(d)
        check("ring overlap pattern", ga == expected, str(sorted(ga.edges)))
        check("listening side is the complement", gb == complement(ga))
        check("self-complementary", find_isomorphism(ga, gb) is not None)
    if name == "bullseye-recursive":
        d = params["d"]
        check("state count", states.n == d * d, str(states.n))
        check("listening side is the complement", gb == complement(ga))
    if name == "cycle-rep":
        n = params["n"]
        check("overlap graph is the cycle", ga == cycle_graph(n))
        check("listening side is the complement", gb == complement(ga))
        margin = _min_subset_margin(states.alice_frame(), n)
        check("every n-2 states stay independent",
              margin >= _ARC_MARGIN, f"min margin {margin:.3g}")
    if name == "path-rep":
        n = params["n"]
        check("overlap graph is the path", ga == path_graph(n))
        check("listening side is the complement", gb == complement(ga))

    result = FamilyReport(name, params, tuple(checks))
    if not result.ok:
        bad = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
        raise AssertionFailure(f"family {name} invariants failed: {'; '.join(bad)}")
    return result
