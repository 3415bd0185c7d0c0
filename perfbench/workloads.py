"""Instance lists, known answers and the seeded random product sets.

Each workload is a fixed list of (family spec or random set, direction)
pairs. Set-up turns every instance into the JSON states document that
`loccgraph decide --input` would read; the timed passes only ever see those
documents. Only the random chordal sets depend on the benchmark seed; the
built-in families are generated with their default family seed, so the
seeded families (`bullseye-recursive`, `cycle-rep`) are the same on every
run.

Why each workload:

- small-sets: many tiny queries, where per-query fixed costs dominate
  (validation, graph build, the exact graph rungs, small chordal peels and
  their protocols). A change that adds per-query set-up shows here first.
- large-obstruction: rings of 41 to 97 states on which every graph rung is
  out of budget or fails, so decide and verify both pay for maximal-clique
  enumeration and the spanning obstruction. No decomposition or protocol
  code runs. `bullseye-recursive:9` (n = 81) follows the same path but
  takes about a minute per decision, too long for repeated runs; the n = 49
  and n = 97 cases show the same mechanism.
- convex-protocols: instances that need the convex splitting search or that
  build protocols with hundreds of outcomes, so the cost sits in
  `decomposition.feasibility_search`, `locc` and `linalg`.

Excluded from the timed passes: `path-rep:{14,16}` alice-first raise
`DimensionMismatch` in basis completion (a known defect). A raising
instance would change the measured work the day it is fixed, so those two
run once per convex-protocols run as a probe, outside the timed passes,
and are reported by name.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from loccgraph import ProductStateSet, complement, families, minrank, serialize
from loccgraph.criteria import (
    ALICE_FIRST,
    BOB_FIRST,
    DISTINGUISHABLE as D,
    INDISTINGUISHABLE as I,
)

# the random generators of the test suite (`tests/brute.py`, on sys.path)
from brute import random_chordal, random_conforming_psd

RANDOM_SETS = 100
RANDOM_SIZES = (5, 12)
# The random sets' sizes and overlap graphs come from this fixed seed; the
# benchmark seed draws their Gram matrices. Graph shape decides which rungs
# fire and what they cost (chordal peel or convex search bob-first, number
# of cliques), so every seed runs the same mix of work on new numbers. With
# shapes drawn per seed, the slowest few random sets, which set the
# latency tails, changed from seed to seed by up to 2x.
SHAPE_SEED = 2305

# Seven-tile Bennett subsets that drop one tile of each of two domino
# pairs leave a chordal overlap graph on the measuring side, so they are
# distinguishable in that direction (ChordalAliceGraph: peeling gives the
# protocol). Every other subset of at least seven tiles keeps the ring's
# obstruction and is indistinguishable both ways.
_BENNETT_DISTINGUISHABLE = {
    ALICE_FIRST: ({7, 9}, {7, 8}, {6, 9}, {6, 8}),
    BOB_FIRST: ({3, 5}, {3, 4}, {2, 5}, {2, 4}),
}

# The only instances on which `Unknown` counts as undecided: the convex
# search stalls on pentagon-path bob-first today (a known defect). An
# `Unknown` on any other instance contradicts its known answer and fails.
MAY_BE_UNDECIDED = {("pentagon-path", BOB_FIRST)}


@dataclass(frozen=True)
class Instance:
    name: str        # family spec or random-set name, with direction
    direction: str
    expected: str    # known status
    document: str    # JSON states document
    undecided_ok: bool = False   # Unknown is undecided, not wrong


@dataclass(frozen=True)
class Plan:
    """What one workload runs: the timed instances and the untimed probe."""

    timed: tuple[tuple[str, str, str], ...]   # (source, direction, expected)
    probe: tuple[tuple[str, str, str], ...] = ()


def _bennett_answer(tiles: tuple[int, ...], direction: str) -> str:
    missing = set(range(1, 10)) - set(tiles)
    return D if missing in _BENNETT_DISTINGUISHABLE[direction] else I


def _both(spec: str, expected_alice: str, expected_bob: str):
    return [(spec, ALICE_FIRST, expected_alice), (spec, BOB_FIRST, expected_bob)]


def _random_names():
    return [f"random:{k}" for k in range(RANDOM_SETS)]


def _small_sets() -> Plan:
    timed = []
    for size in (7, 8, 9):
        for tiles in itertools.combinations(range(1, 10), size):
            spec = "bennett-subset:" + ",".join(map(str, tiles))
            for direction in (ALICE_FIRST, BOB_FIRST):
                timed.append((spec, direction, _bennett_answer(tiles, direction)))
    # example1 both ways and example2 bob-first have chordal overlap graphs
    # on the measuring side; example2 alice-first is the four-cycle
    timed += _both("example1", D, D)
    timed += _both("example2", I, D)
    timed += _both("tiles", I, I)
    for spec in ("bullseye:5", "bullseye:9", "bullseye-recursive:5"):
        timed += _both(spec, I, I)
    # chordal measuring-side overlap graph by construction
    timed += [(name, ALICE_FIRST, D) for name in _random_names()]
    return Plan(tuple(timed))


def _large_obstruction() -> Plan:
    timed = []
    for spec in ("bullseye:11", "bullseye:15", "bullseye:21", "bullseye:25",
                 "bullseye-recursive:7"):
        timed += _both(spec, I, I)
    return Plan(tuple(timed))


def _convex_protocols() -> Plan:
    # Bob's Gram matrix is I + tA with t * maxdegree < 1, diagonally
    # dominant, so it splits into PSD pieces on single overlap edges, which
    # are admissible supports: distinguishable bob-first
    timed = [(name, BOB_FIRST, D) for name in _random_names()]
    timed += [(f"cycle-rep:{n}", BOB_FIRST, D) for n in (6, 8, 10)]
    timed.append(("example3", ALICE_FIRST, D))
    timed.append(("pentagon-path", BOB_FIRST, I))
    timed += [(f"path-rep:{n}", BOB_FIRST, D) for n in (12, 14, 16)]
    # the overlap graph is a path, hence chordal: distinguishable
    probe = tuple((f"path-rep:{n}", ALICE_FIRST, D) for n in (14, 16))
    return Plan(tuple(timed), probe)


PLANS = {
    "small-sets": _small_sets,
    "large-obstruction": _large_obstruction,
    "convex-protocols": _convex_protocols,
}


def random_chordal_set(n: int, shapes: np.random.Generator,
                       values: np.random.Generator) -> ProductStateSet:
    """Orthonormal product set whose Alice overlap graph is a random chordal
    graph at full rank and whose Bob overlap graph is its complement, built
    like `tests/brute.random_product_instance` but with the graph drawn from
    `shapes` and the Gram matrix from `values`."""
    g = random_chordal(n, shapes)
    gbar = complement(g)
    adj = np.zeros((n, n))
    for i, j in gbar.edges:
        adj[i - 1, j - 1] = adj[j - 1, i - 1] = 1.0
    t = 0.9 / max(1.0, adj.sum(axis=1).max())
    w, v = np.linalg.eigh(np.eye(n) + t * adj)
    bob = (v * np.sqrt(w)) @ v.T
    for _ in range(60):
        m = random_conforming_psd(g, values)
        d = np.sqrt(np.real(np.diag(m)))
        if d.min() < 1e-3:
            continue
        m = m / np.outer(d, d)
        np.fill_diagonal(m, 1.0)
        if any(abs(m[i - 1, j - 1]) < 1e-4 for i, j in g.edges):
            continue
        if np.linalg.eigvalsh(m)[0] < 1e-6:
            continue
        x = minrank.vectors_from_gram(m)
        states = ProductStateSet.from_vectors(list(x.T), list(bob.T))
        built = states.build_graphs()
        if built.alice == g and built.bob == gbar:
            return states
    raise RuntimeError(f"no usable random instance on {sorted(g.edges)}")


def build(workload: str, seed: int) -> tuple[list[Instance], list[Instance]]:
    """Generate and encode a workload's timed and probe instances."""
    plan = PLANS[workload]()
    sources = {src for src, _, _ in plan.timed + plan.probe}
    documents = {}
    if any(src.startswith("random:") for src in sources):
        shapes = np.random.default_rng(SHAPE_SEED)
        values = np.random.default_rng(seed)
        for name in _random_names():
            n = int(shapes.integers(RANDOM_SIZES[0], RANDOM_SIZES[1] + 1))
            states = random_chordal_set(n, shapes, values)
            documents[name] = json.dumps(serialize.states_to_json(states))
    for src in sorted(sources - documents.keys()):
        documents[src] = json.dumps(serialize.states_to_json(families.generate(src)))

    def make(entries):
        return [Instance(f"{src} {direction}", direction, expected, documents[src],
                         (src, direction) in MAY_BE_UNDECIDED)
                for src, direction, expected in entries]

    return make(plan.timed), make(plan.probe)
