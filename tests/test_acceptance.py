"""Acceptance suite: twelve pinned criteria, one test per criterion.

Each test prints a single pass/fail line (visible with -v as the test
outcome, and with -s as an explicit line). Tolerances are stated inline and
are part of the contract.
"""

import functools
import itertools
import time

import numpy as np
import pytest

import brute
from loccgraph.criteria import (
    ALICE_FIRST,
    BOB_FIRST,
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    converse_theorem_checks,
    decide,
    spanning_obstruction,
)
from loccgraph.decomposition import chordal_decompose, verify_decomposition
from loccgraph.families import generate
from loccgraph.graphs import (
    chromatic_number,
    complement,
    edge_clique_cover_number,
    find_isomorphism,
    independence_number,
    is_chordal,
    is_perfect_elimination_ordering,
    maximal_cliques,
)
from loccgraph.linalg import numeric_rank
from loccgraph.locc import (
    as_projective_basis,
    matches_projective_basis,
    povm_to_decomposition,
    simulate,
    synthesize_protocol,
    validate_povm,
)
from loccgraph.linalg import orthonormal_columns

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


@functools.cache
def _fam(spec: str):
    return generate(spec)


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {num:02d} FAIL  {label}")
                raise
            print(f"criterion {num:02d} PASS  {label}")

        return wrapper

    return deco


@criterion(1, "first worked example distinguishes with the |+>/|-> basis")
def test_criterion_01_first_example_protocol():
    v = decide(_fam("example1"))
    assert v.status == DISTINGUISHABLE
    assert v.simulation.min_success >= 1 - 1e-9
    assert matches_projective_basis(v.protocol.alice, HADAMARD)


@criterion(2, "four-cycle example indistinguishable, obstruction fires")
def test_criterion_02_four_cycle_indistinguishable():
    s = _fam("example2")
    v = decide(s)
    assert v.status == INDISTINGUISHABLE
    assert v.certificate.kind == "NonChordalSandwichAtMinDim"
    edges = [frozenset(e) for e in sorted(s.build_graphs().alice.edges)]
    rep = spanning_obstruction(s, edges)
    assert rep.empty and rep.d_eff == 2


@criterion(3, "feasibility route finds the standard-basis measurement")
def test_criterion_03_feasibility_route():
    s = _fam("example3")
    graphs = s.build_graphs()
    assert not is_chordal(graphs.alice).chordal
    assert not is_chordal(graphs.bob_orthogonality()).chordal
    assert s.d_alice > chromatic_number(graphs.bob)[0]
    v = decide(s)
    assert v.status == DISTINGUISHABLE
    assert v.certificate.kind == "FeasibleDecomposition"
    assert v.simulation.min_success >= 1 - 1e-9
    span = orthonormal_columns(list(s.alice), s.d_alice)
    assert matches_projective_basis(v.protocol.alice, np.eye(4), span=span)


@criterion(4, "chordal sibling and five-state path force unique bases")
def test_criterion_04_converse_uniqueness():
    assert decide(_fam("example4")).status == DISTINGUISHABLE
    s = _fam("pentagon-path")
    v = decide(s)
    assert v.status == DISTINGUISHABLE
    rep = converse_theorem_checks(s, v)
    assert rep.applies and rep.unique and rep.families_found == 1
    assert rep.verdict_matches is True
    # a successful first measurement is forced projective rank-one; here it
    # is the standard basis up to order and phase
    mags = np.abs(rep.basis)
    assert np.allclose(np.sort(mags, axis=0)[-1], 1.0, atol=1e-7)
    assert np.allclose(mags.T @ mags, np.eye(3), atol=1e-7)
    assert as_projective_basis(v.protocol.alice) is not None
    assert matches_projective_basis(v.protocol.alice, rep.basis)


@criterion(5, "nine-tile set blocked both ways at minimum dimension")
def test_criterion_05_nine_tiles():
    s = _fam("bennett")
    v = decide(s, ALICE_FIRST)
    assert v.status == INDISTINGUISHABLE
    assert v.certificate.kind == "MinDimNoSimplicial"
    assert v.parameters["alpha_host"] == 3
    assert v.parameters["simplicial_host"] == ()
    eta = v.parameters["eta_host"]
    assert eta.certified and eta.lower == eta.upper == 3
    graphs = s.build_graphs()
    assert graphs.alice == complement(graphs.bob)
    assert decide(s, BOB_FIRST).status == INDISTINGUISHABLE


@criterion(6, "five-tile subsets flip with the measuring direction")
def test_criterion_06_subsets_direction_asymmetry():
    for spec in ("bennett-subset:2,8,6,4,9", "bennett-subset:2,8,6,9,7"):
        s = _fam(spec)
        assert decide(s, ALICE_FIRST).status == INDISTINGUISHABLE
        v = decide(s, BOB_FIRST)
        assert v.status == DISTINGUISHABLE
        assert v.simulation.min_success >= 1 - 1e-9


@criterion(7, "stopper tiles blocked by independence versus cover count")
def test_criterion_07_stopper_tiles():
    v = decide(_fam("tiles"))
    assert v.status == INDISTINGUISHABLE
    assert v.certificate.kind == "AlphaLessThanChi"
    assert v.certificate.data["alpha"] == 2
    assert v.certificate.data["chi"] == 3


@criterion(8, "ring families self-complementary and blocked both ways")
def test_criterion_08_ring_families():
    for d in (3, 4, 5):
        start = time.monotonic()
        s = generate(f"bullseye:{d}")
        assert s.n == 4 * d - 3
        graphs = s.build_graphs()
        mapping = find_isomorphism(graphs.alice, graphs.bob)
        assert mapping is not None
        for u, w in graphs.alice.edges:
            assert graphs.bob.has_edge(mapping[u], mapping[w])
        assert decide(s, ALICE_FIRST).status == INDISTINGUISHABLE
        assert decide(s, BOB_FIRST).status == INDISTINGUISHABLE
        assert time.monotonic() - start < 10.0


@criterion(9, "random chordal splittings verify to 1e-8 with PSD residuals")
def test_criterion_09_chordal_splitting_suite():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        g = brute.random_chordal(n, rng)
        m = brute.random_conforming_psd(g, rng)
        dec = chordal_decompose(m, g)
        rep = verify_decomposition(m, dec, host=g)
        assert rep.ok and rep.supports_ok
        assert rep.residual <= 1e-8 * np.linalg.norm(m)
        # the residual after each peel
        steps = np.cumsum([t.matrix() for t in dec.terms], axis=0)
        assert min((np.linalg.eigvalsh(m - p)[0] for p in steps), default=0.0) >= -1e-8


@criterion(10, "splittings and measurements convert both ways to 1e-7")
def test_criterion_10_equivalence_suite():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        states, g = brute.random_product_instance(n, rng)
        m = states.alice_gram()
        dec = chordal_decompose(m, g)
        protocol = synthesize_protocol(states, dec)
        assert validate_povm(protocol.alice, states).ok
        sim = simulate(states, protocol)
        assert sim.min_success >= 1 - 1e-7
        assert sim.max_support_leakage <= 1e-7
        back = povm_to_decomposition(states, protocol.alice)
        rep = verify_decomposition(m, back, host=g, rel_bound=1e-7)
        assert rep.ok and rep.supports_ok


@criterion(11, "graph oracles match brute force exhaustively")
def test_criterion_11_graph_oracles():
    for n in range(1, 7):
        for g in brute.all_graphs(n):
            res = is_chordal(g)
            assert res.chordal == brute.brute_is_chordal(g)
            if res.chordal:
                assert is_perfect_elimination_ordering(g, res.ordering)
            assert independence_number(g)[0] == brute.brute_alpha(g)
            assert chromatic_number(g)[0] == brute.brute_chromatic(g)
            assert (edge_clique_cover_number(g).count
                    == brute.brute_edge_clique_cover(g))
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = brute.random_graph(7, float(rng.uniform(0.15, 0.85)), rng)
        assert is_chordal(g).chordal == brute.brute_is_chordal(g)
        assert independence_number(g)[0] == brute.brute_alpha(g)
        assert chromatic_number(g)[0] == brute.brute_chromatic(g)
        assert (edge_clique_cover_number(g).count
                == brute.brute_edge_clique_cover(g))
    # a cover by at most two cliques forces chordality, exhaustively at n<=7
    for n in range(1, 8):
        for g in brute.two_clique_unions(n):
            assert is_chordal(g).chordal
            if n <= 6:
                assert brute.brute_is_chordal(g)


@criterion(12, "cycle representations keep near-full subsets independent")
def test_criterion_12_cycle_representations():
    for n in (4, 5, 6, 7):
        s = generate(f"cycle-rep:{n}")
        x = s.alice_frame()
        assert numeric_rank(x) == n - 2
        # every n-2 states lie on some induced path of the cycle; all of
        # those subsets must be linearly independent
        for keep in itertools.combinations(range(n), n - 2):
            assert numeric_rank(x[:, list(keep)]) == n - 2
        edges = [frozenset(e) for e in sorted(s.build_graphs().alice.edges)]
        rep = spanning_obstruction(s, edges)
        assert rep.empty and rep.d_eff == n - 2
