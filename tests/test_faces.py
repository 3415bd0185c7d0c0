"""The convex end searches for Alice's outcome operators on the faces of her
span: the sets on which a search over Gram splittings stalled or raised, and
the face search as an oracle for the graph rungs."""

import json

import numpy as np
import pytest

import brute
from loccgraph import ProductStateSet
from loccgraph.cli import main
from loccgraph.criteria import (
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    KIND_ALPHA_CHI,
    KIND_DUAL_WITNESS,
    KIND_FEASIBLE,
    KIND_NO_SANDWICH,
    KIND_NO_SIMPLICIAL,
    KIND_SPANNING,
    Certificate,
    Verdict,
    decide,
    effective_dimension,
    verify_certificate,
)
from loccgraph.graphs import eta_plus_bounds
from loccgraph.decomposition import feasibility_search, support_faces
from loccgraph.graphs import maximal_cliques
from loccgraph.serialize import (
    protocol_to_json,
    states_to_json,
    verdict_from_json,
    verdict_to_json,
)


@pytest.mark.parametrize("name,direction", [
    (name, direction)
    for name in brute.FACE_SETS for direction in ("alice-first", "bob-first")
])
def test_face_sets_decide_verify_and_reread(name, direction, tmp_path, capsys):
    s, kinds = brute.face_set(name)
    v = decide(s, direction)
    assert v.certificate.kind == kinds[direction]
    outcome = verify_certificate(s, v)
    assert outcome.ok, outcome.checks
    text = json.dumps(verdict_to_json(v))
    assert len(text) < 10_000
    back = verdict_from_json(json.loads(text), s)
    outcome = verify_certificate(s, back)
    assert outcome.ok, outcome.checks
    assert protocol_to_json(back.protocol) == protocol_to_json(v.protocol)
    states_path, verdict_path = tmp_path / "states.json", tmp_path / "verdict.json"
    states_path.write_text(json.dumps(states_to_json(s)))
    verdict_path.write_text(text)
    code = main(["verify", "--input", str(states_path), "--verdict", str(verdict_path)])
    assert code == 0, capsys.readouterr().err


def _face_status(work) -> str:
    """The status the face search alone gives, with no graph rung."""
    host = work.build_graphs().bob_orthogonality()
    faces = support_faces(work.alice_frame(), maximal_cliques(host))
    if faces.empty:
        return INDISTINGUISHABLE
    result = feasibility_search(faces)
    assert result.converged or result.witness is not None
    return DISTINGUISHABLE if result.converged else INDISTINGUISHABLE


def test_graph_rungs_agree_with_the_face_search():
    # the paper's chordal characterisation and its minimality conditions,
    # checked against a complete search on rank-deficient sets (150 draws of
    # greedy_integer_set, d 3-5, n 5-10, both directions)
    rng = np.random.default_rng(0)
    checked = set()
    for _ in range(150):
        s = brute.greedy_integer_set(int(rng.integers(3, 6)), int(rng.integers(5, 11)), rng)
        if s is None:
            continue
        for direction in ("alice-first", "bob-first"):
            v = decide(s, direction)
            if v.certificate.kind in (KIND_SPANNING, KIND_FEASIBLE, KIND_DUAL_WITNESS):
                continue
            work = s if direction == "alice-first" else s.swapped()
            assert _face_status(work) == v.status, (v.certificate.kind, direction)
            checked.add(v.certificate.kind)
    assert checked >= {
        "ChordalAliceGraph", "ChordalBobComplement", "ChordalSandwich",
        "AlphaLessThanChi", "MinDimNoSimplicial", "NonChordalSandwichAtMinDim",
    }


def _agree_when_the_host_outgrows_alice(seed: int):
    """With Bob's vectors in {0,1}^4 most pairs with disjoint Bob supports
    are orthogonal on both sides too, so the host is larger than Alice's
    overlap graph and the sandwich-simplicial test differs from the host's
    own (60 draws of greedy_integer_set, d 4, n 7-12, both ways)."""
    rng = np.random.default_rng(seed)
    checked, larger = set(), 0
    for _ in range(60):
        s = brute.greedy_integer_set(4, int(rng.integers(7, 13)), rng, bob_values=(0, 1))
        if s is None:
            continue
        for direction in ("alice-first", "bob-first"):
            v = decide(s, direction)
            if v.certificate.kind in (KIND_SPANNING, KIND_FEASIBLE, KIND_DUAL_WITNESS):
                continue
            work = s if direction == "alice-first" else s.swapped()
            graphs = work.build_graphs()
            shared = graphs.bob_orthogonality() is graphs.alice
            larger += not shared
            # no chordal sandwich proves nothing when the host is larger
            assert shared or v.certificate.kind != KIND_NO_SANDWICH
            assert _face_status(work) == v.status, (v.certificate.kind, direction)
            checked.add(v.certificate.kind)
    assert larger >= 50
    assert checked >= {"ChordalAliceGraph", "MinDimNoSimplicial"}


def test_graph_rungs_agree_with_the_face_search_when_the_host_outgrows_alice():
    _agree_when_the_host_outgrows_alice(7)


def test_graph_rungs_agree_with_the_face_search_on_the_draws_of_host_sandwich():
    # seed 17, draw 18 is the set pinned as host-sandwich, on which
    # NonChordalSandwichAtMinDim used to fire
    _agree_when_the_host_outgrows_alice(17)


def _pinned(name):
    if name == "qubit-cover":
        return ProductStateSet.from_vectors(*brute.QUBIT_COVER), "alice-first"
    return brute.pinned_set(name)[:2]


@pytest.mark.parametrize("name", [*brute.PINNED_SETS, "qubit-cover"])
def test_pinned_sets_agree_with_the_face_search(name):
    s, direction = _pinned(name)
    work = s if direction == "alice-first" else s.swapped()
    assert decide(s, direction).status == _face_status(work)


def test_the_svd_set_decides_and_verifies():
    # numpy's SVD raised on this set's frame before the conjugate-transpose
    # fallback
    s = ProductStateSet.from_vectors(*brute.SVD_SET)
    v = decide(s)
    assert (v.status, v.certificate.kind) == (DISTINGUISHABLE, "ChordalAliceGraph")
    outcome = verify_certificate(s, v)
    assert outcome.ok, outcome.checks
    assert _face_status(s) == DISTINGUISHABLE


def _forgeries(work, direction, parameters):
    """MinDimNoSimplicial, AlphaLessThanChi and NonChordalSandwichAtMinDim
    verdicts built from the set's own host bounds, as decide would record
    them had the rungs fired."""
    host = work.build_graphs().bob_orthogonality()
    eta = eta_plus_bounds(host)
    d_eff = effective_dimension(work)
    witness = sorted(eta.lower_witness)
    certificates = [
        Certificate(KIND_NO_SIMPLICIAL, {
            "alpha": d_eff, "d_eff": d_eff, "alpha_witness": witness, "eta": d_eff,
            "eta_certificate": "independent set meets Gram rank"}),
        Certificate(KIND_ALPHA_CHI, {
            "alpha": eta.lower, "chi": eta.upper, "alpha_witness": witness}),
        Certificate(KIND_NO_SANDWICH, {"chi": eta.upper}),
    ]
    return [Verdict(INDISTINGUISHABLE, direction, c, parameters) for c in certificates]


@pytest.mark.parametrize("name", ["qubit-cover", "q7", "g4", "sandwich", "host-sandwich"])
def test_forged_minimum_dimension_certificates_fail_on_split_sets(name):
    # the face search splits these sets, so no Indistinguishable certificate
    # may pass every check
    s, direction = _pinned(name)
    work = s if direction == "alice-first" else s.swapped()
    assert _face_status(work) == DISTINGUISHABLE
    parameters = decide(s, direction).parameters
    for forged in _forgeries(work, direction, parameters):
        outcome = verify_certificate(s, forged)
        assert not outcome.ok, (forged.certificate.kind, outcome.checks)


def test_a_forged_sandwich_absence_fails_only_for_the_larger_host():
    # at minimum dimension no graph between Alice's overlap graph and the
    # larger host is chordal, so every other check of the forgery passes
    s, direction = _pinned("host-sandwich")
    forged = _forgeries(s.swapped(), direction, decide(s, direction).parameters)[2]
    outcome = verify_certificate(s, forged)
    assert {name for name, ok, _ in outcome.checks if not ok} == {
        "overlap graph is the host"
    }
