"""Verdict files: a verdict is written as its certificate and read back with
its protocol re-derived, and a forged or malformed file fails its checks
without raising."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import brute
import loccgraph
from loccgraph import ProductStateSet, criteria, decomposition, states
from loccgraph.criteria import (
    ALICE_FIRST,
    BOB_FIRST,
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    KINDS,
    DecideOptions,
    analyze,
    converse_theorem_checks,
    decide,
    effective_dimension,
    verify_certificate,
)
from loccgraph.errors import InvalidInput
from loccgraph.families import generate
from loccgraph.linalg import Tolerance, numeric_rank
from loccgraph.serialize import (
    protocol_to_json,
    states_from_json,
    states_to_json,
    verdict_from_json,
    verdict_to_json,
)

MAX_VERDICT_BYTES = 10_000
# draws of random_nonchordal_instance (seed:index) with n = d = 8 that split
# alice-first with the most pieces of their seed's first 40 draws
FULL_RANK_SPLITS = ("nonchordal:5:17", "nonchordal:7:13")


def _cases():
    cases = [
        pytest.param(spec, direction, id=f"{spec}-{direction}")
        for specs in brute.SWEEP_SPECS.values() for spec in specs
        for direction in (ALICE_FIRST, BOB_FIRST)
    ]
    cases += [pytest.param(spec, BOB_FIRST, id=f"{spec}-{BOB_FIRST}")
              for spec in ("path-rep:40", "cycle-rep:30")]
    cases += [pytest.param(f"pinned:{name}", brute.PINNED_SETS[name][0], id=name)
              for name in brute.PINNED_SETS]
    cases += [pytest.param("qubit-cover", ALICE_FIRST, id="qubit-cover")]
    cases += [pytest.param(spec, ALICE_FIRST, id=f"full-rank-{spec}")
              for spec in FULL_RANK_SPLITS]
    return cases


def _states(spec: str) -> ProductStateSet:
    if spec == "qubit-cover":
        return ProductStateSet.from_vectors(*brute.QUBIT_COVER)
    if spec.startswith("nonchordal:"):
        _, seed, index = spec.split(":")
        rng = np.random.default_rng(int(seed))
        for _ in range(int(index) + 1):
            s, _ = brute.random_nonchordal_instance(int(rng.integers(5, 9)), rng)
        return s
    if spec.startswith("pinned:"):
        name = spec.split(":", 1)[1]
        if name in brute.FACE_SETS:
            return brute.face_set(name)[0]
        return brute.pinned_set(name)[0]
    return generate(spec)


def _write(verdict) -> str:
    return json.dumps(verdict_to_json(verdict))


def _failed(outcome) -> set[str]:
    return {name for name, ok, _ in outcome.checks if not ok}


@pytest.mark.parametrize("spec,direction", _cases())
def test_verdict_file_roundtrip(spec, direction):
    s = _states(spec)
    v = decide(s, direction)
    text = _write(v)
    assert len(text) < MAX_VERDICT_BYTES
    data = json.loads(text)
    assert "protocol" not in data and "simulation" not in data
    back = verdict_from_json(data, s)
    outcome = verify_certificate(s, back)
    assert outcome.ok, outcome.checks
    assert (back.status, back.certificate.kind) == (v.status, v.certificate.kind)
    assert back.parameters.get("min_success") == v.parameters.get("min_success")
    if v.protocol is not None:
        # the same lines build the written and the re-derived protocol
        assert protocol_to_json(back.protocol) == protocol_to_json(v.protocol)
        assert back.simulation == v.simulation


def test_roundtrips_cover_every_kind():
    seen = {
        decide(_states(spec), direction).certificate.kind
        for spec, direction in (case.values for case in _cases())
    }
    assert seen == set(KINDS) - {"Unknown"}


@pytest.mark.parametrize("name", list(brute.PINNED_SETS))
def test_pinned_sets_reach_their_rungs(name):
    s, direction, kind = brute.pinned_set(name)
    v = decide(s, direction)
    assert v.certificate.kind == kind
    outcome = verify_certificate(s, v)
    assert outcome.ok, outcome.checks


def test_greedy_integer_sets_are_orthogonal_product_sets():
    rng = np.random.default_rng(0)
    made = [brute.greedy_integer_set(3, 6, rng) for _ in range(5)]
    assert any(s is not None for s in made)
    for s in made:
        if s is not None:
            assert s.n == 6 and s.validate_orthonormal().ok


def test_feasible_decomposition_file_writes_its_pieces():
    # one weight and one direction on the measuring side per piece, not the
    # n x n splitting they push forward to
    s = generate("example3")
    v = decide(s, ALICE_FIRST)
    assert v.certificate.kind == "FeasibleDecomposition"
    data = json.loads(_write(v))
    assert "decomposition" not in data
    cert = data["certificate"]
    assert len(cert["supports"]) == len(cert["weights"]) == len(cert["directions"])
    assert all(len(e) == s.d_alice for e in cert["directions"])
    back = verdict_from_json(data, s)
    assert verify_certificate(s, back).ok
    assert protocol_to_json(back.protocol) == protocol_to_json(v.protocol)


@pytest.mark.parametrize("spec", FULL_RANK_SPLITS)
def test_full_rank_splits_are_feasible_decompositions(spec):
    # the size bound in test_verdict_file_roundtrip bites on these, whose
    # pieces fill all of C^8 on Alice's side
    s = _states(spec)
    v = decide(s, ALICE_FIRST)
    assert v.certificate.kind == "FeasibleDecomposition"
    assert effective_dimension(s) == s.d_alice == s.n == 8


@pytest.mark.parametrize("spec", ["path-rep:8", "pentagon-path", "example3"])
def test_derived_kinds_write_no_splitting(spec):
    v = decide(generate(spec), BOB_FIRST if spec == "path-rep:8" else ALICE_FIRST)
    assert v.decomposition is not None
    assert "decomposition" not in json.loads(_write(v))


def test_protocol_json_matches_a_per_element_encoding():
    # protocol_to_json encodes all directions at once; each must read as
    # its own vector's [re, im] pairs
    for specs in brute.SWEEP_SPECS.values():
        for spec in specs:
            s = generate(spec)
            for direction in (ALICE_FIRST, BOB_FIRST):
                v = decide(s, direction)
                if v.protocol is None:
                    continue
                out = protocol_to_json(v.protocol)
                expected = [
                    [[float(z.real), float(z.imag)] for z in np.ravel(e.direction)]
                    for e in v.protocol.alice.elements
                ]
                got = [e["direction"] for e in out["alice"]["elements"]]
                assert json.dumps(got) == json.dumps(expected)


# ---------------------------------------------------------------------------
# forged and malformed files


def _forged(spec, direction, edit):
    """Decide, write, apply edit to the file's data, read back and verify."""
    s = _states(spec)
    data = json.loads(_write(decide(s, direction)))
    edit(data)
    back = verdict_from_json(data, s)
    outcome = verify_certificate(s, back)
    assert not outcome.ok
    return back, _failed(outcome)


def _set_scaling(value):
    def edit(data):
        data["certificate"]["scaling"][0] = value
    return edit


def _edit_certificate(key, change):
    def edit(data):
        data["certificate"][key] = change(data["certificate"][key])
    return edit


@pytest.mark.parametrize("spec,direction,edit", [
    pytest.param("path-rep:8", BOB_FIRST, _set_scaling(0), id="scaling-zero"),
    pytest.param("path-rep:8", BOB_FIRST, _set_scaling(-1), id="scaling-negative"),
    pytest.param("path-rep:8", BOB_FIRST, _set_scaling(1e300), id="scaling-huge",
                 marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
    pytest.param("path-rep:8", BOB_FIRST,
                 _edit_certificate("supports", lambda s: s[1:]), id="support-dropped"),
    pytest.param("example1", ALICE_FIRST,
                 _edit_certificate("ordering", lambda o: o[::-1]), id="ordering-reversed"),
    pytest.param("pinned:bob-complement", BOB_FIRST,
                 _edit_certificate("ordering", lambda o: o[::-1]),
                 id="host-ordering-reversed"),
    pytest.param("example1", ALICE_FIRST,
                 _edit_certificate("ordering", lambda o: o[:-1]), id="ordering-truncated"),
    pytest.param("pinned:sandwich", ALICE_FIRST,
                 _edit_certificate("sandwich_edges", lambda e: e[1:]),
                 id="sandwich-edge-removed"),
])
def test_forged_certificates_leave_no_protocol(spec, direction, edit):
    back, failed = _forged(spec, direction, edit)
    assert back.protocol is None
    assert "protocol present" in failed


def test_flipped_status_fails():
    _, failed = _forged(
        "example1", ALICE_FIRST, lambda d: d.update(status=INDISTINGUISHABLE)
    )
    assert "certificate proves the status" in failed
    back, failed = _forged(
        "bennett", ALICE_FIRST, lambda d: d.update(status=DISTINGUISHABLE)
    )
    assert back.protocol is None
    assert {"certificate proves the status", "protocol present"} <= failed


def _malformed(edit):
    s = generate("path-rep:8")
    data = json.loads(_write(decide(s, BOB_FIRST)))
    return edit(data), s


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: None, id="null"),
    pytest.param(lambda d: [d], id="list"),
    pytest.param(lambda d: {k: v for k, v in d.items() if k != "status"}, id="no-status"),
    pytest.param(lambda d: dict(d, status="Maybe"), id="unknown-status"),
    pytest.param(lambda d: dict(d, direction="sideways"), id="unknown-direction"),
    pytest.param(lambda d: dict(d, certificate=None), id="null-certificate"),
    pytest.param(lambda d: dict(d, certificate={
        k: v for k, v in d["certificate"].items() if k != "kind"}), id="no-kind"),
    pytest.param(lambda d: dict(d, certificate=dict(d["certificate"], kind="Oracle")),
                 id="unknown-kind"),
    pytest.param(lambda d: dict(d, certificate=dict(d["certificate"], kind=["x"])),
                 id="list-kind"),
    pytest.param(lambda d: dict(d, certificate=dict(
        d["certificate"], scaling=["1"] * len(d["certificate"]["scaling"]))),
        id="string-scaling"),
    pytest.param(lambda d: dict(d, certificate=dict(d["certificate"], scaling=None)),
                 id="null-scaling"),
    pytest.param(lambda d: dict(d, certificate=dict(d["certificate"], supports=[[0, 1]])),
                 id="support-out-of-range"),
    pytest.param(lambda d: dict(d, parameters=None), id="null-parameters"),
    pytest.param(lambda d: dict(d, parameters=dict(d["parameters"], search_budget="9")),
                 id="string-budget"),
    pytest.param(lambda d: dict(d, notes="text"), id="string-notes"),
])
def test_malformed_verdict_files_raise_invalid_input(edit):
    data, s = _malformed(edit)
    with pytest.raises(InvalidInput):
        verdict_from_json(data, s)


@pytest.mark.parametrize("certificate", [
    pytest.param({"kind": "ChordalSandwich", "sandwich_edges": [[1, 1]], "ordering": []},
                 id="sandwich-loop"),
    pytest.param({"kind": "DualWitness", "witness": "none"}, id="witness-string"),
])
def test_malformed_certificate_fields_raise_invalid_input(certificate):
    s = generate("example1")
    data = dict(json.loads(_write(decide(s))), certificate=certificate)
    with pytest.raises(InvalidInput):
        verdict_from_json(data, s)


def test_a_retired_kind_is_refused():
    # SingleQubitSandwich verdicts were written before the sandwich rung
    # decided qubit sides; their files now name an unknown kind
    s = ProductStateSet.from_vectors(*brute.QUBIT_COVER)
    data = dict(json.loads(_write(decide(s))), certificate={
        "kind": "SingleQubitSandwich", "distinguishable": True,
        "cliques": [[1, 2, 3, 5], [1, 3, 4, 6]]})
    with pytest.raises(InvalidInput, match="SingleQubitSandwich"):
        verdict_from_json(data, s)


def test_missing_certificate_fields_fail_verification():
    # a certificate that lacks what the re-derivation reads is a forgery,
    # not a malformed file: it reads back without a protocol
    for spec, direction, key in [
        ("example1", ALICE_FIRST, "ordering"),
        ("path-rep:8", BOB_FIRST, "scaling"),
        ("pinned:sandwich", ALICE_FIRST, "sandwich_edges"),
    ]:
        back, failed = _forged(spec, direction,
                               lambda d: d["certificate"].pop(key))
        assert back.protocol is None and "protocol present" in failed


def test_a_splitting_over_other_states_is_malformed():
    # a piece whose support names a fifth state of the four
    s = generate("example3")
    data = json.loads(_write(decide(s, ALICE_FIRST)))
    data["certificate"]["supports"][0] = [1, 5]
    with pytest.raises(InvalidInput):
        verdict_from_json(data, s)


def test_feasible_verdict_without_its_splitting_fails():
    back, failed = _forged(
        "example3", ALICE_FIRST, lambda d: d["certificate"].pop("directions")
    )
    assert back.protocol is None
    assert {"protocol present", "pieces split the Gram matrix"} <= failed


def _edit_pieces(change):
    """Apply change(supports, weights, directions) to a FeasibleDecomposition file."""
    def edit(data):
        cert = data["certificate"]
        change(cert["supports"], cert["weights"], cert["directions"])
    return edit


def _drop_piece(supports, weights, directions):
    for field in (supports, weights, directions):
        del field[0]


def _reach_outside(supports, weights, directions):
    # the first piece keeps only one state of its support
    supports[0] = supports[0][:1]


def _negate_weight(supports, weights, directions):
    weights[0] = -weights[0]


@pytest.mark.parametrize("spec,direction,edit,checks", [
    pytest.param("example3", ALICE_FIRST, _edit_pieces(_drop_piece),
                 {"pieces split the Gram matrix"}, id="piece-dropped"),
    pytest.param("pinned:S1", BOB_FIRST, _edit_pieces(_drop_piece),
                 {"pieces split the Gram matrix"}, id="S1-piece-dropped"),
    pytest.param("example3", ALICE_FIRST, _edit_pieces(_reach_outside),
                 {"pieces split the Gram matrix", "supports respected"},
                 id="piece-reaches-outside"),
    pytest.param("example3", ALICE_FIRST, _edit_pieces(_negate_weight),
                 {"pieces split the Gram matrix", "protocol present"},
                 id="negative-weight"),
    pytest.param("example3", ALICE_FIRST,
                 _edit_certificate("directions", lambda e: e[:-1]),
                 {"pieces split the Gram matrix", "protocol present"},
                 id="directions-short"),
    pytest.param("example3", ALICE_FIRST,
                 _edit_certificate("weights", lambda w: [float("nan")] + w[1:]),
                 {"pieces split the Gram matrix", "protocol present"}, id="weight-nan"),
])
def test_forged_feasible_decompositions_fail_their_checks(spec, direction, edit, checks):
    _, failed = _forged(spec, direction, edit)
    assert checks <= failed


def _negate_witness(data):
    data["certificate"]["witness"] = [
        [[-re, -im] for re, im in row] for row in data["certificate"]["witness"]
    ]


@pytest.mark.parametrize("edit,check", [
    pytest.param(_negate_witness, "witness excludes every splitting", id="negated"),
    pytest.param(_edit_certificate("witness", lambda y: [row[:-1] for row in y[:-1]]),
                 "witness is an operator on the measuring side", id="shrunk"),
    pytest.param(_edit_certificate("witness", lambda y: [
        [[float("nan"), 0.0]] + row[1:] for row in y]),
                 "witness is an operator on the measuring side", id="nan"),
])
def test_forged_dual_witness_files_fail_their_checks(edit, check):
    _, failed = _forged("pentagon-path", BOB_FIRST, edit)
    assert failed == {check}


# ---------------------------------------------------------------------------
# what a state set keeps: the graphs, the host, the span and chordality are
# derived once per set, and verification reads nothing else from decide


def _kept_cases():
    both = (ALICE_FIRST, BOB_FIRST)
    cases = [(generate(spec), direction, spec)
             for specs in brute.SWEEP_SPECS.values() for spec in specs
             for direction in both]
    cases += [(brute.face_set(name)[0], direction, name)
              for name in brute.FACE_SETS for direction in both]
    cases += [(*brute.pinned_set(name)[:2], name) for name in brute.PINNED_SETS]
    return cases


def test_verifying_on_the_decided_set_matches_a_fresh_parse():
    for s, direction, name in _kept_cases():
        v = decide(s, direction)
        fresh = states_from_json(json.loads(json.dumps(states_to_json(s))))
        assert verify_certificate(s, v).checks == verify_certificate(fresh, v).checks, name
        data = json.loads(_write(v))
        kept = verify_certificate(s, verdict_from_json(data, s))
        again = verify_certificate(fresh, verdict_from_json(data, fresh))
        assert kept.ok and kept.checks == again.checks, name


@pytest.mark.parametrize("spec,direction,edit,check", [
    pytest.param("bennett", BOB_FIRST,
                 _edit_certificate("alpha_witness", lambda w: [2, *w[1:]]),
                 "witness independent in host", id="witness-swapped"),
    pytest.param("tiles", ALICE_FIRST, lambda d: d["parameters"].update(search_budget=0),
                 "search within budget", id="budget-too-small"),
    pytest.param("pentagon-path", BOB_FIRST, _negate_witness,
                 "witness excludes every splitting", id="witness-negated"),
])
def test_a_kept_search_answers_only_its_own_question(spec, direction, edit, check):
    # after decide on the same set, a forgery asks about other rows, another
    # budget or another operator, and gets the checks a fresh set gives
    s = generate(spec)
    data = json.loads(_write(decide(s, direction)))
    # state 2 is no witness state, so the swap leaves a witness of three
    assert 2 not in data["certificate"].get("alpha_witness", ())
    edit(data)
    outcome = verify_certificate(s, verdict_from_json(data, s))
    assert check in _failed(outcome)
    fresh = states_from_json(json.loads(json.dumps(states_to_json(s))))
    assert outcome.checks == verify_certificate(fresh, verdict_from_json(data, fresh)).checks


@pytest.mark.parametrize("spec,direction,searches", [
    ("bennett", BOB_FIRST, {"proof": 1}),
    ("tiles", ALICE_FIRST, {"alpha_chi": 1}),
    ("example2", ALICE_FIRST, {"alpha_chi": 1, "sandwich": 1}),
    ("cycle-rep:6", ALICE_FIRST, {"faces": 1}),
    ("pentagon-path", BOB_FIRST, {"faces": 1}),
])
def test_verifying_on_a_fresh_set_runs_its_searches_again(
    state_searches, spec, direction, searches
):
    s = generate(spec)
    v = decide(s, direction)
    checks = verify_certificate(s, v).checks
    state_searches.clear()
    fresh = states_from_json(json.loads(json.dumps(states_to_json(s))))
    assert verify_certificate(fresh, v).checks == checks
    assert state_searches == searches


@pytest.mark.parametrize("spec,direction,options", [
    ("tiles", ALICE_FIRST, DecideOptions(search_budget=0)),
    ("pinned:sandwich", brute.PINNED_SETS["sandwich"][0], DecideOptions(sandwich_budget=0)),
])
def test_deciding_again_at_another_budget_matches_a_fresh_set(spec, direction, options):
    s = _states(spec)
    first = decide(s, direction)
    again = decide(s, direction, options)
    assert again.certificate.kind != first.certificate.kind
    fresh = states_from_json(json.loads(json.dumps(states_to_json(s))))
    assert _write(again) == _write(decide(fresh, direction, options))


def test_verifying_at_another_rank_tol_matches_a_fresh_set():
    # at rank_tol 0.2 each maximal support of cycle-rep:6 leaves a line free
    s = generate("cycle-rep:6")
    v = decide(s, ALICE_FIRST)
    tol = Tolerance(rank_tol=0.2)
    outcome = verify_certificate(s, v, tol)
    assert _failed(outcome) == {"obstruction reproducible"}
    fresh = states_from_json(json.loads(json.dumps(states_to_json(s))))
    assert outcome.checks == verify_certificate(fresh, v, tol).checks


def test_effective_dimension_is_the_frame_rank():
    # the kept span's width counts singular values as numeric_rank does
    for s, direction, name in _kept_cases():
        v = decide(s, direction)
        work = s if direction == ALICE_FIRST else s.swapped()
        rank = numeric_rank(work.alice_frame())
        assert v.parameters["d_eff"] == effective_dimension(work) == rank, name
        if v.certificate.kind == "SpanningObstruction":
            assert v.certificate.data["d_eff"] == rank, name


@pytest.mark.parametrize("spec,direction,edit,check", [
    pytest.param("example1", ALICE_FIRST,
                 _edit_certificate("ordering", lambda o: o[::-1]),
                 "ordering valid", id="ordering-reversed"),
    pytest.param("bennett", ALICE_FIRST,
                 _edit_certificate("alpha_witness", lambda w: w[:-1]),
                 "witness size meets rank", id="witness-short"),
    pytest.param("cycle-rep:6", BOB_FIRST,
                 lambda d: d.update(status=INDISTINGUISHABLE, certificate={
                     "kind": "SpanningObstruction", "d_eff": 2,
                     "supports": [], "outside_ranks": []}),
                 "obstruction reproducible", id="spanning-claimed"),
])
def test_a_forgery_fails_after_a_valid_decide_on_the_same_set(spec, direction, edit, check):
    s = generate(spec)
    v = decide(s, direction)
    assert verify_certificate(s, v).ok
    data = json.loads(_write(v))
    edit(data)
    assert check in _failed(verify_certificate(s, verdict_from_json(data, s)))


def _count_derivations(monkeypatch, frame: np.ndarray) -> dict:
    """Count the intake passes (orthonormality report and overlap graphs)
    and, of the given measuring frame, the rank derivations (singular values
    alone) and the full SVDs."""
    counts = {"intake": 0, "ranks": 0, "svds": 0}
    intake = states._intake
    svd = np.linalg.svd

    def counting_intake(*args):
        counts["intake"] += 1
        return intake(*args)

    def counting_svd(a, full_matrices=True, compute_uv=True, **kwargs):
        if np.shape(a) == frame.shape and np.array_equal(a, frame):
            counts["svds" if compute_uv else "ranks"] += 1
        return svd(a, full_matrices, compute_uv, **kwargs)

    monkeypatch.setattr(states, "_intake", counting_intake)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return counts


# (rank derivations, SVDs) of the measuring frame: an alpha(host) witness
# of d_alice states proves the rank when one exists (bennett: no
# factorisation at all); otherwise the rank is the width of the one SVD,
# which gives the span too
_FRAME_DERIVATIONS = {
    "example1": (0, 1), "path-rep:8": (0, 1), "example3": (0, 1),
    "cycle-rep:6": (0, 1), "pentagon-path": (0, 1), "bennett": (0, 0),
    "cycle-rep:8": (0, 1), "path-rep:12": (0, 1), "tiles": (0, 1),
    "example2": (0, 0),
}

# the state searches decide runs (state_searches); verify reads them back on
# the same set
_STATE_SEARCHES = {
    "example1": {}, "path-rep:8": {"alpha_chi": 1},
    "example3": {"alpha_chi": 1, "faces": 1},
    "cycle-rep:6": {"alpha_chi": 1, "faces": 1},
    "pentagon-path": {"alpha_chi": 1, "faces": 1},
    "bennett": {"alpha_chi": 1, "proof": 1}, "cycle-rep:8": {"alpha_chi": 1},
    "path-rep:12": {"alpha_chi": 1}, "tiles": {"alpha_chi": 1},
    "example2": {"alpha_chi": 1, "proof": 1, "sandwich": 1},
}


@pytest.mark.parametrize("spec,direction", [
    ("example1", ALICE_FIRST),        # ChordalAliceGraph
    ("path-rep:8", BOB_FIRST),        # ScaledDiagonalDominance
    ("example3", ALICE_FIRST),        # FeasibleDecomposition
    ("cycle-rep:6", ALICE_FIRST),     # SpanningObstruction
    ("pentagon-path", BOB_FIRST),     # DualWitness
    ("bennett", BOB_FIRST),           # MinDimNoSimplicial
    ("cycle-rep:8", BOB_FIRST),       # ScaledDiagonalDominance
    ("path-rep:12", BOB_FIRST),       # ScaledDiagonalDominance
    ("tiles", ALICE_FIRST),           # AlphaLessThanChi
    ("example2", ALICE_FIRST),        # NonChordalSandwichAtMinDim
])
def test_decide_and_verify_derive_each_fact_once(monkeypatch, state_searches, spec, direction):
    s = generate(spec)
    frame = (s.alice if direction == ALICE_FIRST else s.bob).T
    counts = _count_derivations(monkeypatch, frame)
    v = decide(s, direction)
    back = verdict_from_json(json.loads(_write(v)), s)
    assert verify_certificate(s, back).ok
    ranks, svds = _FRAME_DERIVATIONS[spec]
    assert counts == {"intake": 1, "ranks": ranks, "svds": svds}
    assert state_searches == _STATE_SEARCHES[spec]
    # analyze and the converse checks run none of decide's searches again;
    # they derive once what decide did not need
    work = s if direction == ALICE_FIRST else s.swapped()
    analyze(work)
    converse_theorem_checks(work, v)
    assert all(runs == 1 for runs in state_searches.values()), state_searches
    assert state_searches.keys() >= _STATE_SEARCHES[spec].keys()


@pytest.mark.parametrize("source,singular", [
    ("random", 0),                           # 8 states spanning C^8
    ("example1", 1),                         # 4 states in C^2
    ("bennett-subset:1,2,3,4,5,6,8", 1),     # 7 states in C^3
    ("example1 in C^4", 0),                  # 4 states spanning C^2, in C^4
])
def test_a_peel_runs_the_psd_eigensolve_only_when_its_factorisation_fails(
    monkeypatch, lapack_calls, source, singular
):
    # a completed Cholesky factorisation proves the Gram PSD. A Gram that is
    # singular by its shape (more states than Alice's dimension) is PSD as
    # X*X: it is neither factorised nor eigensolved before the elimination
    # loop. Only a factorisation that fails takes the PSD check's eigensolve.
    if source == "random":
        s, _ = brute.random_product_instance(8, np.random.default_rng(2))
    elif source == "example1 in C^4":
        e = generate("example1")
        s = ProductStateSet.from_vectors(
            [np.append(a, (0, 0)) for a in e.alice], list(e.bob), e.labels)
    else:
        s = generate(source)
    assert (s.n > s.d_alice) == singular
    fails = int(source == "example1 in C^4")
    checks, peels = [], []
    check, peel = decomposition.psd_check, criteria.chordal_decompose
    monkeypatch.setattr(decomposition, "psd_check",
                        lambda *args: checks.append(args) or check(*args))

    def counted(*args, **kwargs):
        before = lapack_calls.copy()
        out = peel(*args, **kwargs)
        peels.append(tuple(lapack_calls[k] - before[k] for k in ("cholesky", "eigvalsh", "eigh")))
        return out

    monkeypatch.setattr(criteria, "chordal_decompose", counted)
    v = decide(s, ALICE_FIRST)
    assert v.certificate.kind == "ChordalAliceGraph"
    assert peels == [(1 - singular, fails, 0)]
    assert len(checks) == fails
    # reading the file back peels again; verifying does not peel
    back = verdict_from_json(json.loads(_write(v)), s)
    assert verify_certificate(s, back).ok
    assert peels == [(1 - singular, fails, 0)] * 2
    assert len(checks) == 2 * fails


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
def test_a_bullseye_is_decided_and_verified_without_its_span(monkeypatch, direction):
    # MinDimNoSimplicial reads only the rank, which its witness proves, in
    # decide and in verify, also on fresh states read back from a file: no
    # SVD of any shape is taken
    s = generate("bullseye:11")
    frame = (s if direction == ALICE_FIRST else s.swapped()).alice_frame()
    counts = _count_derivations(monkeypatch, frame)
    factorised, counting = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
        factorised.append(np.shape(a)) or counting(a, *args, **kwargs)))
    v = decide(s, direction)
    assert v.certificate.kind == "MinDimNoSimplicial"
    assert verify_certificate(s, verdict_from_json(json.loads(_write(v)), s)).ok
    fresh = generate("bullseye:11")
    assert verify_certificate(fresh, verdict_from_json(json.loads(_write(v)), fresh)).ok
    assert counts == {"intake": 2, "ranks": 0, "svds": 0}
    assert factorised == []


def test_deciding_and_verifying_leaves_numpy_ma_unimported():
    # numpy imports numpy.ma on the first np.unique or np.union1d, which
    # took most of a fresh process's first decide; these two sets reached it
    code = """if True:
        import json, sys
        from loccgraph.criteria import decide, verify_certificate
        from loccgraph.families import generate
        from loccgraph.serialize import verdict_from_json, verdict_to_json
        for spec, direction in (("path-rep:8", "bob-first"), ("example3", "alice-first")):
            s = generate(spec)
            v = decide(s, direction)
            assert verify_certificate(s, v).ok
            back = verdict_from_json(json.loads(json.dumps(verdict_to_json(v))), s)
            assert verify_certificate(s, back).ok
        print("numpy.ma" in sys.modules)
    """
    src = str(Path(loccgraph.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
