"""Verdict files: a verdict is written as its certificate and read back with
its protocol re-derived, and a forged or malformed file fails its checks
without raising."""

import dataclasses
import json

import numpy as np
import pytest

import brute
from loccgraph import ProductStateSet
from loccgraph.criteria import (
    ALICE_FIRST,
    BOB_FIRST,
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    KINDS,
    decide,
    verify_certificate,
)
from loccgraph.errors import InvalidInput
from loccgraph.families import generate
from loccgraph.serialize import protocol_to_json, verdict_from_json, verdict_to_json

MAX_VERDICT_BYTES = 10_000


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
    return cases


def _states(spec: str) -> ProductStateSet:
    if spec == "qubit-cover":
        return ProductStateSet.from_vectors(*brute.QUBIT_COVER)
    if spec.startswith("pinned:"):
        return brute.pinned_set(spec.split(":", 1)[1])[0]
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


def test_feasible_decomposition_file_keeps_its_splitting():
    s = generate("example3")
    v = decide(s, ALICE_FIRST)
    assert v.certificate.kind == "FeasibleDecomposition"
    data = json.loads(_write(v))
    assert data["decomposition"]["terms"]
    back = verdict_from_json(data, s)
    assert verify_certificate(s, back).ok


@pytest.mark.parametrize("spec", ["path-rep:8", "pentagon-path"])
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
    pytest.param("qubit-cover", ALICE_FIRST,
                 _edit_certificate("cliques", lambda c: c[:1]), id="qubit-clique-dropped"),
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
    pytest.param({"kind": "SingleQubitSandwich", "distinguishable": True,
                  "cliques": [["a"]]}, id="qubit-strings"),
    pytest.param({"kind": "DualWitness", "witness": "none"}, id="witness-string"),
])
def test_malformed_certificate_fields_raise_invalid_input(certificate):
    s = generate("example1")
    data = dict(json.loads(_write(decide(s))), certificate=certificate)
    with pytest.raises(InvalidInput):
        verdict_from_json(data, s)


def test_missing_certificate_fields_fail_verification():
    # a certificate that lacks what the re-derivation reads is a forgery,
    # not a malformed file: it reads back without a protocol
    for spec, direction, key in [
        ("example1", ALICE_FIRST, "ordering"),
        ("path-rep:8", BOB_FIRST, "scaling"),
        ("pinned:sandwich", ALICE_FIRST, "sandwich_edges"),
        ("qubit-cover", ALICE_FIRST, "cliques"),
    ]:
        back, failed = _forged(spec, direction,
                               lambda d: d["certificate"].pop(key))
        assert back.protocol is None and "protocol present" in failed


def test_a_splitting_over_other_states_is_malformed():
    s = generate("example3")
    data = json.loads(_write(decide(s, ALICE_FIRST)))
    data["decomposition"]["n"] = 3
    data["decomposition"]["terms"] = []
    with pytest.raises(InvalidInput):
        verdict_from_json(data, s)


def test_feasible_verdict_without_its_splitting_fails():
    back, failed = _forged("example3", ALICE_FIRST, lambda d: d.pop("decomposition"))
    assert back.protocol is None
    assert {"protocol present", "splitting present"} <= failed
