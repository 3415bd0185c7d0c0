"""The convex end searches for Alice's outcome operators on the faces of her
span: the sets on which a search over Gram splittings stalled or raised, and
the face search as an oracle for the graph rungs."""

import json

import numpy as np
import pytest

import brute
from loccgraph.cli import main
from loccgraph.criteria import (
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    KIND_DUAL_WITNESS,
    KIND_FEASIBLE,
    KIND_SPANNING,
    decide,
    verify_certificate,
)
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
