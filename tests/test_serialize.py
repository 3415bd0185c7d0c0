import json

import numpy as np
import pytest

from loccgraph.criteria import BOB_FIRST, decide, verify_certificate
from loccgraph.decomposition import verify_decomposition
from loccgraph.errors import InvalidInput
from loccgraph.families import generate
from loccgraph.graphs import Graph, cycle_graph
from loccgraph.locc import simulate
from loccgraph.serialize import (
    dot_graph,
    graph_from_json,
    graph_to_json,
    jsonify,
    protocol_from_json,
    protocol_to_json,
    states_from_json,
    states_to_json,
    verdict_from_json,
    verdict_to_json,
)


def _roundtrip(payload):
    return json.loads(json.dumps(payload))


def test_states_roundtrip_exact():
    s = generate("bullseye:4")  # complex entries
    data = _roundtrip(states_to_json(s))
    t = states_from_json(data)
    assert t.labels == s.labels
    assert np.array_equal(t.alice, s.alice)
    assert np.array_equal(t.bob, s.bob)


def test_states_from_json_validates():
    with pytest.raises(InvalidInput):
        states_from_json({"dA": 2, "dB": 2, "states": []})
    with pytest.raises(InvalidInput):
        states_from_json({"dA": 2, "states": [{"A": [[1, 0]], "B": [[1, 0]]}]})
    bad_len = {
        "dA": 2, "dB": 2,
        "states": [{"label": "1", "A": [[1, 0]], "B": [[1, 0], [0, 0]]}],
    }
    with pytest.raises(InvalidInput):
        states_from_json(bad_len)


def test_graph_roundtrip():
    g = cycle_graph(5)
    data = _roundtrip(graph_to_json(g))
    assert data["n"] == 5 and len(data["edges"]) == 5
    assert graph_from_json(data) == g


def test_graph_edges_are_one_based_sorted():
    g = Graph.from_edges(3, [(3, 1), (2, 1)])
    assert graph_to_json(g)["edges"] == [[1, 2], [1, 3]]


def test_protocol_roundtrip_resimulates():
    s = generate("example1")
    v = decide(s)
    data = _roundtrip(protocol_to_json(v.protocol))
    back = protocol_from_json(data)
    sim_mem = simulate(s, v.protocol)
    sim_file = simulate(s, back)
    assert abs(sim_file.min_success - sim_mem.min_success) <= 1e-12
    assert sim_file.per_state == sim_mem.per_state


def test_verdict_json_shape():
    v = decide(generate("bennett"))
    data = _roundtrip(verdict_to_json(v))
    assert data["status"] == "Indistinguishable"
    assert data["certificate"]["kind"] == "MinDimNoSimplicial"
    assert data["exit_code"] == 10
    assert data["parameters"]["alpha_host"] == 3
    assert "protocol" not in data

    s2 = generate("example1")
    v2 = decide(s2)
    data2 = _roundtrip(verdict_to_json(v2))
    assert data2["exit_code"] == 0
    # the certificate fixes the protocol, which the file leaves to the reader
    assert not {"protocol", "simulation", "decomposition"} & set(data2)
    assert data2["parameters"]["min_success"] >= 1 - 1e-9
    back = verdict_from_json(data2, s2)
    assert back.protocol.alice.elements
    assert back.simulation.min_success >= 1 - 1e-9
    outcome = verify_certificate(s2, back)
    assert outcome.ok, outcome.checks


def test_dominance_verdict_roundtrip_verifies():
    s = generate("path-rep:20")
    v = decide(s, BOB_FIRST)
    assert v.certificate.kind == "ScaledDiagonalDominance"
    data = _roundtrip(verdict_to_json(v))
    assert not {"protocol", "simulation", "decomposition"} & set(data)
    cert = data["certificate"]
    assert cert["scaling"] == v.certificate.data["scaling"]
    assert cert["supports"] == v.certificate.data["supports"]
    back = verdict_from_json(data, s)
    assert back.protocol is not None
    outcome = verify_certificate(s, back)
    assert outcome.ok, outcome.checks
    assert verify_decomposition(s.swapped().alice_gram(), back.decomposition).ok


def test_jsonify_handles_numpy_and_sets():
    out = jsonify({
        "arr": np.array([1.0, 2.0]),
        "carr": np.array([1.0 + 1.0j]),
        "fs": frozenset({3, 1}),
        "np_int": np.int64(7),
        "tup": (1, "x"),
    })
    assert out["arr"] == [1.0, 2.0]
    assert out["carr"] == [[1.0, 1.0]]
    assert out["fs"] == [1, 3]
    assert out["np_int"] == 7
    assert out["tup"] == [1, "x"]
    json.dumps(out)


def test_dot_graph_format():
    text = dot_graph(cycle_graph(3), "tri", ("a", "b", "c"))
    assert text.startswith("graph tri {")
    assert '1 [label="a"];' in text
    assert "1 -- 2;" in text
    assert text.rstrip().endswith("}")


@pytest.mark.parametrize("entry", [[None, 0], ["x", 0], [[1, 2], 0], [1], [1, 2, 3]])
def test_states_from_json_rejects_malformed_numbers(entry):
    doc = {"dA": 1, "dB": 1, "states": [{"A": [entry], "B": [[1, 0]]}]}
    with pytest.raises(InvalidInput):
        states_from_json(doc)
    with pytest.raises(InvalidInput):
        states_from_json({"dA": 1, "dB": 1, "states": [{"A": [[1, 0]], "B": entry}]})
