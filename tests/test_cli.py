import json

import numpy as np
import pytest

import brute
from loccgraph import ProductStateSet
from loccgraph.cli import main
from loccgraph.families import generate
from loccgraph.locc import simulate
from loccgraph.serialize import protocol_from_json, states_to_json


def _write_states(tmp_path, spec, name="states.json"):
    path = tmp_path / name
    path.write_text(json.dumps(states_to_json(generate(spec))))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_and_decide_distinguishable(tmp_path, capsys):
    out = tmp_path / "ex1.json"
    code, _, err = _run(capsys, ["generate", "example1", "--output", str(out)])
    assert code == 0
    assert "4 states" in err

    code, stdout, err = _run(capsys, ["decide", "--input", str(out)])
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["status"] == "Distinguishable"
    assert verdict["certificate"]["kind"] == "ChordalAliceGraph"
    assert "Distinguishable" in err


def test_decide_exit_codes(tmp_path, capsys):
    ben = _write_states(tmp_path, "bennett")
    code, stdout, _ = _run(capsys, ["decide", "--input", ben])
    assert code == 10
    assert json.loads(stdout)["certificate"]["kind"] == "MinDimNoSimplicial"


def test_decide_bob_first(tmp_path, capsys):
    sub = _write_states(tmp_path, "bennett-subset:2,8,6,4,9")
    code, stdout, _ = _run(capsys, ["decide", "--input", sub])
    assert code == 10
    code, stdout, _ = _run(
        capsys, ["decide", "--input", sub, "--direction", "bob-first"]
    )
    assert code == 0
    assert json.loads(stdout)["status"] == "Distinguishable"


def test_protocol_roundtrip_through_file(tmp_path, capsys):
    ex1 = _write_states(tmp_path, "example1")
    code, stdout, err = _run(capsys, ["protocol", "--input", ex1])
    assert code == 0
    payload = json.loads(stdout)
    back = protocol_from_json(payload["protocol"])
    sim = simulate(generate("example1"), back)
    assert abs(sim.min_success - payload["simulation"]["min_success"]) <= 1e-12
    assert "min success" in err


def test_protocol_on_indistinguishable_set(tmp_path, capsys):
    ben = _write_states(tmp_path, "bennett")
    code, stdout, err = _run(capsys, ["protocol", "--input", ben])
    assert code == 10
    assert stdout == ""
    assert "no protocol" in err


def test_decompose(tmp_path, capsys):
    ex1 = _write_states(tmp_path, "example1")
    code, stdout, _ = _run(capsys, ["decompose", "--input", ex1])
    assert code == 0
    dec = json.loads(stdout)
    assert dec["n"] == 4
    assert dec["residual"] <= 1e-9
    supports = [set(t["support"]) for t in dec["terms"]]
    assert {1, 3} in supports

    ex3 = _write_states(tmp_path, "example3", "ex3.json")
    code, stdout, _ = _run(capsys, ["decompose", "--input", ex3])
    assert code == 0
    assert json.loads(stdout)["terms"]


def test_decompose_reports_a_dual_witness(tmp_path, capsys):
    pentagon = _write_states(tmp_path, "pentagon-path")
    code, stdout, err = _run(
        capsys, ["decompose", "--input", pentagon, "--direction", "bob-first"]
    )
    assert code == 10 and not stdout
    assert "dual witness" in err


def test_analyze(tmp_path, capsys):
    ben = _write_states(tmp_path, "bennett")
    code, stdout, err = _run(capsys, ["analyze", "--input", ben])
    assert code == 0
    rep = json.loads(stdout)
    assert rep["d_eff"] == 3
    assert rep["alpha_host"] == 3
    assert not rep["alice_chordality"]["chordal"]
    assert "alpha=3" in err


def test_export_dot(tmp_path, capsys):
    ex1 = _write_states(tmp_path, "example1")
    code, stdout, _ = _run(capsys, ["export-dot", "--input", ex1])
    assert code == 0
    assert "graph alice {" in stdout and "graph bob {" in stdout
    assert "2 -- 3;" in stdout

    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps({"n": 3, "edges": [[1, 2]]}))
    code, stdout, _ = _run(capsys, ["export-dot", "--input", str(gpath)])
    assert code == 0
    assert "1 -- 2;" in stdout


def test_error_paths(tmp_path, capsys):
    code, _, err = _run(capsys, ["decide"])
    assert code == 1 and "needs --input" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["decide", "--input", str(bad)])
    assert code == 1 and "not valid JSON" in err

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dA": 2, "dB": 2, "states": []}))
    code, _, err = _run(capsys, ["analyze", "--input", str(empty)])
    assert code == 1

    code, _, err = _run(capsys, ["generate", "no-such-family"])
    assert code == 1 and "unknown family" in err


def test_generate_seed_determinism(tmp_path, capsys):
    code, out1, _ = _run(capsys, ["generate", "cycle-rep:5", "--seed", "3"])
    assert code == 0
    code, out2, _ = _run(capsys, ["generate", "cycle-rep:5", "--seed", "3"])
    assert out1 == out2


@pytest.mark.parametrize("command", ["decide", "analyze", "decompose", "protocol"])
def test_seed_belongs_to_generate_only(tmp_path, capsys, command):
    # only generate reads a seed; elsewhere the flag is an error, not ignored
    ex1 = _write_states(tmp_path, "example1")
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", ex1, "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_tolerance_flags_reach_the_engine(tmp_path, capsys):
    ex1 = _write_states(tmp_path, "example1")
    # inconsistent thresholds are rejected before any work happens
    code, _, err = _run(capsys, ["decide", "--input", ex1, "--zero-tol", "0.9"])
    assert code == 1 and "zero_tol" in err
    # a huge rank cutoff collapses the measured effective dimension
    code, stdout, _ = _run(
        capsys, ["analyze", "--input", ex1, "--rank-tol", "0.9"]
    )
    assert code == 0
    assert json.loads(stdout)["d_eff"] == 1


def test_output_file(tmp_path, capsys):
    ex1 = _write_states(tmp_path, "example1")
    target = tmp_path / "verdict.json"
    code, stdout, _ = _run(
        capsys, ["decide", "--input", ex1, "--output", str(target)]
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(target.read_text())["status"] == "Distinguishable"


@pytest.mark.parametrize("entry", [[None, 0], [[1, 2], 0]])
def test_malformed_numbers_exit_cleanly(tmp_path, capsys, entry):
    doc = {"dA": 2, "dB": 1, "states": [{"A": [[1, 0], entry], "B": [[1, 0]]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["decide", "--input", str(path)])
    assert code == 1 and err.startswith("error:") and "Traceback" not in err


def _write_set(tmp_path, states, name="states.json"):
    path = tmp_path / name
    path.write_text(json.dumps(states_to_json(states)))
    return str(path)


@pytest.mark.parametrize("source,direction,kind", [
    ("example1", "alice-first", "ChordalAliceGraph"),
    ("bob-complement", "bob-first", "ChordalBobComplement"),
    ("sandwich", "alice-first", "ChordalSandwich"),
    ("qubit-cover", "alice-first", "ChordalSandwich"),
    ("path-rep:8", "bob-first", "ScaledDiagonalDominance"),
    ("example3", "alice-first", "FeasibleDecomposition"),
])
def test_decide_output_verifies(tmp_path, capsys, source, direction, kind):
    if source in brute.PINNED_SETS:
        states = brute.pinned_set(source)[0]
    elif source == "qubit-cover":
        states = ProductStateSet.from_vectors(*brute.QUBIT_COVER)
    else:
        states = generate(source)
    path = _write_set(tmp_path, states)
    verdict = tmp_path / "verdict.json"
    code, _, _ = _run(capsys, ["decide", "--input", path, "--direction", direction,
                               "--output", str(verdict)])
    assert code == 0
    assert json.loads(verdict.read_text())["certificate"]["kind"] == kind
    code, stdout, err = _run(capsys, ["verify", "--input", path,
                                      "--verdict", str(verdict)])
    assert code == 0, err
    assert stdout == "" and "failed" not in err and "verified" in err


def test_verify_rejects_an_edited_verdict(tmp_path, capsys):
    path = _write_states(tmp_path, "path-rep:8")
    verdict = tmp_path / "verdict.json"
    _run(capsys, ["decide", "--input", path, "--direction", "bob-first",
                  "--output", str(verdict)])
    data = json.loads(verdict.read_text())
    data["certificate"]["scaling"][2] = -1.0
    verdict.write_text(json.dumps(data))
    code, _, err = _run(capsys, ["verify", "--input", path, "--verdict", str(verdict)])
    assert code == 1
    assert "failed: protocol present" in err
    assert "failed: scaling positive" in err


def test_verify_rejects_another_sets_verdict(tmp_path, capsys):
    ex1 = _write_states(tmp_path, "example1")
    verdict = tmp_path / "verdict.json"
    _run(capsys, ["decide", "--input", ex1, "--output", str(verdict)])
    ben = _write_states(tmp_path, "bennett", "bennett.json")
    code, _, err = _run(capsys, ["verify", "--input", ben, "--verdict", str(verdict)])
    assert code == 1 and "failed:" in err


@pytest.mark.parametrize("text", [
    "null", "{not json", '{"status": "Distinguishable"}',
    '{"status": "Distinguishable", "direction": "alice-first", '
    '"certificate": {"kind": "ChordalAliceGraph", "ordering": ["1"]}}',
])
def test_verify_malformed_verdict_exits_cleanly(tmp_path, capsys, text):
    ex1 = _write_states(tmp_path, "example1")
    verdict = tmp_path / "verdict.json"
    verdict.write_text(text)
    code, _, err = _run(capsys, ["verify", "--input", ex1, "--verdict", str(verdict)])
    assert code == 1 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("spec,direction", [
    ("path-rep:8", "bob-first"),        # Distinguishable: read back, then checked
    ("cycle-rep:6", "alice-first"),     # SpanningObstruction
])
def test_verify_derives_each_fact_once(tmp_path, capsys, monkeypatch, spec, direction):
    from test_verdict_files import _count_derivations

    states = generate(spec)
    path = _write_set(tmp_path, states)
    verdict = tmp_path / "verdict.json"
    _run(capsys, ["decide", "--input", path, "--direction", direction,
                  "--output", str(verdict)])
    frame = (states.alice if direction == "alice-first" else states.bob).T
    counts = _count_derivations(monkeypatch, frame)
    code, _, err = _run(capsys, ["verify", "--input", path, "--verdict", str(verdict)])
    assert code == 0, err
    assert counts == {"graphs": 2, "frame_svds": 1}


@pytest.mark.parametrize("spec,direction", [
    ("example1", "alice-first"),    # ChordalAliceGraph
    ("path-rep:8", "bob-first"),    # ScaledDiagonalDominance
])
def test_decompose_writes_the_decomposition_layout(tmp_path, capsys, spec, direction):
    from loccgraph.criteria import decide
    from loccgraph.serialize import states_from_json

    path = _write_states(tmp_path, spec)
    argv = ["decompose", "--input", path, "--direction", direction]
    code, stdout, _ = _run(capsys, argv)
    assert code == 0
    states = states_from_json(json.loads((tmp_path / "states.json").read_text()))
    dec = decide(states, direction).decomposition
    layout = {
        "n": dec.n,
        "terms": [
            {"support": sorted(t.support),
             "vector": [[float(x.real), float(x.imag)] for x in t.vector]}
            for t in dec.terms
        ],
        "residual": dec.residual,
    }
    assert stdout == json.dumps(layout, indent=2) + "\n"
