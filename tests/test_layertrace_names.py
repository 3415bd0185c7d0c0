"""The benchmark's layer trace patches names by module; every name it
lists must exist where it looks, and uninstalling must put each one back."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layertrace  # noqa: E402
import pytest  # noqa: E402

from loccgraph import criteria  # noqa: E402
from loccgraph.families import generate  # noqa: E402


def _bindings():
    out = {}
    for table in (layertrace.DECISION_FUNCTIONS, layertrace.SETUP_FUNCTIONS):
        for (_, name), owners in table.items():
            for owner in owners:
                out[(owner.__name__, name)] = (owner, name, owner.__dict__[name])
    for cls, attr in layertrace.STATE_METHODS:
        out[(cls.__name__, attr)] = (cls, attr, cls.__dict__[attr])
    return out


def test_layer_trace_installs_and_restores_every_name():
    before = _bindings()
    tracer = layertrace.Tracer()
    try:
        tracer.install_decision_path()
        tracer.install(layertrace.SETUP_FUNCTIONS)
        assert all(
            owner.__dict__[name] is not original
            for owner, name, original in before.values()
        )
    finally:
        tracer.uninstall()
    for owner, name, original in before.values():
        assert owner.__dict__[name] is original, (owner.__name__, name)


@pytest.mark.parametrize("direction", [criteria.ALICE_FIRST, criteria.BOB_FIRST])
def test_traced_decision_path_decides_and_verifies(direction):
    # a wrapped name that stops being a plain function or classmethod
    # passes the install test above but breaks a traced run
    tracer = layertrace.Tracer()
    try:
        tracer.install_decision_path()
        for spec in ("example1", "example3", "bullseye:5"):
            tracer.instance = spec
            s = generate(spec)
            # through the module, as the benchmark calls them
            v = criteria.decide(s, direction)
            outcome = criteria.verify_certificate(s, v)
            assert outcome.ok, (spec, outcome.checks)
    finally:
        tracer.uninstall()
    assert all(span is not None for span in tracer.spans)
    names = {span[0] for span in tracer.spans}
    assert {
        "criteria.decide",
        "criteria.verify_certificate",
        "states.build_graphs",
        "states.alice_gram",   # example3 alice-first splits the Gram matrix
    } <= names
    if direction == criteria.BOB_FIRST:
        assert "states.swapped" in names
