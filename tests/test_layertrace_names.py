"""The benchmark's layer trace patches names by module; every name it
lists must exist where it looks, and uninstalling must put each one back."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layertrace  # noqa: E402


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
