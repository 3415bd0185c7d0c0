"""Every sweep verdict keeps its certificate: status, kind, the integer and
integer-list certificate fields, and the integer graph parameters.

The expected values live in certificate_golden.json. Rewriting a graph
algorithm must not move a tie-break, an ordering, a witness or a support;
this test pins them. To regenerate the file (only when a change of
certificate is intended):

    python tests/test_certificate_golden.py > tests/certificate_golden.json

run from the root of a checkout with src/ on PYTHONPATH.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

import brute
from loccgraph import decide, generate

GOLDEN = pathlib.Path(__file__).with_name("certificate_golden.json")
DIRECTIONS = ("alice-first", "bob-first")
PARAMETERS = ("alice_edges", "bob_edges", "alpha_host", "chi_bob", "simplicial_host")


def _integral(value) -> bool:
    """Ints and bools, and lists of them nested to any depth."""
    if isinstance(value, (list, tuple)):
        return all(_integral(x) for x in value)
    return isinstance(value, int)


def _plain(value):
    return [_plain(x) for x in value] if isinstance(value, (list, tuple)) else value


def summary(spec: str, direction: str) -> dict:
    v = decide(generate(spec), direction)
    return {
        "status": v.status,
        "kind": v.certificate.kind,
        "certificate": {
            k: _plain(x) for k, x in sorted(v.certificate.data.items()) if _integral(x)
        },
        "parameters": {
            k: _plain(v.parameters[k]) for k in PARAMETERS if k in v.parameters
        },
    }


def cases() -> list[tuple[str, str]]:
    return [
        (spec, direction)
        for specs in brute.SWEEP_SPECS.values()
        for spec in specs
        for direction in DIRECTIONS
    ]


@pytest.mark.parametrize("spec,direction", cases())
def test_certificate_matches_golden(spec, direction):
    expected = json.loads(GOLDEN.read_text())[f"{spec} {direction}"]
    assert summary(spec, direction) == expected


def test_golden_covers_the_sweep():
    assert set(json.loads(GOLDEN.read_text())) == {f"{s} {d}" for s, d in cases()}


if __name__ == "__main__":
    table = {f"{s} {d}": summary(s, d) for s, d in cases()}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
