"""JSON and DOT serialization.

Complex numbers are encoded as [re, im] pairs throughout. Vertex indices
and supports are 1-based in files, matching the in-memory convention.

A verdict file holds the certificate, not the protocol: verdict_from_json
re-derives the splitting, protocol and simulation from the certificate and
the states, through the same code decide ran.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

import numpy as np

from .criteria import (
    ALICE_FIRST,
    BOB_FIRST,
    DISTINGUISHABLE,
    KINDS,
    STATUSES,
    Certificate,
    Verdict,
    distinguishable_verdict,
)
from .decomposition import Decomposition, support_mask, support_sets
from .errors import InvalidCover, InvalidInput, LoccGraphError
from .graphs import ChordalityResult, Graph
from .linalg import DEFAULT_TOL, Tolerance
from .locc import Povm, Protocol
from .states import ProductStateSet


def _pairs(a) -> list:
    """[re, im] pairs nested like the complex array a (one pair for a scalar)."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _vec(v: np.ndarray) -> list[list[float]]:
    return _pairs(np.ravel(v))


def _parse_pairs(data, ndim: int) -> np.ndarray:
    """Complex array of ndim axes from [re, im] pairs nested ndim deep."""
    try:
        a = np.array(data)
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "biuf" or a.shape[ndim:] != (2,):
        raise InvalidInput(f"expected a {ndim}-d array of [re, im] number pairs")
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def _parse_mat(data) -> np.ndarray:
    return _parse_pairs(data, 2)


def _require(data: dict, key: str, context: str):
    if not isinstance(data, dict) or key not in data:
        raise InvalidInput(f"{context} is missing field {key!r}")
    return data[key]


# ---------------------------------------------------------------------------
# state sets

def states_to_json(states: ProductStateSet) -> dict:
    return {
        "dA": states.d_alice,
        "dB": states.d_bob,
        "states": [
            {
                "label": states.labels[i],
                "A": _vec(states.alice[i]),
                "B": _vec(states.bob[i]),
            }
            for i in range(states.n)
        ],
    }


def states_from_json(data: dict) -> ProductStateSet:
    da = int(_require(data, "dA", "state set"))
    db = int(_require(data, "dB", "state set"))
    entries = _require(data, "states", "state set")
    if not isinstance(entries, list) or not entries:
        raise InvalidInput("state set needs a non-empty 'states' list")
    sides = {
        side: _parse_pairs(
            [_require(entry, side, f"state {k}") for k, entry in enumerate(entries)], 2
        )
        for side in ("A", "B")
    }
    if sides["A"].shape[1] != da or sides["B"].shape[1] != db:
        raise InvalidInput(
            f"vector lengths {sides['A'].shape[1]}/{sides['B'].shape[1]} "
            f"do not match dA={da}, dB={db}"
        )
    labels = tuple(str(entry.get("label", k + 1)) for k, entry in enumerate(entries))
    return ProductStateSet(sides["A"], sides["B"], labels)


# ---------------------------------------------------------------------------
# graphs

def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(data: dict) -> Graph:
    n = int(_require(data, "n", "graph"))
    edges = _require(data, "edges", "graph")
    try:
        pairs = [(int(i), int(j)) for i, j in edges]
    except (TypeError, ValueError):
        raise InvalidInput("graph edges must be [i, j] pairs") from None
    return Graph.from_edges(n, pairs)


def dot_graph(g: Graph, name: str = "G",
              labels: Optional[tuple[str, ...]] = None) -> str:
    lines = [f"graph {name} {{"]
    for v in range(1, g.n + 1):
        text = labels[v - 1] if labels else str(v)
        lines.append(f'  {v} [label="{text}"];')
    for i, j in sorted(g.edges):
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# protocols

def protocol_to_json(protocol: Protocol) -> dict:
    """Alice's elements, then Bob's plans, one per outcome in the order his
    columns first name them."""
    alice = protocol.alice
    return {
        "alice": {
            "dim": alice.dim,
            "elements": [
                {
                    "outcome": outcome,
                    "weight": weight,
                    "direction": direction,
                    "support": sorted(support),
                }
                for outcome, weight, direction, support in zip(
                    alice.outcomes.tolist(), alice.weights.tolist(),
                    _pairs(alice.directions), support_sets(alice.supports))
            ],
        },
        "bob": [
            {
                "outcome": plan.outcome,
                "basis": _pairs(plan.basis),
                "labels": list(plan.labels),
            }
            for plan in protocol.bob
        ],
    }


def protocol_from_json(data: dict) -> Protocol:
    """The protocol a protocol_to_json document describes. Supports index
    states from 1 up to the largest index the document names."""
    alice = _require(data, "alice", "protocol")
    dim = int(_require(alice, "dim", "protocol.alice"))
    fields = {key: [] for key in ("outcome", "weight", "direction", "support")}
    for k, e in enumerate(_require(alice, "elements", "protocol.alice")):
        for key, values in fields.items():
            values.append(_require(e, key, f"element {k}"))
    try:
        supports = [[int(i) for i in s] for s in fields["support"]]
        width = max(map(max, filter(None, supports)), default=1)
        mask = support_mask(supports, width)
    except (TypeError, ValueError, InvalidCover):
        raise InvalidInput("element supports must be non-empty lists of "
                           "state indices from 1") from None
    directions = (_parse_pairs(fields["direction"], 2) if supports
                  else np.zeros((0, dim), dtype=complex))
    if directions.shape[1] != dim:
        raise InvalidInput(f"element directions in C^{directions.shape[1]}, POVM on C^{dim}")
    povm = Povm(directions, np.array(fields["weight"], dtype=float),
                np.array(fields["outcome"], dtype=int), mask)
    columns, outcomes, labels = [], [], []
    for k, p in enumerate(_require(data, "bob", "protocol")):
        basis = _parse_mat(_require(p, "basis", f"plan {k}"))
        names = [str(l) for l in _require(p, "labels", f"plan {k}")]
        if basis.shape[1] != len(names):
            raise InvalidInput(f"plan {k} has {basis.shape[1]} columns, {len(names)} labels")
        columns.append(basis)
        outcomes += [int(_require(p, "outcome", f"plan {k}"))] * len(names)
        labels += names
    try:
        basis = np.concatenate(columns, axis=1) if columns else np.zeros((0, 0), dtype=complex)
    except ValueError:
        raise InvalidInput("Bob's plans must share one dimension") from None
    return Protocol(povm, basis, np.array(outcomes, dtype=int),
                    np.array(labels, dtype=str))


def decomposition_to_json(dec: Decomposition) -> dict:
    """n, then each term's support and vector, then the residual."""
    return {
        "n": dec.n,
        "terms": [
            {"support": sorted(support), "vector": vector}
            for support, vector in zip(support_sets(dec.supports), _pairs(dec.vectors))
        ],
        "residual": dec.residual,
    }


# ---------------------------------------------------------------------------
# generic reports

def jsonify(obj: Any) -> Any:
    """Best-effort conversion of report objects to plain JSON data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, complex):
        return _pairs(obj)
    if isinstance(obj, np.generic):
        return jsonify(obj.item())
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return _pairs(obj)
        return obj.tolist()
    if isinstance(obj, Graph):
        return graph_to_json(obj)
    if isinstance(obj, ChordalityResult):  # reading the hole finds it
        return jsonify({"chordal": obj.chordal, "ordering": obj.ordering, "hole": obj.hole})
    if isinstance(obj, Protocol):
        return protocol_to_json(obj)
    if isinstance(obj, Decomposition):
        return decomposition_to_json(obj)
    if isinstance(obj, (frozenset, set)):
        return sorted(jsonify(x) for x in obj)
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(x) for x in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonify(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    return repr(obj)


def verdict_to_json(verdict: Verdict) -> dict:
    """The verdict without its splitting, protocol and simulation, which
    verdict_from_json re-derives from the certificate."""
    return {
        "status": verdict.status,
        "direction": verdict.direction,
        "certificate": {
            "kind": verdict.certificate.kind,
            **{k: jsonify(v) for k, v in verdict.certificate.data.items()},
        },
        "parameters": jsonify(verdict.parameters),
        "notes": list(verdict.notes),
        "exit_code": verdict.exit_code,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _indices(value, n: int) -> list[int]:
    if not isinstance(value, list) or not all(
        _is_int(i) and 1 <= i <= n for i in value
    ):
        raise InvalidInput(f"expected a list of state indices in 1..{n}")
    return value


def _index_lists(value, n: int) -> list[list[int]]:
    if not isinstance(value, list):
        raise InvalidInput("expected a list of index lists")
    return [_indices(v, n) for v in value]


def _edges(value, n: int) -> list[list[int]]:
    edges = _index_lists(value, n)
    if not all(len(e) == 2 and e[0] != e[1] for e in edges):
        raise InvalidInput("expected edges of two distinct state indices")
    return edges


def _numbers(value, n: int) -> list[float]:
    if not isinstance(value, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    ):
        raise InvalidInput("expected a list of numbers")
    return value


# how certificate fields that name states or hold numbers are read back; a
# field missing here is kept as the file has it
_CERTIFICATE_FIELDS = {
    "ordering": _indices,
    "alpha_witness": _indices,
    "supports": _index_lists,
    "sandwich_edges": _edges,
    "scaling": _numbers,
    "weights": _numbers,
    "directions": lambda value, n: _parse_mat(value),
    "witness": lambda value, n: _parse_mat(value),
}


def verdict_from_json(
    data: dict, states: ProductStateSet, tol: Tolerance = DEFAULT_TOL
) -> Verdict:
    """The full in-memory verdict a verdict file describes for these states.

    A Distinguishable verdict gets its splitting from the certificate, then
    the protocol it lifts to and that protocol's simulation, as decide built
    them. When that fails, as it does for a forged certificate, the verdict
    carries no protocol, which verify_certificate reports. A file that is
    not a verdict raises InvalidInput.
    """
    status = _require(data, "status", "verdict")
    direction = _require(data, "direction", "verdict")
    if status not in STATUSES:
        raise InvalidInput(f"unknown verdict status {status!r}")
    if direction not in (ALICE_FIRST, BOB_FIRST):
        raise InvalidInput(f"unknown direction {direction!r}")
    cert = _require(data, "certificate", "verdict")
    kind = _require(cert, "kind", "certificate")
    if kind not in KINDS:
        raise InvalidInput(f"unknown certificate kind {kind!r}")
    fields = {
        key: _CERTIFICATE_FIELDS.get(key, lambda value, n: value)(value, states.n)
        for key, value in cert.items() if key != "kind"
    }
    params = data.get("parameters", {})
    notes = data.get("notes", [])
    if not isinstance(params, dict) or not all(
        _is_int(params[key]) for key in ("search_budget", "sandwich_budget")
        if key in params
    ):
        raise InvalidInput("verdict parameters need integer search budgets")
    if not isinstance(notes, list) or not all(isinstance(x, str) for x in notes):
        raise InvalidInput("verdict notes must be a list of strings")
    verdict = Verdict(status, direction, Certificate(kind, fields), params,
                      notes=tuple(notes))
    if status != DISTINGUISHABLE:
        return verdict
    work = states if direction == ALICE_FIRST else states.swapped()
    graphs = work.build_graphs(tol)
    try:
        return distinguishable_verdict(
            work, direction, verdict.certificate, params, notes,
            graphs.alice, graphs.bob_orthogonality(), tol,
        )
    except LoccGraphError:
        return verdict
