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
    SPLITTING_FROM_CERTIFICATE,
    STATUSES,
    Certificate,
    Verdict,
    distinguishable_verdict,
)
from .decomposition import Decomposition, DecompositionTerm
from .errors import InvalidInput, LoccGraphError
from .graphs import Graph
from .linalg import DEFAULT_TOL, Tolerance
from .locc import BobPlan, Povm, PovmElement, Protocol
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


def _parse_vec(data) -> np.ndarray:
    return _parse_pairs(data, 1)


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
    alice, bob, labels = [], [], []
    for k, entry in enumerate(entries):
        a = _parse_vec(_require(entry, "A", f"state {k}"))
        b = _parse_vec(_require(entry, "B", f"state {k}"))
        if a.shape != (da,) or b.shape != (db,):
            raise InvalidInput(
                f"state {k}: vector lengths {a.shape[0]}/{b.shape[0]} "
                f"do not match dA={da}, dB={db}"
            )
        alice.append(a)
        bob.append(b)
        labels.append(str(entry.get("label", k + 1)))
    return ProductStateSet.from_vectors(
        alice, bob, labels=tuple(labels), normalize=False
    )


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
# decompositions

def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "n": dec.n,
        "terms": [
            {"support": sorted(t.support), "vector": _vec(t.vector)}
            for t in dec.terms
        ],
        "residual": float(dec.residual),
    }


def decomposition_from_json(data: dict) -> Decomposition:
    n = int(_require(data, "n", "decomposition"))
    terms = []
    for k, term in enumerate(_require(data, "terms", "decomposition")):
        support = frozenset(int(i) for i in _require(term, "support", f"term {k}"))
        vector = _parse_vec(_require(term, "vector", f"term {k}"))
        if vector.shape != (n,):
            raise InvalidInput(f"term {k}: vector length {vector.shape[0]} != n={n}")
        terms.append(DecompositionTerm(support, vector))
    return Decomposition(n, tuple(terms), float(data.get("residual", 0.0)))


# ---------------------------------------------------------------------------
# protocols

def protocol_to_json(protocol: Protocol) -> dict:
    elements = protocol.alice.elements
    directions = _pairs([np.ravel(e.direction) for e in elements])
    return {
        "alice": {
            "dim": protocol.alice.dim,
            "elements": [
                {
                    "outcome": e.outcome,
                    "weight": float(e.weight),
                    "direction": direction,
                    "support": sorted(e.support),
                }
                for e, direction in zip(elements, directions)
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
    alice = _require(data, "alice", "protocol")
    dim = int(_require(alice, "dim", "protocol.alice"))
    elements = []
    for k, e in enumerate(_require(alice, "elements", "protocol.alice")):
        elements.append(PovmElement(
            int(_require(e, "outcome", f"element {k}")),
            float(_require(e, "weight", f"element {k}")),
            _parse_vec(_require(e, "direction", f"element {k}")),
            frozenset(int(i) for i in _require(e, "support", f"element {k}")),
        ))
    plans = []
    for k, p in enumerate(_require(data, "bob", "protocol")):
        plans.append(BobPlan(
            int(_require(p, "outcome", f"plan {k}")),
            _parse_mat(_require(p, "basis", f"plan {k}")),
            tuple(str(l) for l in _require(p, "labels", f"plan {k}")),
        ))
    return Protocol(Povm(dim, tuple(elements)), tuple(plans))


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
    if isinstance(obj, Decomposition):
        return decomposition_to_json(obj)
    if isinstance(obj, Protocol):
        return protocol_to_json(obj)
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
    """The verdict without its protocol and simulation, which
    verdict_from_json re-derives; the splitting is written only when the
    certificate does not fix it (FeasibleDecomposition)."""
    out = {
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
    kind = verdict.certificate.kind
    if verdict.decomposition is not None and kind not in SPLITTING_FROM_CERTIFICATE:
        out["decomposition"] = decomposition_to_json(verdict.decomposition)
    return out


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
    "cliques": _index_lists,
    "supports": _index_lists,
    "sandwich_edges": _edges,
    "scaling": _numbers,
    "witness": lambda value, n: _parse_mat(value),
}


def verdict_from_json(
    data: dict, states: ProductStateSet, tol: Tolerance = DEFAULT_TOL
) -> Verdict:
    """The full in-memory verdict a verdict file describes for these states.

    A Distinguishable verdict gets its splitting from the certificate (or,
    for FeasibleDecomposition, from the file), then the protocol it lifts to
    and that protocol's simulation, as decide built them. When that fails,
    as it does for a forged certificate, the verdict carries no protocol,
    which verify_certificate reports. A file that is not a verdict raises
    InvalidInput.
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
    dec = None
    if "decomposition" in data and kind not in SPLITTING_FROM_CERTIFICATE:
        dec = decomposition_from_json(data["decomposition"])
        if dec.n != states.n:
            raise InvalidInput(f"splitting over {dec.n} states, set has {states.n}")
    verdict = Verdict(status, direction, Certificate(kind, fields), params,
                      decomposition=dec, notes=tuple(notes))
    if status != DISTINGUISHABLE:
        return verdict
    work = states if direction == ALICE_FIRST else states.swapped()
    graphs = work.build_graphs(tol)
    try:
        return distinguishable_verdict(
            work, direction, verdict.certificate, params, notes,
            graphs.alice, graphs.bob_orthogonality(), tol, dec,
        )
    except LoccGraphError:
        return verdict
