"""JSON and DOT serialization.

Complex numbers are encoded as [re, im] pairs throughout. Vertex indices
and supports are 1-based in files, matching the in-memory convention.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

import numpy as np

from .criteria import Verdict
from .decomposition import Decomposition, DecompositionTerm
from .errors import InvalidInput
from .graphs import Graph
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
    return {
        "alice": {
            "dim": protocol.alice.dim,
            "elements": [
                {
                    "outcome": e.outcome,
                    "weight": float(e.weight),
                    "direction": _vec(e.direction),
                    "support": sorted(e.support),
                }
                for e in protocol.alice.elements
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
    if verdict.protocol is not None:
        out["protocol"] = protocol_to_json(verdict.protocol)
    if verdict.simulation is not None:
        out["simulation"] = jsonify(verdict.simulation)
    if verdict.decomposition is not None:
        out["decomposition"] = decomposition_to_json(verdict.decomposition)
    return out
