"""Measure-and-tell protocols: Alice measures, Bob finishes.

A protocol is an Alice POVM whose outcome operators only respond to states
in their declared support, plus one Bob plan per outcome: the orthonormal
Bob vectors of the states that outcome leaves, the rest of Bob's space
giving up. Protocols are synthesized from Gram splittings, one outcome per
distinct support (each rank-one piece lifts to a POVM element through a
least-squares preimage), and checked by exact simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import Decomposition, DecompositionTerm
from .errors import InvalidInput, NonOrthogonalBobClique, NotPSD
# complete_basis, numeric_rank and orthonormal_columns are not called here;
# they stay bound because perfbench/layertrace.py wraps the names this module binds
from .linalg import (  # noqa: F401
    DEFAULT_TOL,
    Tolerance,
    complete_basis,
    eigh_desc,
    hermitize,
    least_squares_preimage,
    numeric_rank,
    orthonormal_columns,
)
from .states import ProductStateSet


@dataclass(frozen=True)
class PovmElement:
    """Rank-one piece weight * dir dir* contributing to outcome `outcome`."""

    outcome: int
    weight: float
    direction: np.ndarray
    support: frozenset[int]

    def matrix(self) -> np.ndarray:
        return self.weight * np.outer(self.direction, self.direction.conj())


@dataclass(frozen=True)
class Povm:
    dim: int
    elements: tuple[PovmElement, ...]

    def outcome_ids(self) -> tuple[int, ...]:
        return tuple(sorted({e.outcome for e in self.elements}))

    def outcome_operator(self, outcome: int) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for e in self.elements:
            if e.outcome == outcome:
                out += e.matrix()
        return out

    def total(self) -> np.ndarray:
        dirs, weights = _weighted_directions(self)
        return (dirs.T * weights) @ dirs.conj()


@dataclass(frozen=True)
class BobPlan:
    """Bob's reply to one Alice outcome: orthonormal columns, column j the
    normalised Bob vector of the state labels[j] names. The rest of Bob's
    space gives up; complete_basis(basis) extends it to a full unitary."""

    outcome: int
    basis: np.ndarray
    labels: tuple[str, ...]


@dataclass(frozen=True)
class Protocol:
    alice: Povm
    bob: tuple[BobPlan, ...]


@dataclass(frozen=True)
class PovmReport:
    ok: bool
    completeness_deviation: float
    min_weight: float
    max_support_leakage: float


@dataclass(frozen=True)
class ProtocolReport:
    per_state: tuple[tuple[str, float], ...]
    min_success: float
    completeness_deviation: float
    max_support_leakage: float


def _bob_plans(
    states: ProductStateSet, outcome_of: dict[frozenset[int], int], tol: Tolerance
) -> tuple[BobPlan, ...]:
    """One plan per outcome; column j is member j's normalised Bob vector,
    so labels line up.

    Bob's parts must be orthonormal within every outcome. That is checked
    once, on the normalised Bob Gram over the pairs that share an outcome;
    only when it fails are the outcomes walked, to name the first
    offending pair.
    """
    unit = states.bob / np.linalg.norm(states.bob, axis=1, keepdims=True)
    rows = [[i - 1 for i in sorted(support)] for support in outcome_of]
    incidence = np.zeros((len(rows), states.n))
    for k, members in enumerate(rows):
        incidence[k, members] = 1.0
    g = states.bob_gram()
    scale = np.sqrt(np.diagonal(g).real)
    off = np.abs(g / np.outer(scale, scale) - np.eye(states.n))
    if (off * (incidence.T @ incidence > 0)).max(initial=0.0) > 100 * tol.zero_tol:
        for outcome, members in zip(outcome_of.values(), rows):
            cols = unit[members].T
            overlap = np.abs(cols.conj().T @ cols - np.eye(len(members)))
            if overlap.max(initial=0.0) > 100 * tol.zero_tol:
                j, k = np.unravel_index(np.argmax(overlap), overlap.shape)
                raise NonOrthogonalBobClique(
                    f"states {states.labels[members[j]]} and "
                    f"{states.labels[members[k]]} overlap ({overlap[j, k]:.3g}) "
                    f"on Bob's side within outcome {outcome}"
                )
    return tuple(
        BobPlan(outcome, unit[members].T, tuple(states.labels[i] for i in members))
        for outcome, members in zip(outcome_of.values(), rows)
    )


def synthesize_protocol(
    states: ProductStateSet,
    dec: Decomposition,
    tol: Tolerance = DEFAULT_TOL,
) -> Protocol:
    """Lift a Gram splitting to a full protocol, one outcome per support.

    Each term v v* pulls back through the Alice frame X (solve X* phi = v)
    to the element |phi0><phi0| of weight ||phi0||^2, filed under the
    outcome of its support; Bob's reply depends only on that support. The
    pieces then sum to the identity on the span of Alice's states; whatever
    is missing on the orthogonal complement is appended to the last
    outcome, where no state can trigger it.
    """
    if dec.n != states.n:
        raise InvalidInput(f"splitting over {dec.n} states, set has {states.n}")
    if not dec.terms:
        raise InvalidInput("empty splitting")
    phis, mus = least_squares_preimage(
        states.alice_frame(), np.array([t.vector for t in dec.terms]).T, tol
    )
    outcome_of: dict[frozenset[int], int] = {}
    elements: list[PovmElement] = []
    for term, phi, mu in zip(dec.terms, phis.T, mus):
        k = outcome_of.setdefault(term.support, len(outcome_of) + 1)
        elements.append(PovmElement(k, float(mu) ** 2, phi, term.support))

    povm = Povm(states.d_alice, tuple(elements))
    deficit = hermitize(np.eye(states.d_alice) - povm.total())
    w, v = eigh_desc(deficit)
    if w[-1] < -10 * tol.psd_tol:
        raise NotPSD(f"splitting overshoots the identity by {-w[-1]:.3g}")
    last = elements[-1]
    elements += [
        PovmElement(last.outcome, float(w[c]), v[:, c], last.support)
        for c in np.flatnonzero(w > tol.zero_tol)
    ]
    plans = _bob_plans(states, outcome_of, tol)
    return Protocol(Povm(states.d_alice, tuple(elements)), plans)


def povm_to_decomposition(
    states: ProductStateSet, povm: Povm, tol: Tolerance = DEFAULT_TOL
) -> Decomposition:
    """Push a POVM through the Alice frame X: the element w d d* gives the
    rank-one term sqrt(w) X* d on the element's support, so every term lies
    in the range of X* and synthesize_protocol lifts it back exactly.
    Elements that no state sees (on the complement of Alice's span) give no
    term; a negative weight raises NotPSD."""
    dirs, weights = _weighted_directions(povm)
    if weights.min(initial=0.0) < -tol.psd_tol:
        raise NotPSD(f"element weight {weights.min():.3g}")
    x = states.alice_frame()
    scale = max(1.0, float(np.linalg.norm(x) ** 2))
    vectors = np.sqrt(np.maximum(weights, 0.0))[:, None] * (dirs @ x.conj())
    keep = np.linalg.norm(vectors, axis=1) ** 2 > tol.zero_tol * scale
    terms = tuple(
        DecompositionTerm(e.support, v)
        for e, v, seen in zip(povm.elements, vectors, keep) if seen
    )
    residual = float(
        np.linalg.norm(states.alice_gram() - vectors[keep].T @ vectors[keep].conj())
    )
    return Decomposition(states.n, terms, residual)


def _weighted_directions(povm: Povm) -> tuple[np.ndarray, np.ndarray]:
    """Element directions as the rows of an (elements x dim) array, and the
    element weights."""
    dirs = np.array([e.direction for e in povm.elements], dtype=complex)
    weights = np.array([e.weight for e in povm.elements], dtype=float)
    return dirs.reshape(len(povm.elements), povm.dim), weights


def _alice_probabilities(
    povm: Povm, states: ProductStateSet
) -> tuple[np.ndarray, np.ndarray]:
    """w_e |<d_e, a_i>|^2 for every element e (rows) and state i (columns),
    with the mask of the states each element's support declares."""
    dirs, weights = _weighted_directions(povm)
    probs = weights[:, None] * np.abs(dirs.conj() @ states.alice.T) ** 2
    inside = np.zeros(probs.shape, dtype=bool)
    for row, e in enumerate(povm.elements):
        inside[row, [i - 1 for i in e.support if 1 <= i <= states.n]] = True
    return probs, inside


def _completeness_deviation(povm: Povm) -> float:
    return float(
        np.abs(np.linalg.eigvalsh(hermitize(povm.total() - np.eye(povm.dim)))).max()
    )


def validate_povm(
    povm: Povm,
    states: Optional[ProductStateSet] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> PovmReport:
    """Completeness, element positivity, and support discipline."""
    completeness = _completeness_deviation(povm)
    min_weight = min((e.weight for e in povm.elements), default=0.0)
    leakage = 0.0
    if states is not None:
        probs, inside = _alice_probabilities(povm, states)
        leakage = float(probs[~inside].max(initial=0.0))
    ok = (
        completeness <= 10 * tol.psd_tol
        and min_weight >= -tol.psd_tol
        and leakage <= 10 * tol.psd_tol
    )
    return PovmReport(ok, completeness, float(min_weight), leakage)


def simulate(
    states: ProductStateSet, protocol: Protocol, tol: Tolerance = DEFAULT_TOL
) -> ProtocolReport:
    """Exact outcome statistics of the two-round protocol on each state:
    Alice's element probabilities summed per outcome, times the weight of
    each state on Bob's column labelled with it. Every plan label must name
    a state; an outcome without a plan gives up."""
    povm = protocol.alice
    outcomes = povm.outcome_ids()
    row_of = {outcome: k for k, outcome in enumerate(outcomes)}
    rows = [row_of[e.outcome] for e in povm.elements]
    probs, inside = _alice_probabilities(povm, states)
    p_alice = np.zeros((len(outcomes), states.n))
    np.add.at(p_alice, rows, probs)
    seen = np.zeros(p_alice.shape, dtype=bool)
    np.logical_or.at(seen, rows, inside)

    index = {lbl: i for i, lbl in enumerate(states.labels)}
    plans = {p.outcome: p for p in protocol.bob}
    used = [
        (k, plans[outcome]) for k, outcome in enumerate(outcomes)
        if outcome in plans and seen[k].any()
    ]
    p_bob = np.zeros_like(p_alice)
    if used:
        # every plan column as one row: its outcome's row, its owner, its
        # vector, and that vector's overlap with the owner's Bob part
        cols = np.concatenate([plan.basis.T for _, plan in used])
        rows = np.repeat([k for k, _ in used], [len(plan.labels) for _, plan in used])
        owners = [index[lbl] for _, plan in used for lbl in plan.labels]
        hits = np.einsum("jd,jd->j", cols.conj(), states.bob[owners])
        np.add.at(p_bob, (rows, owners), np.abs(hits) ** 2)

    success = (p_alice * p_bob * seen).sum(axis=0)
    per_state = tuple(zip(states.labels, success.tolist()))
    return ProtocolReport(
        per_state,
        float(success.min()),
        _completeness_deviation(povm),
        float(probs[~inside].max(initial=0.0)),
    )


def as_projective_basis(
    povm: Povm, tol: Tolerance = DEFAULT_TOL, match_tol: float = 1e-7
) -> Optional[np.ndarray]:
    """Columns of an orthonormal family when every outcome operator is a
    rank-one projector; None otherwise."""
    cols = []
    for outcome in povm.outcome_ids():
        op = povm.outcome_operator(outcome)
        w, v = eigh_desc(op)
        if abs(w[0] - 1.0) > match_tol:
            return None
        if len(w) > 1 and abs(w[1]) > match_tol:
            return None
        cols.append(v[:, 0])
    basis = np.column_stack(cols)
    overlap = basis.conj().T @ basis
    if np.abs(overlap - np.eye(len(cols))).max() > match_tol:
        return None
    return basis


def matches_projective_basis(
    povm: Povm, basis: np.ndarray, match_tol: float = 1e-7,
    span: Optional[np.ndarray] = None,
) -> bool:
    """True when the outcome operators are the rank-one projectors of the
    given basis columns, in some order (phases ignored).

    With a span (orthonormal columns) the comparison happens after
    compressing both sides onto it. Operators agreeing there act identically
    on every state inside the span; components outside never touch any
    state, so this is equality of the physically visible measurement.
    """
    basis = np.asarray(basis, dtype=complex)
    outcomes = povm.outcome_ids()
    if basis.shape[1] != len(outcomes):
        return False

    def compress(op: np.ndarray) -> np.ndarray:
        if span is None:
            return op
        return span.conj().T @ op @ span

    unused = list(range(basis.shape[1]))
    for outcome in outcomes:
        op = compress(povm.outcome_operator(outcome))
        hit = None
        for j in unused:
            proj = compress(np.outer(basis[:, j], basis[:, j].conj()))
            if np.linalg.norm(op - proj) <= match_tol:
                hit = j
                break
        if hit is None:
            return False
        unused.remove(hit)
    return True
