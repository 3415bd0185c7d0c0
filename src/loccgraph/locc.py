"""Measure-and-tell protocols: Alice measures, Bob finishes.

A protocol is an Alice POVM whose outcome operators only respond to states
in their declared support, plus Bob's reply to each outcome: the
orthonormal Bob vectors of the states that outcome leaves, the rest of
Bob's space giving up. Protocols are synthesized from Gram splittings, one
outcome per distinct support (each rank-one piece lifts to a POVM element
through a least-squares preimage), and checked by exact simulation. The
eigenvalues of the lifted elements' sum minus the identity are both the
lift's test for a fill and the simulation's completeness check, so a
decision lifts and simulates with one eigensolve when nothing is filled.
A given protocol is re-checked in one pass (check_protocol): Bob's replies
are judged on one Gram of his columns, as the lift's are, then simulated.

Both halves are kept as arrays, one row per POVM element and one column
per Bob vector; PovmElement and BobPlan are views of them, built when
Povm.elements or Protocol.bob is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decomposition import Decomposition, support_sets
from .errors import InvalidInput, NonOrthogonalBobClique, NotPSD
# complete_basis, least_squares_preimage, numeric_rank and orthonormal_columns
# are not called here; they stay bound because perfbench/layertrace.py wraps
# the names this module binds
from .linalg import (  # noqa: F401
    DEFAULT_TOL,
    Tolerance,
    complete_basis,
    eigh_desc,
    least_squares_preimage,
    numeric_rank,
    orthonormal_columns,
    svd_preimage,
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


@dataclass(frozen=True, eq=False)
class Povm:
    """Rank-one elements weight * d d*, one per row: directions (k x dim),
    weights (k), the outcome each counts towards (k integers) and the
    states each may respond to (boolean supports, k x n)."""

    directions: np.ndarray
    weights: np.ndarray
    outcomes: np.ndarray
    supports: np.ndarray

    def __post_init__(self):
        k = len(self.directions)
        if (self.directions.ndim != 2 or self.weights.shape != (k,)
                or self.outcomes.shape != (k,) or self.supports.ndim != 2
                or len(self.supports) != k or self.supports.dtype != bool):
            raise InvalidInput(
                f"POVM of {self.directions.shape} directions, {self.weights.shape} "
                f"weights, {self.outcomes.shape} outcomes, {self.supports.shape} supports"
            )

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def elements(self) -> tuple[PovmElement, ...]:
        return tuple(
            PovmElement(int(k), float(w), d, s) for k, w, d, s in zip(
                self.outcomes, self.weights, self.directions, support_sets(self.supports))
        )

    def outcome_ids(self) -> tuple[int, ...]:
        # not np.unique, which imports numpy.ma on first use
        return tuple(sorted(set(self.outcomes.tolist())))

    def outcome_operator(self, outcome: int) -> np.ndarray:
        pick = self.outcomes == outcome
        dirs = self.directions[pick]
        return (dirs.T * self.weights[pick]) @ dirs.conj()

    def total(self) -> np.ndarray:
        return (self.directions.T * self.weights) @ self.directions.conj()


@dataclass(frozen=True)
class BobPlan:
    """Bob's reply to one Alice outcome: orthonormal columns, column j the
    normalised Bob vector of the state labels[j] names. The rest of Bob's
    space gives up; complete_basis(basis) extends it to a full unitary."""

    outcome: int
    basis: np.ndarray
    labels: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class Protocol:
    """Alice's POVM, then Bob's columns: column c of bob_basis (d_bob x c)
    is his reply to outcome bob_outcomes[c] for the state labelled
    bob_labels[c]. An outcome's columns, in order, are its BobPlan."""

    alice: Povm
    bob_basis: np.ndarray
    bob_outcomes: np.ndarray
    bob_labels: np.ndarray

    def __post_init__(self):
        c = self.bob_outcomes.shape
        if (self.bob_basis.ndim != 2 or c != (self.bob_basis.shape[1],)
                or self.bob_labels.shape != c):
            raise InvalidInput(
                f"Bob columns {self.bob_basis.shape} with {self.bob_outcomes.shape} "
                f"outcomes and {self.bob_labels.shape} labels"
            )

    @property
    def bob(self) -> tuple[BobPlan, ...]:
        plans = []
        for outcome in dict.fromkeys(self.bob_outcomes.tolist()):
            pick = self.bob_outcomes == outcome
            plans.append(BobPlan(outcome, self.bob_basis[:, pick],
                                 tuple(self.bob_labels[pick].tolist())))
        return tuple(plans)


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


def outcome_numbers(supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One outcome per distinct row of the boolean supports, numbered 1, 2,
    ... in order of first appearance: each row's outcome, and the first row
    of each outcome."""
    packed = np.packbits(supports, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1).tolist()
    first: dict[bytes, int] = {}
    for row, key in enumerate(keys):
        first.setdefault(key, row)
    number = {key: k for k, key in enumerate(first, 1)}
    return (np.array([number[key] for key in keys], dtype=int),
            np.array(list(first.values()), dtype=int))


def plan_overlaps(basis: np.ndarray, same: np.ndarray) -> np.ndarray:
    """|B* B - I| for Bob's columns B on the pairs of columns that the mask
    same marks (those answering one outcome), zero on the others: one Gram
    of all columns, which each caller judges at its own threshold."""
    gram = basis.conj().T @ basis
    gram.flat[::len(gram) + 1] -= 1
    return np.abs(gram) * same


def _bob_plans(
    states: ProductStateSet, members: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bob's columns, outcome by outcome, given the states each outcome
    leaves (boolean, one row per outcome): member j's normalised Bob
    vector, its outcome and its label.

    Bob's parts must be orthonormal within every outcome; when they are
    not, the first outcome holding an overlapping pair names its worst
    pair.
    """
    outcome, member = np.nonzero(members)
    cols = states.bob[member]
    basis = (cols / np.linalg.norm(cols, axis=1, keepdims=True)).T
    outcomes = outcome + 1
    labels = states.label_array()[member]
    same = outcomes[:, None] == outcomes
    off = plan_overlaps(basis, same)
    flawed = off.max(axis=1, initial=0.0) > 100 * tol.zero_tol
    if flawed.any():
        block = same[np.argmax(flawed)]
        within = off[np.ix_(block, block)]
        j, i = np.unravel_index(np.argmax(within), within.shape)
        raise NonOrthogonalBobClique(
            f"states {labels[block][j]} and {labels[block][i]} overlap "
            f"({within[j, i]:.3g}) on Bob's side within outcome "
            f"{outcomes[np.argmax(flawed)]}"
        )
    return basis, outcomes, labels


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
    outcome, where no state can trigger it. The eigenvalues of the pieces'
    sum minus I, the matrix whose largest |eigenvalue| simulate reports as
    the completeness deviation, show whether anything is missing; only then
    are its directions computed.
    """
    return _lift(states, dec, tol)[0]


def _lift(
    states: ProductStateSet, dec: Decomposition, tol: Tolerance
) -> tuple[Protocol, Optional[float]]:
    """synthesize_protocol, with the completeness deviation of the POVM
    when nothing was appended (read off the eigenvalues that tested the
    fill), else None."""
    if dec.n != states.n:
        raise InvalidInput(f"splitting over {dec.n} states, set has {states.n}")
    if not len(dec.vectors):
        raise InvalidInput("empty splitting")
    phis, mus = svd_preimage(
        states.alice_frame(), states.alice_svd(tol), dec.vectors.T, tol
    )
    outcomes, firsts = outcome_numbers(dec.supports)
    weights = mus ** 2
    povm = Povm(phis.T, weights, outcomes, dec.supports)
    w = np.linalg.eigvalsh(_deviation(povm))
    if w[-1] > 10 * tol.psd_tol:
        raise NotPSD(f"splitting overshoots the identity by {w[-1]:.3g}")
    deviation = float(np.abs(w).max())
    if w[0] < -tol.zero_tol:
        w, v = eigh_desc(np.eye(states.d_alice) - povm.total())
        fill = w > tol.zero_tol
        extra = int(fill.sum())
        povm = Povm(
            np.concatenate([phis.T, v[:, fill].T]),
            np.concatenate([weights, w[fill]]),
            np.concatenate([outcomes, np.repeat(outcomes[-1:], extra)]),
            np.concatenate([dec.supports, np.repeat(dec.supports[-1:], extra, axis=0)]),
        )
        deviation = None
    return Protocol(povm, *_bob_plans(states, dec.supports[firsts], tol)), deviation


def povm_to_decomposition(
    states: ProductStateSet, povm: Povm, tol: Tolerance = DEFAULT_TOL
) -> Decomposition:
    """Push a POVM through the Alice frame X: the element w d d* gives the
    rank-one term sqrt(w) X* d on the element's support, so every term lies
    in the range of X* and synthesize_protocol lifts it back exactly.
    Elements that no state sees (on the complement of Alice's span) give no
    term; a negative weight raises NotPSD."""
    weights = povm.weights
    if weights.min(initial=0.0) < -tol.psd_tol:
        raise NotPSD(f"element weight {weights.min():.3g}")
    x = states.alice_frame()
    scale = max(1.0, float(np.linalg.norm(x) ** 2))
    vectors = np.sqrt(np.maximum(weights, 0.0))[:, None] * (povm.directions @ x.conj())
    keep = np.linalg.norm(vectors, axis=1) ** 2 > tol.zero_tol * scale
    residual = float(
        np.linalg.norm(states.alice_gram() - vectors[keep].T @ vectors[keep].conj())
    )
    return Decomposition(vectors[keep], _inside(povm, states.n)[keep], residual)


def _inside(povm: Povm, n: int) -> np.ndarray:
    """The supports as a k x n mask (the POVM's own when n wide): states
    past the mask's width are in no support, and support entries past n
    name no state."""
    if povm.supports.shape[1] == n:
        return povm.supports
    width = min(n, povm.supports.shape[1])
    inside = np.zeros((len(povm.supports), n), dtype=bool)
    inside[:, :width] = povm.supports[:, :width]
    return inside


def _alice_probabilities(
    povm: Povm, states: ProductStateSet
) -> tuple[np.ndarray, np.ndarray]:
    """w_e |<d_e, a_i>|^2 for every element e (rows) and state i (columns),
    with the mask of the states each element's support declares."""
    probs = povm.weights[:, None] * np.abs(povm.directions.conj() @ states.alice.T) ** 2
    return probs, _inside(povm, states.n)


def _deviation(povm: Povm) -> np.ndarray:
    """The elements' sum minus the identity."""
    deviation = povm.total()
    deviation.flat[::povm.dim + 1] -= 1
    return deviation


def _completeness_deviation(povm: Povm) -> float:
    return float(np.abs(np.linalg.eigvalsh(_deviation(povm))).max())


def validate_povm(
    povm: Povm,
    states: Optional[ProductStateSet] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> PovmReport:
    """Completeness, element positivity, and support discipline."""
    completeness = _completeness_deviation(povm)
    min_weight = float(povm.weights.min()) if len(povm.weights) else 0.0
    leakage = 0.0
    if states is not None:
        probs, inside = _alice_probabilities(povm, states)
        leakage = float(probs[~inside].max(initial=0.0))
    ok = (
        completeness <= 10 * tol.psd_tol
        and min_weight >= -tol.psd_tol
        and leakage <= 10 * tol.psd_tol
    )
    return PovmReport(ok, completeness, min_weight, leakage)


def simulate(
    states: ProductStateSet,
    protocol: Protocol,
    tol: Tolerance = DEFAULT_TOL,
    *,
    _deviation: Optional[float] = None,
    _owner: Optional[np.ndarray] = None,
) -> ProtocolReport:
    """Exact outcome statistics of the two-round protocol on each state:
    Alice's element probabilities summed per outcome, times the weight of
    each state on Bob's columns of that outcome labelled with it. A column
    whose label names no state counts for none; an outcome without columns
    gives up. The completeness deviation is the largest |eigenvalue| of the
    elements' sum minus I; the lift, which takes those eigenvalues, passes
    it as _deviation, and check_protocol the labels' positions as _owner."""
    povm = protocol.alice
    if _deviation is None:
        _deviation = _completeness_deviation(povm)
    at = _owner if _owner is not None else states.label_positions(protocol.bob_labels)
    probs, inside = _alice_probabilities(povm, states)
    named = at >= 0
    outcomes, at = protocol.bob_outcomes[named], at[named]
    # for each Bob column: the elements of its outcome, and what they give
    # the state the column detects
    same = povm.outcomes[:, None] == outcomes
    p_alice = (probs[:, at] * same).sum(axis=0)
    seen = (inside[:, at] & same).any(axis=0)
    hits = np.einsum("dc,cd->c", protocol.bob_basis[:, named].conj(), states.bob[at])
    success = np.bincount(at, weights=p_alice * np.abs(hits) ** 2 * seen,
                          minlength=states.n)
    per_state = tuple(zip(states.labels, success.tolist()))
    return ProtocolReport(
        per_state,
        float(success.min()),
        _deviation,
        float(probs[~inside].max(initial=0.0)),
    )


def check_protocol(
    states: ProductStateSet, protocol: Protocol, tol: Tolerance = DEFAULT_TOL
) -> tuple[list[int], Optional[ProtocolReport]]:
    """The outcomes, in the order Bob's columns first name them, whose
    columns are not orthonormal (to 10 rank_tol) or not each labelled with a
    different state, and only when there are none the simulation; the labels
    are resolved, and the same-outcome mask is built, once for both."""
    outcomes = protocol.bob_outcomes
    owner = states.label_positions(protocol.bob_labels)
    same = outcomes[:, None] == outcomes
    # a label that names no state, or a state its outcome names twice
    flawed = (owner < 0) | ((same & (owner[:, None] == owner)).sum(axis=1) > 1)
    overlap = plan_overlaps(protocol.bob_basis, same).max(axis=1, initial=0.0)
    flawed |= overlap > 10 * tol.rank_tol
    if flawed.any():
        return list(dict.fromkeys(outcomes[(same & flawed).any(axis=1)].tolist())), None
    return [], simulate(states, protocol, tol, _owner=owner)


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
