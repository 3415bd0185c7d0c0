"""Decision pipeline for one-way local discrimination of product states.

Inputs are mutually orthogonal bipartite product states. The measuring
side's overlap graph and the listening side's orthogonality graph bound the
admissible outcome supports; the pipeline walks a fixed ladder of
certificates, cheapest first, and every verdict carries enough data to be
re-checked from scratch by verify_certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .decomposition import (
    Decomposition,
    Faces,
    chordal_decompose,
    dominance_scaling,
    dominance_slack,
    dominance_split,
    dual_witness,
    faces_in_span,
    feasibility_search,
    verify_decomposition,
)
from .errors import InvalidInput, LoccGraphError, SearchBudgetExceeded
# edge_clique_cover_number, frame and validate_povm are no longer called here;
# they stay bound because perfbench/layertrace.py wraps the names this module binds
from .graphs import (  # noqa: F401
    ChordalityResult,
    Graph,
    chordal_sandwich,
    chromatic_number,
    edge_clique_cover_number,
    eta_plus_bounds,
    find_two_clique_cover,
    greedy_clique_cover,
    independence_number,
    independent_set_of_size,
    is_chordal,
    is_clique,
    is_perfect_elimination_ordering,
    is_subgraph,
    maximal_cliques,
    simplicial_vertices,
)
from .linalg import DEFAULT_TOL, Tolerance, frame, numeric_rank  # noqa: F401
from .locc import (  # noqa: F401
    BobPlan, Povm, PovmElement, Protocol, ProtocolReport, matches_projective_basis,
    povm_to_decomposition, simulate, synthesize_protocol, validate_povm,
)
from .states import ProductStateSet, StateGraphs

DISTINGUISHABLE = "Distinguishable"
INDISTINGUISHABLE = "Indistinguishable"
UNKNOWN = "Unknown"

ALICE_FIRST = "alice-first"
BOB_FIRST = "bob-first"

KIND_CHORDAL_ALICE = "ChordalAliceGraph"
KIND_CHORDAL_HOST = "ChordalBobComplement"
KIND_QUBIT = "SingleQubitSandwich"
KIND_SANDWICH = "ChordalSandwich"
KIND_SCALED_DD = "ScaledDiagonalDominance"
KIND_FEASIBLE = "FeasibleDecomposition"
KIND_NO_SIMPLICIAL = "MinDimNoSimplicial"
KIND_ALPHA_CHI = "AlphaLessThanChi"
KIND_NO_SANDWICH = "NonChordalSandwichAtMinDim"
KIND_SPANNING = "SpanningObstruction"
KIND_DUAL_WITNESS = "DualWitness"
KIND_UNKNOWN = "Unknown"

_EXIT = {DISTINGUISHABLE: 0, INDISTINGUISHABLE: 10, UNKNOWN: 20}
STATUSES = tuple(_EXIT)

# the status each certificate kind proves; SingleQubitSandwich proves either,
# as its "distinguishable" flag says
_PROVES = {
    KIND_CHORDAL_ALICE: DISTINGUISHABLE,
    KIND_CHORDAL_HOST: DISTINGUISHABLE,
    KIND_SANDWICH: DISTINGUISHABLE,
    KIND_SCALED_DD: DISTINGUISHABLE,
    KIND_FEASIBLE: DISTINGUISHABLE,
    KIND_NO_SIMPLICIAL: INDISTINGUISHABLE,
    KIND_ALPHA_CHI: INDISTINGUISHABLE,
    KIND_NO_SANDWICH: INDISTINGUISHABLE,
    KIND_SPANNING: INDISTINGUISHABLE,
    KIND_DUAL_WITNESS: INDISTINGUISHABLE,
    KIND_UNKNOWN: UNKNOWN,
}

KINDS = (*_PROVES, KIND_QUBIT)


@dataclass(frozen=True)
class Certificate:
    kind: str
    data: dict


@dataclass(frozen=True)
class Verdict:
    status: str
    direction: str
    certificate: Certificate
    parameters: dict
    protocol: Optional[Protocol] = None
    simulation: Optional[ProtocolReport] = None
    decomposition: Optional[Decomposition] = None
    notes: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return _EXIT[self.status]


@dataclass(frozen=True)
class DecideOptions:
    tol: Tolerance = DEFAULT_TOL
    max_iter: int = 60000
    sandwich_budget: int = 25
    search_budget: int = 40


def effective_dimension(states: ProductStateSet, tol: Tolerance = DEFAULT_TOL) -> int:
    """The rank of Alice's frame: the width of the set's alice_span."""
    return states.alice_span(tol).shape[1]


def spanning_obstruction(
    states: ProductStateSet,
    supports: Sequence[frozenset[int]],
    tol: Tolerance = DEFAULT_TOL,
) -> Faces:
    """The faces of the supports in Alice's span, the start of the convex
    end; when every one is empty they prove that every admissible outcome
    operator vanishes.

    If for every admissible support the excluded states span Alice's whole
    effective space, any positive operator silent outside a support is zero
    there, so no measurement with a nonzero first round exists. Quantifying
    over maximal supports covers all smaller ones.
    """
    return faces_in_span(states.alice_span(tol), states.alice_frame(), supports, tol)


def certificate_splitting(
    work: ProductStateSet,
    certificate: Certificate,
    ga: Graph,
    host: Graph,
    tol: Tolerance = DEFAULT_TOL,
) -> Decomposition:
    """The Gram splitting a Distinguishable certificate fixes, given the
    measuring side's overlap graph ga and the admissible host:

    - ChordalAliceGraph, ChordalBobComplement: the peel of ga, or of the
      host, along the recorded ordering;
    - ChordalSandwich: the peel of the recorded sandwich along its ordering;
    - SingleQubitSandwich: the peel of the union of its two cliques;
    - ScaledDiagonalDominance: dominance_split by the recorded scaling, each
      piece filed under the first recorded support holding it;
    - FeasibleDecomposition: the recorded pieces of Alice's outcome
      operators pushed through her frame (povm_to_decomposition), one
      outcome per support.

    decide builds these verdicts' splittings here and verdict files are read
    back through here, so a written protocol and a re-derived one agree.
    A certificate that fixes no splitting raises a LoccGraphError.
    """
    kind = certificate.kind

    def field(key: str):
        if key not in certificate.data:
            raise InvalidInput(f"{kind} certificate lacks {key!r}")
        return certificate.data[key]

    m = work.alice_gram()
    if kind in (KIND_CHORDAL_ALICE, KIND_CHORDAL_HOST):
        g = ga if kind == KIND_CHORDAL_ALICE else host
        return chordal_decompose(m, g, tol, ordering=field("ordering"))
    if kind == KIND_SANDWICH:
        g = Graph.from_edges(work.n, field("sandwich_edges"))
        return chordal_decompose(m, g, tol, ordering=field("ordering"))
    if kind == KIND_QUBIT and certificate.data.get("distinguishable"):
        # the union of the two cliques is chordal and lies between ga and
        # the host, so its peel is an admissible splitting
        union = Graph.from_edges(work.n, itertools.chain.from_iterable(
            itertools.combinations(sorted(c), 2) for c in field("cliques")
        ))
        return chordal_decompose(m, union, tol)
    if kind == KIND_SCALED_DD:
        groups = [frozenset(s) for s in field("supports")]
        return dominance_split(m, ga, np.asarray(field("scaling"), dtype=float), groups)
    if kind == KIND_FEASIBLE:
        try:
            supports = [frozenset(s) for s in field("supports")]
            weights = np.asarray(field("weights"), dtype=float)
            directions = np.asarray(field("directions"), dtype=complex)
            ok = (weights.shape == (len(supports),)
                  and directions.shape == (len(supports), work.d_alice)
                  and np.isfinite(weights).all() and np.isfinite(directions).all()
                  and all(s and min(s) >= 1 and max(s) <= work.n for s in supports))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise InvalidInput(f"{kind} needs one support in 1..{work.n}, finite "
                               f"weight and direction in C^{work.d_alice} per piece")
        outcome: dict[frozenset[int], int] = {}
        povm = Povm(work.d_alice, tuple(
            PovmElement(outcome.setdefault(s, len(outcome) + 1), float(w), e, s)
            for s, w, e in zip(supports, weights, directions)
        ))
        return povm_to_decomposition(work, povm, tol)
    raise InvalidInput(f"a {kind} certificate fixes no splitting")


def distinguishable_verdict(
    work: ProductStateSet,
    direction: str,
    certificate: Certificate,
    params: dict,
    notes: Sequence[str],
    ga: Graph,
    host: Graph,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Every Distinguishable verdict: the Gram splitting its certificate
    fixes, the protocol it lifts to and that protocol's simulation."""
    dec = certificate_splitting(work, certificate, ga, host, tol)
    protocol = synthesize_protocol(work, dec, tol)
    sim = simulate(work, protocol, tol)
    params = dict(params)
    params["min_success"] = sim.min_success
    return Verdict(
        DISTINGUISHABLE,
        direction,
        certificate,
        params,
        protocol,
        sim,
        dec,
        tuple(notes),
    )


def _sandwich_verdict(
    work: ProductStateSet,
    direction: str,
    ga: Graph,
    host: Graph,
    chi: int,
    params: dict,
    notes: list[str],
    opt: DecideOptions,
) -> Optional[Verdict]:
    """At minimum dimension a chordal sandwich decides either way: peeling
    it gives the protocol, and its absence is the certificate. None when the
    sandwich search is over budget."""
    try:
        sandwich = chordal_sandwich(ga, host, opt.sandwich_budget)
    except SearchBudgetExceeded as exc:
        notes.append(str(exc))
        return None
    if sandwich is None:
        return Verdict(
            INDISTINGUISHABLE, direction,
            Certificate(KIND_NO_SANDWICH, {"chi": chi}),
            params, notes=tuple(notes),
        )
    certificate = Certificate(KIND_SANDWICH, {
        "sandwich_edges": [list(e) for e in sandwich.edge_list()],
        "ordering": list(is_chordal(sandwich).ordering),
    })
    return distinguishable_verdict(
        work, direction, certificate, params, notes, ga, host, opt.tol
    )


def decide(
    states: ProductStateSet,
    direction: str = ALICE_FIRST,
    options: Optional[DecideOptions] = None,
) -> Verdict:
    """Decide one-way distinguishability with the given side measuring first."""
    if direction not in (ALICE_FIRST, BOB_FIRST):
        raise LoccGraphError(f"unknown direction {direction!r}")
    opt = options or DecideOptions()
    tol = opt.tol
    work = states if direction == ALICE_FIRST else states.swapped()
    work.require_orthonormal(tol)

    graphs = work.build_graphs(tol)
    ga, gb = graphs.alice, graphs.bob
    host = graphs.bob_orthogonality()
    d_eff = effective_dimension(work, tol)
    notes: list[str] = []
    params: dict = {
        "n": work.n,
        "d_alice": work.d_alice,
        "d_bob": work.d_bob,
        "d_eff": d_eff,
        "alice_edges": ga.edge_count(),
        "bob_edges": gb.edge_count(),
        "search_budget": opt.search_budget,
        "sandwich_budget": opt.sandwich_budget,
    }

    chord_a = is_chordal(ga)
    chord_h = is_chordal(host)
    params["alice_chordal"] = chord_a.chordal
    params["host_chordal"] = chord_h.chordal

    if chord_a.chordal:
        return distinguishable_verdict(
            work, direction,
            Certificate(KIND_CHORDAL_ALICE, {"ordering": list(chord_a.ordering)}),
            params, notes, ga, host, tol,
        )
    if chord_h.chordal:
        return distinguishable_verdict(
            work, direction,
            Certificate(KIND_CHORDAL_HOST, {"ordering": list(chord_h.ordering)}),
            params, notes, ga, host, tol,
        )

    if d_eff == 2:
        pair = find_two_clique_cover(host, ga.edges)
        if pair is not None:
            return distinguishable_verdict(
                work, direction,
                Certificate(KIND_QUBIT, {"distinguishable": True,
                                         "cliques": [sorted(c) for c in pair]}),
                params, notes, ga, host, tol,
            )
        # no two-part cover: already indistinguishable for a qubit side; at
        # minimum dimension the sandwich certificate is the sharper one
        try:
            chi = chromatic_number(gb, opt.search_budget)[0]
            params["chi_bob"] = chi
        except SearchBudgetExceeded as exc:
            notes.append(str(exc))
            chi = None
        if chi == d_eff:
            verdict = _sandwich_verdict(
                work, direction, ga, host, chi, params, notes, opt
            )
            if verdict is not None:
                return verdict
        return Verdict(
            INDISTINGUISHABLE, direction,
            Certificate(
                KIND_QUBIT,
                {"distinguishable": False,
                 "maximal_cliques": len(maximal_cliques(host))},
            ),
            params, notes=tuple(notes),
        )
    else:
        alpha = chi = None
        try:
            # the host's complement is Bob's overlap graph, so the host's
            # minimum-rank bounds are alpha(host) with its witness and chi(bob)
            eta = eta_plus_bounds(host, opt.search_budget)
            alpha, alpha_wit, chi = eta.lower, eta.lower_witness, eta.upper
            params["alpha_host"] = alpha
            params["chi_bob"] = chi
        except SearchBudgetExceeded as exc:
            notes.append(str(exc))
        simp = simplicial_vertices(host)
        params["simplicial_host"] = tuple(sorted(simp))
        # alpha(host) <= d_eff for every orthogonal product set: states
        # independent in the host overlap pairwise on Bob's side, so their
        # Alice parts are pairwise orthogonal. An independent host set of
        # size d_eff therefore proves alpha(host) = d_eff, exact search or not.
        witness = None
        if chi is not None:
            params["eta_host"] = eta
            if d_eff == chi and alpha < chi:
                return Verdict(
                    INDISTINGUISHABLE, direction,
                    Certificate(
                        KIND_ALPHA_CHI,
                        {"alpha": alpha, "chi": chi,
                         "alpha_witness": sorted(alpha_wit)},
                    ),
                    params, notes=tuple(notes),
                )
            if alpha == d_eff:
                witness = alpha_wit
        elif not simp and d_eff <= opt.search_budget:
            try:
                witness = independent_set_of_size(
                    host, d_eff, opt.search_budget * work.n
                )
            except SearchBudgetExceeded as exc:
                notes.append(str(exc))
            else:
                if witness is None:
                    notes.append(f"no independent host set of size {d_eff}")
        if not simp and witness is not None:
            return Verdict(
                INDISTINGUISHABLE, direction,
                Certificate(
                    KIND_NO_SIMPLICIAL,
                    {"alpha": d_eff, "d_eff": d_eff,
                     "alpha_witness": sorted(witness),
                     "eta": d_eff,
                     "eta_certificate": "independent set meets Gram rank"},
                ),
                params, notes=tuple(notes),
            )
        if chi == d_eff:
            verdict = _sandwich_verdict(
                work, direction, ga, host, chi, params, notes, opt
            )
            if verdict is not None:
                return verdict

    m = work.alice_gram()
    # every overlap edge is a host edge for an orthogonal product set, so a
    # clique of ga is an admissible support; the inclusion is checked, since
    # overlaps near zero on both sides can break it
    x = dominance_scaling(m, ga, tol) if is_subgraph(ga, host) else None
    if x is not None:
        return distinguishable_verdict(
            work, direction,
            Certificate(KIND_SCALED_DD, {
                "scaling": x.tolist(),
                "supports": [sorted(s) for s in greedy_clique_cover(ga)],
            }),
            params, notes, ga, host, tol,
        )

    # the convex end: Alice's outcome operators on the faces of the maximal
    # admissible supports; all faces empty is the spanning obstruction
    faces = spanning_obstruction(work, maximal_cliques(host), tol)
    if faces.empty:
        return Verdict(INDISTINGUISHABLE, direction, Certificate(KIND_SPANNING, {
            "d_eff": faces.d_eff,
            "supports": [sorted(s) for s, _ in faces.entries],
            "outside_ranks": [r for _, r in faces.entries],
        }), params, notes=tuple(notes))
    feas = feasibility_search(faces, tol, opt.max_iter)
    if feas.converged:
        return distinguishable_verdict(
            work, direction,
            Certificate(KIND_FEASIBLE, {
                "supports": [sorted(s) for s in feas.supports],
                "weights": feas.weights.tolist(),
                "directions": feas.directions,
                "gap": feas.gap,
                "iterations": feas.iterations,
            }),
            params, notes, ga, host, tol,
        )
    if feas.witness is not None:
        # every one-way protocol restricts to such operators, and none exist
        return Verdict(INDISTINGUISHABLE, direction, Certificate(KIND_DUAL_WITNESS, {
            "witness": faces.lift(feas.witness.matrix),
            "shift": feas.witness.shift,
            "shifted_inner_product": feas.witness.value,
            "iterations": feas.iterations,
        }), params, notes=tuple(notes))
    notes.append(
        f"feasibility search ran out of its iteration budget "
        f"({opt.max_iter}) at gap {feas.gap:.3g}"
    )
    return Verdict(UNKNOWN, direction, Certificate(KIND_UNKNOWN, {
        "reason": "iteration budget exhausted",
        "gap": feas.gap, "iterations": feas.iterations,
    }), params, notes=tuple(notes))


# ---------------------------------------------------------------------------
# analysis and converse checks


@dataclass(frozen=True)
class AnalyzeReport:
    orthonormal: object
    graphs: StateGraphs
    alice_chordality: ChordalityResult
    bob_chordality: ChordalityResult
    host_chordality: ChordalityResult
    d_eff: int
    alpha_host: Optional[int]
    alpha_witness: tuple[int, ...]
    chi_bob: Optional[int]
    simplicial_host: tuple[int, ...]
    eta_host: Optional[object]
    maximal_cliques_host: tuple[tuple[int, ...], ...]
    notes: tuple[str, ...] = ()


def analyze(
    states: ProductStateSet,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = 40,
) -> AnalyzeReport:
    graphs = states.build_graphs(tol)
    host = graphs.bob_orthogonality()
    notes: list[str] = []
    alpha = chi = eta = None
    wit: tuple[int, ...] = ()
    try:
        # the host's complement is Bob's overlap graph, so eta's bounds are
        # alpha(host) with its witness and chi(bob)
        eta = eta_plus_bounds(host, budget)
        alpha, wit, chi = eta.lower, tuple(sorted(eta.lower_witness)), eta.upper
    except SearchBudgetExceeded as exc:
        notes.append(str(exc))
    return AnalyzeReport(
        states.validate_orthonormal(tol),
        graphs,
        is_chordal(graphs.alice),
        is_chordal(graphs.bob),
        is_chordal(host),
        effective_dimension(states, tol),
        alpha,
        wit,
        chi,
        tuple(sorted(simplicial_vertices(host))),
        eta,
        tuple(tuple(sorted(c)) for c in maximal_cliques(host)),
        tuple(notes),
    )


@dataclass(frozen=True)
class ConverseReport:
    """What is forced about Alice's measurement at minimum dimension.

    When the measuring dimension equals the chromatic number of the
    listening side's overlap graph, a successful first measurement must be a
    rank-one projective basis. Each admissible support whose excluded states
    have corank one forces its basis direction outright, so enumerating
    direction families certifies uniqueness.
    """

    applies: bool
    d_eff: int
    chi_bob: Optional[int]
    alpha_host: Optional[int]
    alpha_equals_chi: Optional[bool]
    forced: tuple[tuple[tuple[int, ...], tuple[complex, ...]], ...]
    underdetermined: tuple[tuple[int, ...], ...]
    families_found: int
    unique: bool
    basis: Optional[np.ndarray] = field(default=None, compare=False)
    supports: tuple[tuple[int, ...], ...] = ()
    notes: tuple[str, ...] = ()
    verdict_matches: Optional[bool] = None


def converse_theorem_checks(
    states: ProductStateSet,
    verdict: Optional[Verdict] = None,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = 40,
    match_tol: float = 1e-7,
) -> ConverseReport:
    graphs = states.build_graphs(tol)
    host = graphs.bob_orthogonality()
    d_eff = effective_dimension(states, tol)
    notes: list[str] = []
    try:
        # eta's bounds are alpha(host) and chi(complement(host)) = chi(bob)
        eta = eta_plus_bounds(host, budget)
    except SearchBudgetExceeded as exc:
        return ConverseReport(
            False, d_eff, None, None, None, (), (), 0, False, notes=(str(exc),)
        )
    alpha, chi = eta.lower, eta.upper
    applies = d_eff == chi
    if not applies:
        return ConverseReport(
            False, d_eff, chi, alpha, alpha == chi, (), (), 0, False,
            notes=("measuring dimension is not at the minimum",),
        )

    x = states.alice_frame()
    m = states.alice_gram()
    scale = max(1.0, float(np.linalg.norm(m)))
    # a support whose face is a line forces its outcome's direction; an
    # empty face lets nothing live on the support
    faces = spanning_obstruction(states, maximal_cliques(host), tol)
    span = faces.span
    forced: list[tuple[frozenset[int], np.ndarray]] = []
    under: list[frozenset[int]] = []
    for c, w in zip(faces.supports, faces.bases):
        if len(c) == states.n:
            under.append(c)
        elif w.shape[1] > 1:
            under.append(c)
            notes.append(f"support {sorted(c)} leaves {w.shape[1]} free directions")
        elif w.shape[1] == 1:
            forced.append((c, span @ w[:, 0]))

    families: list[tuple[tuple[frozenset[int], ...], np.ndarray]] = []
    for combo in itertools.combinations(range(len(forced)), d_eff):
        dirs = [forced[i][1] for i in combo]
        basis = np.column_stack(dirs)
        if np.abs(basis.conj().T @ basis - np.eye(d_eff)).max() > match_tol:
            continue
        total = np.zeros((states.n, states.n), dtype=complex)
        for e in dirs:
            v = x.conj().T @ e
            total += np.outer(v, v.conj())
        if np.linalg.norm(total - m) > match_tol * scale:
            continue
        families.append((tuple(forced[i][0] for i in combo), basis))

    unique = len(families) == 1 and not under
    basis = families[0][1] if families else None
    supports = (
        tuple(tuple(sorted(c)) for c in families[0][0]) if families else ()
    )
    verdict_matches: Optional[bool] = None
    if verdict is not None and verdict.protocol is not None:
        if basis is None:
            notes.append("no forced basis to compare the verdict against")
        else:
            comp = span if d_eff < states.d_alice else None
            verdict_matches = matches_projective_basis(
                verdict.protocol.alice, basis, match_tol, span=comp
            )
            if not verdict_matches:
                notes.append("verdict measurement differs from the forced basis")
    return ConverseReport(
        True, d_eff, chi, alpha, alpha == chi,
        tuple(
            (tuple(sorted(c)), tuple(complex(z) for z in e)) for c, e in forced
        ),
        tuple(tuple(sorted(c)) for c in under),
        len(families), unique, basis, supports, tuple(notes),
        verdict_matches,
    )


# ---------------------------------------------------------------------------
# certificate re-verification


def _non_measurements(
    plans: Sequence[BobPlan], labels: set[str], tol: Tolerance
) -> list[int]:
    """The outcomes whose plans are not orthonormal columns each labelled
    with a different one of the states, the plans known to fit one Bob
    space. One Gram of all plan columns side by side, masked to each
    plan's own block; its side is the total column count (191 for
    path-rep:40 bob-first)."""
    if not plans:
        return []
    widths = [len(p.labels) for p in plans]
    plan_of = np.repeat(np.arange(len(plans)), widths)
    cols = np.concatenate([p.basis for p in plans], axis=1)
    off = np.abs(cols.conj().T @ cols - np.eye(len(plan_of)))
    off[plan_of[:, None] != plan_of[None, :]] = 0.0
    overlap = np.zeros(len(plans))
    np.maximum.at(overlap, plan_of, off.max(axis=1, initial=0.0))
    return [
        p.outcome for p, k, dev in zip(plans, widths, overlap)
        if len(set(p.labels) & labels) != k or dev > 10 * tol.rank_tol
    ]


@dataclass(frozen=True)
class VerificationOutcome:
    ok: bool
    checks: tuple[tuple[str, bool, str], ...]


def verify_certificate(
    states: ProductStateSet,
    verdict: Verdict,
    tol: Tolerance = DEFAULT_TOL,
    success_tol: float = 1e-7,
) -> VerificationOutcome:
    """Re-derive everything a verdict asserts, from the states alone.

    The searches run with the budgets the verdict records (the defaults when
    it records none); a search over its budget fails its check.
    """
    if verdict.direction not in (ALICE_FIRST, BOB_FIRST):
        return VerificationOutcome(
            False, (("direction known", False, repr(verdict.direction)),)
        )
    work = states if verdict.direction == ALICE_FIRST else states.swapped()
    graphs = work.build_graphs(tol)
    ga, gb = graphs.alice, graphs.bob
    host = graphs.bob_orthogonality()
    d_eff = effective_dimension(work, tol)
    search_budget = verdict.parameters.get("search_budget", DecideOptions.search_budget)
    sandwich_budget = verdict.parameters.get(
        "sandwich_budget", DecideOptions.sandwich_budget
    )
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok, detail))

    kind = verdict.certificate.kind
    data = verdict.certificate.data
    proves = _PROVES.get(kind)
    if kind == KIND_QUBIT:
        proves = DISTINGUISHABLE if data.get("distinguishable") else INDISTINGUISHABLE
    check(
        "certificate proves the status",
        proves == verdict.status,
        f"{kind} proves {proves}, verdict is {verdict.status}",
    )

    if verdict.status == DISTINGUISHABLE:
        protocol = verdict.protocol
        check("protocol present", protocol is not None)
        fits = measures = False
        if protocol is not None:
            # a protocol built for the other side, or of the wrong shape,
            # cannot act on these states
            dirs = {np.shape(e.direction) for e in protocol.alice.elements}
            plans = {(np.shape(p.basis), len(p.labels)) for p in protocol.bob}
            fits = (
                protocol.alice.dim == work.d_alice and dirs <= {(work.d_alice,)}
                and all(shape == (work.d_bob, k) for shape, k in plans)
            )
            check(
                "protocol dimension",
                fits,
                f"POVM on C^{protocol.alice.dim}, directions {sorted(dirs)}, "
                f"Bob (basis, labels) {sorted(plans)}, "
                f"states in C^{work.d_alice} x C^{work.d_bob}",
            )
        if fits:
            least = min((e.weight for e in protocol.alice.elements), default=0.0)
            check("povm elements positive", least >= -tol.psd_tol,
                  f"least weight {least:.3g}")
            bad = _non_measurements(protocol.bob, set(work.labels), tol)
            measures = not bad
            check("bob plans are measurements", measures, f"outcomes {bad}")
        if measures:
            sim = simulate(work, protocol, tol)
            check("povm complete", sim.completeness_deviation <= 10 * tol.psd_tol,
                  f"deviation {sim.completeness_deviation:.3g}")
            check("supports respected", sim.max_support_leakage <= 10 * tol.psd_tol,
                  f"leakage {sim.max_support_leakage:.3g}")
            check("protocol succeeds", sim.min_success >= 1 - success_tol,
                  f"min success {sim.min_success:.12f}")

    if kind in (KIND_CHORDAL_ALICE, KIND_CHORDAL_HOST):
        g = ga if kind == KIND_CHORDAL_ALICE else host
        check("graph chordal", is_chordal(g).chordal)
        order = tuple(data.get("ordering", ()))
        check("ordering valid", is_perfect_elimination_ordering(g, order))
    elif kind == KIND_QUBIT and data.get("distinguishable"):
        cliques = [frozenset(c) for c in data.get("cliques", ())]
        check("parts are admissible", all(is_clique(host, c) for c in cliques))
        covered = set().union(*cliques) == set(range(1, work.n + 1))
        edges_ok = all(
            any(i in c and j in c for c in cliques) for i, j in ga.edges
        )
        check("parts cover states and overlaps", covered and edges_ok)
        check("qubit side", d_eff == 2, f"d_eff {d_eff}")
    elif kind == KIND_QUBIT:
        check("qubit side", d_eff == 2, f"d_eff {d_eff}")
        check(
            "no admissible two-part cover",
            find_two_clique_cover(host, ga.edges) is None,
        )
    elif kind == KIND_SANDWICH:
        g = Graph.from_edges(work.n, data.get("sandwich_edges", ()))
        check("between bounds", is_subgraph(ga, g) and is_subgraph(g, host))
        check("sandwich chordal", is_chordal(g).chordal)
    elif kind == KIND_FEASIBLE:
        # the pieces sum to the identity on Alice's span and each is silent
        # outside its host clique exactly when, pushed through her frame,
        # they split her Gram matrix on those cliques
        try:
            dec = certificate_splitting(work, verdict.certificate, ga, host, tol)
            rep = verify_decomposition(work.alice_gram(), dec, host, tol, rel_bound=1e-7)
            ok, detail = rep.ok, (f"relative residual {rep.rel_residual:.3g}, "
                                  f"supports off {sorted(map(sorted, rep.bad_supports))}")
        except LoccGraphError as exc:
            ok, detail = False, str(exc)
        check("pieces split the Gram matrix", ok, detail)
    elif kind == KIND_SCALED_DD:
        try:
            x = np.asarray(data.get("scaling"), dtype=float)
        except (TypeError, ValueError):
            x = np.zeros(0)
        well_formed = x.shape == (work.n,) and bool(np.isfinite(x).all())
        check("scaling has one entry per state", well_formed, f"shape {x.shape}")
        positive = well_formed and bool((x > 0).all())
        if well_formed:
            check("scaling positive", positive, f"min {x.min():.3g}")
        if positive:
            slack = dominance_slack(work.alice_gram(), ga, x, tol)
            check(
                "scaled rows dominant",
                bool((slack > 0).all()),
                f"least slack {slack.min():.3g}",
            )
        check("overlaps admissible", is_subgraph(ga, host))
        supports = [list(s) for s in data.get("supports", ())]
        in_range = all(
            s and all(isinstance(i, int) and 1 <= i <= work.n for i in s)
            for s in supports
        )
        check(
            "supports are host cliques",
            in_range and all(is_clique(host, s) for s in supports),
        )
    elif kind == KIND_NO_SIMPLICIAL:
        # an independent host set of size d_eff attains the bound
        # alpha(host) <= d_eff, so no exact search is needed
        check("no simplicial vertices", not simplicial_vertices(host))
        witness = list(data.get("alpha_witness", ()))
        in_range = len(set(witness)) == len(witness) and all(
            isinstance(i, int) and 1 <= i <= work.n for i in witness
        )
        check("witness distinct and in range", in_range, f"witness {witness}")
        # independent in the host means pairwise overlapping on Bob's side
        check("witness independent in host", in_range and is_clique(gb, witness))
        check(
            "witness size meets rank",
            len(witness) == d_eff,
            f"{len(witness)} states, d_eff {d_eff}",
        )
        rank = None
        if in_range:
            rank = numeric_rank(work.alice[[i - 1 for i in witness]], tol)
        check("witness spans effective space", rank == d_eff, f"rank {rank}")
    elif kind in (KIND_ALPHA_CHI, KIND_NO_SANDWICH):
        try:
            chi, _ = chromatic_number(gb, search_budget)
            check("at minimum dimension", chi == d_eff, f"chi {chi}, d_eff {d_eff}")
            if kind == KIND_ALPHA_CHI:
                alpha, _ = independence_number(host, search_budget)
                check("alpha below chi", alpha < chi, f"alpha {alpha}")
            else:
                check(
                    "no chordal sandwich",
                    chordal_sandwich(ga, host, sandwich_budget) is None,
                )
        except SearchBudgetExceeded as exc:
            check("search within budget", False, str(exc))
    elif kind == KIND_SPANNING:
        check(
            "obstruction reproducible",
            spanning_obstruction(work, maximal_cliques(host), tol).empty,
        )
    elif kind == KIND_DUAL_WITNESS:
        try:
            z = np.asarray(data.get("witness"), dtype=complex)
        except (TypeError, ValueError):
            z = np.zeros(0)
        d = work.d_alice
        well_formed = z.shape == (d, d) and bool(np.isfinite(z).all())
        check("witness is an operator on the measuring side", well_formed,
              f"shape {z.shape}, measuring side C^{d}")
        if well_formed:
            faces = spanning_obstruction(work, maximal_cliques(host), tol)
            w = dual_witness(faces, z, tol)
            check(
                "witness excludes every splitting",
                w.holds,
                f"shift {w.shift:.3g}, shifted trace {w.value:.3g}, "
                f"margin {w.margin:.3g}",
            )
    elif kind == KIND_UNKNOWN:
        check("nothing to verify", True)

    return VerificationOutcome(all(ok for _, ok, _ in checks), tuple(checks))
