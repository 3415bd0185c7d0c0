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
    support_mask,
    verify_decomposition,
)
from .errors import InvalidCover, InvalidInput, LoccGraphError, SearchBudgetExceeded
# chromatic_number, edge_clique_cover_number, eta_plus_bounds,
# find_two_clique_cover, frame, independence_number, synthesize_protocol and
# validate_povm are no longer called here; they stay bound because
# perfbench/layertrace.py wraps the names this module binds
from .graphs import (  # noqa: F401
    ChordalityResult,
    Graph,
    chordal_sandwich,
    chromatic_number,
    edge_clique_cover_number,
    eta_bounds_of_complement,
    eta_plus_bounds,
    find_two_clique_cover,
    greedy_clique_cover,
    independence_number,
    is_chordal,
    is_clique,
    is_perfect_elimination_ordering,
    is_subgraph,
    maximal_cliques,
    simplicial_vertices,
)
from .linalg import DEFAULT_TOL, Tolerance, frame, numeric_rank  # noqa: F401
from .locc import (  # noqa: F401
    Povm, Protocol, ProtocolReport, _lift, check_protocol, matches_projective_basis,
    outcome_numbers, povm_to_decomposition, simulate, synthesize_protocol, validate_povm,
)
from .states import ProductStateSet, StateGraphs

DISTINGUISHABLE = "Distinguishable"
INDISTINGUISHABLE = "Indistinguishable"
UNKNOWN = "Unknown"

ALICE_FIRST = "alice-first"
BOB_FIRST = "bob-first"

KIND_CHORDAL_ALICE = "ChordalAliceGraph"
KIND_CHORDAL_HOST = "ChordalBobComplement"
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

# the status each certificate kind proves
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

KINDS = tuple(_PROVES)


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
    # nodes per state: each exact graph search spends at most
    # search_budget * n nodes
    search_budget: int = 40


def effective_dimension(states: ProductStateSet, tol: Tolerance = DEFAULT_TOL) -> int:
    """The rank of Alice's frame: the set's alice_rank, which is the width
    of its alice_span. A set that an independent host set has proved of
    full rank (ProductStateSet.proves_full_rank) reads it without a
    factorisation."""
    return states.alice_rank(tol)


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
    # the Gram is exactly Hermitian, so the peel takes it as it is; with
    # more states than Alice's dimension it is singular, PSD as X*X, so
    # neither factorised nor eigensolved before the elimination loop
    singular = work.n > work.d_alice
    if kind in (KIND_CHORDAL_ALICE, KIND_CHORDAL_HOST):
        g = ga if kind == KIND_CHORDAL_ALICE else host
        return chordal_decompose(m, g, tol, ordering=field("ordering"), _singular=singular)
    if kind == KIND_SANDWICH:
        g = Graph.from_edges(work.n, field("sandwich_edges"))
        return chordal_decompose(m, g, tol, ordering=field("ordering"), _singular=singular)
    if kind == KIND_SCALED_DD:
        scaling = np.asarray(field("scaling"), dtype=float)
        return dominance_split(m, ga, scaling, field("supports"))
    if kind == KIND_FEASIBLE:
        try:
            supports = support_mask(field("supports"), work.n)
            weights = np.asarray(field("weights"), dtype=float)
            directions = np.asarray(field("directions"), dtype=complex)
            ok = (weights.shape == (len(supports),)
                  and directions.shape == (len(supports), work.d_alice)
                  and np.isfinite(weights).all() and np.isfinite(directions).all())
        except (TypeError, ValueError, InvalidCover):
            ok = False
        if not ok:
            raise InvalidInput(f"{kind} needs one support in 1..{work.n}, finite "
                               f"weight and direction in C^{work.d_alice} per piece")
        povm = Povm(directions, weights, outcome_numbers(supports)[0], supports)
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
    # the lift's eigensolve gives the completeness deviation too, unless
    # the lift appended a fill
    protocol, deviation = _lift(work, dec, tol)
    sim = simulate(work, protocol, tol, _deviation=deviation)
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


def decide(
    states: ProductStateSet,
    direction: str = ALICE_FIRST,
    options: Optional[DecideOptions] = None,
) -> Verdict:
    """Decide one-way distinguishability with the given side measuring first.

    The ladder, in order: a chordal overlap graph or chordal host; then the
    rungs that weigh d_eff against alpha(host) and chi(bob); scaled
    diagonal dominance; the convex end. States independent in the host
    overlap pairwise on Bob's side, so their Alice parts are orthogonal:
    alpha(host) <= d_eff. The middle rungs read one search of Bob's overlap
    graph, the host's complement, for alpha(host), its witness and
    chi(bob); none fires when that search ran past search_budget · n nodes.

    MinDimNoSimplicial: call v sandwich-simplicial when N_ga[v], v and its
    Alice-overlap neighbours, is a host clique. Let I be an independent
    host set with |I| = d_eff; its Alice vectors are a basis of Alice's
    span. An outcome operator silent outside a host clique S meets I in at
    most one vector, since S holds at most one state of I. On the span it
    is therefore a multiple of the projection onto a_i for some i in I,
    and that outcome keeps N_ga[i] live. So the set is one-way
    distinguishable in this direction iff N_ga[i] is a host clique for
    every i in I, and with no sandwich-simplicial vertex it is not. The
    rung waits for d_eff >= 3: at a qubit side chi(bob) = 2 = d_eff always
    holds (Bob-overlapping pairs are Alice-orthogonal, and orthogonality in
    C^2 is bipartite), so the sandwich rung decides those sets both ways.

    NonChordalSandwichAtMinDim: at d_eff = chi(bob) no graph between ga
    and the host is chordal. It fires only when the host is ga, where that
    graph is ga itself and the minimum-dimension characterisation (ga
    chordal) decides. With a larger host, the outcome cliques of a
    protocol's first measurement join into a graph between ga and the host
    that need not be chordal, and distinguishable sets with no chordal
    sandwich exist (brute.PINNED_SETS "host-sandwich"), so the rung gives
    no verdict there.
    """
    if direction not in (ALICE_FIRST, BOB_FIRST):
        raise LoccGraphError(f"unknown direction {direction!r}")
    opt = options or DecideOptions()
    tol = opt.tol
    work = states if direction == ALICE_FIRST else states.swapped()
    work.require_orthonormal(tol)

    graphs = work.build_graphs(tol)
    ga, gb = graphs.alice, graphs.bob
    host = graphs.bob_orthogonality()
    chord_a = is_chordal(ga)
    chord_h = is_chordal(host)
    notes: list[str] = []
    eta = None
    if not (chord_a.chordal or chord_h.chordal):
        try:
            # the host's complement is Bob's overlap graph, so the host's
            # minimum-rank bounds are alpha(host) with its witness and chi(bob)
            eta = eta_bounds_of_complement(gb, opt.search_budget)
            # a witness of d_alice states may prove the rank with no
            # factorisation at all
            work.proves_full_rank([i - 1 for i in sorted(eta.lower_witness)], tol)
        except SearchBudgetExceeded as exc:
            notes.append(str(exc))
    d_eff = effective_dimension(work, tol)
    params: dict = {
        "n": work.n,
        "d_alice": work.d_alice,
        "d_bob": work.d_bob,
        "d_eff": d_eff,
        "alice_edges": ga.edge_count(),
        "bob_edges": gb.edge_count(),
        "search_budget": opt.search_budget,
        "sandwich_budget": opt.sandwich_budget,
        "alice_chordal": chord_a.chordal,
        "host_chordal": chord_h.chordal,
    }

    def conclude(kind: str, data: dict) -> Verdict:
        certificate = Certificate(kind, data)
        if _PROVES[kind] == DISTINGUISHABLE:
            return distinguishable_verdict(
                work, direction, certificate, params, notes, ga, host, tol
            )
        return Verdict(_PROVES[kind], direction, certificate, params, notes=tuple(notes))

    if chord_a.chordal:
        return conclude(KIND_CHORDAL_ALICE, {"ordering": list(chord_a.ordering)})
    if chord_h.chordal:
        return conclude(KIND_CHORDAL_HOST, {"ordering": list(chord_h.ordering)})

    if eta is not None:
        params.update(alpha_host=eta.lower, chi_bob=eta.upper, eta_host=eta)
    params["simplicial_host"] = tuple(sorted(simplicial_vertices(host)))
    params["sandwich_simplicial"] = tuple(sorted(graphs.sandwich_simplicial))
    if eta is not None and eta.lower < eta.upper == d_eff:
        return conclude(KIND_ALPHA_CHI, {"alpha": eta.lower, "chi": eta.upper,
                                         "alpha_witness": sorted(eta.lower_witness)})
    # an independent host set of size d_eff proves alpha(host) = d_eff
    if eta is not None and eta.lower == d_eff >= 3 and not graphs.sandwich_simplicial:
        return conclude(KIND_NO_SIMPLICIAL, {
            "alpha": d_eff, "d_eff": d_eff, "alpha_witness": sorted(eta.lower_witness),
            "eta": d_eff, "eta_certificate": "independent set meets Gram rank",
        })
    if eta is not None and eta.upper == d_eff:
        # at minimum dimension a chordal sandwich decides either way:
        # peeling it gives the protocol, and its absence is the certificate
        try:
            sandwich = chordal_sandwich(ga, host, opt.sandwich_budget)
        except SearchBudgetExceeded as exc:
            notes.append(str(exc))
        else:
            if sandwich is not None:
                return conclude(KIND_SANDWICH, {
                    "sandwich_edges": [list(e) for e in sandwich.edge_list()],
                    "ordering": list(is_chordal(sandwich).ordering),
                })
            if host is ga:
                return conclude(KIND_NO_SANDWICH, {"chi": eta.upper})
            # a protocol's first measurement then joins its outcome cliques
            # into a graph between ga and the host that need not be chordal
            notes.append("no chordal sandwich, but the host is larger than "
                         "the overlap graph")

    m = work.alice_gram()
    # every overlap edge is a host edge for an orthogonal product set, so a
    # clique of ga is an admissible support; the inclusion is checked, since
    # overlaps near zero on both sides can break it
    x = dominance_scaling(m, ga, tol) if is_subgraph(ga, host) else None
    if x is not None:
        return conclude(KIND_SCALED_DD, {
            "scaling": x.tolist(),
            "supports": [sorted(s) for s in greedy_clique_cover(ga)],
        })

    # the convex end: Alice's outcome operators on the faces of the maximal
    # admissible supports; all faces empty is the spanning obstruction
    faces = spanning_obstruction(work, maximal_cliques(host), tol)
    if faces.empty:
        return conclude(KIND_SPANNING, {
            "d_eff": faces.d_eff,
            "supports": [sorted(s) for s, _ in faces.entries],
            "outside_ranks": [r for _, r in faces.entries],
        })
    feas = feasibility_search(faces, tol, opt.max_iter)
    if feas.converged:
        return conclude(KIND_FEASIBLE, {
            "supports": [sorted(s) for s in feas.supports],
            "weights": feas.weights.tolist(),
            "directions": feas.directions,
            "gap": feas.gap,
            "iterations": feas.iterations,
        })
    if feas.witness is not None:
        # every one-way protocol restricts to such operators, and none exist
        return conclude(KIND_DUAL_WITNESS, {
            "witness": faces.lift(feas.witness.matrix),
            "shift": feas.witness.shift,
            "shifted_inner_product": feas.witness.value,
            "iterations": feas.iterations,
        })
    notes.append(
        f"feasibility search ran out of its iteration budget "
        f"({opt.max_iter}) at gap {feas.gap:.3g}"
    )
    return conclude(KIND_UNKNOWN, {
        "reason": "iteration budget exhausted",
        "gap": feas.gap, "iterations": feas.iterations,
    })


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
    sandwich_simplicial: tuple[int, ...]
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
        eta = eta_bounds_of_complement(graphs.bob, budget)
        alpha, wit, chi = eta.lower, tuple(sorted(eta.lower_witness)), eta.upper
        # an independent host set of d_alice states may prove the rank
        states.proves_full_rank([i - 1 for i in wit], tol)
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
        tuple(sorted(graphs.sandwich_simplicial)),
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
        eta = eta_bounds_of_complement(graphs.bob, budget)
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


@dataclass(frozen=True)
class VerificationOutcome:
    ok: bool
    checks: tuple[tuple[str, bool, str], ...]


def _state_indices(value, n: int) -> Optional[list]:
    """value as a list of int state indices in 1..n; None when it is not
    iterable or holds anything else."""
    try:
        out = list(value)
    except TypeError:
        return None
    return out if all(isinstance(v, int) and 1 <= v <= n for v in out) else None


def _host_cliques(host: Graph, supports) -> bool:
    """Whether supports is a collection of non-empty cliques of host, each
    naming its states by int indices in 1..n; one pass over each support."""
    try:
        for support in supports:
            members = 0
            for v in support:
                bit = 1 << (v - 1) if isinstance(v, int) and 1 <= v <= host.n else 0
                # v sees every member named before it, itself aside
                if not bit or members & ~bit & ~host.nbrs[v - 1]:
                    return False
                members |= bit
            if not members:
                return False
    except TypeError:  # supports, or a support, is not iterable
        return False
    return True


def verify_certificate(
    states: ProductStateSet,
    verdict: Verdict,
    tol: Tolerance = DEFAULT_TOL,
    success_tol: float = 1e-7,
) -> VerificationOutcome:
    """Re-derive everything a verdict asserts, from the states alone.

    The searches run with the budgets the verdict records (the defaults when
    it records none); a search over its budget, or with a budget that is no
    int, fails its check. A protocol
    is checked in one pass, check_protocol: Bob's plans, then, only if all
    are measurements, the simulation. An ordering equal to the one
    is_chordal keeps on the graph is proved; any other is checked pairwise.
    A field of the wrong shape fails the check that reads it.
    """
    if verdict.direction not in (ALICE_FIRST, BOB_FIRST):
        return VerificationOutcome(
            False, (("direction known", False, repr(verdict.direction)),)
        )
    work = states if verdict.direction == ALICE_FIRST else states.swapped()
    graphs = work.build_graphs(tol)
    ga, gb = graphs.alice, graphs.bob
    host = graphs.bob_orthogonality()
    kind = verdict.certificate.kind

    def budget(key: str) -> int:
        value = verdict.parameters.get(key, getattr(DecideOptions, key))
        if not isinstance(value, int) or isinstance(value, bool):
            raise SearchBudgetExceeded(f"{key} {value!r} is not an integer")
        return value

    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok, detail))

    data = verdict.certificate.data
    proves = _PROVES.get(kind)
    check(
        "certificate proves the status",
        proves == verdict.status,
        f"{kind} proves {proves}, verdict is {verdict.status}",
    )

    if verdict.status == DISTINGUISHABLE:
        protocol = verdict.protocol
        check("protocol present", protocol is not None)
        fits, sim = False, None
        if protocol is not None:
            # a protocol built for the other side, or of the wrong shape,
            # cannot act on these states
            dim, bob_dim = protocol.alice.dim, protocol.bob_basis.shape[0]
            fits = dim == work.d_alice and bob_dim == work.d_bob
            check(
                "protocol dimension",
                fits,
                f"POVM on C^{dim}, Bob columns in C^{bob_dim}, "
                f"states in C^{work.d_alice} x C^{work.d_bob}",
            )
        if fits:
            weights = protocol.alice.weights
            least = float(weights.min()) if len(weights) else 0.0
            check("povm elements positive", least >= -tol.psd_tol,
                  f"least weight {least:.3g}")
            bad, sim = check_protocol(work, protocol, tol)
            check("bob plans are measurements", not bad, f"outcomes {bad}")
        if sim is not None:
            check("povm complete", sim.completeness_deviation <= 10 * tol.psd_tol,
                  f"deviation {sim.completeness_deviation:.3g}")
            check("supports respected", sim.max_support_leakage <= 10 * tol.psd_tol,
                  f"leakage {sim.max_support_leakage:.3g}")
            check("protocol succeeds", sim.min_success >= 1 - success_tol,
                  f"min success {sim.min_success:.12f}")

    if kind in (KIND_CHORDAL_ALICE, KIND_CHORDAL_HOST):
        g = ga if kind == KIND_CHORDAL_ALICE else host
        check("graph chordal", is_chordal(g).chordal)
        check("ordering valid", is_perfect_elimination_ordering(g, data.get("ordering", ())))
    elif kind == KIND_SANDWICH:
        try:
            edges = [_state_indices(e, work.n) for e in data.get("sandwich_edges", ())]
        except TypeError:  # the field is not iterable
            edges = [None]
        g = None
        if all(e is not None and len(e) == 2 and e[0] != e[1] for e in edges):
            g = Graph.from_edges(work.n, edges)
        check("between bounds", g is not None and is_subgraph(ga, g) and is_subgraph(g, host),
              "" if g is not None else f"edges need two distinct states in 1..{work.n}")
        check("sandwich chordal", g is not None and is_chordal(g).chordal)
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
        check("supports are host cliques",
              _host_cliques(host, data.get("supports", ())))
    elif kind == KIND_NO_SIMPLICIAL:
        # an independent host set of size d_eff attains the bound
        # alpha(host) <= d_eff, so no exact search is needed; why this and
        # no sandwich-simplicial vertex prove the status: see decide
        simp = sorted(graphs.sandwich_simplicial)
        check("no sandwich-simplicial vertices", not simp, f"vertices {simp}")
        raw = data.get("alpha_witness", ())
        witness = _state_indices(raw, work.n)
        in_range = witness is not None and len(set(witness)) == len(witness)
        check("witness distinct and in range", in_range,
              f"witness {raw if witness is None else witness}")
        witness = witness or []
        # independent in the host means pairwise overlapping on Bob's side
        independent = in_range and is_clique(gb, witness)
        check("witness independent in host", independent)
        # so their Alice parts are orthogonal, and d_alice of them may prove
        # the rank of the frame and their own at once
        rows = [i - 1 for i in witness]
        proved = independent and work.proves_full_rank(rows, tol)
        d_eff = effective_dimension(work, tol)
        check(
            "witness size meets rank",
            len(witness) == d_eff,
            f"{len(witness)} states, d_eff {d_eff}",
        )
        rank = None
        if in_range:
            rank = d_eff if proved else numeric_rank(work.alice[rows], tol)
        check("witness spans effective space", rank == d_eff, f"rank {rank}")
    elif kind in (KIND_ALPHA_CHI, KIND_NO_SANDWICH):
        try:
            # the host's complement is Bob's overlap graph, so one search of
            # it gives alpha(host) and chi(bob)
            eta = eta_bounds_of_complement(gb, budget("search_budget"))
            alpha, chi = eta.lower, eta.upper
            d_eff = effective_dimension(work, tol)
            check("at minimum dimension", chi == d_eff, f"chi {chi}, d_eff {d_eff}")
            if kind == KIND_ALPHA_CHI:
                check("alpha below chi", alpha < chi, f"alpha {alpha}")
            else:
                # why the host must be ga: see decide
                check("overlap graph is the host", host is ga)
                check(
                    "no chordal sandwich",
                    chordal_sandwich(ga, host, budget("sandwich_budget")) is None,
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
