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
    chordal_decompose,
    dominance_scaling,
    dominance_slack,
    dominance_split,
    dual_witness,
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
    maximal_cliques,
    simplicial_vertices,
)
from .linalg import DEFAULT_TOL, Tolerance, frame, numeric_rank  # noqa: F401
from .locc import (  # noqa: F401
    BobPlan, Protocol, ProtocolReport, matches_projective_basis, simulate,
    synthesize_protocol, validate_povm,
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

# the Distinguishable kinds whose certificate fixes the splitting (see
# certificate_splitting); a verdict file holds their certificate alone
SPLITTING_FROM_CERTIFICATE = frozenset(
    {KIND_CHORDAL_ALICE, KIND_CHORDAL_HOST, KIND_QUBIT, KIND_SANDWICH, KIND_SCALED_DD}
)

# the feasibility search stops once its gap is below this share of the
# Gram matrix's norm (at least 1)
FEASIBILITY_GAP_REL = 1e-11


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


@dataclass(frozen=True)
class SpanningObstructionReport:
    d_eff: int
    entries: tuple[tuple[frozenset[int], int], ...]


def effective_dimension(states: ProductStateSet, tol: Tolerance = DEFAULT_TOL) -> int:
    return numeric_rank(states.alice_frame(), tol)


def spanning_obstruction(
    states: ProductStateSet,
    supports: Sequence[frozenset[int]],
    tol: Tolerance = DEFAULT_TOL,
    d_eff: Optional[int] = None,
) -> Optional[SpanningObstructionReport]:
    """Proof that every admissible outcome operator vanishes.

    If for every admissible support the excluded states span Alice's whole
    effective space, any positive operator silent outside a support is zero
    there, so no measurement with a nonzero first round exists. Quantifying
    over maximal supports covers all smaller ones. d_eff defaults to the
    effective dimension of the states.
    """
    if d_eff is None:
        d_eff = effective_dimension(states, tol)
    entries = []
    for s in supports:
        outside = np.ones(states.n, dtype=bool)
        outside[[i - 1 for i in s]] = False
        if not outside.any():
            return None
        r = numeric_rank(states.alice[outside], tol)
        if r < d_eff:
            return None
        entries.append((frozenset(s), r))
    return SpanningObstructionReport(d_eff, tuple(entries))


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
      piece filed under the first recorded support holding it.

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
    dec: Optional[Decomposition] = None,
) -> Verdict:
    """Every Distinguishable verdict: the Gram splitting (the certificate's
    own unless dec is given), the protocol it lifts to and that protocol's
    simulation."""
    if dec is None:
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
        "alice_edges": len(ga.edges),
        "bob_edges": len(gb.edges),
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
    x = dominance_scaling(m, ga, tol) if ga.edges <= host.edges else None
    if x is not None:
        return distinguishable_verdict(
            work, direction,
            Certificate(KIND_SCALED_DD, {
                "scaling": x.tolist(),
                "supports": [sorted(s) for s in greedy_clique_cover(ga)],
            }),
            params, notes, ga, host, tol,
        )

    cliques = maximal_cliques(host)
    obstruction = spanning_obstruction(work, cliques, tol, d_eff)
    if obstruction is not None:
        return Verdict(
            INDISTINGUISHABLE, direction,
            Certificate(
                KIND_SPANNING,
                {
                    "d_eff": obstruction.d_eff,
                    "supports": [sorted(s) for s, _ in obstruction.entries],
                    "outside_ranks": [r for _, r in obstruction.entries],
                },
            ),
            params, notes=tuple(notes),
        )

    gap_tol = FEASIBILITY_GAP_REL * max(1.0, float(np.linalg.norm(m)))
    feas = feasibility_search(m, cliques, tol, opt.max_iter, gap_tol)
    if feas is not None and feas.converged:
        return distinguishable_verdict(
            work, direction,
            Certificate(KIND_FEASIBLE, {
                "supports": [sorted(s) for s in feas.supports],
                "gap": feas.gap,
                "iterations": feas.iterations,
            }),
            params, notes, ga, host, tol, feas.decomposition,
        )
    if feas is not None and feas.witness is not None:
        # every one-way protocol pushes forward to a splitting, and none exists
        return Verdict(
            INDISTINGUISHABLE, direction,
            Certificate(
                KIND_DUAL_WITNESS,
                {
                    "witness": feas.witness.matrix,
                    "shift": feas.witness.shift,
                    "shifted_inner_product": feas.witness.value,
                    "iterations": feas.iterations,
                },
            ),
            params, notes=tuple(notes),
        )
    if feas is None:
        # only when overlaps on both sides sit within tolerance of zero
        data = {"reason": "Gram matrix has weight outside every admissible support"}
    else:
        data = {"reason": "iteration budget exhausted",
                "gap": feas.gap, "iterations": feas.iterations}
        notes.append(
            f"feasibility search ran out of its iteration budget "
            f"({opt.max_iter}) at gap {feas.gap:.3g}"
        )
    return Verdict(
        UNKNOWN, direction, Certificate(KIND_UNKNOWN, data),
        params, notes=tuple(notes),
    )


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
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    span = u[:, : d_eff]
    forced: list[tuple[frozenset[int], np.ndarray]] = []
    under: list[frozenset[int]] = []
    for c in maximal_cliques(host):
        outside = np.ones(states.n, dtype=bool)
        outside[[i - 1 for i in c]] = False
        if not outside.any():
            under.append(c)
            continue
        rows = states.alice[outside].conj() @ span
        _, sv, vh = np.linalg.svd(rows)
        corank = sum(1 for v in sv if v <= tol.rank_tol * sv[0]) + max(
            0, d_eff - len(sv)
        )
        if corank == 0:
            continue  # nothing can live on this support
        if corank > 1:
            under.append(c)
            notes.append(f"support {sorted(c)} leaves {corank} free directions")
            continue
        e = span @ vh[-1, :].conj()
        forced.append((c, e / np.linalg.norm(e)))

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


def _is_measurement(plan: BobPlan, labels: set[str], tol: Tolerance) -> bool:
    """Orthonormal columns, each labelled with a different one of the states."""
    k = len(plan.labels)
    overlap = np.abs(plan.basis.conj().T @ plan.basis - np.eye(k)).max(initial=0.0)
    return len(set(plan.labels) & labels) == k and overlap <= 10 * tol.rank_tol


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
            known = set(work.labels)
            bad = [p.outcome for p in protocol.bob if not _is_measurement(p, known, tol)]
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
        check("between bounds", ga.edges <= g.edges <= host.edges)
        check("sandwich chordal", is_chordal(g).chordal)
    elif kind == KIND_FEASIBLE:
        check("splitting present", verdict.decomposition is not None)
        if verdict.decomposition is not None:
            rep = verify_decomposition(
                work.alice_gram(), verdict.decomposition, host, tol, rel_bound=1e-7
            )
            check(
                "splitting verifies",
                rep.ok,
                f"relative residual {rep.rel_residual:.3g}",
            )
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
        check("overlaps admissible", ga.edges <= host.edges)
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
            spanning_obstruction(work, maximal_cliques(host), tol, d_eff)
            is not None,
        )
    elif kind == KIND_DUAL_WITNESS:
        try:
            y = np.asarray(data.get("witness"), dtype=complex)
        except (TypeError, ValueError):
            y = np.zeros(0)
        well_formed = y.shape == (work.n, work.n) and bool(np.isfinite(y).all())
        check("witness is an n x n matrix", well_formed, f"shape {y.shape}")
        if well_formed:
            w = dual_witness(work.alice_gram(), y, maximal_cliques(host), tol)
            check(
                "witness excludes every splitting",
                w.holds,
                f"shift {w.shift:.3g}, shifted inner product {w.value:.3g}, "
                f"margin {w.margin:.3g}",
            )
    elif kind == KIND_UNKNOWN:
        check("nothing to verify", True)

    return VerificationOutcome(all(ok for _, ok, _ in checks), tuple(checks))
