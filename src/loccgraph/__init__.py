"""Deciding one-way local distinguishability of orthonormal product states.

The package turns a bipartite product-state set into a pair of overlap
graphs, then answers whether the states can be told apart when one party
measures first and announces the outcome. Positive answers come with an
executable measurement protocol; negative answers come with a
machine-checkable graph certificate.
"""

from .criteria import (
    ALICE_FIRST,
    BOB_FIRST,
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    UNKNOWN,
    AnalyzeReport,
    Certificate,
    ConverseReport,
    DecideOptions,
    Verdict,
    analyze,
    converse_theorem_checks,
    decide,
    effective_dimension,
    spanning_obstruction,
    verify_certificate,
)
from .decomposition import (
    Decomposition,
    DecompositionTerm,
    chordal_decompose,
    feasibility_search,
    verify_decomposition,
)
from .errors import LoccGraphError
from .families import FAMILIES, family_invariant_report, generate, parse_family
from .graphs import (
    Graph,
    chordal_sandwich,
    chromatic_number,
    complement,
    cycle_graph,
    edge_clique_cover_number,
    eta_plus_bounds,
    find_isomorphism,
    independence_number,
    is_chordal,
    maximal_cliques,
    path_graph,
)
from .linalg import DEFAULT_TOL, Tolerance
from .locc import (
    BobPlan,
    Povm,
    PovmElement,
    Protocol,
    povm_to_decomposition,
    simulate,
    synthesize_protocol,
    validate_povm,
)
from .states import ProductStateSet, StateGraphs

__version__ = "0.1.0"

__all__ = [
    "ALICE_FIRST",
    "BOB_FIRST",
    "DISTINGUISHABLE",
    "INDISTINGUISHABLE",
    "UNKNOWN",
    "AnalyzeReport",
    "BobPlan",
    "Certificate",
    "ConverseReport",
    "DecideOptions",
    "Decomposition",
    "DecompositionTerm",
    "DEFAULT_TOL",
    "FAMILIES",
    "Graph",
    "LoccGraphError",
    "Povm",
    "PovmElement",
    "ProductStateSet",
    "Protocol",
    "StateGraphs",
    "Tolerance",
    "Verdict",
    "analyze",
    "chordal_decompose",
    "chordal_sandwich",
    "chromatic_number",
    "complement",
    "converse_theorem_checks",
    "cycle_graph",
    "decide",
    "edge_clique_cover_number",
    "effective_dimension",
    "eta_plus_bounds",
    "family_invariant_report",
    "feasibility_search",
    "find_isomorphism",
    "generate",
    "independence_number",
    "is_chordal",
    "maximal_cliques",
    "parse_family",
    "path_graph",
    "povm_to_decomposition",
    "simulate",
    "spanning_obstruction",
    "synthesize_protocol",
    "validate_povm",
    "verify_certificate",
    "verify_decomposition",
]
