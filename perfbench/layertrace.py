"""Outside-in layer trace: timing wrappers around loccgraph's public functions.

The wrappers replace module attributes at run time (the names as
`criteria`, `locc` and `decomposition` bind them, plus a few methods of
`ProductStateSet`) and put them back afterwards; nothing under `src/` is
edited. Each call becomes a span (name, start, end, parent, instance id)
kept in memory. Self time is a span's duration minus its direct children's;
busy time sums the outermost spans of each name.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from loccgraph import criteria, decomposition, families, locc, minrank, serialize, states
from loccgraph.errors import SearchBudgetExceeded

# (layer, function name): the modules whose globals hold the binding that
# the decision path calls. The layer is the module that defines the function.
DECISION_FUNCTIONS = {
    ("criteria", "decide"): (criteria,),
    ("criteria", "verify_certificate"): (criteria,),
    ("criteria", "spanning_obstruction"): (criteria,),
    ("criteria", "effective_dimension"): (criteria,),
    ("graphs", "is_chordal"): (criteria, decomposition),
    ("graphs", "maximal_cliques"): (criteria,),
    ("graphs", "independence_number"): (criteria,),
    ("graphs", "chromatic_number"): (criteria,),
    ("graphs", "chordal_sandwich"): (criteria,),
    ("graphs", "edge_clique_cover_number"): (criteria,),
    ("graphs", "eta_plus_bounds"): (criteria,),
    ("graphs", "find_two_clique_cover"): (criteria,),
    ("graphs", "simplicial_vertices"): (criteria,),
    ("graphs", "is_perfect_elimination_ordering"): (criteria,),
    ("decomposition", "chordal_decompose"): (criteria,),
    ("decomposition", "feasibility_search"): (criteria,),
    ("decomposition", "verify_decomposition"): (criteria,),
    ("locc", "synthesize_protocol"): (criteria,),
    ("locc", "simulate"): (criteria,),
    ("locc", "validate_povm"): (criteria,),
    ("linalg", "frame"): (criteria,),
    ("linalg", "numeric_rank"): (criteria, locc),
    ("linalg", "complete_basis"): (locc,),
    ("linalg", "orthonormal_columns"): (locc,),
    ("linalg", "least_squares_preimage"): (locc,),
    ("linalg", "psd_check"): (decomposition,),
    ("serialize", "states_from_json"): (serialize,),
    ("serialize", "verdict_to_json"): (serialize,),
}

STATE_METHODS = (
    (states.ProductStateSet, "from_vectors"),
    (states.ProductStateSet, "require_orthonormal"),
    (states.ProductStateSet, "build_graphs"),
    (states.ProductStateSet, "swapped"),
    (states.ProductStateSet, "alice_gram"),
    (states.StateGraphs, "bob_orthogonality"),
)

# instance generation, traced during set-up only
SETUP_FUNCTIONS = {
    ("families", "generate"): (families,),
    ("minrank", "vectors_from_gram"): (minrank, families),
    ("minrank", "pattern_constrained_lowrank"): (families,),
}

EXACT_COUNTERS = (
    "graphs.maximal_cliques.cliques",
    "criteria.spanning_obstruction.supports",
    "decomposition.feasibility_search.iterations",
    "decomposition.feasibility_search.converged_ratio",
    "locc.synthesize_protocol.outcomes",
    "locc.synthesize_protocol.elements",
    "graphs.budget_exceeded",
    "serialize.verdict_bytes",
)


def _count_cliques(counts, result):
    counts["graphs.maximal_cliques.cliques"] += len(result)


def _count_supports(counts, result):
    if result is not None:
        counts["criteria.spanning_obstruction.supports"] += len(result.entries)


def _count_feasibility(counts, result):
    # a stalled search returns None and does not report its iterations
    counts["decomposition.feasibility_search.attempted"] += 1
    if result is not None:
        counts["decomposition.feasibility_search.iterations"] += result.iterations
        counts["decomposition.feasibility_search.converged"] += int(result.converged)


def _count_outcomes(counts, result):
    counts["locc.synthesize_protocol.outcomes"] += len(result.alice.outcome_ids())
    counts["locc.synthesize_protocol.elements"] += len(result.alice.elements)


RESULT_HOOKS = {
    "graphs.maximal_cliques": _count_cliques,
    "criteria.spanning_obstruction": _count_supports,
    "decomposition.feasibility_search": _count_feasibility,
    "locc.synthesize_protocol": _count_outcomes,
}


def decision_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fn in DECISION_FUNCTIONS]
    return names + [f"states.{attr}" for _, attr in STATE_METHODS]


def setup_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fn in SETUP_FUNCTIONS]


class Tracer:
    """Collects spans and exact counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent, instance)
        self.counts: Counter = Counter()
        self.instance = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name: str, fn):
        tracer = self
        hook = RESULT_HOOKS.get(name)
        budget_layer = name.startswith("graphs.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            close = tracer.start_span(name)
            try:
                result = fn(*args, **kwargs)
            except SearchBudgetExceeded:
                # graphs functions do not call each other through wrapped
                # names, so each raise passes exactly one graphs wrapper
                if budget_layer:
                    tracer.counts["graphs.budget_exceeded"] += 1
                raise
            finally:
                close()
            if hook is not None:
                hook(tracer.counts, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, table) -> None:
        for (layer, fn_name), owners in table.items():
            name = f"{layer}.{fn_name}"
            original = getattr(owners[0], fn_name)
            wrapped = self.span(name, original)
            for owner in owners:
                self._patch(owner, fn_name, wrapped)

    def install_decision_path(self) -> None:
        self.install(DECISION_FUNCTIONS)
        for cls, attr in STATE_METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(f"states.{attr}", raw.__func__))
            else:
                wrapped = self.span(f"states.{attr}", raw)
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def start_span(self, name: str):
        """Open a span under the innermost open one; returns its closer."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()

        def close():
            self._stack.pop()
            self.spans[sid] = (name, start, time.perf_counter(), parent, self.instance)

        return close

    def exact_counters(self) -> dict:
        attempted = self.counts["decomposition.feasibility_search.attempted"]
        converged = self.counts["decomposition.feasibility_search.converged"]
        out = {name: self.counts[name] for name in EXACT_COUNTERS}
        # no attempt reads as 0: nothing converged
        out["decomposition.feasibility_search.converged_ratio"] = (
            converged / attempted if attempted else 0.0
        )
        return out

    def layer_times(self) -> dict:
        """Per function name: calls, busy seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            entry = stats[name]
            entry[0] += 1
            entry[2] += end - start - child[sid]
            outer, p = True, parent
            while p is not None:
                if self.spans[p][0] == name:
                    outer = False
                    break
                p = self.spans[p][3]
            if outer:
                entry[1] += end - start
        return {name: tuple(v) for name, v in stats.items()}

    def write_spans(self, path: str, tag: str) -> None:
        with open(path, "a", encoding="utf-8") as out:
            for sid, (name, start, end, parent, instance) in enumerate(self.spans):
                out.write(json.dumps([tag, sid, parent, name, start, end, instance]) + "\n")
