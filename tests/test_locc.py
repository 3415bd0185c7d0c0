import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from loccgraph import ProductStateSet
from loccgraph.criteria import ALICE_FIRST, BOB_FIRST, decide, verify_certificate
from loccgraph.decomposition import (
    Decomposition,
    chordal_decompose,
    support_mask,
    verify_decomposition,
)
from loccgraph.errors import NonOrthogonalBobClique
from loccgraph.families import generate
from loccgraph.graphs import maximal_cliques
from loccgraph.locc import (
    as_projective_basis,
    matches_projective_basis,
    outcome_numbers,
    povm_to_decomposition,
    simulate,
    synthesize_protocol,
    validate_povm,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def _example1_protocol():
    states = generate("example1")
    graphs = states.build_graphs()
    dec = chordal_decompose(states.alice_gram(), graphs.alice)
    return states, dec, synthesize_protocol(states, dec)


def test_synthesized_protocol_example1():
    states, dec, protocol = _example1_protocol()
    rep = validate_povm(protocol.alice, states)
    assert rep.ok
    sim = simulate(states, protocol)
    assert sim.min_success >= 1 - 1e-9
    assert sim.completeness_deviation <= 1e-9
    assert sim.max_support_leakage <= 1e-9


def test_example1_measurement_is_the_plus_minus_basis():
    _, _, protocol = _example1_protocol()
    basis = as_projective_basis(protocol.alice)
    assert basis is not None
    assert matches_projective_basis(protocol.alice, HADAMARD)


def test_matches_projective_basis_ignores_phases():
    _, _, protocol = _example1_protocol()
    phased = HADAMARD * np.exp(1j * np.array([0.3, -1.2]))
    assert matches_projective_basis(protocol.alice, phased)
    assert not matches_projective_basis(protocol.alice, np.eye(2))


def test_bob_plans_resolve_labels():
    states, _, protocol = _example1_protocol()
    sim = simulate(states, protocol)
    assert dict(sim.per_state) == {
        label: pytest.approx(1.0) for label in states.labels
    }
    for plan in protocol.bob:
        k = len(plan.labels)
        assert plan.basis.shape == (states.d_bob, k)
        assert np.allclose(
            plan.basis.conj().T @ plan.basis, np.eye(k), atol=1e-10
        )


def test_bob_orthogonality_enforced():
    states = generate("example1")
    # states 2 and 3 share the same Bob vector, so an outcome whose support
    # holds both cannot give Bob an orthogonal basis
    term = ({2, 3}, 0.5 * states.alice_gram()[:, 1])
    with pytest.raises(NonOrthogonalBobClique):
        synthesize_protocol(states, brute.splitting(states.n, [term]))
    # the whole-protocol check names the first offending outcome's pair
    fine = ({1, 4}, 0.5 * states.alice_gram()[:, 0])
    with pytest.raises(NonOrthogonalBobClique,
                       match=r"states 2 and 3 overlap \(1\) .* within outcome 2$"):
        synthesize_protocol(states, brute.splitting(states.n, [fine, term]))


def test_povm_to_decomposition_roundtrip():
    states, dec, protocol = _example1_protocol()
    back = povm_to_decomposition(states, protocol.alice)
    rep = verify_decomposition(states.alice_gram(), back, rel_bound=1e-7)
    assert rep.ok
    host = states.build_graphs().bob_orthogonality()
    rep2 = verify_decomposition(states.alice_gram(), back, host=host)
    assert rep2.supports_ok


def test_validate_povm_flags_leakage():
    states, dec, protocol = _example1_protocol()
    # shrink the declared support of every element below the true one
    povm = protocol.alice
    stripped = dataclasses.replace(
        povm, supports=support_mask([{1}] * len(povm.weights), states.n)
    )
    rep = validate_povm(stripped, states)
    assert not rep.ok
    assert rep.max_support_leakage > 1e-3


def test_random_roundtrips_both_directions():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        states, g = brute.random_product_instance(n, rng)
        m = states.alice_gram()
        dec = chordal_decompose(m, g)
        protocol = synthesize_protocol(states, dec)
        assert validate_povm(protocol.alice, states).ok
        sim = simulate(states, protocol)
        assert sim.min_success >= 1 - 1e-7
        assert sim.max_support_leakage <= 1e-7
        back = povm_to_decomposition(states, protocol.alice)
        rep = verify_decomposition(m, back, host=g, rel_bound=1e-7)
        assert rep.ok and rep.supports_ok


def test_one_outcome_per_support():
    # splitting every term in two halves keeps the supports, so the outcome
    # and plan counts stay those of the distinct supports
    rng = np.random.default_rng(9)
    states, g = brute.random_product_instance(6, rng)
    dec = chordal_decompose(states.alice_gram(), g)
    halves = Decomposition(
        np.repeat(dec.vectors, 2, axis=0) / np.sqrt(2),
        np.repeat(dec.supports, 2, axis=0),
        dec.residual,
    )
    protocol = synthesize_protocol(states, halves)
    supports = {t.support for t in dec.terms}
    assert len(protocol.alice.outcome_ids()) == len(protocol.bob) == len(supports)
    # Bob's column j detects member j of the outcome's support
    support_of = {e.outcome: e.support for e in protocol.alice.elements}
    for plan in protocol.bob:
        members = [states.labels[i - 1] for i in sorted(support_of[plan.outcome])]
        assert list(plan.labels[: len(members)]) == members
    assert simulate(states, protocol).min_success >= 1 - 1e-9


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_outcome_numbers_follow_first_appearance(data):
    # a few distinct rows of 1 to 130 columns (up to 17 packed bytes),
    # repeated in any order; np.unique over the rows, renumbered in order
    # of first appearance, gives each row's outcome and each outcome's
    # first row
    width = data.draw(st.integers(1, 130))
    row = st.lists(st.booleans(), min_size=width, max_size=width)
    rows = data.draw(st.lists(row, min_size=1, max_size=5))
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=24))
    mask = np.array([rows[i] for i in picks], dtype=bool).reshape(len(picks), width)
    numbers, firsts = outcome_numbers(mask)
    _, first, inverse = np.unique(mask, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(order), dtype=int)
    number[order] = np.arange(1, len(order) + 1)
    assert numbers.tolist() == number[inverse.reshape(-1)].tolist()
    assert firsts.tolist() == first[order].tolist()


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
def test_sweep_plans_are_their_supports_columns(direction, monkeypatch):
    # a plan is its outcome's member columns and nothing else: no basis
    # completion (no QR) runs while a protocol is synthesized
    sets = [generate(spec) for specs in brute.SWEEP_SPECS.values() for spec in specs]

    def no_qr(*args, **kwargs):
        raise AssertionError("QR called during a decision")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for states in sets:
        v = decide(states, direction)
        if v.protocol is None:
            continue
        work = states if direction == ALICE_FIRST else states.swapped()
        support_of = {e.outcome: e.support for e in v.protocol.alice.elements}
        for plan in v.protocol.bob:
            members = sorted(support_of[plan.outcome])
            assert plan.labels == tuple(work.labels[i - 1] for i in members)
            assert plan.basis.shape == (work.d_bob, len(members))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_lift_matches_the_reference_bit_for_bit():
    # the built-in families both ways and seed-1 random chordal sets: the
    # POVM, Bob's columns and the simulation report are those of the lift
    # that always took the whole eigendecomposition and copied every array
    cases = [(generate(spec), direction) for specs in brute.SWEEP_SPECS.values()
             for spec in specs for direction in (ALICE_FIRST, BOB_FIRST)]
    rng = np.random.default_rng(1)
    cases += [(brute.random_product_instance(int(rng.integers(5, 11)), rng)[0], ALICE_FIRST)
              for _ in range(10)]
    lifted = 0
    for states, direction in cases:
        v = decide(states, direction)
        if v.protocol is None:
            continue
        work = states if direction == ALICE_FIRST else states.swapped()
        ref = brute.reference_lift(work, v.decomposition)
        for name in ("directions", "weights", "outcomes", "supports"):
            assert _same_bits(getattr(v.protocol.alice, name), getattr(ref.alice, name))
        for name in ("bob_basis", "bob_outcomes", "bob_labels"):
            assert _same_bits(getattr(v.protocol, name), getattr(ref, name))
        assert v.simulation == simulate(work, ref)
        lifted += 1
    assert lifted == 27


def _padded(states: ProductStateSet) -> ProductStateSet:
    """The set with a zero coordinate appended to every Alice vector."""
    return ProductStateSet.from_vectors(
        [np.append(a, 0) for a in states.alice], list(states.bob), states.labels)


@pytest.mark.parametrize("source,direction,padded,eigenvectors", [
    ("random", ALICE_FIRST, False, 0),      # 8 states spanning C^8
    ("path-rep:8", BOB_FIRST, False, 0),    # 8 states spanning C^8
    ("random", ALICE_FIRST, True, 1),       # the same 8 states in C^9
    ("example1", ALICE_FIRST, True, 1),     # 4 states spanning C^2, in C^3
])
def test_a_lift_takes_eigenvectors_only_to_fill_what_the_states_leave_empty(
    lapack_calls, source, direction, padded, eigenvectors
):
    if source == "random":
        s, _ = brute.random_product_instance(8, np.random.default_rng(2))
    else:
        s = generate(source)
    if padded:
        s = _padded(s)
    v = decide(s, direction)
    assert verify_certificate(s, v).ok
    work = s if direction == ALICE_FIRST else s.swapped()
    lapack_calls.clear()
    povm = synthesize_protocol(work, v.decomposition).alice
    assert (lapack_calls["eigvalsh"], lapack_calls["eigh"]) == (1, eigenvectors)
    # the fill elements, past the lifted pieces, are silent on every state
    fill = slice(len(v.decomposition.vectors), None)
    assert len(povm.weights[fill]) == (work.d_alice - np.linalg.matrix_rank(work.alice))
    silent = povm.weights[fill, None] * np.abs(povm.directions[fill].conj() @ work.alice.T) ** 2
    assert silent.max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("source,direction,padded,decide_calls", [
    ("random", ALICE_FIRST, False, (1, 0)),        # chordal peel, no fill
    ("path-rep:8", BOB_FIRST, False, (1, 0)),      # dominance split, no fill
    ("cycle-rep:8", BOB_FIRST, False, (1, 0)),     # dominance split, no fill
    ("example1", ALICE_FIRST, False, (1, 0)),      # singular peel, no fill
    ("random", ALICE_FIRST, True, (2, 1)),         # a fill
    ("example1", ALICE_FIRST, True, (2, 1)),       # a fill
])
def test_a_decision_without_a_fill_reads_completeness_off_the_lift(
    lapack_calls, source, direction, padded, decide_calls
):
    # the lift's eigenvalues of the elements' sum minus I test for a fill
    # and give the simulation's completeness deviation; with a fill the
    # filled POVM takes its own eigensolve. verify takes its own one
    if source == "random":
        s, _ = brute.random_product_instance(8, np.random.default_rng(2))
    else:
        s = generate(source)
    if padded:
        s = _padded(s)
    lapack_calls.clear()
    v = decide(s, direction)
    assert (lapack_calls["eigvalsh"], lapack_calls["eigh"]) == decide_calls
    lapack_calls.clear()
    assert verify_certificate(s, v).ok
    assert (lapack_calls["eigvalsh"], lapack_calls["eigh"]) == (1, 0)
    work = s if direction == ALICE_FIRST else s.swapped()
    assert v.simulation == simulate(work, v.protocol)


def test_simulate_matches_operator_reference():
    # Alice measures |+> (outcome 1) or |-> (outcome 2), the Gram matrix
    # split accordingly; outcome 1 declares {1, 2} but state 4 = |+> also
    # triggers it, a leak checked against outcome operators built state by
    # state
    states = generate("example1")
    frame = states.alice_frame()
    split = brute.splitting(states.n, [
        (support, frame.conj().T @ a)
        for support, a in (({1, 2}, HADAMARD[:, 0]), ({1, 3, 4}, HADAMARD[:, 1]))
    ])
    protocol = synthesize_protocol(states, split)
    povm = protocol.alice
    assert matches_projective_basis(povm, HADAMARD)
    success, leakage = [], 0.0
    plans = {p.outcome: p for p in protocol.bob}
    for i in range(1, states.n + 1):
        a, b = states.alice[i - 1], states.bob[i - 1]
        total = 0.0
        for outcome in povm.outcome_ids():
            p = float(np.real(np.vdot(a, povm.outcome_operator(outcome) @ a)))
            support = set().union(
                *(e.support for e in povm.elements if e.outcome == outcome)
            )
            if i not in support:
                leakage = max(leakage, p)
                continue
            plan = plans[outcome]
            col = plan.labels.index(states.labels[i - 1])
            total += p * abs(np.vdot(plan.basis[:, col], b)) ** 2
        success.append(total)
    sim = simulate(states, protocol)
    assert leakage > 1e-3
    assert np.allclose([p for _, p in sim.per_state], success, atol=1e-12)
    assert sim.max_support_leakage == pytest.approx(leakage, abs=1e-12)
    assert validate_povm(povm, states).max_support_leakage == pytest.approx(
        leakage, abs=1e-12
    )
