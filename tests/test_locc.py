import numpy as np
import pytest

import brute
from loccgraph.criteria import ALICE_FIRST, BOB_FIRST, decide
from loccgraph.decomposition import (
    Decomposition,
    DecompositionTerm,
    chordal_decompose,
    verify_decomposition,
)
from loccgraph.errors import NonOrthogonalBobClique
from loccgraph.families import generate
from loccgraph.graphs import maximal_cliques
from loccgraph.locc import (
    as_projective_basis,
    matches_projective_basis,
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
    term = DecompositionTerm(frozenset({2, 3}), 0.5 * states.alice_gram()[:, 1])
    with pytest.raises(NonOrthogonalBobClique):
        synthesize_protocol(states, Decomposition(states.n, (term,), 0.0))
    # the whole-protocol check names the first offending outcome's pair
    fine = DecompositionTerm(frozenset({1, 4}), 0.5 * states.alice_gram()[:, 0])
    with pytest.raises(NonOrthogonalBobClique,
                       match=r"states 2 and 3 overlap \(1\) .* within outcome 2$"):
        synthesize_protocol(states, Decomposition(states.n, (fine, term), 0.0))


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
    from loccgraph.locc import Povm, PovmElement

    stripped = Povm(
        protocol.alice.dim,
        tuple(
            PovmElement(e.outcome, e.weight, e.direction, frozenset({1}))
            for e in protocol.alice.elements
        ),
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
        dec.n,
        tuple(
            DecompositionTerm(t.support, t.vector / np.sqrt(2))
            for t in dec.terms for _ in range(2)
        ),
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


def test_simulate_matches_operator_reference():
    # Alice measures |+> (outcome 1) or |-> (outcome 2), the Gram matrix
    # split accordingly; outcome 1 declares {1, 2} but state 4 = |+> also
    # triggers it, a leak checked against outcome operators built state by
    # state
    states = generate("example1")
    frame = states.alice_frame()
    split = Decomposition(states.n, tuple(
        DecompositionTerm(frozenset(support), frame.conj().T @ a)
        for support, a in (({1, 2}, HADAMARD[:, 0]), ({1, 3, 4}, HADAMARD[:, 1]))
    ), 0.0)
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
