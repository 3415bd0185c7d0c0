import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from loccgraph.criteria import (
    ALICE_FIRST,
    BOB_FIRST,
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    UNKNOWN,
    Certificate,
    DecideOptions,
    Verdict,
    analyze,
    converse_theorem_checks,
    decide,
    effective_dimension,
    spanning_obstruction,
    verify_certificate,
)
from loccgraph.decomposition import support_faces
from loccgraph.errors import LoccGraphError
from loccgraph.families import FAMILIES, generate
from loccgraph.graphs import independence_number, maximal_cliques
from loccgraph.linalg import DEFAULT_TOL
from loccgraph.locc import BobPlan, Povm, PovmElement, as_projective_basis
from loccgraph.states import ProductStateSet


def test_effective_dimension_uses_span_not_ambient():
    # example3 lives in C^4 but its four vectors satisfy v1 - v2 + v4 = v3,
    # so the frame rank is 3; padding the ambient space changes nothing
    s = generate("example3")
    assert s.d_alice == 4
    assert effective_dimension(s) == 3
    padded = type(s).from_vectors(
        [np.concatenate([row, [0.0, 0.0]]) for row in s.alice],
        list(s.bob),
        labels=s.labels,
    )
    assert effective_dimension(padded) == 3


def test_decide_rejects_nonorthogonal_input():
    from loccgraph.states import ProductStateSet

    s = ProductStateSet.from_vectors(
        [[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]
    )
    with pytest.raises(LoccGraphError):
        decide(s)


def test_decide_rejects_unknown_direction():
    with pytest.raises(LoccGraphError):
        decide(generate("example1"), "sideways")


@pytest.mark.parametrize(
    "spec,direction,status,kind",
    [
        ("example1", ALICE_FIRST, DISTINGUISHABLE, "ChordalAliceGraph"),
        ("example2", ALICE_FIRST, INDISTINGUISHABLE, "NonChordalSandwichAtMinDim"),
        ("example3", ALICE_FIRST, DISTINGUISHABLE, "FeasibleDecomposition"),
        ("example4", ALICE_FIRST, DISTINGUISHABLE, "ChordalAliceGraph"),
        ("pentagon-path", ALICE_FIRST, DISTINGUISHABLE, "ChordalAliceGraph"),
        ("bennett", ALICE_FIRST, INDISTINGUISHABLE, "MinDimNoSimplicial"),
        ("bennett", BOB_FIRST, INDISTINGUISHABLE, "MinDimNoSimplicial"),
        ("tiles", ALICE_FIRST, INDISTINGUISHABLE, "AlphaLessThanChi"),
        ("bennett-subset:2,8,6,4,9", ALICE_FIRST, INDISTINGUISHABLE,
         "NonChordalSandwichAtMinDim"),
        ("bennett-subset:2,8,6,9,7", ALICE_FIRST, INDISTINGUISHABLE,
         "MinDimNoSimplicial"),
        ("bennett-subset:2,8,6,4,9", BOB_FIRST, DISTINGUISHABLE,
         "ChordalAliceGraph"),
        ("bennett-subset:2,8,6,9,7", BOB_FIRST, DISTINGUISHABLE,
         "ChordalAliceGraph"),
        ("cycle-rep:5", ALICE_FIRST, INDISTINGUISHABLE, "AlphaLessThanChi"),
        ("cycle-rep:6", ALICE_FIRST, INDISTINGUISHABLE, "SpanningObstruction"),
        ("path-rep:5", ALICE_FIRST, DISTINGUISHABLE, "ChordalAliceGraph"),
        ("path-rep:14", ALICE_FIRST, DISTINGUISHABLE, "ChordalAliceGraph"),
        ("path-rep:16", ALICE_FIRST, DISTINGUISHABLE, "ChordalAliceGraph"),
        ("path-rep:20", ALICE_FIRST, DISTINGUISHABLE, "ChordalAliceGraph"),
    ],
)
def test_decide_family_table(spec, direction, status, kind):
    verdict = decide(generate(spec), direction)
    assert verdict.status == status
    assert verdict.certificate.kind == kind
    outcome = verify_certificate(generate(spec), verdict)
    assert outcome.ok, outcome.checks


def test_exit_codes():
    assert decide(generate("example1")).exit_code == 0
    assert decide(generate("bennett")).exit_code == 10
    unknown = Verdict(UNKNOWN, ALICE_FIRST, Certificate("Unknown", {}), {})
    assert unknown.exit_code == 20


def test_distinguishable_verdicts_carry_protocols():
    for spec in ("example1", "example3", "pentagon-path"):
        v = decide(generate(spec))
        assert v.protocol is not None and v.simulation is not None
        assert v.simulation.min_success >= 1 - 1e-9
        assert v.parameters["min_success"] >= 1 - 1e-9


def test_bennett_parameters():
    v = decide(generate("bennett"))
    p = v.parameters
    assert p["alpha_host"] == 3
    assert p["simplicial_host"] == ()
    assert p["d_eff"] == 3
    eta = p["eta_host"]
    assert eta.certified and eta.lower == eta.upper == 3


def test_example3_measurement_matches_standard_basis_on_span():
    from loccgraph.linalg import orthonormal_columns
    from loccgraph.locc import matches_projective_basis

    s = generate("example3")
    v = decide(s)
    span = orthonormal_columns(list(s.alice), 4)
    assert span.shape == (4, 3)
    assert matches_projective_basis(v.protocol.alice, np.eye(4), span=span)
    # without the compression the dead directions differ, and that is fine
    assert not matches_projective_basis(v.protocol.alice, np.eye(4))


def test_tiles_parameters():
    v = decide(generate("tiles"))
    assert v.certificate.data["alpha"] == 2
    assert v.certificate.data["chi"] == 3


def test_spanning_obstruction_example2():
    s = generate("example2")
    g = s.build_graphs().alice
    rep = spanning_obstruction(s, [frozenset(e) for e in sorted(g.edges)])
    assert rep.empty
    assert rep.d_eff == 2
    # every support's excluded pair spans the whole effective space
    assert all(r == 2 for _, r in rep.entries)


def test_spanning_obstruction_absent_for_example1():
    s = generate("example1")
    host = s.build_graphs().bob_orthogonality()
    from loccgraph.graphs import maximal_cliques

    rep = spanning_obstruction(s, [frozenset(c) for c in maximal_cliques(host)])
    assert not rep.empty


def test_converse_checks_pentagon():
    s = generate("pentagon-path")
    rep = converse_theorem_checks(s, decide(s))
    assert rep.applies and rep.forced and rep.unique
    assert rep.families_found == 1
    assert rep.verdict_matches is True
    basis = np.abs(rep.basis)
    # unique measurement is the standard basis, up to column order and phase
    assert np.allclose(np.sort(basis.max(axis=0)), [1.0, 1.0, 1.0], atol=1e-7)
    assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-7)


def test_converse_checks_example4():
    rep = converse_theorem_checks(generate("example4"))
    assert rep.applies and rep.unique
    # forced directions are |0>+-|1> up to phase
    mags = sorted(abs(np.asarray(e))[0] for _, e in rep.forced)
    assert np.allclose(mags, [1 / np.sqrt(2)] * 2, atol=1e-9)


def test_converse_not_applicable_when_dims_differ():
    rep = converse_theorem_checks(generate("example3"))
    assert not rep.applies  # d_eff = 4 exceeds chi = 2


def test_verify_certificate_rejects_forged_kind():
    s = generate("bennett")
    v = decide(s)
    forged = Verdict(
        v.status, v.direction, Certificate("AlphaLessThanChi",
                                            {"alpha": 2, "chi": 3}),
        v.parameters,
    )
    outcome = verify_certificate(s, forged)
    assert not outcome.ok


def test_verify_certificate_rejects_wrong_states():
    v = decide(generate("bennett"))
    outcome = verify_certificate(generate("tiles"), v)
    assert not outcome.ok


def test_decide_on_random_chordal_instances():
    rng = np.random.default_rng(17)
    for _ in range(8):
        states, g = brute.random_product_instance(int(rng.integers(3, 7)), rng)
        v = decide(states)
        assert v.status == DISTINGUISHABLE
        assert v.certificate.kind == "ChordalAliceGraph"
        assert v.simulation.min_success >= 1 - 1e-7
        assert verify_certificate(states, v, success_tol=1e-6).ok


def test_analyze_report_contents():
    rep = analyze(generate("bennett"))
    assert rep.d_eff == 3
    assert rep.alpha_host == 3
    assert rep.chi_bob == 3
    assert not rep.alice_chordality.chordal
    assert not rep.host_chordality.chordal
    assert rep.simplicial_host == ()
    assert len(rep.maximal_cliques_host) > 0


def test_search_budget_degrades_gracefully():
    # starving the independence search must never flip the answer; the
    # verdict falls back to a rung that needs no search and says so
    v = decide(generate("bennett"), options=DecideOptions(search_budget=2))
    assert v.status == INDISTINGUISHABLE
    assert v.certificate.kind == "SpanningObstruction"
    assert any("limited" in note for note in v.notes)


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
@pytest.mark.parametrize("spec", ["bullseye:11", "bullseye-recursive:7"])
def test_rings_past_exact_search_carry_witness(spec, direction):
    # n = 41 and 49 lie beyond the exact independence search; an independent
    # host set of size d_eff still certifies the minimum-dimension rung
    s = generate(spec)
    v = decide(s, direction)
    assert v.status == INDISTINGUISHABLE
    assert v.certificate.kind == "MinDimNoSimplicial"
    d_eff = v.parameters["d_eff"]
    assert v.certificate.data["alpha"] == d_eff
    assert len(v.certificate.data["alpha_witness"]) == d_eff
    outcome = verify_certificate(s, v)
    assert outcome.ok, outcome.checks


def _checks(states, verdict, witness):
    data = dict(verdict.certificate.data, alpha_witness=witness)
    forged = Verdict(
        verdict.status, verdict.direction,
        Certificate(verdict.certificate.kind, data), verdict.parameters,
    )
    outcome = verify_certificate(states, forged)
    assert not outcome.ok
    return {name: ok for name, ok, _ in outcome.checks}


def test_tampered_witness_fails_verification():
    s = generate("bullseye:11")
    v = decide(s)
    witness = v.certificate.data["alpha_witness"]
    assert verify_certificate(s, v).ok

    checks = _checks(s, v, witness[1:])
    assert not checks["witness size meets rank"]

    # trade a member for an outsider adjacent in the host to another member
    host = s.build_graphs().bob_orthogonality()
    u, w = next(
        (u, w) for w in witness for u in host.vertices
        if u not in witness and host.has_edge(u, w)
    )
    x = next(x for x in witness if x != w)
    checks = _checks(s, v, sorted(set(witness) - {x} | {u}))
    assert not checks["witness independent in host"]
    assert checks["witness size meets rank"]


def test_host_independence_never_exceeds_effective_dimension():
    # independent host states overlap pairwise on Bob's side, so their
    # Alice parts are orthogonal: alpha(host) <= d_eff for every set
    specs = {
        "example1": ["example1"],
        "example2": ["example2"],
        "example3": ["example3"],
        "example4": ["example4"],
        "pentagon-path": ["pentagon-path"],
        "bennett": ["bennett"],
        "bennett-subset": ["bennett-subset:2,8,6,4,9", "bennett-subset:2,8,6,9,7",
                           "bennett-subset:1,3,5,7,9"],
        "tiles": ["tiles"],
        "bullseye": [f"bullseye:{d}" for d in range(3, 11)],
        "bullseye-recursive": ["bullseye-recursive:3", "bullseye-recursive:5"],
        "cycle-rep": [f"cycle-rep:{n}" for n in (4, 5, 6)],
        "path-rep": [f"path-rep:{n}" for n in (3, 5, 8, 12, 20, 30, 40)],
    }
    assert set(specs) == set(FAMILIES)
    sets = [generate(spec) for group in specs.values() for spec in group]
    rng = np.random.default_rng(23)
    sets += [
        brute.random_product_instance(int(rng.integers(3, 9)), rng)[0]
        for _ in range(20)
    ]
    for s in sets:
        assert s.n <= 40
        for work in (s, s.swapped()):
            host = work.build_graphs().bob_orthogonality()
            assert independence_number(host)[0] <= effective_dimension(work)


def test_direction_swap_consistency():
    s = generate("example1")
    v = decide(s, BOB_FIRST)
    assert v.direction == BOB_FIRST
    # swapping by hand and deciding alice-first gives the same answer
    v2 = decide(s.swapped(), ALICE_FIRST)
    assert v2.status == v.status
    assert v2.certificate.kind == v.certificate.kind


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
def test_every_family_decides_and_verifies(direction):
    # soundness sweep: every verdict verifies, and a synthesized protocol
    # has one Alice outcome and one Bob plan per support of its splitting
    assert set(brute.SWEEP_SPECS) == set(FAMILIES)
    for specs in brute.SWEEP_SPECS.values():
        for spec in specs:
            s = generate(spec)
            v = decide(s, direction)
            outcome = verify_certificate(s, v)
            assert outcome.ok, (spec, outcome.checks)
            if v.decomposition is not None:
                supports = {t.support for t in v.decomposition.terms}
                assert (
                    len(v.protocol.alice.outcome_ids())
                    == len(v.protocol.bob)
                    == len(supports)
                ), spec



def _forge(verdict, status=None, certificate=None, direction=None, **params):
    return Verdict(
        status or verdict.status,
        direction or verdict.direction,
        certificate or verdict.certificate,
        dict(verdict.parameters, **params),
        verdict.protocol,
        verdict.simulation,
        verdict.decomposition,
    )


def _failed(outcome):
    return {name for name, ok, _ in outcome.checks if not ok}


def test_certificate_must_prove_the_stated_status():
    s = generate("example1")
    v = decide(s)
    assert v.certificate.kind == "ChordalAliceGraph"
    assert verify_certificate(s, v).ok
    cases = [
        _forge(v, status=INDISTINGUISHABLE),
        _forge(v, status=INDISTINGUISHABLE, certificate=Certificate("Unknown", {})),
        _forge(v, certificate=Certificate("Bogus", {})),
    ]
    for forged in cases:
        outcome = verify_certificate(s, forged)
        assert not outcome.ok
        assert "certificate proves the status" in _failed(outcome)


def test_qubit_certificate_proves_what_its_flag_says():
    s = generate("example1")
    v = decide(s)
    for flag, status, proves in [
        (False, INDISTINGUISHABLE, True),
        (False, DISTINGUISHABLE, False),
        (True, DISTINGUISHABLE, True),
        (True, INDISTINGUISHABLE, False),
    ]:
        cert = Certificate(
            "SingleQubitSandwich", {"distinguishable": flag, "cliques": [[1, 2, 3, 4]]}
        )
        outcome = verify_certificate(s, _forge(v, status=status, certificate=cert))
        assert ("certificate proves the status" not in _failed(outcome)) == proves


def test_unknown_direction_fails_verification():
    s = generate("example1")
    v = decide(s)
    outcome = verify_certificate(s, _forge(v, direction="sideways"))
    assert not outcome.ok
    assert _failed(outcome) == {"direction known"}


def test_decide_records_its_budgets():
    v = decide(generate("tiles"), options=DecideOptions(search_budget=6, sandwich_budget=9))
    assert v.parameters["search_budget"] == 6
    assert v.parameters["sandwich_budget"] == 9


def test_verification_uses_the_recorded_budgets(monkeypatch):
    import loccgraph.criteria as criteria

    s = generate("tiles")
    v = decide(s, options=DecideOptions(search_budget=6))
    assert v.certificate.kind == "AlphaLessThanChi"
    budgets = []
    for name in ("independence_number", "chromatic_number"):
        original = getattr(criteria, name)

        def spy(g, budget=40, _original=original):
            budgets.append(budget)
            return _original(g, budget)

        monkeypatch.setattr(criteria, name, spy)
    assert verify_certificate(s, v).ok
    assert budgets == [6, 6]


def test_verification_without_recorded_budgets_uses_the_defaults():
    s = generate("tiles")
    v = decide(s)
    params = {k: x for k, x in v.parameters.items() if not k.endswith("_budget")}
    bare = Verdict(v.status, v.direction, v.certificate, params)
    assert verify_certificate(s, bare).ok


@pytest.mark.parametrize("spec", ["tiles", "example2"])
def test_exhausted_budget_fails_a_check_instead_of_raising(spec):
    # tiles carries AlphaLessThanChi, example2 NonChordalSandwichAtMinDim
    s = generate(spec)
    v = decide(s)
    outcome = verify_certificate(s, _forge(v, search_budget=2))
    assert not outcome.ok
    assert "search within budget" in _failed(outcome)


def _with_witness(verdict, y):
    data = dict(verdict.certificate.data, witness=y)
    return _forge(verdict, certificate=Certificate("DualWitness", data))


def test_pentagon_path_bob_first_has_a_dual_witness():
    s = generate("pentagon-path")
    v = decide(s, BOB_FIRST)
    assert v.status == INDISTINGUISHABLE
    assert v.certificate.kind == "DualWitness"
    assert v.certificate.data["shifted_inner_product"] < 0
    outcome = verify_certificate(s, v)
    assert outcome.ok, outcome.checks


def test_tampered_dual_witness_fails_verification():
    s = generate("pentagon-path")
    v = decide(s, BOB_FIRST)
    z = np.asarray(v.certificate.data["witness"])
    work = s.swapped()
    d = work.d_alice
    assert z.shape == (d, d)
    faces = support_faces(
        work.alice_frame(), maximal_cliques(work.build_graphs().bob_orthogonality())
    )
    # one face's block made negative definite
    w = next(w for w in faces.bases if 0 < w.shape[1] < faces.d_eff)
    y = faces.span.conj().T @ z @ faces.span
    y -= w @ (w.conj().T @ y @ w + np.eye(w.shape[1])) @ w.conj().T
    for forged in (-z, faces.lift(y), np.eye(d)):
        outcome = verify_certificate(s, _with_witness(v, forged))
        assert _failed(outcome) == {"witness excludes every splitting"}
    for malformed in (z[:2, :2], np.full((d, d), np.nan), np.eye(s.n), "no matrix"):
        outcome = verify_certificate(s, _with_witness(v, malformed))
        assert _failed(outcome) == {"witness is an operator on the measuring side"}


def test_forged_dual_witness_fails_where_a_splitting_exists():
    s = generate("example3")
    v = decide(s)
    assert v.certificate.kind == "FeasibleDecomposition"
    # candidate witnesses are operators on the measuring side, C^4
    frame_op = s.alice_frame() @ s.alice_frame().conj().T
    d = s.d_alice
    rng = np.random.default_rng(3)
    candidates = [-frame_op, -np.eye(d), frame_op - 2 * np.eye(d)]
    for _ in range(20):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        candidates.append(x + x.conj().T)
    for y in candidates:
        forged = _with_witness(_forge(v, status=INDISTINGUISHABLE), y)
        outcome = verify_certificate(s, forged)
        assert "witness excludes every splitting" in _failed(outcome)


def test_unknown_records_the_exhausted_budget():
    # S1 bob-first splits, but only after hundreds of steps
    s, _ = brute.face_set("S1")
    v = decide(s, BOB_FIRST, DecideOptions(max_iter=1))
    assert v.status == UNKNOWN
    data = v.certificate.data
    assert data["reason"] == "iteration budget exhausted"
    assert data["iterations"] == 1 and data["gap"] > 0
    assert any("ran out of its iteration budget" in note for note in v.notes)
    assert verify_certificate(s, v).ok


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
def test_random_nonchordal_sets_decide_and_verify(direction):
    # half of these Gram matrices split over cliques by construction; the
    # rest are near-singular and often split over none
    rng = np.random.default_rng(31)
    for _ in range(20):
        states, _ = brute.random_nonchordal_instance(int(rng.integers(5, 9)), rng)
        v = decide(states, direction)
        assert v.status != UNKNOWN
        outcome = verify_certificate(states, v)
        assert outcome.ok, outcome.checks


# alice-first, the convex search converges with a term of weight ~4e-10
# outside the range of Alice's frame; lifting it to the protocol raised
_DUST_TERM_SET = (
    [[1, -1, 0], [1, 0, 1], [1, 1, 0], [0, 1, 0], [1, -1, -1]],
    [[0, 1, 0], [1, 0, 1], [1, 0, -1], [1, 0, 1], [1, 0, -1]],
)


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
def test_splitting_dust_outside_the_frame_is_dropped(direction):
    alice, bob = (
        [np.array(v, dtype=float) / np.linalg.norm(v) for v in side]
        for side in _DUST_TERM_SET
    )
    s = ProductStateSet.from_vectors(alice, bob)
    v = decide(s, direction)
    assert v.status == DISTINGUISHABLE
    outcome = verify_certificate(s, v)
    assert outcome.ok, outcome.checks


def _with_dominance(verdict, **fields):
    data = dict(verdict.certificate.data, **fields)
    return _forge(verdict, certificate=Certificate("ScaledDiagonalDominance", data))


def test_tampered_dominance_certificate_fails_its_check():
    s = generate("path-rep:20")
    v = decide(s, BOB_FIRST)
    assert v.certificate.kind == "ScaledDiagonalDominance"
    assert verify_certificate(s, v).ok
    # the listed supports are the protocol's outcomes
    listed = {frozenset(c) for c in v.certificate.data["supports"]}
    assert {t.support for t in v.decomposition.terms} == listed
    assert len(v.protocol.alice.outcome_ids()) == len(listed)
    x = list(v.certificate.data["scaling"])
    # the Gram matrix is dominant at x = 1 already (every off-diagonal row
    # sum is below 0.95), so break dominance by shrinking one entry of x
    assert verify_certificate(s, _with_dominance(v, scaling=[1.0] * s.n)).ok
    host = s.swapped().build_graphs().bob_orthogonality()
    i, j = next(
        (i, j) for i in host.vertices for j in host.vertices
        if i < j and not host.has_edge(i, j)
    )
    supports = v.certificate.data["supports"] + [[i, j]]
    for forged, check in [
        (_with_dominance(v, scaling=[-x[0]] + x[1:]), "scaling positive"),
        (_with_dominance(v, scaling=[0.0] + x[1:]), "scaling positive"),
        (_with_dominance(v, scaling=[x[0] / 100] + x[1:]), "scaled rows dominant"),
        (_with_dominance(v, scaling=x[1:]), "scaling has one entry per state"),
        (_with_dominance(v, scaling="none"), "scaling has one entry per state"),
        (_with_dominance(v, supports=supports), "supports are host cliques"),
    ]:
        outcome = verify_certificate(s, forged)
        assert _failed(outcome) == {check}


def test_singular_comparison_matrix_falls_through_to_the_convex_search():
    from loccgraph.decomposition import comparison_matrix, dominance_scaling

    s = generate("example3")
    ga = s.build_graphs().alice
    assert abs(np.linalg.eigvalsh(comparison_matrix(s.alice_gram(), ga))[0]) < 1e-12
    assert dominance_scaling(s.alice_gram(), ga) is None
    v = decide(s, ALICE_FIRST)
    assert v.certificate.kind == "FeasibleDecomposition"
    assert verify_certificate(s, v).ok


def test_no_dominance_scaling_falls_through_to_a_dual_witness():
    from loccgraph.decomposition import dominance_scaling

    s = generate("pentagon-path")
    work = s.swapped()
    assert dominance_scaling(work.alice_gram(), work.build_graphs().alice) is None
    v = decide(s, BOB_FIRST)
    assert v.certificate.kind == "DualWitness"


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 8))
def test_diagonally_dominant_grams_fire_the_dominance_rung(seed, n):
    states, _ = brute.random_dominant_instance(n, np.random.default_rng(seed))
    v = decide(states)
    assert v.status == DISTINGUISHABLE
    assert v.certificate.kind == "ScaledDiagonalDominance"
    assert v.simulation.min_success >= 1 - 1e-9
    outcome = verify_certificate(states, v)
    assert outcome.ok, outcome.checks


@pytest.mark.parametrize("spec,direction", [
    ("example1", ALICE_FIRST),
    ("path-rep:8", BOB_FIRST),
])
def test_protocol_for_the_other_side_fails_a_check(spec, direction):
    # the verdict is relabelled with the other direction, so its protocol
    # acts on the wrong spaces; verification must say so, not raise
    s = generate(spec)
    v = decide(s, direction)
    other = BOB_FIRST if direction == ALICE_FIRST else ALICE_FIRST
    outcome = verify_certificate(s, _forge(v, direction=other))
    assert "protocol dimension" in _failed(outcome)
    ran = {name for name, _, _ in outcome.checks}
    assert not ran & {"povm complete", "supports respected", "protocol succeeds"}


def _with_protocol(verdict, **parts):
    protocol = dataclasses.replace(verdict.protocol, **parts)
    return dataclasses.replace(verdict, protocol=protocol)


def test_forged_protocols_fail_their_checks():
    s = generate("example1")
    v = decide(s)
    assert verify_certificate(s, v).ok
    everyone = frozenset(range(1, s.n + 1))
    # Alice does nothing and Bob "measures" the four Bob vectors of C^3,
    # two of them equal
    idle = Povm(s.d_alice, tuple(
        PovmElement(1, 1.0, e, everyone) for e in np.eye(s.d_alice, dtype=complex)
    ))
    vectors = BobPlan(1, s.bob.T.copy(), s.labels)
    # every plan counts its first state twice
    doubled = tuple(
        dataclasses.replace(
            p, basis=np.column_stack([p.basis, p.basis[:, 0]]),
            labels=p.labels + p.labels[:1],
        )
        for p in v.protocol.bob
    )
    # a +0.5/-0.5 pair cancels out of every figure but positivity
    first = v.protocol.alice.elements[0]
    signed = Povm(s.d_alice, v.protocol.alice.elements + tuple(
        PovmElement(first.outcome, w, first.direction, everyone) for w in (0.5, -0.5)
    ))
    for forged, failed in [
        (_with_protocol(v, alice=idle, bob=(vectors,)), "bob plans are measurements"),
        (_with_protocol(v, bob=doubled), "bob plans are measurements"),
        (_with_protocol(v, alice=signed), "povm elements positive"),
    ]:
        assert _failed(verify_certificate(s, forged)) == {failed}


def _per_plan_non_measurements(plans, labels):
    """The per-plan check that one masked Gram replaced, as a reference."""
    bad = []
    for p in plans:
        k = len(p.labels)
        overlap = np.abs(p.basis.conj().T @ p.basis - np.eye(k)).max(initial=0.0)
        if len(set(p.labels) & labels) != k or overlap > 10 * DEFAULT_TOL.rank_tol:
            bad.append(p.outcome)
    return bad


def test_plan_check_reports_what_a_per_plan_check_reports():
    s = generate("path-rep:8")
    v = decide(s, BOB_FIRST)
    plans = list(v.protocol.bob)
    basis = plans[1].basis.copy()
    basis[:, 0] = (basis[:, 0] + 1e-3 * basis[:, 1]) / np.sqrt(1 + 1e-6)
    plans[1] = dataclasses.replace(plans[1], basis=basis)              # tilted column
    plans[2] = dataclasses.replace(plans[2], labels=("x",) + plans[2].labels[1:])
    plans[4] = dataclasses.replace(plans[4], labels=plans[4].labels[:1] * 2)
    plans.append(BobPlan(7, np.zeros((s.d_alice, 0), dtype=complex), ()))  # measures nothing
    expected = _per_plan_non_measurements(plans, set(s.labels))
    assert expected == [2, 3, 5]
    outcome = verify_certificate(s, _with_protocol(v, bob=tuple(plans)))
    detail = {name: d for name, _, d in outcome.checks}["bob plans are measurements"]
    assert detail == f"outcomes {expected}"


def test_malformed_protocols_fail_the_dimension_check():
    # each of these raised inside the simulation instead of failing a check
    s = generate("example1")
    v = decide(s, ALICE_FIRST)
    plan, *plans = v.protocol.bob
    extra_label = dataclasses.replace(plan, labels=plan.labels + ("4",))
    e, *elements = v.protocol.alice.elements
    short = dataclasses.replace(e, direction=e.direction[:1])
    for malformed in (
        _with_protocol(v, bob=(extra_label, *plans)),
        _with_protocol(v, alice=Povm(s.d_alice, (short, *elements))),
    ):
        outcome = verify_certificate(s, malformed)
        assert _failed(outcome) == {"protocol dimension"}
        ran = {name for name, _, _ in outcome.checks}
        assert "protocol succeeds" not in ran


def test_outcome_without_a_bob_plan_gives_up():
    # a missing plan raised InvalidInput from Protocol.plan_for
    s = generate("example1")
    v = decide(s)
    outcome = verify_certificate(s, _with_protocol(v, bob=v.protocol.bob[1:]))
    assert _failed(outcome) == {"protocol succeeds"}


_S2 = np.sqrt(2)
_K0, _K1 = np.eye(2)
_PLUS, _MINUS = (_K0 + _K1) / _S2, (_K0 - _K1) / _S2
_E = np.eye(4)
_QUBIT_COVER = brute.QUBIT_COVER


@pytest.mark.parametrize("alice,bob,options,status,kind,data", [
    pytest.param(
        [_K0, _PLUS, _MINUS, _K1], list(_E), None,
        DISTINGUISHABLE, "ChordalBobComplement", {}, id="chordal-host",
    ),
    pytest.param(
        *_QUBIT_COVER, None, DISTINGUISHABLE, "SingleQubitSandwich",
        {"distinguishable": True, "cliques": [[1, 2, 3, 5], [1, 3, 4, 6]]},
        id="qubit-cover",
    ),
    pytest.param(
        [_MINUS, (_K0 - 1j * _K1) / _S2, (_K0 + 1j * _K1) / _S2, _PLUS, _MINUS],
        [(_E[1] + _E[2]) / _S2, (_E[1] - _E[2]) / _S2, (_E[1] - _E[2]) / _S2,
         _E[0], (_E[0] + _E[3]) / _S2],
        DecideOptions(sandwich_budget=0),
        INDISTINGUISHABLE, "SingleQubitSandwich", {"distinguishable": False},
        id="qubit-no-cover",
    ),
])
def test_rungs_no_family_reaches(alice, bob, options, status, kind, data):
    s = ProductStateSet.from_vectors(alice, bob)
    v = decide(s, ALICE_FIRST, options)
    assert (v.status, v.certificate.kind) == (status, kind)
    assert {k: v.certificate.data[k] for k in data} == data
    outcome = verify_certificate(s, v)
    assert outcome.ok, outcome.checks
    if status == DISTINGUISHABLE:
        assert v.decomposition is not None
        assert v.simulation.min_success >= 1 - 1e-9


def test_qubit_cover_peels_to_a_projective_measurement():
    # the peel of the union of the two cliques: each term sits inside one
    # clique, one outcome per clique, and Alice measures a basis
    s = ProductStateSet.from_vectors(*_QUBIT_COVER)
    v = decide(s)
    cliques = [frozenset(c) for c in v.certificate.data["cliques"]]
    supports = {t.support for t in v.decomposition.terms}
    assert all(any(t <= c for c in cliques) for t in supports)
    assert len(v.protocol.alice.outcome_ids()) == len(supports) == 2
    assert as_projective_basis(v.protocol.alice) is not None


@pytest.mark.parametrize("spec", ["tiles", "bennett", "bennett-subset:2,8,6,4,9"])
def test_decide_runs_one_independence_search_per_eta_bound(monkeypatch, spec):
    # the upper bound is chi(complement(host)), whose clique number is the
    # lower bound alpha(host); the search for it is not run a second time
    import loccgraph.criteria as criteria
    import loccgraph.graphs as graphs

    searched = []
    original = graphs.independence_number

    def counting(g, budget=40):
        searched.append(g)
        return original(g, budget)

    for module in (graphs, criteria):
        monkeypatch.setattr(module, "independence_number", counting)
    v = decide(generate(spec))
    assert "eta_host" in v.parameters
    assert len(searched) == 1
