import dataclasses
import itertools
import json

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
from loccgraph.errors import InvalidInput, LoccGraphError, NonOrthogonalBobClique
from loccgraph.families import FAMILIES, generate
from loccgraph.graphs import independence_number, is_chordal, maximal_cliques
from loccgraph.linalg import DEFAULT_TOL
from loccgraph.locc import BobPlan, Povm, check_protocol, simulate, synthesize_protocol
from loccgraph.serialize import verdict_to_json
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
    # verdict falls back to a rung that needs no search and says so. With
    # search_budget 0 the search for alpha(host) and chi(bob) has no nodes
    # to spend
    v = decide(generate("bennett"), options=DecideOptions(search_budget=0))
    assert v.status == INDISTINGUISHABLE
    assert v.certificate.kind == "SpanningObstruction"
    assert any("limited" in note for note in v.notes)


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
@pytest.mark.parametrize("spec", ["bullseye:11", "bullseye-recursive:7"])
def test_rings_past_exact_search_carry_witness(spec, direction):
    # n = 41 and 49 exceed search_budget (40); the search counts nodes, not
    # vertices, so it gives alpha(host) and chi(bob) here too, and an
    # independent host set of size d_eff certifies the rung
    s = generate(spec)
    v = decide(s, direction)
    assert v.status == INDISTINGUISHABLE
    assert v.certificate.kind == "MinDimNoSimplicial"
    d_eff = v.parameters["d_eff"]
    assert v.parameters["alpha_host"] == v.parameters["chi_bob"] == d_eff
    assert not any("limited" in note for note in v.notes)
    assert v.certificate.data["alpha"] == d_eff
    assert len(v.certificate.data["alpha_witness"]) == d_eff
    outcome = verify_certificate(s, v)
    assert outcome.ok, outcome.checks


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
@pytest.mark.parametrize("spec", ["bullseye:45", "bullseye:81"])
def test_rings_past_the_search_budget_carry_witness(spec, direction):
    # d_eff = 45 and 81 exceed search_budget; the search for alpha(host) is
    # bounded by its nodes, not by d_eff, so the minimum-dimension rung
    # still fires, with a verdict well under 1 kB
    s = generate(spec)
    v = decide(s, direction)
    assert (v.status, v.certificate.kind) == (INDISTINGUISHABLE, "MinDimNoSimplicial")
    assert v.parameters["d_eff"] > DecideOptions().search_budget
    outcome = verify_certificate(s, v)
    assert outcome.ok, outcome.checks
    assert len(json.dumps(verdict_to_json(v))) < 1000


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
    original = criteria.eta_bounds_of_complement

    def spy(g, budget=40):
        budgets.append(budget)
        return original(g, budget)

    monkeypatch.setattr(criteria, "eta_bounds_of_complement", spy)
    assert verify_certificate(s, v).ok
    assert budgets == [6]


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
    outcome = verify_certificate(s, _forge(v, search_budget=0))
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


def test_dominance_supports_name_states_by_int_index_in_range():
    # each support must be a non-empty host clique of int indices in 1..n.
    # A bool is an int: True names state 1 and False no state. A repeat
    # names its state once
    s = generate("path-rep:8")
    v = decide(s, BOB_FIRST)
    supports = v.certificate.data["supports"]
    k = next(k for k, c in enumerate(supports) if 1 in c)
    with_one = [[True if i == 1 else i for i in supports[k]]]
    for edit, ok in [
        (supports + [[]], False),
        (supports + [[0]], False),
        (supports + [[s.n + 1]], False),
        (supports + [[1, s.n + 1]], False),
        (supports + [[float(i) for i in supports[0]]], False),
        (supports + [[np.int64(1)]], False),
        (supports + [[False]], False),
        (supports[:k] + with_one + supports[k + 1:], True),
        (supports + [supports[0] + supports[0][:1]], True),
        # in memory nothing checks the field's shape, so these reach verify
        ([1, 2], False),
        (5, False),
        (None, False),
    ]:
        outcome = verify_certificate(s, _with_dominance(v, supports=edit))
        assert _failed(outcome) == (set() if ok else {"supports are host cliques"})


def _rank_proof_outputs():
    """What analyze, decide and verify give on sets where an alpha(host)
    witness may prove the rank: the pinned and face sets, rings, a slice of
    the integer corpus and sets with large Alice overlaps inside an
    orthogonal set. Each direction is also verified with a forged
    MinDimNoSimplicial naming analyze's witness, on a fresh copy, so that
    verify's own proof or fallback decides its witness checks."""
    sets = [brute.pinned_set(name)[0] for name in brute.PINNED_SETS]
    sets += [brute.face_set(name)[0] for name in brute.FACE_SETS]
    sets += [generate(spec) for spec in ("bennett", "tiles", "bullseye:11",
                                         "bullseye-recursive:7")]
    sets += [s for _, _, s in brute.integer_corpus([101])]
    sets += [brute.equal_overlap_set(c, 1.5e-9) for c in (0.4, 0.6)]
    out = []
    for s in sets:
        for direction in (ALICE_FIRST, BOB_FIRST):
            work = s if direction == ALICE_FIRST else s.swapped()
            report = analyze(ProductStateSet(work.alice, work.bob, work.labels))
            v = decide(s, direction)
            forged = Verdict(INDISTINGUISHABLE, direction, Certificate(
                "MinDimNoSimplicial", {"alpha_witness": list(report.alpha_witness)}), {})
            fresh = ProductStateSet(s.alice, s.bob, s.labels)
            out.append((report.d_eff, report.alpha_witness, json.dumps(verdict_to_json(v)),
                        verify_certificate(s, v).checks,
                        verify_certificate(fresh, forged).checks))
    return out


def test_verdicts_do_not_depend_on_the_rank_proof(monkeypatch):
    proofs, prove = [], ProductStateSet.proves_full_rank

    def counted(self, rows, tol=DEFAULT_TOL):
        proofs.append(prove(self, rows, tol))
        return proofs[-1]

    monkeypatch.setattr(ProductStateSet, "proves_full_rank", counted)
    proved = _rank_proof_outputs()
    monkeypatch.setattr(ProductStateSet, "proves_full_rank", lambda *args: False)
    assert _rank_proof_outputs() == proved
    # analyze, decide and verify each offered witnesses, and some were refused
    assert proofs.count(True) >= 40 and proofs.count(False) >= 10


def _with_data(verdict, **fields):
    data = dict(verdict.certificate.data, **fields)
    return dataclasses.replace(
        verdict, certificate=Certificate(verdict.certificate.kind, data))


# in memory nothing checks a certificate field's shape, so each of these
# reaches verify, which fails the check that reads the field


def test_a_malformed_ordering_fails_its_check():
    s = generate("example1")
    v = decide(s)
    assert v.certificate.kind == "ChordalAliceGraph"
    order = v.certificate.data["ordering"]
    # an ordering equal to the kept one is proved, as the peel takes it
    for edit in (list(order), tuple(order), [float(i) for i in order]):
        assert verify_certificate(s, _with_data(v, ordering=edit)).ok
    for edit in (5, None, "1234", [float(i) for i in order[::-1]],
                 [[i] for i in order], order + [s.n + 1], np.array([[1, 2], [3, 4]])):
        outcome = verify_certificate(s, _with_data(v, ordering=edit))
        assert _failed(outcome) == {"ordering valid"}, edit


def test_a_malformed_alpha_witness_fails_its_checks():
    s = generate("bennett")
    v = decide(s)
    assert v.certificate.kind == "MinDimNoSimplicial"
    for edit in (5, None, [[1, 2]], ["1", "2", "3"], [1.0, 2.0, 3.0]):
        outcome = verify_certificate(s, _with_data(v, alpha_witness=edit))
        assert _failed(outcome) == {
            "witness distinct and in range", "witness independent in host",
            "witness size meets rank", "witness spans effective space"}, edit


@pytest.mark.parametrize("spec,kind,key", [
    ("tiles", "AlphaLessThanChi", "search_budget"),
    ("example2", "NonChordalSandwichAtMinDim", "search_budget"),
    ("example2", "NonChordalSandwichAtMinDim", "sandwich_budget"),
])
@pytest.mark.parametrize("value", [None, "5"])
def test_a_malformed_budget_fails_the_search(spec, kind, key, value):
    s = generate(spec)
    v = decide(s)
    assert v.certificate.kind == kind
    forged = dataclasses.replace(v, parameters=dict(v.parameters, **{key: value}))
    assert _failed(verify_certificate(s, forged)) == {"search within budget"}


@pytest.mark.parametrize("key", ["max_iter", "sandwich_budget", "search_budget"])
@pytest.mark.parametrize("value", [2.5, True, -1, "5"])
def test_decide_options_refuse_a_budget_that_is_no_int_from_zero(key, value):
    # such a budget reached the verdict, which then failed "search within
    # budget" (tiles with search_budget 2.5 or True, example2 with
    # sandwich_budget 25.0)
    assert getattr(DecideOptions(**{key: 0}), key) == 0
    with pytest.raises(InvalidInput, match=key):
        DecideOptions(**{key: value})


def test_malformed_sandwich_edges_fail_their_checks():
    s, direction, kind = brute.pinned_set("sandwich")
    v = decide(s, direction)
    assert v.certificate.kind == kind == "ChordalSandwich"
    assert verify_certificate(s, _with_data(v, sandwich_edges=[
        list(e) for e in v.certificate.data["sandwich_edges"]])).ok
    for edit in (5, None, [[1]], [[1, 99]], [[1, 1]], [[1, 2, 3]], [1, 2], [[0.0, 1.0]]):
        outcome = verify_certificate(s, _with_data(v, sandwich_edges=edit))
        assert _failed(outcome) == {"between bounds", "sandwich chordal"}, edit


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
def test_analyzing_a_ring_factors_nothing(monkeypatch, direction):
    # the alpha(host) witness proves d_eff, so no SVD of any shape is taken
    s = generate("bullseye:11")
    work = s if direction == ALICE_FIRST else s.swapped()
    factorised, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
        factorised.append(np.shape(a)) or svd(a, *args, **kwargs)))
    report = analyze(work)
    assert report.d_eff == report.alpha_host == len(report.alpha_witness) == work.d_alice
    assert factorised == []


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


def _with_plans(verdict, plans):
    """The verdict with Bob's columns taken from the given plans, in order."""
    widths = [len(p.labels) for p in plans]
    return _with_protocol(
        verdict,
        bob_basis=np.concatenate([p.basis for p in plans], axis=1),
        bob_outcomes=np.repeat([p.outcome for p in plans], widths),
        bob_labels=np.array([l for p in plans for l in p.labels], dtype=str),
    )


def _forged_protocols():
    """Forged protocols on example1 alice-first, each with the one check it
    fails: (states, verdict, failed check)."""
    s = generate("example1")
    v = decide(s)
    alice = v.protocol.alice
    everyone = np.ones((1, s.n), dtype=bool)
    # Alice does nothing and Bob "measures" the four Bob vectors of C^3,
    # two of them equal
    idle = Povm(np.eye(s.d_alice, dtype=complex), np.ones(s.d_alice),
                np.ones(s.d_alice, dtype=int), everyone.repeat(s.d_alice, axis=0))
    vectors = BobPlan(1, s.bob.T.copy(), s.labels)
    # every plan counts its first state twice
    doubled = [
        dataclasses.replace(
            p, basis=np.column_stack([p.basis, p.basis[:, 0]]),
            labels=p.labels + p.labels[:1],
        )
        for p in v.protocol.bob
    ]
    # a +0.5/-0.5 pair cancels out of every figure but positivity
    signed = Povm(
        np.concatenate([alice.directions, alice.directions[[0, 0]]]),
        np.concatenate([alice.weights, [0.5, -0.5]]),
        np.concatenate([alice.outcomes, alice.outcomes[[0, 0]]]),
        np.concatenate([alice.supports, everyone.repeat(2, axis=0)]),
    )
    return s, v, [
        (_with_plans(_with_protocol(v, alice=idle), [vectors]),
         "bob plans are measurements"),
        (_with_plans(v, doubled), "bob plans are measurements"),
        (_with_protocol(v, alice=signed), "povm elements positive"),
    ]


def test_forged_protocols_fail_their_checks():
    s, v, forgeries = _forged_protocols()
    assert verify_certificate(s, v).ok
    for forged, failed in forgeries:
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
    outcome = verify_certificate(s, _with_plans(v, plans))
    detail = {name: d for name, _, d in outcome.checks}["bob plans are measurements"]
    assert detail == f"outcomes {expected}"


def _tilted(plan, overlap):
    """The plan with its first column turned towards its second, to the
    given overlap."""
    basis = plan.basis.copy()
    basis[:, 0] = (basis[:, 0] + overlap * basis[:, 1]) / np.sqrt(1 + overlap ** 2)
    return dataclasses.replace(plan, basis=basis)


def test_one_pass_check_matches_the_per_plan_references():
    # check_protocol tests the plans and simulates in one pass; each forgery
    # must fail the outcomes the per-plan check fails, and simulate as the
    # plan-by-plan reference does
    s = generate("path-rep:8")
    v = decide(s, BOB_FIRST)
    work = s.swapped()
    plans = list(v.protocol.bob)
    assert len(plans[1].labels) >= 2
    stranger = next(l for l in plans[1].labels if l not in plans[2].labels)
    p = v.protocol
    perm = np.random.default_rng(26).permutation(len(p.bob_outcomes))
    forgeries = {
        "as decided": (v, []),
        "plans in reverse": (_with_plans(v, plans[::-1]), []),
        "columns interleaved": (_with_protocol(
            v, bob_basis=p.bob_basis[:, perm], bob_outcomes=p.bob_outcomes[perm],
            bob_labels=p.bob_labels[perm]), []),
        "a label naming no state": (_with_plans(v, plans[:2] + [dataclasses.replace(
            plans[2], labels=("x",) + plans[2].labels[1:])] + plans[3:]), [3]),
        "an outcome without columns": (_with_plans(v, plans[:1] + plans[2:]), []),
        "a label repeated across outcomes": (_with_plans(v, plans[:2] + [dataclasses.replace(
            plans[2], labels=(stranger,) + plans[2].labels[1:])] + plans[3:]), []),
        # above decide's 100 zero_tol, within verify's 10 rank_tol
        "tilted 3e-7": (_with_plans(v, plans[:1] + [_tilted(plans[1], 3e-7)] + plans[2:]), []),
        "tilted 1e-3": (_with_plans(v, plans[:1] + [_tilted(plans[1], 1e-3)] + plans[2:]), [2]),
    }
    for name, (forged, expected) in forgeries.items():
        protocol = forged.protocol
        bad, sim = check_protocol(work, protocol)
        assert bad == _per_plan_non_measurements(protocol.bob, set(s.labels)) == expected, name
        details = {n: d for n, _, d in verify_certificate(s, forged).checks}
        assert details["bob plans are measurements"] == f"outcomes {expected}", name
        assert (sim is None) == bool(bad), name
        if sim is not None:
            assert sim == simulate(work, protocol), name
        _assert_simulation_matches_reference(work, protocol, sim)
    # the lift holds Bob's own vectors to 100 zero_tol: the 3e-7 tilt, put
    # into the states, makes it refuse the splitting it lifted before
    tilted = _tilted(plans[1], 3e-7)
    moved = work.bob.copy()
    moved[work.labels.index(tilted.labels[0])] = tilted.basis[:, 0]
    with pytest.raises(NonOrthogonalBobClique, match=r"overlap \([1-9.]+e-07\)"):
        synthesize_protocol(ProductStateSet.from_vectors(work.alice, moved, work.labels),
                            v.decomposition)


def _pairwise_elimination_ordering(g, order) -> bool:
    """Whether order lists every vertex once and each vertex's later
    neighbours are pairwise adjacent, pair by pair."""
    if sorted(order) != list(g.vertices):
        return False
    for k, v in enumerate(order):
        later = [u for u in order[k + 1:] if g.has_edge(u, v)]
        if any(not g.has_edge(x, y) for i, x in enumerate(later) for y in later[i + 1:]):
            return False
    return True


def _random_elimination_ordering(g, rng):
    """A perfect elimination ordering of chordal g: a random simplicial
    vertex of what is left, again and again."""
    left, order = set(g.vertices), []
    while left:
        simplicial = [v for v in sorted(left) if all(
            g.has_edge(x, y) for x, y in itertools.combinations(
                [u for u in sorted(left) if g.has_edge(u, v)], 2))]
        v = simplicial[int(rng.integers(len(simplicial)))]
        order.append(v)
        left.remove(v)
    return tuple(order)


def test_verify_checks_any_other_ordering_pair_by_pair():
    # verify takes the ordering is_chordal kept on the graph as proved; a
    # valid ordering that differs from it must pass, and every ordering the
    # pairwise reference rejects must fail
    rng = np.random.default_rng(26)
    other_valid = 0
    for _ in range(10):
        states, g = brute.random_product_instance(int(rng.integers(4, 9)), rng)
        v = decide(states)
        kept = tuple(v.certificate.data["ordering"])
        assert kept == is_chordal(states.build_graphs().alice).ordering
        orders = [kept, kept[::-1], _random_elimination_ordering(g, rng)]
        orders += [tuple(int(u) for u in rng.permutation(g.n) + 1) for _ in range(6)]
        orders += [kept[:-1], kept + kept[:1]]
        for order in orders:
            forged = _forge(v, certificate=Certificate(v.certificate.kind,
                                                       {"ordering": list(order)}))
            valid = _pairwise_elimination_ordering(g, order)
            assert _failed(verify_certificate(states, forged, success_tol=1e-6)) == (
                set() if valid else {"ordering valid"}), order
            other_valid += valid and order != kept
    assert other_valid >= 10


def test_malformed_protocols_fail_the_dimension_check():
    # each of these raised inside the simulation instead of failing a check
    s = generate("example1")
    v = decide(s, ALICE_FIRST)
    alice, basis = v.protocol.alice, v.protocol.bob_basis
    for malformed in (
        _with_protocol(v, bob_basis=np.vstack([basis, basis[:1]])),
        _with_protocol(v, alice=dataclasses.replace(
            alice, directions=alice.directions[:, :1])),
    ):
        outcome = verify_certificate(s, malformed)
        assert _failed(outcome) == {"protocol dimension"}
        ran = {name for name, _, _ in outcome.checks}
        assert "protocol succeeds" not in ran
    # a label without a column, or a direction shorter than the others,
    # makes no protocol at all
    with pytest.raises(InvalidInput):
        dataclasses.replace(v.protocol, bob_labels=np.append(v.protocol.bob_labels, "4"))
    with pytest.raises(InvalidInput):
        dataclasses.replace(alice, directions=alice.directions[0])


def test_outcome_without_a_bob_plan_gives_up():
    # a missing plan raised InvalidInput from Protocol.plan_for
    s = generate("example1")
    v = decide(s)
    outcome = verify_certificate(s, _with_plans(v, v.protocol.bob[1:]))
    assert _failed(outcome) == {"protocol succeeds"}


_S2 = np.sqrt(2)
_K0, _K1 = np.eye(2)
_PLUS, _MINUS = (_K0 + _K1) / _S2, (_K0 - _K1) / _S2
_E = np.eye(4)


@pytest.mark.parametrize("alice,bob,options,status,kind,data", [
    pytest.param(
        [_K0, _PLUS, _MINUS, _K1], list(_E), None,
        DISTINGUISHABLE, "ChordalBobComplement", {}, id="chordal-host",
    ),
    pytest.param(
        # the sandwich is the union of the host cliques {1,2,3,5} and {1,3,4,6}
        *brute.QUBIT_COVER, None, DISTINGUISHABLE, "ChordalSandwich",
        {"sandwich_edges": [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [2, 3], [2, 5],
                            [3, 4], [3, 5], [3, 6], [4, 6]]},
        id="qubit-cover",
    ),
    pytest.param(
        [_MINUS, (_K0 - 1j * _K1) / _S2, (_K0 + 1j * _K1) / _S2, _PLUS, _MINUS],
        [(_E[1] + _E[2]) / _S2, (_E[1] - _E[2]) / _S2, (_E[1] - _E[2]) / _S2,
         _E[0], (_E[0] + _E[3]) / _S2],
        DecideOptions(sandwich_budget=0),
        INDISTINGUISHABLE, "SpanningObstruction", {},
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


@pytest.mark.parametrize("spec", ["tiles", "bennett", "bennett-subset:2,8,6,4,9"])
def test_decide_runs_one_independence_search_per_eta_bound(monkeypatch, spec):
    # the upper bound is chi(complement(host)), whose clique number is the
    # lower bound alpha(host); one clique search of Bob's overlap graph, the
    # host's complement, yields both, and no other search runs
    import loccgraph.graphs as graphs

    searched = []
    original = graphs.clique_search

    def counting(g, *args):
        searched.append(g)
        return original(g, *args)

    monkeypatch.setattr(graphs, "clique_search", counting)
    v = decide(generate(spec))
    assert "eta_host" in v.parameters
    assert len(searched) == 1


def _assert_simulation_matches_reference(states, protocol, sim=None):
    sim = sim or simulate(states, protocol)
    ref = brute.reference_simulation(states, protocol)
    assert [label for label, _ in sim.per_state] == list(states.labels)
    assert np.allclose([p for _, p in sim.per_state],
                       [ref["per_state"][label] for label in states.labels],
                       rtol=0, atol=1e-12)
    for key in ("min_success", "completeness_deviation", "max_support_leakage"):
        assert getattr(sim, key) == pytest.approx(ref[key], rel=0, abs=1e-12), key


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
def test_simulation_matches_the_element_by_element_reference(direction):
    ran = 0
    for specs in brute.SWEEP_SPECS.values():
        for spec in specs:
            s = generate(spec)
            v = decide(s, direction)
            if v.status == DISTINGUISHABLE:
                work = s if direction == ALICE_FIRST else s.swapped()
                _assert_simulation_matches_reference(work, v.protocol)
                ran += 1
    assert ran >= 7


def test_forged_protocol_simulations_match_the_reference():
    s, v, forgeries = _forged_protocols()
    for forged, _ in forgeries:
        _assert_simulation_matches_reference(s, forged.protocol)
    # and a declared support narrower than the states an element sees
    leaky = dataclasses.replace(
        v.protocol.alice, supports=np.eye(s.n, dtype=bool)[np.zeros(
            len(v.protocol.alice.weights), dtype=int)])
    _assert_simulation_matches_reference(s, dataclasses.replace(v.protocol, alice=leaky))


# the Distinguishable small sets whose measuring side has more states than
# dimensions, so Cholesky refuses their Gram matrix and the peel takes the
# elimination loop
_SINGULAR_PEELS = [
    *((f"bennett-subset:{','.join(str(t) for t in range(1, 10) if t not in gone)}",
       direction)
      for direction, pairs in ((ALICE_FIRST, ({7, 9}, {7, 8}, {6, 9}, {6, 8})),
                               (BOB_FIRST, ({3, 5}, {3, 4}, {2, 5}, {2, 4})))
      for gone in pairs),
    ("example1", ALICE_FIRST), ("example1", BOB_FIRST), ("example2", BOB_FIRST),
]


@pytest.mark.parametrize("spec,direction", _SINGULAR_PEELS)
def test_singular_peels_decide_and_verify(spec, direction, monkeypatch):
    from loccgraph import decomposition

    loops = []
    original = decomposition._eliminated_pieces

    def counting(*args):
        loops.append(args)
        return original(*args)

    monkeypatch.setattr(decomposition, "_eliminated_pieces", counting)
    s = generate(spec)
    v = decide(s, direction)
    assert (v.status, v.certificate.kind) == (DISTINGUISHABLE, "ChordalAliceGraph")
    assert len(loops) == 1
    assert v.simulation.min_success >= 1 - 1e-9
    outcome = verify_certificate(s, v)
    assert outcome.ok, outcome.checks


@pytest.mark.parametrize("direction", [ALICE_FIRST, BOB_FIRST])
def test_verify_runs_one_independence_search_for_alpha_below_chi(monkeypatch, direction):
    # verify's AlphaLessThanChi check reads alpha(host) and chi(bob) off one
    # eta_bounds_of_complement call: chi(bob) is chi(complement(host)), whose
    # clique number is alpha(host), so one clique search of Bob's graph
    # gives both. On a fresh copy of the set, since on the set decide
    # searched, verify reads the search decide kept
    import loccgraph.graphs as graphs

    s = generate("tiles")
    v = decide(s, direction)
    assert v.certificate.kind == "AlphaLessThanChi"
    searched = []
    original = graphs.clique_search

    def counting(g, *args):
        searched.append(g)
        return original(g, *args)

    monkeypatch.setattr(graphs, "clique_search", counting)
    fresh = ProductStateSet(s.alice, s.bob, s.labels)
    assert verify_certificate(fresh, v).ok
    assert len(searched) == 1
