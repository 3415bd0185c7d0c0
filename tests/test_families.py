import numpy as np
import pytest

from loccgraph.errors import InvalidSpec
from loccgraph.families import (
    FAMILIES,
    bullseye_expected_alice,
    family_invariant_report,
    generate,
    parse_family,
)
from loccgraph.graphs import complement, cycle_graph, find_isomorphism


def test_parse_family_formats():
    assert parse_family("example1") == ("example1", {})
    assert parse_family("  Bullseye:4 ") == ("bullseye", {"d": 4})
    assert parse_family("bennett-subset:2,8,6,4,9") == (
        "bennett-subset", {"labels": ("2", "8", "6", "4", "9")}
    )
    assert parse_family("cycle-rep:6") == ("cycle-rep", {"n": 6})
    with pytest.raises(InvalidSpec):
        parse_family("no-such-family")
    with pytest.raises(InvalidSpec):
        parse_family("bullseye")  # needs a size
    with pytest.raises(InvalidSpec):
        parse_family("bullseye:big")
    with pytest.raises(InvalidSpec):
        parse_family("example1:3")
    with pytest.raises(InvalidSpec):
        parse_family("bennett-subset")


def test_every_fixed_family_passes_invariants():
    for spec in ("example1", "example2", "example3", "example4",
                 "pentagon-path", "bennett", "tiles",
                 "bennett-subset:2,8,6,4,9", "bennett-subset:2,8,6,9,7"):
        rep = family_invariant_report(spec)
        assert rep.ok, (spec, rep.checks)


def test_all_generators_orthonormal():
    for spec in ("example2", "bennett", "tiles", "bullseye:4",
                 "bullseye-recursive:3", "cycle-rep:5", "path-rep:6"):
        states = generate(spec)
        assert states.validate_orthonormal().ok, spec


def test_bennett_layout():
    s = generate("bennett")
    assert (s.n, s.d_alice, s.d_bob) == (9, 3, 3)
    g = s.build_graphs()
    assert len(g.alice.edges) == 18
    assert g.bob == complement(g.alice)


def test_bennett_subset_relabeling():
    s = generate("bennett-subset:2,8,6,4,9")
    assert s.labels == ("2", "8", "6", "4", "9")
    ga = s.build_graphs().alice
    # the subset inherits exactly the induced overlaps of the full family
    assert sorted(ga.edges) == [(1, 2), (1, 5), (2, 3), (3, 4), (3, 5)]


def test_tiles_pattern():
    s = generate("tiles")
    g = s.build_graphs()
    assert find_isomorphism(g.alice, cycle_graph(5)) is not None
    assert g.bob == complement(g.alice)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_bullseye_structure(d):
    s = generate(f"bullseye:{d}")
    assert s.n == 4 * d - 3
    g = s.build_graphs()
    assert g.alice == bullseye_expected_alice(d)
    assert g.bob == complement(g.alice)
    assert find_isomorphism(g.alice, g.bob) is not None
    assert family_invariant_report(f"bullseye:{d}", s).ok


def test_bullseye_three_matches_bennett_shape():
    g = generate("bullseye:3").build_graphs().alice
    h = generate("bennett").build_graphs().alice
    assert find_isomorphism(g, h) is not None


def test_bullseye_recursive_counts():
    for d in (1, 3, 5):
        s = generate(f"bullseye-recursive:{d}")
        assert s.n == d * d
        g = s.build_graphs()
        assert g.bob == complement(g.alice)
    with pytest.raises(InvalidSpec):
        generate("bullseye-recursive:4")


def test_bullseye_recursive_is_seeded():
    a = generate("bullseye-recursive:5", seed=3)
    b = generate("bullseye-recursive:5", seed=3)
    c = generate("bullseye-recursive:5", seed=4)
    assert np.allclose(a.alice, b.alice)
    assert not np.allclose(a.alice, c.alice)


@pytest.mark.parametrize("n", range(4, 25))
def test_cycle_rep_structure(n):
    s = generate(f"cycle-rep:{n}")
    assert (s.n, s.d_alice) == (n, n - 2)
    rep = family_invariant_report(f"cycle-rep:{n}", s)
    assert rep.ok
    # the construction is closed form: the seed does not reach it
    other = generate(f"cycle-rep:{n}", seed=7)
    assert np.array_equal(s.alice, other.alice)
    assert np.array_equal(s.bob, other.bob)


def test_path_rep_structure():
    for n in (2, 3, 5, 8):
        s = generate(f"path-rep:{n}")
        assert (s.n, s.d_alice) == (n, n - 1)
        assert family_invariant_report(f"path-rep:{n}", s).ok


def test_family_list_is_complete():
    for name in FAMILIES:
        spec = {
            "bennett-subset": "bennett-subset:2,8,6,4,9",
            "bullseye": "bullseye:3",
            "bullseye-recursive": "bullseye-recursive:3",
            "cycle-rep": "cycle-rep:4",
            "path-rep": "path-rep:4",
        }.get(name, name)
        states = generate(spec)
        assert states.n >= 1
