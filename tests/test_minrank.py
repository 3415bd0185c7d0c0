import numpy as np
import pytest

from loccgraph.graphs import cycle_graph, path_graph
from loccgraph.linalg import numeric_rank
from loccgraph.minrank import pattern_constrained_lowrank, vectors_from_gram


def _pattern_ok(m, g, floor=1e-3):
    n = g.n
    for i in range(n):
        if not np.isclose(m[i, i], 1.0):
            return False
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            entry = abs(m[i - 1, j - 1])
            if g.has_edge(i, j):
                if entry < floor:
                    return False
            elif entry > 1e-12:
                return False
    return True


def test_cycle_rank_two_below_minimum_fails():
    # a C_5-patterned Gram matrix of rank 2 cannot exist; the search must
    # give up rather than fake one
    assert pattern_constrained_lowrank(cycle_graph(5), 2) is None


def test_cycle_rank_n_minus_two_found():
    g = cycle_graph(5)
    m = pattern_constrained_lowrank(g, 3)
    assert m is not None
    assert _pattern_ok(m, g)
    w = np.linalg.eigvalsh(m)
    assert w[0] >= -1e-9
    assert w[1] <= 1e-7  # rank at most 3 out of 5


def test_path_rank_matches_construction():
    g = path_graph(4)
    m = pattern_constrained_lowrank(g, 3)
    assert m is not None
    assert _pattern_ok(m, g)


def test_vectors_from_gram_reconstructs():
    g = cycle_graph(6)
    m = pattern_constrained_lowrank(g, 4)
    assert m is not None
    x = vectors_from_gram(m, rank=4)
    assert x.shape == (4, 6)
    assert np.abs(x.conj().T @ x - m).max() <= 1e-7


@pytest.mark.parametrize("n", range(4, 31))
def test_cycles_and_paths_reach_their_minimum_rank(n):
    # msr(C_n) = n - 2 and msr(P_n) = n - 1; one rank lower does not exist
    for g, r in ((cycle_graph(n), n - 2), (path_graph(n), n - 1)):
        m = pattern_constrained_lowrank(g, r)
        assert m is not None
        assert _pattern_ok(m, g)
        assert np.linalg.eigvalsh(m)[0] >= -1e-9
        assert numeric_rank(m) == r
        assert pattern_constrained_lowrank(g, r - 1) is None


def test_full_rank_identity():
    x = vectors_from_gram(np.eye(3))
    assert x.shape == (3, 3)
    assert np.allclose(x.conj().T @ x, np.eye(3), atol=1e-12)
