"""Pin BLAS to one thread before numpy loads. loccgraph's matrices are small,
and a multi-threaded BLAS makes them several times slower on a small host; a
thread count set in the environment wins."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def _counted(counts: Counter, name: str, real):
    def call(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)
    return call


@pytest.fixture
def lapack_calls(monkeypatch) -> Counter:
    """Calls to np.linalg.eigh, eigvalsh and cholesky while the test runs,
    by name; clear() starts a new count."""
    counts = Counter()
    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, _counted(counts, name, getattr(np.linalg, name)))
    return counts


@pytest.fixture
def state_searches(monkeypatch) -> Counter:
    """The searches a state set keeps, run while the test runs: "alpha_chi"
    (graphs.clique_search), "sandwich" (graphs.chordal_sandwich, as the set
    calls it), "proof" (the Gershgorin test of proves_full_rank, not the
    lookup of kept rows) and "faces" (decomposition.faces_in_span, by every
    binding); clear() starts a new count."""
    from loccgraph import criteria, decomposition, graphs, states

    counts = Counter()
    for name, owners, attr in (
        ("alpha_chi", (graphs,), "clique_search"),
        ("sandwich", (states,), "chordal_sandwich"),
        ("proof", (states,), "_gershgorin_proves"),
        ("faces", (decomposition, criteria, states), "faces_in_span"),
    ):
        wrapped = _counted(counts, name, getattr(owners[0], attr))
        for owner in owners:
            monkeypatch.setattr(owner, attr, wrapped)
    return counts
