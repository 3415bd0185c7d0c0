"""Pin BLAS to one thread before numpy loads. loccgraph's matrices are small,
and a multi-threaded BLAS makes them several times slower on a small host; a
thread count set in the environment wins."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def lapack_calls(monkeypatch) -> Counter:
    """Calls to np.linalg.eigh, eigvalsh and cholesky while the test runs,
    by name; clear() starts a new count."""
    counts = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts
