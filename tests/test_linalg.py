import numpy as np
import pytest

from loccgraph.errors import (
    DimensionMismatch,
    NotInRange,
    ZeroVector,
)
from loccgraph.linalg import (
    DEFAULT_TOL,
    Tolerance,
    complete_basis,
    eigh_desc,
    frame,
    gram,
    hermitize,
    least_squares_preimage,
    numeric_rank,
    orthonormal_columns,
    psd_check,
    svd,
    thin_svd,
)


def test_tolerance_rejects_nonpositive():
    with pytest.raises(ValueError):
        Tolerance(zero_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(psd_tol=-1e-9)


def test_hermitize_symmetrizes():
    m = np.array([[1.0, 2.0 + 1e-12j], [2.0 - 3e-12j, 5.0]])
    h = hermitize(m)
    assert np.allclose(h, h.conj().T)


def test_frame_and_gram_shapes():
    x = frame([[1, 0], [1, 1]])
    assert x.shape == (2, 2)
    g = gram([[1, 0], [1, 1]])
    assert np.allclose(g, g.conj().T)
    assert np.allclose(g[0, 1], 1.0)
    with pytest.raises(DimensionMismatch):
        frame([[1, 0], [1, 0, 0]])


def test_gram_conjugates_first_slot():
    g = gram([[1.0, 0.0], [0.0, 1.0j]])
    # entry (i, j) = <v_i, v_j>; both are plain basis vectors here so the
    # off-diagonal vanishes, the diagonal must stay real
    assert np.allclose(np.diag(g), [1.0, 1.0])
    g2 = gram([[1.0, 1.0], [1.0, 1.0j]])
    assert np.isclose(g2[0, 1], 1.0 + 1.0j)
    assert np.isclose(g2[1, 0], 1.0 - 1.0j)


def test_psd_check():
    ok, smallest = psd_check(np.eye(3))
    assert ok and smallest == pytest.approx(1.0)
    ok, smallest = psd_check(np.diag([1.0, -1.0]))
    assert not ok and smallest == pytest.approx(-1.0)
    # tiny negative dust is tolerated
    ok, _ = psd_check(np.diag([1.0, -1e-10]))
    assert ok


def test_numeric_rank():
    assert numeric_rank(np.eye(4)) == 4
    v = np.array([[1.0], [1.0]])
    assert numeric_rank(v @ v.T) == 1
    assert numeric_rank(np.zeros((3, 3))) == 0
    x = np.array([[1.0, 1.0], [0.0, 1e-12]])
    assert numeric_rank(x) == 1


def test_eigh_desc_order():
    w, v = eigh_desc(np.diag([1.0, 3.0, 2.0]))
    assert list(w) == [3.0, 2.0, 1.0]
    recon = v @ np.diag(w) @ v.conj().T
    assert np.allclose(recon, np.diag([1.0, 3.0, 2.0]))


def test_least_squares_preimage_exact():
    x = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    phi, mu = least_squares_preimage(x, [1.0, 0.0])
    assert mu > 0
    assert np.allclose(x.conj().T @ phi, np.array([1.0, 0.0]) / mu)
    assert np.isclose(np.linalg.norm(phi), 1.0)


def test_least_squares_preimage_rejects_unreachable():
    # column space of x* is span{(1, 1)}; (1, -1) has no preimage
    x = np.array([[1.0, 1.0]], dtype=complex)
    with pytest.raises(NotInRange):
        least_squares_preimage(x, [1.0, -1.0])
    with pytest.raises(ZeroVector):
        least_squares_preimage(x, [0.0, 0.0])


def test_orthonormal_columns_drops_dependent():
    cols = [np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 1.0])]
    q = orthonormal_columns(cols, 2)
    assert q.shape == (2, 2)
    assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-12)


def test_complete_basis_unitary():
    partial = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    full = complete_basis(partial)
    assert full.shape == (3, 3)
    assert np.allclose(full.conj().T @ full, np.eye(3), atol=1e-12)
    assert np.allclose(full[:, 0], partial[:, 0])


def test_default_tolerances():
    assert DEFAULT_TOL.zero_tol == pytest.approx(1e-9)
    assert DEFAULT_TOL.psd_tol == pytest.approx(1e-8)
    assert DEFAULT_TOL.rank_tol == pytest.approx(1e-7)


def test_orthonormal_columns_rank_cut_is_relative():
    # a tiny but well-conditioned family keeps its full rank
    cols = [1e-9 * np.array([1.0, 0.0, 0.0]), 1e-9 * np.array([0.0, 1.0, 0.0]),
            1e-9 * np.array([1.0, 1.0, 0.0])]
    q = orthonormal_columns(cols, 3)
    assert q.shape == (3, 2)
    assert np.allclose(q.conj().T @ q, np.eye(2), atol=1e-12)
    assert orthonormal_columns([], 3).shape == (3, 0)
    with pytest.raises(DimensionMismatch):
        orthonormal_columns([np.ones(2)], 3)


def test_complete_basis_keeps_columns_and_rejects_bad_input():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    partial, _ = np.linalg.qr(z)
    full = complete_basis(partial)
    assert full.shape == (6, 6)
    assert np.array_equal(full[:, :2], partial)
    assert np.allclose(full.conj().T @ full, np.eye(6), atol=1e-12)
    assert complete_basis(np.zeros((3, 0))).shape == (3, 3)
    with pytest.raises(DimensionMismatch):
        complete_basis(np.array([[1.0, 1.0], [0.0, 1e-3], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        complete_basis(np.eye(2, 3))


def test_least_squares_preimage_columns_match_vector_calls():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    rhs = x.conj().T @ (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
    phis, mus = least_squares_preimage(x, rhs)
    assert phis.shape == (3, 4) and mus.shape == (4,)
    for c in range(4):
        phi, mu = least_squares_preimage(x, rhs[:, c])
        assert np.allclose(phis[:, c], phi) and np.isclose(mus[c], mu)
    # every column keeps its own residual and zero checks
    x1 = np.array([[1.0, 1.0]], dtype=complex)
    with pytest.raises(NotInRange):
        least_squares_preimage(x1, np.array([[1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ZeroVector):
        least_squares_preimage(x1, np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        least_squares_preimage(x1, np.ones((3, 2)))


@pytest.mark.parametrize("full_matrices", [True, False])
def test_svd_falls_back_to_the_conjugate_transpose(monkeypatch, full_matrices):
    # LAPACK failing on the matrix itself is simulated: the first call raises
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    expected = np.linalg.svd(m, full_matrices=full_matrices)
    lapack = np.linalg.svd
    calls = []

    def flaky(a, *args, **kwargs):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return lapack(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    u, sv, vh = svd(m, full_matrices=full_matrices)
    assert calls == [(3, 5), (5, 3)]
    assert u.shape == expected[0].shape and vh.shape == expected[2].shape
    assert np.allclose(sv, expected[1])
    k = len(sv)
    assert np.allclose((u[:, :k] * sv) @ vh[:k], m)
    assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]))
    assert np.allclose(vh @ vh.conj().T, np.eye(vh.shape[0]))
    calls.clear()  # the next call fails as well, asking for values only
    assert np.allclose(svd(m, compute_uv=False), expected[1])
    assert numeric_rank(m) == 3 and thin_svd(m)[1].shape == (3,)


def test_svd_raises_when_both_factorisations_fail(monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(np.linalg.LinAlgError):
        svd(np.eye(2))
