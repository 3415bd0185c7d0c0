"""Bipartite product-state sets and their overlap graphs.

A set of n product states a_i (x) b_i is stored as two stacked read-only
arrays of local vectors, and each side's Gram matrix is computed once, when
the set is built. The overlap graph on either side joins i and j when the
local inner product is nonzero; for a mutually orthogonal product set every
pair must be orthogonal on at least one side, so the two overlap graphs
never share an edge.

A set is immutable, so what the decision ladder reads about it is derived
at most once per set, only when first read, and kept on it:

- per zero_tol, from one pass over the magnitudes of the two Grams: the
  orthonormality report, and the Alice, Bob and host overlap graphs (the
  host is the Alice graph itself when they are equal), each keeping its
  read-only adjacency matrix and edge count; with the StateGraphs, the
  sandwich-simplicial vertices;
- per rank_tol: the rank of the measuring side's frame and its SVD, whose
  left factor is an orthonormal basis of the span. The rank is proved
  without a factorisation by d_alice states whose block of the Gram is
  diagonally dominant enough (proves_full_rank), or else read off the SVD;
  an SVD taken after a proved rank is cut at it, so the two agree;
- the swapped set (the same object on every call, whose own swapped() is
  this set), and the labels as a read-only array with each label's
  position.

Each Graph in turn keeps its chordality, maximal cliques and simplicial
vertices (see graphs). Nothing is kept at module level and nothing derived
from a verdict or certificate is kept, so verify_certificate re-checks each
certificate against the states alone. The swapped set refers back to its
origin weakly, so keeping only the swapped set does not keep the other
alive.
"""

from __future__ import annotations

import weakref
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotMutuallyOrthogonal, ZeroVector
from .graphs import Graph, sandwich_simplicial_vertices, simplicial_vertices
from .linalg import DEFAULT_TOL, Tolerance, thin_svd


@dataclass(frozen=True)
class StateGraphs:
    """Overlap graphs: an edge means the local parts are NOT orthogonal."""

    alice: Graph
    bob: Graph
    # bob's complement, passed as the Alice graph itself when equal to it
    host: InitVar[Graph]

    def __post_init__(self, host: Graph):
        object.__setattr__(self, "_host", host)

    def bob_orthogonality(self) -> Graph:
        """Pairs whose Bob parts are orthogonal; admissible outcome supports
        are exactly the cliques of this graph. It is the Alice graph itself
        when equal to it, so both share what a graph keeps."""
        return self._host

    @cached_property
    def sandwich_simplicial(self) -> frozenset[int]:
        """Vertices whose closed Alice neighbourhood is a host clique; the
        MinDimNoSimplicial rung needs there to be none."""
        if self._host is self.alice:
            return simplicial_vertices(self.alice)
        return sandwich_simplicial_vertices(self.alice, self._host)


@dataclass(frozen=True)
class OrthonormalityReport:
    ok: bool
    unit_deviations: tuple[tuple[str, float], ...]
    nonorthogonal_pairs: tuple[tuple[str, str, float], ...]


def _intake(
    grams: tuple[np.ndarray, np.ndarray], labels: tuple[str, ...], zero_tol: float
) -> tuple[OrthonormalityReport, StateGraphs]:
    """The orthonormality report and the overlap graphs at zero_tol, from one
    pass over the magnitudes of Alice's and Bob's Grams. The Grams are
    Hermitian, so each graph is built from its block of one boolean array
    without a symmetry check, and keeps that block as its adjacency matrix."""
    ga, gb = grams
    n = len(labels)
    mags = np.empty((2, n, n))
    np.abs(ga, out=mags[0])
    np.abs(gb, out=mags[1])
    off = np.abs(np.diagonal(ga) * np.diagonal(gb) - 1.0)
    units = tuple(
        (labels[i], float(off[i])) for i in np.flatnonzero(off > 10 * zero_tol).tolist()
    )
    # |ga gb| and |ga| |gb| differ by a few ulps, so with a margin far above
    # that the product of the magnitudes clears every pair the product Gram
    # would; only a set with a pair it cannot clear forms the product Gram
    near = mags[0] * mags[1] > zero_tol * (1 - 1e-12)
    np.fill_diagonal(near, False)
    pairs = ()
    if near.any():
        g = ga * gb
        rows, cols = np.nonzero(np.triu(np.abs(g) > zero_tol, k=1))
        pairs = tuple(
            (labels[i], labels[j], float(abs(g[i, j])))
            for i, j in zip(rows.tolist(), cols.tolist())
        )
    # Alice's overlaps, Bob's, and Bob's orthogonality, which is the host
    block = np.empty((3, n, n), dtype=bool)
    np.greater(mags, zero_tol, out=block[:2])
    np.logical_not(block[1], out=block[2])
    diagonal = np.arange(n)
    block[:, diagonal, diagonal] = False
    block.setflags(write=False)
    alice, bob = Graph._from_adjacency(block[0]), Graph._from_adjacency(block[1])
    host = alice if np.array_equal(block[0], block[2]) else Graph._from_adjacency(block[2])
    report = OrthonormalityReport(not units and not pairs, units, pairs)
    return report, StateGraphs(alice, bob, host)


@dataclass(frozen=True, eq=False)
class ProductStateSet:
    alice: np.ndarray
    bob: np.ndarray
    labels: tuple[str, ...]
    # Alice's and Bob's Gram matrices, conjugate-linear in the first slot
    _grams: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    # what is derived from the set once: see the module docstring
    _derived: dict = field(init=False, repr=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.alice, dtype=complex))
        b = np.atleast_2d(np.asarray(self.bob, dtype=complex))
        if a.ndim != 2 or b.ndim != 2:
            raise DimensionMismatch("state arrays must be two-dimensional")
        if a.shape[0] != b.shape[0]:
            raise DimensionMismatch(
                f"{a.shape[0]} Alice rows vs {b.shape[0]} Bob rows"
            )
        if a.shape[0] < 1:
            raise InvalidInput("need at least one state")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != a.shape[0]:
            raise InvalidInput(f"{len(labels)} labels for {a.shape[0]} states")
        if len(set(labels)) != len(labels):
            raise InvalidInput("state labels must be unique")
        for side, x in (("Alice", a), ("Bob", b)):
            zero = np.flatnonzero(np.linalg.norm(x, axis=1) == 0.0)
            if zero.size:
                raise ZeroVector(f"{side} part of state {labels[zero[0]]} is zero")
        grams = (a.conj() @ a.T, b.conj() @ b.T)
        for g in grams:  # its Hermitian part, formed in place
            np.add(g, g.conj().T, out=g)
            g *= 0.5
        for x in (a, b, *grams):
            x.setflags(write=False)
        object.__setattr__(self, "alice", a)
        object.__setattr__(self, "bob", b)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_grams", grams)
        object.__setattr__(self, "_derived", {})

    def __getstate__(self) -> dict:
        # a copy derives its own facts: the kept swapped set's weak
        # reference back cannot be pickled
        return dict(self.__dict__, _derived={})

    @classmethod
    def from_vectors(
        cls,
        alice: Iterable[Sequence[complex]],
        bob: Iterable[Sequence[complex]],
        labels: Optional[Iterable[str]] = None,
        normalize: bool = True,
    ) -> "ProductStateSet":
        a = np.array([np.asarray(v, dtype=complex) for v in alice])
        b = np.array([np.asarray(v, dtype=complex) for v in bob])
        if normalize and a.size and b.size:
            na = np.linalg.norm(a, axis=1, keepdims=True)
            nb = np.linalg.norm(b, axis=1, keepdims=True)
            if (na == 0).any() or (nb == 0).any():
                raise ZeroVector("cannot normalize a zero local vector")
            a, b = a / na, b / nb
        if labels is None:
            labels = tuple(str(i) for i in range(1, a.shape[0] + 1))
        return cls(a, b, tuple(labels))

    @property
    def n(self) -> int:
        return self.alice.shape[0]

    @property
    def d_alice(self) -> int:
        return self.alice.shape[1]

    @property
    def d_bob(self) -> int:
        return self.bob.shape[1]

    def index_of(self, label: str) -> int:
        """1-based index of a label."""
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise InvalidInput(f"no state labeled {label!r}") from None

    def _label_index(self) -> tuple[np.ndarray, dict[str, int]]:
        """The labels as a read-only array, and each label's 0-based position."""
        if "labels" not in self._derived:
            names = np.asarray(self.labels)
            names.setflags(write=False)
            self._derived["labels"] = (names, {l: i for i, l in enumerate(self.labels)})
        return self._derived["labels"]

    def label_array(self) -> np.ndarray:
        """The labels as a read-only array of strings."""
        return self._label_index()[0]

    def label_positions(self, labels) -> np.ndarray:
        """0-based index of the state each label names, -1 where none does."""
        at = self._label_index()[1]
        names = np.asarray(labels, dtype=str).reshape(-1).tolist()
        return np.array([at.get(l, -1) for l in names], dtype=int)

    def alice_frame(self) -> np.ndarray:
        """Alice's vectors as the columns of a read-only d x n view."""
        return self.alice.T

    def alice_gram(self) -> np.ndarray:
        return self._grams[0]

    def bob_gram(self) -> np.ndarray:
        return self._grams[1]

    def product_gram(self) -> np.ndarray:
        return self._grams[0] * self._grams[1]

    def _overlaps(self, tol: Tolerance) -> tuple[OrthonormalityReport, StateGraphs]:
        key = ("intake", tol.zero_tol)
        if key not in self._derived:
            self._derived[key] = _intake(self._grams, self.labels, tol.zero_tol)
        return self._derived[key]

    def build_graphs(self, tol: Tolerance = DEFAULT_TOL) -> StateGraphs:
        return self._overlaps(tol)[1]

    def alice_rank(self, tol: Tolerance = DEFAULT_TOL) -> int:
        """The numeric rank of Alice's frame: the rank kept by
        proves_full_rank, else the width of alice_svd."""
        rank = self._derived.get(("rank", tol.rank_tol))
        return len(self.alice_svd(tol)[1]) if rank is None else rank

    def proves_full_rank(self, rows: Sequence[int], tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether the states at these 0-based rows, d_alice of them, prove
        that Alice's frame and their own rows have numeric rank d_alice,
        with no factorisation; when they do, d_alice is kept as the rank.

        With B their block of Alice's Gram, B's least eigenvalue, the
        rows' sigma_d squared, is at least min_i (B_ii - sum_{j != i}
        |B_ij|) by Gershgorin's discs, and adding the other states never
        lowers sigma_d; tr(Gram) bounds sigma_1 squared of the frame, and
        of the rows, from above. Past 4 rank_tol^2 tr(Gram), sigma_d /
        sigma_1 exceeds twice rank_tol, which leaves the SVD's O(eps
        sigma_1) error room: numeric_rank counts d_alice values of both.
        """
        if len(rows) != self.d_alice:
            return False
        gram = self._grams[0]
        # |B|, whose diagonal is B's and whose row sums hold it once
        block = np.abs(gram[rows][:, rows])
        least = (2 * block.diagonal() - block.sum(axis=1)).min()
        if least <= 4 * tol.rank_tol ** 2 * gram.trace().real:
            return False
        self._derived.setdefault(("rank", tol.rank_tol), self.d_alice)
        return True

    def alice_svd(
        self, tol: Tolerance = DEFAULT_TOL
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Alice's frame's SVD cut to its numeric rank (linalg.thin_svd), or
        to the rank proves_full_rank kept, as read-only arrays."""
        key = ("svd", tol.rank_tol)
        if key not in self._derived:
            svd = thin_svd(self.alice_frame(), tol, self._derived.get(("rank", tol.rank_tol)))
            for part in svd:
                part.setflags(write=False)
            self._derived[key] = svd
        return self._derived[key]

    def alice_span(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Read-only orthonormal basis (d x d_eff) of the span of Alice's
        vectors: the left factor of alice_svd."""
        return self.alice_svd(tol)[0]

    def validate_orthonormal(self, tol: Tolerance = DEFAULT_TOL) -> OrthonormalityReport:
        return self._overlaps(tol)[0]

    def require_orthonormal(self, tol: Tolerance = DEFAULT_TOL) -> None:
        report = self.validate_orthonormal(tol)
        if report.unit_deviations:
            worst = max(report.unit_deviations, key=lambda t: t[1])
            raise InvalidInput(
                f"state {worst[0]} is not a unit product vector (off by {worst[1]:.3g})"
            )
        if report.nonorthogonal_pairs:
            raise NotMutuallyOrthogonal(report.nonorthogonal_pairs)

    @classmethod
    def _from_parts(cls, alice, bob, labels, grams) -> "ProductStateSet":
        """A set from parts taken out of a validated one: no checks, no Grams
        recomputed."""
        out = object.__new__(cls)
        for x in (alice, bob, *grams):
            x.setflags(write=False)
        for name, value in (("alice", alice), ("bob", bob), ("labels", labels),
                            ("_grams", tuple(grams)), ("_derived", {})):
            object.__setattr__(out, name, value)
        return out

    def swapped(self) -> "ProductStateSet":
        """The parties exchanged; shares this set's arrays and Grams. The
        same set on every call while it lives, and its swapped() is this
        set. The set that made the other holds it and the other refers back
        weakly, so the pair forms no reference cycle."""
        other = self._derived.get("swapped")
        if isinstance(other, weakref.ref):
            other = other()
        if other is None:
            other = self._from_parts(self.bob, self.alice, self.labels, self._grams[::-1])
            self._derived["swapped"] = other
            other._derived["swapped"] = weakref.ref(self)
        return other

    def subset(self, labels: Iterable[str]) -> "ProductStateSet":
        """The named states in the given order; Grams sliced from this set's."""
        idx = [self.index_of(l) - 1 for l in labels]
        if not idx:
            raise InvalidInput("need at least one state")
        if len(set(idx)) != len(idx):
            raise InvalidInput("state labels must be unique")
        block = np.ix_(idx, idx)
        return self._from_parts(
            self.alice[idx, :], self.bob[idx, :],
            tuple(self.labels[i] for i in idx),
            [g[block] for g in self._grams],
        )
