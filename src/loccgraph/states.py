"""Bipartite product-state sets and their overlap graphs.

A set of n product states a_i (x) b_i is stored as two stacked read-only
arrays of local vectors, and each side's Gram matrix is computed once, when
the set is built. The overlap graph on either side joins i and j when the
local inner product is nonzero; for a mutually orthogonal product set every
pair must be orthogonal on at least one side, so the two overlap graphs
never share an edge.

A set is immutable, so what the decision ladder reads about it is derived
at most once per set and kept on it: the swapped set (the same object on
every call, whose own swapped() is this set), the overlap graphs per
zero_tol, the admissible host and its sandwich-simplicial vertices per
StateGraphs, the SVD of the measuring side's frame per rank_tol, whose
left factor is an orthonormal basis of the span and whose width is the
effective dimension, and the labels in sorted order (each Graph in turn
keeps its chordality, maximal cliques and simplicial vertices; see
graphs). Nothing is kept at module level and nothing derived from a
verdict or certificate is kept, so verify_certificate re-checks each
certificate against the states alone. The swapped set refers back to its
origin weakly, so keeping only the swapped set does not keep the other
alive.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotMutuallyOrthogonal, ZeroVector
from .graphs import Graph, complement, sandwich_simplicial_vertices
from .linalg import DEFAULT_TOL, Tolerance, hermitize, thin_svd


@dataclass(frozen=True)
class StateGraphs:
    """Overlap graphs: an edge means the local parts are NOT orthogonal."""

    alice: Graph
    bob: Graph

    def bob_orthogonality(self) -> Graph:
        """Pairs whose Bob parts are orthogonal; admissible outcome supports
        are exactly the cliques of this graph."""
        return self._host

    @cached_property
    def _host(self) -> Graph:
        return complement(self.bob)

    @cached_property
    def sandwich_simplicial(self) -> frozenset[int]:
        """Vertices whose closed Alice neighbourhood is a host clique; the
        MinDimNoSimplicial rung needs there to be none."""
        return sandwich_simplicial_vertices(self.alice, self._host)


@dataclass(frozen=True)
class OrthonormalityReport:
    ok: bool
    unit_deviations: tuple[tuple[str, float], ...]
    nonorthogonal_pairs: tuple[tuple[str, str, float], ...]


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
        grams = (hermitize(a.conj() @ a.T), hermitize(b.conj() @ b.T))
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

    def label_positions(self, labels) -> np.ndarray:
        """0-based index of the state each label names, -1 where none does."""
        if "labels" not in self._derived:
            order = np.argsort(self.labels)
            names = np.asarray(self.labels)[order]
            names.setflags(write=False)
            order.setflags(write=False)
            self._derived["labels"] = (names, order)
        names, order = self._derived["labels"]
        labels = np.asarray(labels, dtype=str)
        at = np.searchsorted(names, labels).clip(max=self.n - 1)
        return np.where(names[at] == labels, order[at], -1)

    def alice_frame(self) -> np.ndarray:
        """Alice's vectors as the columns of a read-only d x n view."""
        return self.alice.T

    def alice_gram(self) -> np.ndarray:
        return self._grams[0]

    def bob_gram(self) -> np.ndarray:
        return self._grams[1]

    def product_gram(self) -> np.ndarray:
        return self._grams[0] * self._grams[1]

    def build_graphs(self, tol: Tolerance = DEFAULT_TOL) -> StateGraphs:
        key = ("graphs", tol.zero_tol)
        if key not in self._derived:
            self._derived[key] = StateGraphs(
                *(Graph.from_matrix(np.abs(g) > tol.zero_tol) for g in self._grams)
            )
        return self._derived[key]

    def alice_svd(
        self, tol: Tolerance = DEFAULT_TOL
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Alice's frame's SVD cut to its numeric rank (linalg.thin_svd), as
        read-only arrays."""
        key = ("svd", tol.rank_tol)
        if key not in self._derived:
            svd = thin_svd(self.alice_frame(), tol)
            for part in svd:
                part.setflags(write=False)
            self._derived[key] = svd
        return self._derived[key]

    def alice_span(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Read-only orthonormal basis (d x d_eff) of the span of Alice's
        vectors: the left factor of alice_svd."""
        return self.alice_svd(tol)[0]

    def validate_orthonormal(self, tol: Tolerance = DEFAULT_TOL) -> OrthonormalityReport:
        g = self.product_gram()
        units = tuple(
            (self.labels[i], float(abs(g[i, i] - 1.0)))
            for i in range(self.n)
            if abs(g[i, i] - 1.0) > 10 * tol.zero_tol
        )
        rows, cols = np.nonzero(np.triu(np.abs(g) > tol.zero_tol, k=1))
        pairs = tuple(
            (self.labels[i], self.labels[j], float(abs(g[i, j])))
            for i, j in zip(rows.tolist(), cols.tolist())
        )
        return OrthonormalityReport(not units and not pairs, units, pairs)

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
