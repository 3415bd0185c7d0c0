"""Metamorphic checks on a slice of the integer corpus (brute.integer_corpus):
a verdict's status belongs to the set, not to local coordinates or to the
order of the states, and a one-way protocol for a set also distinguishes
every subset of it."""

from collections import Counter

import numpy as np
import pytest

import brute
from loccgraph import ProductStateSet
from loccgraph.criteria import (
    ALICE_FIRST,
    BOB_FIRST,
    DISTINGUISHABLE,
    UNKNOWN,
    decide,
    verify_certificate,
)

# every draw of these seeds decides both ways without Unknown, and they
# reach the chordal rungs, MinDimNoSimplicial and the convex end
SEEDS = (101, 102)


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random d x d unitary: QR of a complex Gaussian matrix, with
    the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _variants(s: ProductStateSet, rng: np.random.Generator):
    """The set with a Haar-random unitary on Alice's side, on Bob's, and
    with its states permuted."""
    order = rng.permutation(s.n)
    return (
        ProductStateSet(s.alice @ _haar_unitary(s.d_alice, rng).T, s.bob, s.labels),
        ProductStateSet(s.alice, s.bob @ _haar_unitary(s.d_bob, rng).T, s.labels),
        ProductStateSet(s.alice[order], s.bob[order], tuple(s.labels[i] for i in order)),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_status_survives_local_unitaries_and_a_permutation(seed):
    rng = np.random.default_rng(seed)
    kinds = Counter()
    for _, draw, s in brute.integer_corpus([seed]):
        variants = _variants(s, rng)
        for direction in (ALICE_FIRST, BOB_FIRST):
            v = decide(s, direction)
            assert v.status != UNKNOWN, (draw, direction)
            kinds[v.certificate.kind] += 1
            for t in variants:
                w = decide(t, direction)
                assert w.status == v.status, (draw, direction, v.certificate.kind)
                assert verify_certificate(t, w).ok, (draw, direction)
    assert {"ChordalAliceGraph", "MinDimNoSimplicial", "DualWitness"} <= set(kinds)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_subset_one_state_smaller_of_a_distinguishable_set_stays_so(seed):
    subsets = 0
    for _, draw, s in brute.integer_corpus([seed]):
        for direction in (ALICE_FIRST, BOB_FIRST):
            if decide(s, direction).status != DISTINGUISHABLE:
                continue
            for left_out in s.labels:
                t = s.subset([label for label in s.labels if label != left_out])
                w = decide(t, direction)
                assert w.status == DISTINGUISHABLE, (draw, direction, left_out)
                assert verify_certificate(t, w).ok, (draw, direction, left_out)
                subsets += 1
    assert subsets >= 100
