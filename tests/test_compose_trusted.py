"""Compositions built without re-validation, and the integer pruning of
class matrices, against independent references.

Every composition the enumerators and the structural selections return
must survive a rebuild through the public, validating constructor; the
head-free enumeration must equal the naive filter in tests/oracles.py; and
the pruned class-matrix search must equal an unpruned filter over every
d-tuple of columns.
"""

from itertools import product

import pytest

from fqzeta.compose import (
    HEAD,
    TAIL,
    ClassMatrix,
    Composition,
    enumerate_head_free,
    enumerate_tail_free,
    greedy,
    modest,
    monotone_rep,
    optimal_set,
    tail_free_nonempty,
    valid_class_matrices,
)
from fqzeta.digitlab import PrimePower, digit_class_vector

import oracles

QS = (2, 3, 4, 8, 9, 27)


def assert_rebuilds(comps):
    for c in comps:
        assert type(c.parts) is tuple
        assert c == Composition(c.q, c.parts, c.kind, c.target), c


def targets(pp):
    # small targets, plus q^2 - 1, q^3 - q and q^3 - 1, which reach d = 2
    # and d = 3 in every field, including f = 3
    q = pp.q
    return sorted(set(range(1, 40)) | {q * q - 1, q**3 - q, q**3 - 1})


@pytest.mark.parametrize("q", QS)
def test_enumerations_rebuild(q):
    pp = PrimePower.from_q(q)
    for n in targets(pp):
        for d in range(0, 4):
            head = enumerate_head_free(n, d, pp)
            assert all(c.kind == HEAD and c.target == n for c in head)
            assert_rebuilds(head)
            if d >= 1:
                tail = enumerate_tail_free(n, d, pp)
                assert all(c.kind == TAIL and c.target == n for c in tail)
                assert_rebuilds(tail)


@pytest.mark.parametrize("q", QS)
def test_selections_rebuild(q):
    pp = PrimePower.from_q(q)
    for n in targets(pp):
        for d in range(0, 4):
            if tail_free_nonempty(n, d + 1, pp):
                assert_rebuilds([greedy(n, d, pp), modest(n, d, pp, HEAD)])
            if d >= 1 and tail_free_nonempty(n, d, pp):
                assert_rebuilds([modest(n, d, pp, TAIL)])
                assert_rebuilds(optimal_set(n, d, pp))
                assert_rebuilds(
                    [monotone_rep(m) for m in valid_class_matrices(n, d, pp)]
                )


@pytest.mark.parametrize("q", QS)
def test_head_free_matches_naive_filter(q):
    pp = PrimePower.from_q(q)
    for k in range(1, 31):
        for d in range(0, 4):
            got = [c.parts for c in enumerate_head_free(k, d, pp)]
            assert got == sorted(got)
            assert set(got) == oracles.naive_head_free(k, d, q, pp.p), (k, d)


def unpruned_class_matrices(n, d, pp):
    total = digit_class_vector(n, pp).entries
    columns = list(product(*[range(e + 1) for e in total]))
    return sorted(
        cols
        for cols in product(columns, repeat=d)
        if ClassMatrix(pp, cols, n).is_valid()
    )


@pytest.mark.parametrize("q, nmax", [(4, 64), (8, 64), (27, 60)])
def test_pruning_matches_unpruned_filter(q, nmax):
    pp = PrimePower.from_q(q)
    for n in range(1, nmax + 1):
        for d in range(1, 4):
            got = [m.columns for m in valid_class_matrices(n, d, pp)]
            assert got == unpruned_class_matrices(n, d, pp), (n, d)
