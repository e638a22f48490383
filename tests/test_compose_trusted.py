"""Compositions built without re-validation, and the integer pruning of
class matrices, against independent references.

Every composition the enumerators and the structural selections return
must survive a rebuild through the public, validating constructor; the
head-free enumeration must equal the naive filter in tests/oracles.py; the
pruned class-matrix search must equal an unpruned filter over every
d-tuple of columns; and each matrix's expansion from the cached per-class
sum tables must equal the naive tail-free filter restricted to its
columns, in the order pinned by a digest, which the lazy walk of a class
too large for a table must keep too; and a class table's row count, taken
before any row is built, must equal the rows built.
"""

import hashlib
from itertools import product
from math import factorial

import pytest

from fqzeta.compose import (
    HEAD,
    TAIL,
    Composition,
    _class_columns,
    _class_sums,
    _iter_class_sums,
    _iter_matrix_expansion,
    _splits,
    _table_rows,
    _target,
    enumerate_head_free,
    enumerate_tail_free,
    greedy,
    iter_tail_free_parts,
    modest,
    monotone_rep,
    optimal_set,
    tail_free_nonempty,
    valid_class_matrices,
)
from fqzeta.digitlab import CACHE_LIMIT, PrimePower

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


# q = 2, 3 and 9 have many targets per class vector, which share one
# column search; each must still get matrices of its own target
@pytest.mark.parametrize(
    "q, nmax", [(2, 64), (3, 64), (4, 64), (8, 64), (9, 40), (27, 60)]
)
def test_pruning_matches_unpruned_filter(q, nmax):
    pp = PrimePower.from_q(q)
    for n in range(1, nmax + 1):
        for d in range(1, 4):
            mats = valid_class_matrices(n, d, pp)
            assert all(m.q == pp and m.target == n for m in mats), (n, d)
            got = [m.columns for m in mats]
            assert got == oracles.unpruned_class_matrices(n, d, q, pp.p), (n, d)


def test_process_caches_bounded():
    for cached in (_class_columns, _target, _class_sums, valid_class_matrices):
        assert cached.cache_info().maxsize == CACHE_LIMIT


def test_columns_shared_by_class_vector():
    # 7 = 21_3 and 11 = 102_3 have the digit sum 3: one column search
    q3 = PrimePower.from_q(3)
    _class_columns.cache_clear()
    valid_class_matrices.cache_clear()
    assert _target(7, q3).entries == _target(11, q3).entries == (3,)
    a, b = valid_class_matrices(7, 2, q3), valid_class_matrices(11, 2, q3)
    assert [m.columns for m in a] == [m.columns for m in b]
    assert {m.target for m in a} == {7} and {m.target for m in b} == {11}
    assert _class_columns.cache_info().misses == 1


# sha256 of repr([(q, n, d, list(iter_tail_free_parts(n, d, pp))) ...]) over
# the cells below, taken when matrices still expanded by recursion
EXPANSION_ORDER_DIGEST = (
    "a4352e3d0fea1b0c103136c5a7c089d1883198c3a0383e030d46f46672d6a338"
)


@pytest.fixture
def table_rows(monkeypatch):
    """Set compose.TABLE_ROWS for one test, with the table cache emptied
    on the way in and out so no table crosses the bound."""
    import fqzeta.compose as compose

    def use(rows):
        monkeypatch.setattr(compose, "TABLE_ROWS", rows)
        _class_sums.cache_clear()

    yield use
    _class_sums.cache_clear()


def expansion_order_digest():
    cells = [
        (q, n, d, list(iter_tail_free_parts(n, d, PrimePower.from_q(q))))
        for q in QS
        for n in range(1, 61)
        for d in range(1, 5)
    ]
    return hashlib.sha256(repr(cells).encode()).hexdigest()


def test_expansion_order_pinned():
    assert expansion_order_digest() == EXPANSION_ORDER_DIGEST


# bounds of 1 and 8 rows send most classes through the lazy walk, at
# every level of it
@pytest.mark.parametrize("rows", [1, 8])
def test_lazy_walk_order_pinned(table_rows, rows):
    table_rows(rows)
    assert expansion_order_digest() == EXPANSION_ORDER_DIGEST


# the smallest targets with 4-part tail-free compositions at q = 8, and
# more one-bits; at q = 27 the smallest, with base-3 digits all 2
@pytest.mark.parametrize(
    "q, n", [(8, 511), (8, 1023), (8, 2047), (8, 3071), (27, 19682)]
)
def test_matrix_expansion_matches_naive_filter(q, n):
    pp = PrimePower.from_q(q)
    mats = valid_class_matrices(n, 4, pp)
    assert mats
    for m in mats:
        got = list(_iter_matrix_expansion(m))
        assert len(got) == len(set(got)), m.columns
        expected = oracles.naive_tail_free(n, 4, q, pp.p, m.columns)
        assert set(got) == expected, m.columns


def test_class_sums_cached():
    assert _class_sums.cache_info().maxsize == CACHE_LIMIT
    for q, n, d in ((9, 131, 2), (27, 728, 3), (2, 255, 4)):
        pp = PrimePower.from_q(q)
        for m in valid_class_matrices(n, d, pp):
            for c, group in enumerate(_target(n, pp).groups):
                caps = tuple(col[c] for col in m.columns)
                table = _class_sums(group, caps)
                assert _class_sums(group, caps) is table
                assert table == _class_sums.__wrapped__(group, caps)


def test_class_sums_bounded(table_rows):
    # 2^16 - 1 at q = 2: the all-ones matrix's one class has 16! rows
    q2 = PrimePower.from_q(2)
    group = _target(2**16 - 1, q2).groups[0]
    assert _class_sums(group, (1,) * 16) is None
    # the lazy walk, split down to tables of at most 8 rows, yields a
    # table's rows in the table's order
    cases = []
    for n, d in ((63, 3), (255, 4)):
        group = _target(n, q2).groups[0]
        for m in valid_class_matrices(n, d, q2):
            caps = tuple(col[0] for col in m.columns)
            cases.append((group, caps, _class_sums.__wrapped__(group, caps)))
    table_rows(8)
    for group, caps, table in cases:
        walked = list(_iter_class_sums(group, caps, (0,) * len(caps)))
        assert walked == list(table), caps


def test_splits_in_lexicographic_order():
    for caps in ((1,), (2,), (1, 1), (2, 0, 1), (1, 2, 2), (3, 1, 0, 2), (1,) * 5):
        for total in range(sum(caps) + 2):
            expected = [
                split
                for split in product(*[range(c + 1) for c in caps])
                if sum(split) == total
            ]
            assert _splits(total, caps) == expected, (total, caps)


def test_table_rows_counts_without_building():
    for q, n, d in ((2, 255, 4), (3, 242, 3), (9, 131, 3), (27, 728, 3)):
        pp = PrimePower.from_q(q)
        for m in valid_class_matrices(n, d, pp):
            for c, group in enumerate(_target(n, pp).groups):
                caps = tuple(col[c] for col in m.columns)
                table = _class_sums.__wrapped__(group, caps)
                assert _table_rows(group, caps) == len(table), (q, n, caps)
    # the all-ones matrix of 2^16 - 1: 16! rows, counted, not built
    group = _target(2**16 - 1, PrimePower.from_q(2)).groups[0]
    assert _table_rows(group, (1,) * 16) == factorial(16)
