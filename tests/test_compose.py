import random

import pytest

from fqzeta import (
    ClassMatrix,
    Composition,
    EmptySetError,
    PrimePower,
    ResourceLimitError,
    enumerate_head_free,
    enumerate_tail_free,
    greedy,
    modest,
    monotone_rep,
    optimal_set,
    power_classes,
    tail_free_nonempty,
    valid_class_matrices,
)
from fqzeta.compose import (
    HEAD,
    TAIL,
)
from fqzeta.verify import (
    _greedy_by_enumeration as greedy_by_enumeration,
    _modest_by_enumeration as modest_by_enumeration,
    _optimal_set_by_enumeration as optimal_set_by_enumeration,
)

import oracles


class TestCompositionType:
    def test_validation(self, q3):
        c = Composition(q3, (0, 2, 6), HEAD, 8)
        assert c.weight == 2
        with pytest.raises(ValueError):
            Composition(q3, (0, 3, 5), HEAD, 8)  # interior parts not q-even
        with pytest.raises(ValueError):
            Composition(q3, (1, 2, 5), HEAD, 8)  # carries in base 3
        with pytest.raises(ValueError):
            Composition(q3, (0, 0, 8), HEAD, 8)  # zero interior part

    def test_weights(self, q3, q9):
        # head-free weight is the t-degree of the matching monomial
        assert Composition(q3, (0, 2, 6), HEAD, 8).weight == 2
        assert Composition(q3, (0, 6, 2), HEAD, 8).weight == 6
        assert Composition(q9, (128, 3), TAIL, 131).weight == 134
        # all mass in the first tail slot gives the minimum possible weight
        assert Composition(q3, (8, 0), TAIL, 8).weight == 8

    def test_reversal(self, q3):
        c = Composition(q3, (0, 2, 6), HEAD, 8)
        r = c.reversed()
        assert r.kind == TAIL and r.parts == (6, 2, 0)
        assert r.reversed() == c


class TestEnumeration:
    def test_u1_8(self, q3):
        got = [c.parts for c in enumerate_head_free(8, 1, q3)]
        assert got == [(0, 8), (2, 6), (4, 4), (6, 2)]

    def test_u2_8(self, q3):
        got = [c.parts for c in enumerate_head_free(8, 2, q3)]
        assert got == [(0, 2, 6), (0, 4, 4), (0, 6, 2)]

    def test_u3_8_empty(self, q3):
        assert enumerate_head_free(8, 3, q3) == ()

    def test_d0(self, q3):
        assert [c.parts for c in enumerate_head_free(8, 0, q3)] == [(8,)]

    def test_w1(self, q9):
        assert [c.parts for c in enumerate_tail_free(131, 1, q9)] == [(131,)]

    def test_matches_naive_filter(self):
        rng = random.Random(2)
        for q, p in ((2, 2), (3, 3), (4, 2), (9, 3)):
            pp = PrimePower.from_q(q)
            for _ in range(25):
                k = rng.randrange(1, 40)
                d = rng.randrange(0, 3)
                got = {c.parts for c in enumerate_head_free(k, d, pp)}
                assert got == oracles.naive_head_free(k, d, q, p)

    def test_no_duplicates(self, q2):
        comps = enumerate_tail_free(255, 4, q2)
        assert len(comps) == len({c.parts for c in comps})

    def test_emptiness_criterion(self, q2, q3, q4, q9):
        for pp in (q2, q3, q4, q9):
            for n in range(1, 120):
                for d in range(1, 6):
                    nonempty = bool(enumerate_tail_free(n, d, pp))
                    assert nonempty == tail_free_nonempty(n, d, pp)
        # spot checks beyond, per the wider claim
        from fqzeta.compose import iter_tail_free_parts

        for pp in (q3, q9):
            for n in range(300, 501, 17):
                for d in range(1, 6):
                    probe = next(iter_tail_free_parts(n, d, pp), None)
                    assert (probe is not None) == tail_free_nonempty(n, d, pp)

    def test_digit_guard(self, q2):
        with pytest.raises(ResourceLimitError):
            enumerate_tail_free((1 << 25) - 1, 2, q2)  # digit sum 25

    def test_result_cap(self, q2):
        with pytest.raises(ResourceLimitError):
            enumerate_tail_free(255, 4, q2, max_results=10)
        # the cap stops the enumeration, not the shared tables it read
        full = [c.parts for c in enumerate_tail_free(255, 4, q2)]
        assert full == sorted(oracles.naive_tail_free(255, 4, 2, 2))

    def test_result_cap_on_a_class_too_large_for_a_table(self, q2):
        # the all-ones matrix of 2^16 - 1 has 16! compositions; the cap
        # stops the lazy walk after max_results of them
        with pytest.raises(ResourceLimitError):
            enumerate_tail_free(2**16 - 1, 16, q2, max_results=10_000)

    def test_negative_result_cap_rejected(self, q3):
        for d in (0, 1):
            with pytest.raises(ValueError):
                enumerate_head_free(8, d, q3, max_results=-1)
        with pytest.raises(ValueError):
            enumerate_tail_free(8, 2, q3, max_results=-1)
        assert enumerate_tail_free(8, 5, q3, max_results=0) == ()


class TestClassMatrices:
    def test_131_matrices(self, q9):
        mats = valid_class_matrices(131, 2, q9)
        assert sorted(m.rows() for m in mats) == [
            ((2, 3), (2, 0)),
            ((5, 0), (1, 1)),
        ]

    def test_cached_matrices_equal_a_fresh_build(self, q2, q9):
        from fqzeta.digitlab import CACHE_LIMIT

        assert valid_class_matrices.cache_info().maxsize == CACHE_LIMIT
        for n, d, q in ((131, 2, q9), (131, 3, q9), (255, 3, q2), (40, 2, q9)):
            first = valid_class_matrices(n, d, q)
            assert valid_class_matrices(n, d, q) is first
            assert first == valid_class_matrices.__wrapped__(n, d, q)

    def test_d1_single_matrix(self, q9):
        mats = valid_class_matrices(131, 1, q9)
        assert len(mats) == 1
        assert mats[0].columns == ((5, 2),)

    def test_membership_grouping(self, q9):
        # every tail-free composition's class columns form a valid matrix
        from fqzeta.compose import _iter_matrix_expansion

        mats = valid_class_matrices(131, 2, q9)
        by_matrix = {m.columns: set(_iter_matrix_expansion(m)) for m in mats}
        first = ClassMatrix(q9, ((5, 1), (0, 1)), 131)
        assert (128, 3) in by_matrix[first.columns]
        assert (104, 27) in by_matrix[first.columns]
        full = {c.parts for c in enumerate_tail_free(131, 2, q9)}
        assert full == set().union(*by_matrix.values())

    def test_monotone_rep_example(self, q9):
        m = ClassMatrix(q9, ((5, 1), (0, 1)), 131)
        assert monotone_rep(m).parts == (128, 3)

    def test_monotone_rep_rejects_invalid(self, q9):
        bad = ClassMatrix(q9, ((5, 0), (0, 2)), 131)  # first column q-odd
        with pytest.raises(ValueError):
            monotone_rep(bad)

    def test_power_classes(self, q9):
        pc = power_classes(131, q9)
        assert pc == ((81, 9, 9, 1, 1), (27, 3))
        flat = sorted([v for seq in pc for v in seq], reverse=True)
        assert flat == [81, 27, 9, 9, 3, 1, 1]
        assert sum(flat) == 131


class TestSelections:
    def test_spec_values(self, q3):
        assert modest(8, 1, q3, HEAD).parts == (0, 8)
        assert modest(8, 2, q3, HEAD).parts == (0, 2, 6)
        assert greedy(8, 1, q3).parts == (6, 2)
        assert greedy(8, 2, q3).parts == (0, 6, 2)
        assert greedy(8, 1, q3).weight == 6
        assert modest(5, 0, q3, HEAD).parts == (5,)
        assert greedy(5, 0, q3).parts == (5,)

    def test_routes_agree(self):
        rng = random.Random(12)
        for q in (2, 3, 4, 8, 9):
            pp = PrimePower.from_q(q)
            for _ in range(30):
                k = rng.randrange(1, 60)
                d = rng.randrange(0, 3)
                if not tail_free_nonempty(k, d + 1, pp):
                    continue
                assert greedy(k, d, pp) == greedy_by_enumeration(k, d, pp)
                assert modest(k, d, pp, HEAD) == modest_by_enumeration(
                    k, d, pp, HEAD
                )
                assert modest(k, d + 1, pp, TAIL) == modest_by_enumeration(
                    k, d + 1, pp, TAIL
                )
                assert optimal_set(k, d + 1, pp) == optimal_set_by_enumeration(
                    k, d + 1, pp
                )

    def test_empty_raises(self, q3):
        with pytest.raises(EmptySetError):
            modest(8, 3, q3, HEAD)
        with pytest.raises(EmptySetError):
            greedy(8, 3, q3)
        with pytest.raises(EmptySetError):
            optimal_set(1, 3, q3)

    def test_optimal_d2_lexmax_identity(self, q3, q9):
        # with two tail slots the weight is 2N - X_1, so minimum weight
        # and lexicographic maximum coincide immediately
        for pp in (q3, q9):
            for n in range(1, 80):
                if not tail_free_nonempty(n, 2, pp):
                    continue
                opt = optimal_set(n, 2, pp)
                assert len(opt) == 1
                assert opt[0] == modest(n, 2, pp, TAIL)
                assert opt[0].weight == 2 * n - opt[0].parts[0]

    def test_tail_head_correspondence(self, q3):
        for k in range(1, 50):
            for d in range(0, 3):
                if not tail_free_nonempty(k, d + 1, q3):
                    continue
                m_head = modest(k, d, q3, HEAD)
                m_tail = modest(k, d + 1, q3, TAIL)
                assert m_head.parts == m_tail.parts[::-1]

    def test_restriction_counterexample_pinned(self, q3):
        # dropping the final slot of modest W_3(8) gives (6,2); the
        # unconstrained two-slot maximum is (8,0), so the drop-last
        # restriction only holds within the final-slot-constrained subset
        assert modest(8, 3, q3, TAIL).parts == (6, 2, 0)
        assert modest(8, 2, q3, TAIL).parts == (8, 0)
        constrained = [
            c.parts
            for c in enumerate_tail_free(8, 2, q3)
            if c.parts[-1] > 0 and q3.is_q_even(c.parts[-1])
        ]
        assert max(constrained) == (6, 2)
