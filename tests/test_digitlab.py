import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqzeta import (
    ClassVector,
    DegenerateCoverError,
    FracVector,
    PreconditionError,
    PrimePower,
    capacity_equals,
    capacity_exceeds,
    carry_free_add,
    digit_class_vector,
    digit_sum_coords,
    extend_to_cover,
    is_even_class,
    shift_difference,
    shift_difference_inv,
    split_capacity,
    vanishing_threshold,
)
from fqzeta.digitlab import _digit_sum, _is_prime, base_digits
from fqzeta.verify import _digit_sum_base_q as digit_sum_base_q

import oracles


class TestPrimePower:
    def test_basic(self):
        pp = PrimePower(3, 2)
        assert pp.q == 9
        assert PrimePower.from_q(8) == PrimePower(2, 3)
        assert PrimePower.from_q(2) == PrimePower(2, 1)
        # the prime is the root of q's largest perfect power
        assert PrimePower.from_q(2**64) == PrimePower(2, 64)
        assert PrimePower.from_q(65521**5) == PrimePower(65521, 5)
        assert PrimePower.from_q(4294967291**2) == PrimePower(4294967291, 2)

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            PrimePower(4, 1)
        with pytest.raises(ValueError):
            PrimePower.from_q(6)
        with pytest.raises(ValueError):
            PrimePower.from_q(12)
        with pytest.raises(ValueError, match="36 is not a prime power"):
            PrimePower.from_q(36)
        with pytest.raises(ValueError):
            PrimePower(3, 0)

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(10**5) if _is_prime(n)] == [
            n for n in range(10**5) if trial(n)
        ]

    @pytest.mark.parametrize(
        "n", [3215031751, 3825123056546413051, 318665857834031151167461]
    )
    def test_is_prime_refuses_strong_pseudoprimes(self, n):
        # each passes the strong test to several of the first 13 prime
        # bases; the last to all of 2 .. 37
        assert not _is_prime(n)

    def test_large_prime_returns_at_once(self):
        # Miller-Rabin below 3.3e24: 2^61 - 1 was trial-divided to its root
        assert PrimePower.from_q(2**61 - 1) == PrimePower(2**61 - 1, 1)
        assert PrimePower(2**61 - 1, 1).q == 2**61 - 1
        assert not _is_prime((2**31 - 1) ** 2)

    def test_q_even(self, q3, q2):
        assert q3.is_q_even(2) and q3.is_q_even(-8) and not q3.is_q_even(3)
        # for q = 2 every integer is q-even
        assert all(q2.is_q_even(n) for n in range(-5, 6))


class TestDigitSums:
    def test_base_digits(self):
        assert base_digits(131, 3) == (2, 1, 2, 1, 1)  # least significant first
        assert base_digits(8, 3) == (2, 2)
        assert base_digits(0, 5) == ()
        with pytest.raises(ValueError):
            base_digits(-1, 3)

    def test_examples(self, q3, q9):
        assert digit_sum_base_q(8, q3) == 4  # 22 base 3
        assert digit_sum_base_q(131, q9) == 11  # 155 base 9
        assert digit_sum_base_q(1, PrimePower(2, 2)) == 1

    def test_rejects_nonpositive(self, q3):
        with pytest.raises(ValueError):
            digit_sum_base_q(0, q3)
        with pytest.raises(ValueError):
            digit_sum_base_q(-3, q3)


class TestCarryFree:
    def test_examples(self):
        assert carry_free_add([1, 2], 3) is None  # 1+2 carries in base 3
        assert carry_free_add([2, 6], 3) == 8
        assert carry_free_add([17], 5) == 17  # identity
        assert carry_free_add([], 3) == 0

    def test_digit_sums(self):
        for p in (2, 3, 5, 7, 251):
            for n in [*range(300), 2**64 - 1, 3**40 + 5]:
                assert _digit_sum(n, p) == sum(oracles.digits_of(n, p)), (n, p)

    def test_matches_multiset_oracle(self):
        rng = random.Random(7)
        for p in (2, 3, 5):
            for _ in range(300):
                parts = [rng.randrange(0, 120) for _ in range(rng.randrange(1, 5))]
                got = carry_free_add(parts, p)
                assert (got is not None) == oracles.naive_carry_free(parts, p)
                if got is not None:
                    assert got == sum(parts)


class TestThreshold:
    def test_examples(self, q3):
        assert vanishing_threshold(8, q3) == 2
        assert vanishing_threshold(2, q3) == 1
        assert vanishing_threshold(6, PrimePower(2, 2)) == 1  # q = 4
        assert vanishing_threshold(1, q3) == Fraction(1, 2)

    def test_integer_iff_q_even(self, q9):
        for k in range(1, 250):
            L = vanishing_threshold(k, q9)
            assert (L.denominator == 1) == q9.is_q_even(k)


class TestClassVectors:
    def test_gamma_131(self, q9):
        assert digit_class_vector(131, q9).entries == (5, 2)

    def test_prime_power_basis(self, q9):
        # p^a maps to a standard basis vector in class a mod f
        for a in range(6):
            v = digit_class_vector(3**a, q9)
            expect = tuple(1 if i == a % 2 else 0 for i in range(2))
            assert v.entries == expect

    def test_f1_collapses_to_digit_sum(self, q3):
        assert digit_class_vector(8, q3).entries == (4,)

    def test_shift_by_p(self, q9, q8):
        for pp in (q9, q8):
            for n in (1, 7, 100, 131, 255):
                v = digit_class_vector(n, pp).entries
                w = digit_class_vector(n * pp.p, pp).entries
                assert w == tuple(v[(i - 1) % pp.f] for i in range(pp.f))


class TestShiftMaps:
    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]),
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    )
    def test_inverse_pair(self, pf, raw):
        pp = PrimePower(*pf)
        entries = tuple(Fraction(raw[i % 3]) for i in range(pp.f))
        v = FracVector(pp, entries)
        assert shift_difference_inv(shift_difference(v)).entries == entries
        assert shift_difference(shift_difference_inv(v)).entries == entries

    def test_all_ones(self, q9):
        ones = FracVector(q9, (Fraction(1), Fraction(1)))
        assert shift_difference(ones).entries == (Fraction(2), Fraction(2))

    def test_digit_sum_coordinates(self, q9):
        # coordinate i is the scaled base-q digit sum of n * p^(f-i)
        for n in (131, 7, 50):
            coords = digit_sum_coords(digit_class_vector(n, q9))
            for i in range(q9.f):
                expected = Fraction(
                    digit_sum_base_q(n * q9.p ** ((q9.f - i) % q9.f), q9),
                    q9.q - 1,
                )
                assert coords[i] == expected

    def test_gamma_131_coords(self, q9):
        assert digit_sum_coords(digit_class_vector(131, q9)) == (
            Fraction(11, 8),
            Fraction(17, 8),
        )


class TestEvenClass:
    def test_examples(self, q3, q9):
        assert is_even_class(ClassVector(q3, (2,)))
        assert not is_even_class(digit_class_vector(3, q9))
        assert not is_even_class(ClassVector(q9, (0, 0)))

    def test_matches_weighted_dot(self, q9, q8):
        # integrality of all coordinates == divisibility of the weighted sum
        import itertools

        for pp in (q9, q8):
            for entries in itertools.product(range(4), repeat=pp.f):
                v = ClassVector(pp, entries)
                dot = sum(e * pp.p**i for i, e in enumerate(entries))
                expect = any(entries) and dot % (pp.q - 1) == 0
                assert is_even_class(v) == expect


class TestCapacities:
    def test_examples(self, q3):
        assert capacity_equals(ClassVector(q3, (4,)), 2)  # 8 = 2 (+) 6
        assert not capacity_equals(ClassVector(q3, (4,)), 1)
        assert not capacity_equals(ClassVector(q3, (0,)), 1)
        assert not capacity_exceeds(ClassVector(q3, (0,)), 0)

    def test_m_zero_always_false(self, q3, q9):
        for pp in (q3, q9):
            for n in range(1, 40):
                assert not capacity_equals(digit_class_vector(n, pp), 0)

    def test_split_capacity_equals_threshold(self, q9, q8):
        for pp in (q9, q8):
            for n in range(1, 200):
                assert split_capacity(digit_class_vector(n, pp)) == (
                    vanishing_threshold(n, pp)
                )


class TestExtendToCover:
    def test_f1_example_exhaustive(self, q3):
        u = ClassVector(q3, (10,))
        v = ClassVector(q3, (2,))
        w = extend_to_cover(u, v)
        assert w.entries == (2,)
        # exhaustive scan of the interval confirms the construction's pick
        beta = digit_sum_coords(u)
        alpha = digit_sum_coords(v)
        k = min(math.floor(b) - math.ceil(a) for b, a in zip(beta, alpha))
        good = []
        for x in range(2, 11):
            cand = ClassVector(q3, (x,))
            if not is_even_class(cand):
                continue
            diff = u - cand
            if capacity_equals(diff, k) or capacity_exceeds(diff, k):
                good.append(x)
        assert w.entries[0] in good

    def test_rejects_equal(self, q9):
        u = ClassVector(q9, (3, 3))
        with pytest.raises(PreconditionError):
            extend_to_cover(u, u)

    def test_rejects_zero_v(self, q9):
        with pytest.raises(PreconditionError):
            extend_to_cover(ClassVector(q9, (3, 3)), ClassVector(q9, (0, 0)))

    def test_rejects_negative_slack(self, q9):
        # v close to u forces ceil(alpha) above floor(beta) somewhere
        u = ClassVector(q9, (1, 2))
        v = ClassVector(q9, (1, 1))
        beta = digit_sum_coords(u)
        alpha = digit_sum_coords(v)
        k = min(math.floor(b) - math.ceil(a) for b, a in zip(beta, alpha))
        assert k < 0
        with pytest.raises(PreconditionError):
            extend_to_cover(u, v)

    def test_degenerate_case_has_no_cover(self, q4):
        # slack 0 with the upper bound on the even lattice: no conforming
        # vector exists at all, and the input is rejected explicitly
        u = ClassVector(q4, (1, 1))
        v = ClassVector(q4, (1, 0))
        with pytest.raises(DegenerateCoverError):
            extend_to_cover(u, v)
        for w_entries in ((1, 0), (1, 1)):
            w = ClassVector(q4, w_entries)
            ok = is_even_class(w)
            if ok:
                diff = u - w
                ok = capacity_equals(diff, 0) or capacity_exceeds(diff, 0)
            assert not ok

    def test_postconditions_random(self, q4, q8, q9):
        rng = random.Random(99)
        checked = 0
        while checked < 400:
            pp = (q4, q8, q9)[rng.randrange(3)]
            u_entries = tuple(rng.randrange(0, 31) for _ in range(pp.f))
            v_entries = tuple(rng.randrange(0, e + 1) for e in u_entries)
            if not any(v_entries) or v_entries == u_entries:
                continue
            u = ClassVector(pp, u_entries)
            v = ClassVector(pp, v_entries)
            try:
                w = extend_to_cover(u, v)
            except PreconditionError:
                continue
            beta = digit_sum_coords(u)
            alpha = digit_sum_coords(v)
            k = min(math.floor(b) - math.ceil(a) for b, a in zip(beta, alpha))
            assert is_even_class(w)
            assert v <= w and w <= u
            diff = u - w
            assert capacity_equals(diff, k) or capacity_exceeds(diff, k)
            checked += 1
