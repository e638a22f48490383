"""The digit-sum coordinate criteria against their definition.

Coordinate i of the class vector of n is (base-q digit sum of
p^(f-i) * n) / (q - 1).  The expected values here are built from that
definition with the naive digit helper in tests/oracles.py, never from the
shift-difference weights the library uses.
"""

from fractions import Fraction
from itertools import product

import pytest

from fqzeta.digitlab import (
    ClassVector,
    FracVector,
    PrimePower,
    capacity_equals,
    capacity_exceeds,
    digit_class_vector,
    digit_sum_coords,
    is_even_class,
    shift_difference_inv,
    split_capacity,
)

from oracles import digits_of

QS = (2, 3, 4, 8, 9, 25, 27, 32)
NMAX = 300
MMAX = 4


def defined_coords(n, pp):
    q = pp.q
    return tuple(
        Fraction(sum(digits_of(pp.p ** (pp.f - i) * n, q)), q - 1)
        for i in range(pp.f)
    )


@pytest.mark.parametrize("q", QS)
def test_coordinates_match_definition(q):
    pp = PrimePower.from_q(q)
    for n in range(1, NMAX + 1):
        v = digit_class_vector(n, pp)
        coords = defined_coords(n, pp)
        integral = all(c.denominator == 1 for c in coords)
        assert digit_sum_coords(v) == coords, n
        assert all(isinstance(c, Fraction) for c in digit_sum_coords(v))
        assert split_capacity(v) == min(coords), n
        assert isinstance(split_capacity(v), Fraction)
        assert is_even_class(v) == integral == (n % (q - 1) == 0), n
        for m in range(MMAX + 1):
            assert capacity_exceeds(v, m) == all(c > m for c in coords), (n, m)
            assert capacity_equals(v, m) == (
                m > 0 and integral and min(coords) == m
            ), (n, m)


@pytest.mark.parametrize("q", QS)
def test_zero_vector(q):
    pp = PrimePower.from_q(q)
    zero = ClassVector(pp, (0,) * pp.f)
    assert digit_sum_coords(zero) == (Fraction(0),) * pp.f
    assert split_capacity(zero) == 0
    assert not is_even_class(zero)
    for m in range(MMAX + 1):
        assert not capacity_exceeds(zero, m)
        assert not capacity_equals(zero, m)


@pytest.mark.parametrize("q", (4, 8, 9, 27))
def test_coordinates_agree_with_the_inverse_shift_map(q):
    # every small vector, including entries no single base-p digit reaches
    pp = PrimePower.from_q(q)
    for entries in product(range(2 * pp.p + 1), repeat=pp.f):
        v = ClassVector(pp, entries)
        assert digit_sum_coords(v) == shift_difference_inv(FracVector(pp, entries)).entries
