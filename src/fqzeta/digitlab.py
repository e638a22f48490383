"""Base-p digit combinatorics for a prime power q = p^f.

Everything in this module is exact integer or rational arithmetic; no
floating point is used anywhere.  The central object is the digit class
vector of a positive integer n: a length-f vector collecting the base-p
digits of n by the residue class (mod f) of their position.  Applying the
inverse of the cyclic shift-difference map to a class vector yields the
normalized base-q digit sums of n and its p-power multiples, and those
coordinates drive every vanishing and splitting criterion used by the
rest of the package:

* an integer is called q-even when q - 1 divides it (so every integer is
  q-even for q = 2);
* the class vectors of positive q-even integers are exactly the
  nonnegative nonzero vectors whose digit-sum coordinates are integers;
* an integer splits into many carry-free q-even parts precisely when the
  minimum of its digit-sum coordinates (its "split capacity") is large;
* the vanishing threshold L(k), above which the power sums at exponent -k
  vanish, is the split capacity of the class vector of k.  Its integer
  floor, ``_threshold_floor``, is the one cached owner of the vanishing
  rule d > L(k) that the power-sum and multizeta modules decide.

The coordinates are computed as integer numerators: (q - 1) times
coordinate i is sum_j p^((j - i) mod f) * e_j.  Every criterion here
compares those integers directly (a multiple of q - 1, a bound scaled by
q - 1); a Fraction is built only where a public function returns one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional, Sequence

from .errors import DegenerateCoverError, PreconditionError

__all__ = [
    "PrimePower",
    "ClassVector",
    "FracVector",
    "base_digits",
    "carry_free_add",
    "digit_class_vector",
    "shift_difference",
    "shift_difference_inv",
    "digit_sum_coords",
    "split_capacity",
    "vanishing_threshold",
    "is_even_class",
    "capacity_exceeds",
    "capacity_equals",
    "extend_to_cover",
]

CACHE_LIMIT = 1 << 16  # entries in each cache that lives as long as the process


# the first 13 primes: as Miller-Rabin bases they decide every n below
# _MR_BOUND (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality: Miller-Rabin with the bases _MR_BASES below
    _MR_BOUND, where they are proven to decide, and trial division above."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    if n >= _MR_BOUND:
        return all(n % d for d in range(43, isqrt(n) + 1, 2))
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d, d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _perfect_power(q: int) -> tuple[int, int]:
    """(r, f) with r^f = q and f as large as possible, for q >= 2."""
    for f in range(q.bit_length() - 1, 1, -1):
        # integer Newton steps from above reach floor(q^(1/f))
        r = 1 << -(-q.bit_length() // f)
        while (s := ((f - 1) * r + q // r ** (f - 1)) // f) < r:
            r = s
        if r**f == q:
            return r, f
    return q, 1


@dataclass(frozen=True)
class PrimePower:
    """A prime power q = p^f carrying its factorization.

    >>> PrimePower(3, 2).q
    9
    """

    p: int
    f: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.f < 1:
            raise ValueError(f"f must be >= 1, got {self.f}")

    @property
    def q(self) -> int:
        return self.p**self.f

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        """Factor q as p^f; rejects integers that are not prime powers."""
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        p, f = _perfect_power(q)  # q is a prime power exactly when p is prime
        if not _is_prime(p):
            raise ValueError(f"{q} is not a prime power")
        return cls(p, f)

    def is_q_even(self, n: int) -> bool:
        """True when q - 1 divides n."""
        return n % (self.q - 1) == 0

    def __repr__(self) -> str:
        return f"PrimePower(p={self.p}, f={self.f})"


def base_digits(n: int, base: int) -> tuple[int, ...]:
    """Digits of n in the given base, least significant first; () for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    return tuple(digits)


def _digit_sum(n: int, p: int) -> int:
    # the sum of the base-p digits of n >= 0, with no digit tuple
    if p == 2:
        return n.bit_count()
    total = 0
    while n:
        n, d = divmod(n, p)
        total += d
    return total


def carry_free_add(parts: Sequence[int], p: int) -> Optional[int]:
    """Add integers digit-by-digit in base p, refusing any carry.

    Returns the sum when every base-p digit column stays below p, and None
    (the "carries" marker) otherwise.  The carry case is an ordinary value,
    not an error: enumeration code uses it for cheap rejection.
    """
    if min(parts, default=0) < 0:
        raise ValueError("parts must be non-negative")
    total = sum(parts)
    # A base-p addition is carry-free iff digit sums are additive.
    if sum(_digit_sum(part, p) for part in parts) == _digit_sum(total, p):
        return total
    return None


@dataclass(frozen=True)
class ClassVector:
    """Length-f vector of non-negative integers indexed by digit class."""

    q: PrimePower
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.q.f:
            raise ValueError("entry count must equal f")
        if any(e < 0 for e in self.entries):
            raise ValueError("entries must be non-negative")

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def __le__(self, other: "ClassVector") -> bool:
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def __add__(self, other: "ClassVector") -> "ClassVector":
        return ClassVector(
            self.q, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        return ClassVector(
            self.q, tuple(a - b for a, b in zip(self.entries, other.entries))
        )


@dataclass(frozen=True)
class FracVector:
    """Length-f vector of exact rationals (entries live in (1/(q-1)) * Z
    whenever the vector arises as digit-sum coordinates of a class vector)."""

    q: PrimePower
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.q.f:
            raise ValueError("entry count must equal f")
        if any(not isinstance(e, Fraction) for e in self.entries):
            object.__setattr__(
                self, "entries", tuple(Fraction(e) for e in self.entries)
            )


def digit_class_vector(n: int, q: PrimePower) -> ClassVector:
    """Collect the base-p digits of n by position class mod f.

    Entry i is the sum of the digits of n sitting at positions congruent
    to i mod f.  Requires n >= 1.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    entries = [0] * q.f
    for j, d in enumerate(base_digits(n, q.p)):
        entries[j % q.f] += d
    return ClassVector(q, tuple(entries))


def _shift_weights(q: PrimePower, i: int) -> tuple[int, ...]:
    # Row i of the (q-1)-scaled inverse shift-difference matrix:
    # entry j is p^((j - i) mod f).
    return tuple(q.p ** ((j - i) % q.f) for j in range(q.f))


def shift_difference(v: FracVector) -> FracVector:
    """Apply the cyclic shift-difference map: w_i = p * v_{i+1} - v_i.

    Indices are taken mod f.  The map is invertible over the rationals;
    see shift_difference_inv.
    """
    q = v.q
    f = q.f
    entries = tuple(q.p * v.entries[(i + 1) % f] - v.entries[i] for i in range(f))
    return FracVector(q, entries)


def shift_difference_inv(v: FracVector) -> FracVector:
    """Exact two-sided inverse of shift_difference."""
    q = v.q
    scale = Fraction(1, q.q - 1)
    entries = tuple(
        scale * sum(w * e for w, e in zip(_shift_weights(q, i), v.entries))
        for i in range(q.f)
    )
    return FracVector(q, entries)


def _scaled_coords(v: ClassVector) -> tuple[int, ...]:
    # (q-1) times the digit-sum coordinates: the integer numerators that
    # every coordinate criterion below compares.
    q = v.q
    return tuple(
        sum(w * e for w, e in zip(_shift_weights(q, i), v.entries))
        for i in range(q.f)
    )


def digit_sum_coords(v: ClassVector) -> tuple[Fraction, ...]:
    """Digit-sum coordinates of a class vector.

    Coordinate i equals (sum of base-q digits of p^(f-i) * n) / (q - 1)
    whenever v is the class vector of n.  In particular coordinate 0 is
    the normalized base-q digit sum of n itself.
    """
    return tuple(Fraction(c, v.q.q - 1) for c in _scaled_coords(v))


def split_capacity(v: ClassVector) -> Fraction:
    """Minimum digit-sum coordinate of v.

    For v the class vector of n this is the vanishing threshold L(n); it
    bounds how many carry-free q-even parts n can be split into.
    """
    return Fraction(min(_scaled_coords(v)), v.q.q - 1)


def vanishing_threshold(k: int, q: PrimePower) -> Fraction:
    """Threshold L such that the degree-d power sum at exponent -k vanishes
    exactly when d > L.

    L(k) is the split capacity of the class vector of k, that is the
    minimum over 0 <= i < f of (base-q digit sum of k * p^i) / (q - 1).
    The value is an integer iff k is q-even.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return split_capacity(digit_class_vector(k, q))


@lru_cache(maxsize=CACHE_LIMIT)
def _threshold_floor(k: int, q: PrimePower) -> int:
    # floor(L(k)) for k >= 1: an integer d exceeds L(k) iff it exceeds this
    return min(_scaled_coords(digit_class_vector(k, q))) // (q.q - 1)


def is_even_class(v: ClassVector) -> bool:
    """Membership in the even-class image: the class vectors of positive
    q-even integers.

    Characterization: v is nonzero, componentwise non-negative, and all of
    its digit-sum coordinates are integers.
    """
    if v.is_zero:
        return False
    qm1 = v.q.q - 1
    return all(c % qm1 == 0 for c in _scaled_coords(v))


def capacity_exceeds(v: ClassVector, bound: int) -> bool:
    """True when v is nonzero and every digit-sum coordinate exceeds bound.

    Equivalently (for bound = m - 1): v strictly dominates the sum of some
    m - 1 even-class vectors, i.e. the underlying integer strictly covers a
    carry-free split into m - 1 positive q-even parts.
    """
    if v.is_zero:
        return False
    scaled = bound * (v.q.q - 1)
    return all(c > scaled for c in _scaled_coords(v))


def capacity_equals(v: ClassVector, m: int) -> bool:
    """True when v is nonzero, its digit-sum coordinates are all integers,
    and their minimum is exactly m.

    Equivalently: the underlying integer splits into exactly m, and no more
    than m, carry-free positive q-even parts.  Always False for m = 0.
    """
    if m <= 0 or v.is_zero:
        return False
    qm1 = v.q.q - 1
    coords = _scaled_coords(v)
    if any(c % qm1 for c in coords):
        return False
    return min(coords) == m * qm1


def extend_to_cover(u: ClassVector, v: ClassVector) -> ClassVector:
    """Grow v to an even-class vector w with v <= w <= u, keeping slack.

    Preconditions: v and u share the same prime power, 0 < v < u in the
    componentwise order (<= everywhere, strict somewhere, v nonzero), and
    the slack k = min_i(floor(beta_i) - ceil(alpha_i)) is non-negative,
    where beta and alpha are the digit-sum coordinates of u and v.

    The returned w satisfies: w is an even-class vector, v <= w <= u, and
    u - w is nonzero with capacity exactly k (integrally) or above k.
    When k = 0 and the coordinates of u are all integers no such w exists
    at all (w would be forced to equal u); this degenerate configuration
    raises DegenerateCoverError.

    Construction: pick the smallest index l attaining the slack minimum,
    set g_l = ceil(alpha_l), then walk backwards through the remaining
    indices (cyclically) setting g_i = min(floor(beta_i) - k,
    p * g_{i+1} - v_i); w is the shift-difference image of g.
    """
    if u.q != v.q:
        raise PreconditionError("u and v must share the same prime power")
    q = u.q
    f = q.f
    if v.is_zero:
        raise PreconditionError("v must be nonzero")
    if not (v <= u) or v.entries == u.entries:
        raise PreconditionError("need v < u componentwise with a strict entry")

    qm1 = q.q - 1
    beta = _scaled_coords(u)
    alpha = _scaled_coords(v)
    floor_beta = [b // qm1 for b in beta]
    ceil_alpha = [-(-a // qm1) for a in alpha]
    slacks = [b - a for b, a in zip(floor_beta, ceil_alpha)]
    k = min(slacks)
    if k < 0:
        raise PreconditionError(f"cover slack is negative ({k})")
    if k == 0 and all(b % qm1 == 0 for b in beta):
        raise DegenerateCoverError(
            "no even-class cover with nonzero surplus exists: slack is 0 and "
            "the upper bound lies on the even-class lattice"
        )

    l = slacks.index(k)
    g = [0] * f
    g[l] = ceil_alpha[l]
    for step in range(1, f):
        i = (l - step) % f
        g[i] = min(floor_beta[i] - k, q.p * g[(i + 1) % f] - v.entries[i])

    w_entries = tuple(q.p * g[(i + 1) % f] - g[i] for i in range(f))
    return ClassVector(q, w_entries)
