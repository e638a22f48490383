"""Multizeta values over F_q[t] at integer index tuples.

zeta(s_1, ..., s_r) is the sum over strictly decreasing degree chains
d_1 > ... > d_r >= 0 of the products S(d_1, s_1) * ... * S(d_r, s_r).
At all-negative tuples each factor vanishes above its threshold, so the
sum is a finite, exactly computed polynomial.  A zero at such a tuple of
depth at least two is called trivial when some structural index forces
every summand to vanish: there is an i <= r-1 with r - i above the
vanishing threshold of -s_i.  Exact evaluation and the structural
criterion are required to agree; any mismatch raises
VanishingMismatchError instead of being classified away.

Mixed and positive signs are evaluated with exact rational arithmetic;
the series is finite exactly when s_1 < 0 (the leading degree is then
bounded), otherwise it is truncated at an explicit degree cap and the
result is flagged as truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import floor
from typing import Iterator, Optional, Union

from .digitlab import PrimePower, vanishing_threshold
from .errors import PreconditionError, ResourceLimitError, VanishingMismatchError
from .fqpoly import CACHE_LIMIT, INF, FieldSpec, PackedSum, Poly, RationalFn
from .powersum import (
    power_sum_bruteforce,
    power_sum_formula,
    power_sum_packed,
    power_sum_valuation,
)

__all__ = [
    "NONZERO",
    "TRIVIAL_ZERO",
    "NONTRIVIAL_ZERO",
    "NOT_APPLICABLE",
    "ZetaIndex",
    "ZetaResult",
    "zeta_negative",
    "classify_zero",
    "zeta_valuation",
    "zeta_mixed",
    "goss_vanishing",
    "sweep_negative",
]

NONZERO = "nonzero"
TRIVIAL_ZERO = "trivial_zero"
NONTRIVIAL_ZERO = "nontrivial_zero"
NOT_APPLICABLE = "not_applicable"

MIXED_TERM_LIMIT = 100_000


@dataclass(frozen=True)
class ZetaIndex:
    """An integer index tuple with its field."""

    field: FieldSpec
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.s:
            raise ValueError("index tuple must have depth >= 1")
        if any(x == 0 for x in self.s):
            raise ValueError("index entries must be nonzero")

    @property
    def depth(self) -> int:
        return len(self.s)

    @property
    def weight(self) -> int:
        return sum(self.s)

    @property
    def signs(self) -> str:
        return "".join("-" if x < 0 else "+" for x in self.s)

    @property
    def all_negative(self) -> bool:
        return all(x < 0 for x in self.s)


@dataclass(frozen=True)
class ZetaResult:
    index: ZetaIndex
    value: Union[Poly, RationalFn]
    classification: str
    exact: bool

    @property
    def valuation(self):
        return self.value.t_valuation

    def to_json_dict(self) -> dict:
        pp = self.index.field.pp
        val = self.valuation
        return {
            "q": pp.q,
            "p": pp.p,
            "f": pp.f,
            "modulus": self.index.field.modulus_text(),
            "s": list(self.index.s),
            "depth": self.index.depth,
            "value": self.value.text(),
            "valuation": "inf" if val is INF else val,
            "classification": self.classification,
            "exact": self.exact,
        }


@lru_cache(maxsize=CACHE_LIMIT)
def _threshold_floor(k: int, q: PrimePower) -> int:
    return floor(vanishing_threshold(k, q))


def _trivial_criterion(s: tuple[int, ...], q: PrimePower) -> bool:
    # r - i is an integer, so r - i > L(k) exactly when r - i > floor(L(k))
    r = len(s)
    return any(r - i > _threshold_floor(-s[i - 1], q) for i in range(1, r))


def classify_zero(s: tuple[int, ...], q: PrimePower) -> str:
    """Structural classification of an all-negative tuple of depth >= 2,
    without evaluating the sum.

    TRIVIAL_ZERO when some i <= r-1 has r - i above the vanishing
    threshold of -s_i (every summand then contains a vanishing factor);
    NONZERO otherwise.
    """
    s = tuple(s)
    if len(s) < 2:
        raise PreconditionError("classification needs depth >= 2")
    if any(x >= 0 for x in s):
        raise PreconditionError("classification needs all-negative entries")
    return TRIVIAL_ZERO if _trivial_criterion(s, q) else NONZERO


def zeta_valuation(s: tuple[int, ...], q: PrimePower) -> int:
    """t-valuation of zeta(s) for a non-trivial all-negative tuple:
    the sum over i of the power-sum valuations at depth r - i.

    The leading chain (r-1, ..., 1, 0) realizes this valuation and every
    other chain sits strictly above it, so no cancellation can occur.
    """
    s = tuple(s)
    if any(x >= 0 for x in s):
        raise PreconditionError("zeta_valuation needs all-negative entries")
    if len(s) >= 2 and _trivial_criterion(s, q):
        raise PreconditionError("tuple is a trivial zero; valuation undefined")
    r = len(s)
    total = 0
    for i in range(1, r + 1):
        v = power_sum_valuation(r - i, s[i - 1], q)
        if v is INF:
            raise PreconditionError("vanishing factor in the leading chain")
        total += v
    return total


class _NegativeEngine:
    """Shared caches for exact all-negative evaluation.

    Stores packed power-sum polynomials keyed by (d, k), which is also the
    memo of the power-sum recurrence, and, per prefix length, the
    suffix-sum tables of the last prefix seen, so that a lexicographic
    sweep reuses all shared prefixes.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self._s_packed: dict[tuple[int, int], int] = {}
        self._levels: dict[int, tuple[tuple[int, ...], list[int]]] = {}

    def s_packed(self, d: int, k: int) -> int:
        cached = self._s_packed.get((d, k))
        if cached is None:
            cached = power_sum_packed(d, k, self.field, self._s_packed)
        return cached

    def suffix_table(self, prefix: tuple[int, ...]) -> list[int]:
        """T_i(m) for i = len(prefix), m = 0 .. bound_i + 1, canonical packed.

        T_i(m) sums, over chains d_i > d_{i+1} > ... (all within their
        thresholds) with d_i >= m, the products of the matching power
        sums of prefix entries i, i+1, ... read innermost-first.
        """
        i = len(prefix)
        cached = self._levels.get(i)
        if cached is not None and cached[0] == prefix:
            return cached[1]
        k = -prefix[0]
        bound = _threshold_floor(k, self.field.pp)
        deeper = self.suffix_table(prefix[1:]) if i > 1 else None
        table = [0] * (bound + 2)
        run = PackedSum(self.field)
        for m in range(bound, -1, -1):
            if deeper is None:
                run.add(self.s_packed(m, k))
            elif m + 1 < len(deeper) and deeper[m + 1]:
                run.add(self.s_packed(m, k), deeper[m + 1])
            table[m] = run.canonical()
        self._levels[i] = (prefix, table)
        return table

    def zeta_packed(self, s: tuple[int, ...]) -> int:
        """zeta(s) as a packed sum, not necessarily canonical."""
        # suffix tables are keyed with s_1 innermost, so feed the reverse;
        # the outermost level only needs m = 0, so its products go into
        # one running sum instead of a table
        rev = s[::-1]
        if len(rev) == 1:
            return self.suffix_table(rev)[0]
        k = -rev[0]
        bound = _threshold_floor(k, self.field.pp)
        deeper = self.suffix_table(rev[1:])
        total = PackedSum(self.field)
        for d in range(min(bound + 1, len(deeper) - 1)):
            if deeper[d + 1]:
                total.add(self.s_packed(d, k), deeper[d + 1])
        return total.value


def _classify_checked(
    s: tuple[int, ...], q: PrimePower, is_zero: bool
) -> str:
    r = len(s)
    if r == 1:
        return NOT_APPLICABLE if is_zero else NONZERO
    trivial = _trivial_criterion(s, q)
    if is_zero and not trivial:
        raise VanishingMismatchError(
            f"zeta{s} = 0 but no structural index forces it: either an "
            "arithmetic bug or a genuine counterexample"
        )
    if not is_zero and trivial:
        raise VanishingMismatchError(
            f"zeta{s} != 0 yet the trivial-zero criterion holds; "
            "arithmetic bug"
        )
    return TRIVIAL_ZERO if is_zero else NONZERO


def zeta_negative(
    s: Union[tuple[int, ...], list[int]],
    field: FieldSpec,
    _engine: Optional[_NegativeEngine] = None,
) -> ZetaResult:
    """Exact evaluation of zeta at an all-negative tuple.

    The value is a polynomial; the summation runs over descending degree
    chains with each degree capped by its vanishing threshold (outer
    degrees descend first in the fixed summation order).  The result is
    classified against the structural criterion; disagreement raises.
    """
    idx = ZetaIndex(field, tuple(s))
    if not idx.all_negative:
        raise PreconditionError("zeta_negative needs all-negative entries")
    engine = _engine if _engine is not None else _NegativeEngine(field)
    value = Poly.from_packed(field, engine.zeta_packed(idx.s))
    cls = _classify_checked(idx.s, field.pp, value.is_zero)
    return ZetaResult(idx, value, cls, True)


def sweep_negative(
    field: FieldSpec,
    depth: int,
    smin: int,
    smax: int = -1,
    prefix: tuple[int, ...] = (),
) -> Iterator[ZetaResult]:
    """All-negative sweep over the tuples prefix + tail, with tail running
    over [smin, smax]^(depth - len(prefix)) in lexicographic order; one
    exact ZetaResult per tuple, sharing caches across tuples.  The empty
    prefix sweeps the whole grid [smin, smax]^depth."""
    if smin > smax or smax > -1:
        raise ValueError("need smin <= smax <= -1")
    prefix = tuple(prefix)
    if len(prefix) > depth or any(not smin <= x <= smax for x in prefix):
        raise ValueError("prefix needs at most depth entries in [smin, smax]")
    engine = _NegativeEngine(field)
    entries = range(smin, smax + 1)
    for tail in itertools.product(entries, repeat=depth - len(prefix)):
        yield zeta_negative(prefix + tail, field, _engine=engine)


def zeta_mixed(
    s: Union[tuple[int, ...], list[int]],
    field: FieldSpec,
    d_max: Optional[int] = None,
) -> ZetaResult:
    """Evaluation at a tuple of arbitrary nonzero signs.

    Exact when s_1 < 0: the leading degree, and with it every chain, is
    bounded by the vanishing threshold.  Otherwise the chain is cut at
    d_1 <= d_max and the result is marked as truncated (exact=False).
    Classification is NOT_APPLICABLE: the trivial/nontrivial dichotomy is
    defined only for all-negative tuples.
    """
    idx = ZetaIndex(field, tuple(s))
    pp = field.pp
    exact = idx.s[0] < 0
    if not exact and d_max is None:
        raise PreconditionError("d_max is required when s_1 > 0")

    @lru_cache(maxsize=None)
    def factor(d: int, si: int) -> RationalFn:
        if si < 0:
            return RationalFn(power_sum_formula(d, si, field).value)
        res = power_sum_bruteforce(d, si, field)
        val = res.value
        return val if isinstance(val, RationalFn) else RationalFn(val)

    zero = RationalFn(Poly.zero(field))
    total = zero
    terms = 0
    r = idx.depth

    def upper(i: int, prev: Optional[int]) -> int:
        si = idx.s[i]
        cap = prev - 1 if prev is not None else None
        if si < 0:
            t = _threshold_floor(-si, pp)
            return t if cap is None else min(t, cap)
        if cap is None:
            assert d_max is not None
            return d_max
        return cap

    def rec(i: int, prev: Optional[int], partial: RationalFn) -> None:
        nonlocal total, terms
        if i == r:
            total = total + partial
            terms += 1
            if terms > MIXED_TERM_LIMIT:
                raise ResourceLimitError(
                    f"mixed-sign evaluation exceeded {MIXED_TERM_LIMIT} terms"
                )
            return
        hi = upper(i, prev)
        lo = r - 1 - i
        for d in range(hi, lo - 1, -1):
            rec(i + 1, d, partial * factor(d, idx.s[i]))

    rec(0, None, RationalFn(Poly.one(field)))
    return ZetaResult(idx, total, NOT_APPLICABLE, exact)


def goss_vanishing(s: int, field: FieldSpec) -> bool:
    """Depth-one vanishing test: zeta(s) for s < 0 vanishes exactly when
    s is q-even (Goss).  Evaluates exactly and raises on any mismatch
    with the parity criterion; returns whether the value is zero."""
    if s >= 0:
        raise PreconditionError("goss_vanishing needs s < 0")
    res = zeta_negative((s,), field)
    is_zero = res.value.is_zero
    expected = field.pp.is_q_even(s)
    if is_zero != expected:
        raise VanishingMismatchError(
            f"depth-1 zeta({s}) zero={is_zero} but q-even={expected}"
        )
    return is_zero
