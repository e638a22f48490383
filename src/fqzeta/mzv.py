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

The criterion reads only the head s_1, ..., s_{r-1}.  One head-level
function, ``_trivial_criterion``, decides it for the engine,
``classify_zero`` and ``zeta_valuation`` alike, reading the thresholds
from ``digitlab._threshold_floor``.  Evaluation therefore goes a grid row
at a time: one engine call takes the tuples head + (x,) for a list of
last entries x, decides the row's criterion once, and still compares
every tuple's exact value with it, raising for the first tuple that
disagrees.  ``sweep_rows`` takes one range of entries per position and
hands out one row of canonical packed values per head, with s_r fastest;
a single tuple is a sweep of one-entry ranges, and so a one-entry row.
A checked value's class follows from it and the depth by the one rule
``classification``.  A row's values, the sums over d of S(d, s_r) *
T(d + 1) with T the suffix sums of its head, and each suffix table are
one ``fqpoly.product_sums`` call.

Mixed and positive signs are evaluated with exact rational arithmetic;
the series is finite exactly when s_1 < 0 (the leading degree is then
bounded), otherwise it is truncated at an explicit degree cap and the
result is flagged as truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

from .digitlab import PrimePower, _threshold_floor
from .errors import PreconditionError, ResourceLimitError, VanishingMismatchError
from .fqpoly import (
    INF,
    FieldSpec,
    Poly,
    RationalFn,
    canonical_polys,
    product_sums,
)
from .powersum import (
    power_sum_bruteforce,
    power_sum_formula,
    power_sum_packed,
    power_sum_valuation,
)

__all__ = [
    "NONZERO",
    "TRIVIAL_ZERO",
    "NOT_APPLICABLE",
    "ZetaIndex",
    "ZetaResult",
    "zeta_negative",
    "classify_zero",
    "classification",
    "zeta_valuation",
    "zeta_mixed",
    "sweep_rows",
    "zeta_record",
]

NONZERO = "nonzero"
TRIVIAL_ZERO = "trivial_zero"
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
        return zeta_record(
            self.index.field,
            self.index.s,
            self.value.text(),
            self.valuation,
            self.classification,
            self.exact,
        )


def zeta_record(
    field: FieldSpec,
    s: tuple[int, ...],
    text: str,
    valuation,
    classification: str,
    exact: bool,
) -> dict:
    """The JSON record of one evaluated tuple: the one owner of its keys,
    their order and the text of an infinite valuation."""
    pp = field.pp
    return {
        "q": pp.q,
        "p": pp.p,
        "f": pp.f,
        "modulus": field.modulus_text(),
        "s": list(s),
        "depth": len(s),
        "value": text,
        "valuation": "inf" if valuation is INF else valuation,
        "classification": classification,
        "exact": exact,
    }


def _trivial_criterion(head: tuple[int, ...], q: PrimePower) -> bool:
    # the criterion of s = head + (s_r,), r = len(head) + 1: some i <= r-1
    # has r - i > L(-s_i), i.e. r - i > floor(L(-s_i)) as r - i is an integer
    r = len(head) + 1
    return any(r - i > _threshold_floor(-x, q) for i, x in enumerate(head, 1))


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
    return TRIVIAL_ZERO if _trivial_criterion(s[:-1], q) else NONZERO


def zeta_valuation(s: tuple[int, ...], q: PrimePower) -> int:
    """t-valuation of zeta(s) for a non-trivial all-negative tuple:
    the sum over i of the power-sum valuations at depth r - i.

    The leading chain (r-1, ..., 1, 0) realizes this valuation and every
    other chain sits strictly above it, so no cancellation can occur.
    """
    s = tuple(s)
    if any(x >= 0 for x in s):
        raise PreconditionError("zeta_valuation needs all-negative entries")
    if _trivial_criterion(s[:-1], q):
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
    """Exact all-negative evaluation, one grid row at a time.

    A row is the tuples head + (x,) for x in a list of last entries.  The
    engine keeps the column S(0, k), S(1, k), ... per exponent k that the
    row sums read, each S(d, k) taken from ``powersum.power_sum_packed``
    and so from the field's bounded store shared with
    ``power_sum_formula`` and every other engine, and, per head length,
    the suffix-sum table of the last head seen, so that a lexicographic
    sweep reuses all shared heads.  Loop bounds come from
    ``floors``, floor(L(k)) for each exponent k of the grid, read once from
    ``digitlab._threshold_floor``; a row's criterion is the one
    head-level ``_trivial_criterion``, decided once per row.

    A row, and a suffix table, is one ``fqpoly.product_sums`` call: the
    sums over d of S(d, k) * T(d + 1), renormalized by one fold, with the
    choice of plain ints or ``PackedSum`` left to ``fqpoly``.  Values leave
    the engine canonical packed; turning them into polynomials or text, and
    into a ``classification``, is the caller's.
    """

    def __init__(self, field: FieldSpec, ks: Iterable[int]):
        self.field = field
        self.floors = {k: _threshold_floor(k, field.pp) for k in ks}
        self._columns: dict[int, list[int]] = {k: [] for k in self.floors}
        self._levels: dict[int, tuple[tuple[int, ...], list[int]]] = {}
        self._ones = [1] * (max(self.floors.values()) + 1)

    def column(self, k: int, factors: Sequence[int]) -> list[int]:
        """S(d, k), canonical packed, for d = 0 .. n - 1 at least: n - 1 is
        the last d <= floor(L(k)) with factors[d] nonzero, so every S the
        sum over d of S(d, k) * factors[d] reads is computed, and none
        above it."""
        n = min(self.floors[k] + 1, len(factors))
        while n and not factors[n - 1]:
            n -= 1
        col = self._columns[k]
        if len(col) < n:
            col.extend(power_sum_packed(d, k, self.field) for d in range(len(col), n))
        return col

    def suffix_table(self, head: tuple[int, ...]) -> list[int]:
        """T(m) for m = 0 .. floor(L(-head[-1])) + 1, canonical packed.

        T(m) sums, over chains d_1 > ... > d_i >= m (i = len(head), each
        d_j within the threshold of -head[j-1]), the products of
        S(d_j, head[j-1]); it is the product sum of the column S(d, k),
        d >= m, with the factors of head[:-1].
        """
        i = len(head)
        cached = self._levels.get(i)
        if cached is not None and cached[0] == head:
            return cached[1]
        k = -head[-1]
        lead = self._factors(head[:-1])
        col = self.column(k, lead)
        n = min(len(col), len(lead))
        columns = [[0] * m + col[m:n] for m in range(n)]
        table = product_sums(self.field, columns, lead[:n]) + [0] * (self.floors[k] + 2 - n)
        self._levels[i] = (head, table)
        return table

    def _factors(self, head: tuple[int, ...]) -> list[int]:
        """The factors T(d + 1) of S(d, k) in the sums over one more entry,
        for d from 0 up to the last nonzero one, T the suffix table of head;
        for the empty head every factor is 1."""
        if not head:
            return self._ones
        table = self.suffix_table(head)
        n = len(table)
        while n > 1 and not table[n - 1]:
            n -= 1
        return table[1:n]

    def row(self, head: tuple[int, ...], tails: Sequence[int]) -> list[int]:
        """Canonical packed zeta(head + (x,)) for each x in tails: the
        product sum of the column S(d, x) with the factors T(d + 1), T the
        suffix table of head (1 for the empty head).

        The trivial-zero criterion ranges over i <= r-1 only, so it is
        decided once for the row; every value is still compared with it,
        and a disagreement raises VanishingMismatchError naming its tuple.
        """
        floors = self.floors
        lead = self._factors(head)
        width, columns = len(lead), []
        for x in tails:
            col = self._columns[-x]
            if len(col) < width and len(col) <= floors[-x]:
                self.column(-x, lead)
            columns.append(col)
        values = product_sums(self.field, columns, lead)
        if not head:
            return values
        trivial = _trivial_criterion(head, self.field.pp)
        for x, n in zip(tails, values):
            if not n and not trivial:
                raise VanishingMismatchError(
                    f"zeta{head + (x,)} = 0 but no structural index forces it: "
                    "either an arithmetic bug or a genuine counterexample"
                )
            if n and trivial:
                raise VanishingMismatchError(
                    f"zeta{head + (x,)} != 0 yet the trivial-zero criterion "
                    "holds; arithmetic bug"
                )
        return values


def classification(depth: int, n) -> str:
    """The class of an all-negative tuple whose value n (canonical packed,
    or a Poly) the engine has checked: NONZERO when n is nonzero, else
    TRIVIAL_ZERO at depth >= 2 and NOT_APPLICABLE at depth 1."""
    if n:
        return NONZERO
    return TRIVIAL_ZERO if depth >= 2 else NOT_APPLICABLE


def zeta_negative(s: Union[tuple[int, ...], list[int]], field: FieldSpec) -> ZetaResult:
    """Exact evaluation of zeta at an all-negative tuple.

    The value is a polynomial; the summation runs over descending degree
    chains with each degree capped by its vanishing threshold (outer
    degrees descend first in the fixed summation order).  The result is
    classified against the structural criterion; disagreement raises.
    This is the one-row sweep of one-entry ranges.
    """
    idx = ZetaIndex(field, tuple(s))
    if not idx.all_negative:
        raise PreconditionError("zeta_negative needs all-negative entries")
    [(_, _, [n])] = sweep_rows(field, [(x,) for x in idx.s])
    return ZetaResult(idx, canonical_polys(field, [n])[0], classification(idx.depth, n), True)


def sweep_rows(
    field: FieldSpec, ranges: Sequence[Sequence[int]]
) -> Iterator[tuple[tuple[int, ...], Sequence[int], list[int]]]:
    """All-negative sweep over the tuples whose i-th entry runs over
    ranges[i], one grid row at a time.  The box [smin, smax]^depth is
    ``[range(smin, smax + 1)] * depth``; a leading run of one-entry ranges
    fixes a prefix, and a single tuple is a sweep of one-entry ranges.

    Yields (head, tails, values) for each head of
    ``itertools.product(*ranges[:-1])``, in that lexicographic order, with
    tails = ranges[-1]: the row is the tuples head + (x,) for x in tails,
    and ``values`` holds the canonical packed zeta value of each, in the
    order of tails; ``classification`` gives each one's class.  One engine,
    covering the exponents of every range, serves the sweep; it decides
    each row's criterion once but compares every tuple's value with it,
    raising VanishingMismatchError naming the first tuple that disagrees.
    Raises ValueError, at the call, for no ranges, an empty range, or an
    entry above -1.
    """
    if not ranges:
        raise ValueError("index tuple must have depth >= 1")
    if not all(ranges):
        raise ValueError("every position needs at least one entry")
    if any(x > -1 for entries in ranges for x in entries):
        raise ValueError("sweep entries must be <= -1")
    engine = _NegativeEngine(field, {-x for entries in ranges for x in entries})
    tails = ranges[-1]
    heads = itertools.product(*ranges[:-1])
    return ((head, tails, engine.row(head, tails)) for head in heads)


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

