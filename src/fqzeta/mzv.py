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
last entries x, decides the row's classification once, and still
compares every tuple's exact value with it, raising for the first tuple
that disagrees.  A single tuple is a one-entry row; a sweep, with s_r
fastest, is one row per head, and ``sweep_rows`` hands those rows out
as they are, leaving the per-tuple form to ``sweep_negative``.

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
    PackedSum,
    Poly,
    RationalFn,
    canonical_polys,
    canonical_values,
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
    "sweep_rows",
    "zeta_record",
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
    engine stores packed power-sum polynomials keyed by (d, k), which is
    also the memo of the power-sum recurrence, and, per head length, the
    suffix-sum table of the last head seen, so that a lexicographic sweep
    reuses all shared heads.  Loop bounds come from ``floors``, floor(L(k))
    for each exponent k of the grid, read once from
    ``digitlab._threshold_floor``; a row's classification is the one
    head-level ``_trivial_criterion``, decided once per row.  Values leave
    the engine canonical packed; turning them into polynomials or text is
    the caller's, once per distinct value.
    """

    def __init__(self, field: FieldSpec, ks: Iterable[int]):
        self.field = field
        self.floors = {k: _threshold_floor(k, field.pp) for k in ks}
        self._s_packed: dict[tuple[int, int], int] = {}
        self._levels: dict[int, tuple[tuple[int, ...], list[int]]] = {}

    def s_packed(self, d: int, k: int) -> int:
        cached = self._s_packed.get((d, k))
        if cached is None:
            cached = power_sum_packed(d, k, self.field, self._s_packed)
        return cached

    def suffix_table(self, head: tuple[int, ...]) -> list[int]:
        """T(m) for m = 0 .. floor(L(-head[-1])) + 1, canonical packed.

        T(m) sums, over chains d_1 > ... > d_i >= m (i = len(head), each
        d_j within the threshold of -head[j-1]), the products of
        S(d_j, head[j-1]).
        """
        i = len(head)
        cached = self._levels.get(i)
        if cached is not None and cached[0] == head:
            return cached[1]
        k = -head[-1]
        bound = self.floors[k]
        deeper = self.suffix_table(head[:-1]) if i > 1 else None
        table = [0] * (bound + 2)
        run = PackedSum(self.field)
        for m in range(bound, -1, -1):
            if deeper is None:
                run.add(self.s_packed(m, k))
            elif m + 1 < len(deeper) and deeper[m + 1]:
                run.add(self.s_packed(m, k), deeper[m + 1])
            table[m] = run.canonical()
        self._levels[i] = (head, table)
        return table

    def values(self, head: tuple[int, ...], tails: Sequence[int]) -> list[int]:
        """Canonical packed zeta(head + (x,)) for each x in tails: the sum
        over d of S(d, x) * T(d + 1), T the suffix table of head (1 for the
        empty head), renormalized by one fold for the whole row."""
        floors = self.floors
        deeper = self.suffix_table(head) if head else None
        sums = []
        for x in tails:
            k = -x
            total = PackedSum(self.field)
            if deeper is None:
                for d in range(floors[k] + 1):
                    total.add(self.s_packed(d, k))
            else:
                for d in range(min(floors[k] + 1, len(deeper) - 1)):
                    if deeper[d + 1]:
                        total.add(self.s_packed(d, k), deeper[d + 1])
            sums.append(total.value)
        return canonical_values(sums, self.field)

    def row(
        self, head: tuple[int, ...], tails: Sequence[int]
    ) -> list[tuple[int, str]]:
        """(canonical packed value, classification) of zeta(head + (x,))
        for each x in tails.

        The trivial-zero criterion ranges over i <= r-1 only, so it is
        decided once for the row; every value is still compared with it,
        and a disagreement raises VanishingMismatchError naming its tuple.
        """
        values = self.values(head, tails)
        if not head:
            return [(n, NONZERO if n else NOT_APPLICABLE) for n in values]
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
        cls = TRIVIAL_ZERO if trivial else NONZERO
        return [(n, cls) for n in values]


def zeta_negative(s: Union[tuple[int, ...], list[int]], field: FieldSpec) -> ZetaResult:
    """Exact evaluation of zeta at an all-negative tuple.

    The value is a polynomial; the summation runs over descending degree
    chains with each degree capped by its vanishing threshold (outer
    degrees descend first in the fixed summation order).  The result is
    classified against the structural criterion; disagreement raises.
    This is a one-row call of the sweep engine.
    """
    idx = ZetaIndex(field, tuple(s))
    if not idx.all_negative:
        raise PreconditionError("zeta_negative needs all-negative entries")
    engine = _NegativeEngine(field, {-x for x in idx.s})
    [(n, cls)] = engine.row(idx.s[:-1], idx.s[-1:])
    return ZetaResult(idx, canonical_polys(field, [n])[0], cls, True)


def _grid_rows(
    depth: int, smin: int, smax: int, prefix: tuple[int, ...]
) -> tuple[Iterable[tuple[int, ...]], Sequence[int]]:
    """The rows of the sweep over prefix + [smin, smax]^(depth - len(prefix))
    in lexicographic order, as their heads and their common last entries."""
    if smin > smax or smax > -1:
        raise ValueError("need smin <= smax <= -1")
    if depth < 1:
        raise ValueError("index tuple must have depth >= 1")
    if len(prefix) > depth or any(not smin <= x <= smax for x in prefix):
        raise ValueError("prefix needs at most depth entries in [smin, smax]")
    if len(prefix) == depth:
        return [prefix[:-1]], prefix[-1:]
    entries = range(smin, smax + 1)
    mids = itertools.product(entries, repeat=depth - len(prefix) - 1)
    return (prefix + mid for mid in mids), entries


def sweep_rows(
    field: FieldSpec,
    depth: int,
    smin: int,
    smax: int = -1,
    prefix: tuple[int, ...] = (),
) -> Iterator[tuple[tuple[int, ...], Sequence[int], list[tuple[int, str]]]]:
    """All-negative sweep over the tuples prefix + tail, with tail running
    over [smin, smax]^(depth - len(prefix)), one grid row at a time.  The
    empty prefix sweeps the whole grid [smin, smax]^depth.

    Yields (head, tails, row) per head in lexicographic order: the row is
    the tuples head + (x,) for x in tails, and ``row`` holds the canonical
    packed zeta value and classification of each, in the order of tails.
    Every row of one sweep has the same tails.  One engine serves the
    sweep; it classifies each row once but compares every tuple's value
    with that classification, raising VanishingMismatchError naming the
    first tuple that disagrees.
    """
    heads, tails = _grid_rows(depth, smin, smax, tuple(prefix))
    engine = _NegativeEngine(field, range(-smax, -smin + 1))
    for head in heads:
        yield head, tails, engine.row(head, tails)


def sweep_negative(
    field: FieldSpec,
    depth: int,
    smin: int,
    smax: int = -1,
    prefix: tuple[int, ...] = (),
) -> Iterator[ZetaResult]:
    """The sweep of ``sweep_rows`` with one exact ZetaResult per tuple, in
    lexicographic order.  Equal values share one Poly, and a row's new
    values are unpacked in one ``canonical_polys`` batch."""
    polys: dict[int, Poly] = {}
    for head, tails, row in sweep_rows(field, depth, smin, smax, prefix):
        new = [n for n in dict.fromkeys(n for n, _ in row) if n not in polys]
        polys.update(zip(new, canonical_polys(field, new)))
        for x, (n, cls) in zip(tails, row):
            yield ZetaResult(ZetaIndex(field, head + (x,)), polys[n], cls, True)


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
