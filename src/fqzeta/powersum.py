"""Power sums over monic polynomials of fixed degree.

S(d, s) is the sum of a^(-s) over the q^d monic polynomials a of degree d
in t.  For s < 0 it is a polynomial in t.  Writing a = t*b + c with b
monic of degree d-1 and c in F_q, and summing c^m over F_q (-1 when m > 0
is a multiple of q-1, else 0), gives the one-part recurrence

    S_d(-k) = -sum C(k, j) t^j S_{d-1}(-j),   S_0 = 1,

over j < k with (q-1) | (k-j); by Lucas' theorem only the base-p digit
submasks j of k contribute, and C(k, j) is the product of the digits'
binomials mod p.  It is the formula route, taken two ways: node by node,
each node a direct sum over its terms, or, where that costs more, a
whole level S_e over every digit submask of k at a time, as one binomial
transform per digit (``fqpoly.lucas_level``).  Unrolled, it is
the digit-combinatorial expansion: a sum over head-free carry-free
compositions (m_0, ..., m_d) of -s with q-even positive interior, each
contributing the multinomial coefficient of -s over the parts mod p
times t to the weight d*m_0 + (d-1)*m_1 + ... + m_{d-1}, with the sign
(-1)^d.  The verification and test suites check the recurrence against
that expansion and against the literal summation.  The nodes S(d, k)
either way computes are kept in one store per field for the life of the
process, which ``power_sum_formula`` and every multizeta sweep share; it
is cleared whole once it holds more than STORE_BITS, and no result
depends on it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Union

from .compose import HEAD, modest
from .digitlab import CACHE_LIMIT, PrimePower, _threshold_floor, base_digits
from .errors import ResourceLimitError
from .fqpoly import (
    INF,
    FieldSpec,
    PackedSum,
    Poly,
    RationalFn,
    canonical_polys,
    lucas_level,
    monic_polys,
    monic_power_sums,
)

__all__ = [
    "PowerSumResult",
    "power_sum_formula",
    "power_sum_bruteforce",
    "bruteforce_power_table",
    "power_sum_valuation",
    "vanishes",
    "BRUTE_FORCE_LIMIT",
]

BRUTE_FORCE_LIMIT = 1_000_000
# recurrence terms the formula route may take (see power_sum_packed); the
# suites and the benchmark stay below 10^5
FORMULA_SPLIT_LIMIT = 10_000_000
# bits the store of S(d, k) below may hold: a call that finds more clears
# it whole, so it stays within one call's additions of this bound
STORE_BITS = 1 << 28
# what one entry is charged besides its value's bit length: about the
# bytes of its dict slot, (d, k) key and int header, so zero values count
_ENTRY_BITS = 1 << 10
# canonical packed S(d, k), keyed (d, k), per field, for the life of the
# process; filled and read only by power_sum_packed.  The lock keeps the
# bit count from losing an update between threads: it may run above what
# the store holds (two threads adding one node), never below
_store: dict[FieldSpec, dict[tuple[int, int], int]] = {}
_store_bits = 0
_store_lock = threading.Lock()


@dataclass(frozen=True)
class PowerSumResult:
    """One computed power sum with its provenance."""

    field: FieldSpec
    d: int
    s: int
    method: str
    value: Union[Poly, RationalFn]

    @property
    def valuation(self):
        return self.value.t_valuation

    def to_json_dict(self) -> dict:
        val = self.valuation
        return {
            "q": self.field.pp.q,
            "p": self.field.pp.p,
            "f": self.field.pp.f,
            "modulus": self.field.modulus_text(),
            "d": self.d,
            "s": self.s,
            "method": self.method,
            "value": self.value.text(),
            "valuation": "inf" if val is INF else val,
        }


def power_sum_packed(d: int, k: int, field: FieldSpec) -> int:
    """S(d, -k) for k >= 0 as a canonical packed polynomial.

    Evaluates the one-part recurrence
    S_d(-k) = -sum C(k, j) t^j S_{d-1}(-j), S_0 = 1, over the base-p digit
    submasks j < k of k with (q-1) | (k-j).  Raises ResourceLimitError,
    before the store is read, when the work bound, the product of (a + 1)
    plus d - 1 times the product of C(a + 2, 2) over the base-p digits a
    of k, exceeds FORMULA_SPLIT_LIMIT, so a warm store changes no outcome.
    A call that finds the store holding more than STORE_BITS clears it
    whole first.  S_0 = 1 is returned at once.

    S(d, -k) itself is the direct sum over its terms.  When one of the
    nodes S(d - 1, j) it reads is missing from the store, and
    ``_level_route_pays`` (from the digits of k, q and d) finds whole
    levels cheaper, the levels below are filled first, one at a time, over
    every digit submask c of k with (q-1) | (k-c) (``_fill_levels``);
    otherwise the direct sum recurses into the missing nodes alone.  The
    store receives every node either computes, the level route's whole
    levels included (S(e, k) for e < d among them); later calls read it,
    and the result does not depend on it.  A call that finds every node
    of level d - 1 it reads stored builds no digit box.
    """
    if d == 0:
        return 1
    p, qm = field.pp.p, field.pp.q - 1
    digits = base_digits(k, p)
    work = prod(a + 1 for a in digits) + (d - 1) * prod(comb(a + 2, 2) for a in digits)
    if work > FORMULA_SPLIT_LIMIT:
        raise ResourceLimitError(
            f"work bound {work} exceeds the formula-route guard {FORMULA_SPLIT_LIMIT}"
        )
    if _store_bits > STORE_BITS:
        _clear_store()
    store = _store.setdefault(field, {})
    value = store.get((d, k))
    if value is not None:
        return value
    rows: dict[int, list[int]] = {}  # C(a, b) mod p by digit a, built as needed

    def node(d: int, k: int, terms) -> int:
        run = PackedSum(field)
        for j, c in terms:
            sub = store.get((d - 1, j))
            if sub is None:
                sub = node(d - 1, j, _lucas_terms(j, p, qm, rows)) if d > 1 else 1
            if sub:
                run.add_scaled(sub, p - c, j)
        value = run.canonical()
        _keep(store, [((d, k), value)])
        return value

    terms = _lucas_terms(k, p, qm, rows)
    if d > 1 and _level_route_pays(k, field.pp, d, 1):
        terms = list(terms)
        if any((d - 1, j) not in store for j, _ in terms):
            _fill_levels(d, k, digits, field, store)
    return node(d, k, terms)


def _lucas_terms(k: int, p: int, qm: int, rows: dict[int, list[int]]):
    """(j, C(k, j) mod p) for each base-p digit submask j < k of k with
    qm | (k - j).  The digits of j above the lowest are enumerated, each
    C(a, b) read from rows[a] (built on first use); the lowest digit then
    steps from its residue mod qm (it has weight 1), so at most two
    candidates remain, one when qm > p - 1."""
    a0, high = k % p, base_digits(k // p, p)
    axes = []
    for i, a in enumerate(high, 1):
        row = rows.get(a)
        if row is None:
            row = rows[a] = _binomial_row(a, p)
        axes.append([(b * p**i, c) for b, c in enumerate(row)])
    for combo in itertools.product(*axes):
        rest, c = 0, 1
        for offset, x in combo:
            rest += offset
            c *= x
        for b0 in range((k - rest) % qm, a0 + 1, qm):
            if rest + b0 < k:
                yield rest + b0, c * _binomial(a0, b0, p) % p


def _binomial_row(a: int, p: int) -> list[int]:
    """C(a, b) mod p for b = 0 .. a, for a digit a < p."""
    row = [1]
    for b in range(a):
        row.append(row[-1] * (a - b) * pow(b + 1, -1, p) % p)
    return row


@lru_cache(maxsize=CACHE_LIMIT)
def _binomial(a: int, b: int, p: int) -> int:
    """C(a, b) mod p for digits b <= a < p, in min(b, a - b) steps."""
    num = den = 1
    for i in range(min(b, a - b)):
        num = num * (a - i) % p
        den = den * (i + 1) % p
    return num * pow(den, -1, p) % p


def _level_route_pays(k: int, q: PrimePower, d: int, levels: int) -> bool:
    """Whether filling ``levels`` whole levels below S(d, -k) over the digit
    box of k should cost less than recursing node by node, from the two
    routes' term counts, each weighted by its measured cost per term (on
    q = 2 .. 27, d = 2 .. 5, cold and with the levels below stored).

    A level takes box * (1 + sum of a / 2) multiply-adds, box the product
    of (a + 1) over the digits a of k, on 2f - 1 limbs per slot; 10 of
    them cost about 7 node route steps.  The node route takes about
    (a_0 + 1) * prod C(a + 2, 2) / (q - 1) enumeration steps, the product
    over the digits above the lowest, a_0, and a share of them about
    (d - 1) / (L(k) + 1) meets only vanishing nodes and adds nothing."""
    digits = base_digits(k, q.p)
    box = prod(a + 1 for a in digits)
    level = box * (2 + sum(digits)) * (2 * q.f - 1) * levels
    node = (k % q.p + 1) * prod(comb(a + 2, 2) for a in digits[1:])
    floor = _threshold_floor(k, q)
    return 7 * level * (floor + 1) * (q.q - 1) < 20 * node * (floor + 2 - d)


def _fill_levels(d: int, k: int, digits: tuple[int, ...], field: FieldSpec, store) -> None:
    """S(e, c) for e = 1 .. d - 1 and every digit submask c of k with
    (q-1) | (k-c), one level at a time (``fqpoly.lucas_level``), from the
    highest level below d - 1 that the store already holds whole, when
    ``_level_route_pays`` for the levels left; else nothing."""
    p, qm = field.pp.p, field.pp.q - 1
    exps = [0]
    for i, a in enumerate(digits):
        exps = [e + b * p**i for b in range(a + 1) for e in exps]
    keep = [i for i, c in enumerate(exps) if (k - c) % qm == 0]
    start = next(
        (e for e in range(d - 2, 0, -1) if all((e, exps[i]) in store for i in keep)), 0
    )
    if not _level_route_pays(k, field.pp, d, d - 1 - start):
        return
    values = [0] * len(exps)
    for i in keep:
        values[i] = store[start, exps[i]] if start else 1
    pascal = [_binomial_row(a, p) for a in range(max(digits) + 1)]
    for e in range(start + 1, d):
        level = lucas_level(field, values, digits, pascal, keep)
        for i, value in zip(keep, level):
            values[i] = value
        _keep(store, [((e, exps[i]), value) for i, value in zip(keep, level)])


def _keep(store, nodes) -> None:
    """Add the nodes (key, value) the store lacks, each charged its value's
    bit length plus _ENTRY_BITS."""
    global _store_bits
    bits = 0
    for key, value in nodes:
        if key not in store:
            store[key] = value
            bits += value.bit_length() + _ENTRY_BITS
    with _store_lock:
        _store_bits += bits


def _clear_store() -> None:
    """Empty every field's store of S(d, k)."""
    global _store_bits
    with _store_lock:
        _store.clear()
        _store_bits = 0


def power_sum_formula(d: int, s: int, field: FieldSpec) -> PowerSumResult:
    """Evaluation of S(d, s) for s < 0 by the one-part recurrence
    (``power_sum_packed``), reading and filling the field's store of
    S(d, k); the value is the same whether the store is cold or warm."""
    if s >= 0:
        raise ValueError("power_sum_formula requires s < 0")
    if d < 0:
        raise ValueError("d must be non-negative")
    value = canonical_polys(field, [power_sum_packed(d, -s, field)])[0]
    return PowerSumResult(field, d, s, "formula", value)


def power_sum_bruteforce(
    d: int, s: int, field: FieldSpec, max_terms: int = BRUTE_FORCE_LIMIT
) -> PowerSumResult:
    """Literal summation of a^(-s) over all monic a of degree d.

    Polynomial-valued for s <= 0, rational for s > 0.  Refuses to start
    when q^d exceeds max_terms; a negative max_terms is a ValueError.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if max_terms < 0:
        raise ValueError("max_terms must be non-negative")
    pp = field.pp
    count = pp.q**d
    if count > max_terms:
        raise ResourceLimitError(
            f"q^d = {count} exceeds the brute-force guard {max_terms}"
        )
    if d == 0:
        one: Union[Poly, RationalFn]
        one = Poly.one(field) if s <= 0 else RationalFn(Poly.one(field))
        return PowerSumResult(field, d, s, "bruteforce", one)
    if s <= 0:
        k = -s
        total = Poly.zero(field)
        for a in monic_polys(field, d):
            total = total + a**k
        return PowerSumResult(field, d, s, "bruteforce", total)
    total_r = RationalFn(Poly.zero(field))
    for a in monic_polys(field, d):
        total_r = total_r + RationalFn(Poly.one(field), a**s)
    return PowerSumResult(field, d, s, "bruteforce", total_r)


def bruteforce_power_table(d: int, kmax: int, field: FieldSpec) -> list[Poly]:
    """S(d, -k) for every 1 <= k <= kmax by incremental multiplication.

    Entry k of the returned list (1-based; entry 0 is S(d, 0)) matches
    power_sum_bruteforce(d, -k) but the whole sweep shares the running
    powers a, a^2, ..., a^kmax of each monic, a^k = a^(k-1) * a.  The sums
    come packed from ``fqpoly.monic_power_sums``, which steps the running
    powers of a block of monics as F_p coordinate arrays, so only one
    block's powers are live at a time, and are unpacked as one batch.  It
    is the literal sum regrouped by the scaling symmetry
    a(t) -> lambda^(-d) * a(lambda * t), lambda in F_q^x: the powers of a
    fundamental set F of about q^(d-1) monics (t^d, and one coset
    representative of each highest lower coefficient), each weighted by
    -1/g mod p (1 for t^d, g the number of ways it is reached), then only
    the coefficients at t^j with j = dk mod q - 1 are kept.  At q = 2, F is
    every monic and neither the weights nor the projection apply.
    Refuses to start when q^d, the number of monics summed, exceeds
    BRUTE_FORCE_LIMIT.
    """
    if d < 0 or kmax < 0:
        raise ValueError("need d >= 0 and kmax >= 0")
    count = field.pp.q**d
    if count > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"q^d = {count} exceeds the brute-force guard {BRUTE_FORCE_LIMIT}"
        )
    return canonical_polys(field, monic_power_sums(field, d, kmax))


@lru_cache(maxsize=CACHE_LIMIT)
def power_sum_valuation(d: int, s: int, q: PrimePower):
    """t-valuation of S(d, s) for s < 0, computed structurally.

    INF when the index set is empty; otherwise the weight of the modest
    composition, which indexes the unique lowest-degree monomial.
    """
    if s >= 0:
        raise ValueError("power_sum_valuation requires s < 0")
    if d < 0:
        raise ValueError("d must be non-negative")
    if d == 0:
        return 0
    if d > _threshold_floor(-s, q):
        return INF
    return modest(-s, d, q, HEAD).weight


def vanishes(d: int, s: int, q: PrimePower) -> bool:
    """True exactly when S(d, s) = 0 for s < 0, i.e. when d exceeds the
    vanishing threshold of -s."""
    if s >= 0:
        raise ValueError("vanishes requires s < 0")
    if d < 0:
        raise ValueError("d must be non-negative")
    return d > _threshold_floor(-s, q)
