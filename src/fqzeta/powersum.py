"""Power sums over monic polynomials of fixed degree.

S(d, s) is the sum of a^(-s) over the q^d monic polynomials a of degree d
in t.  For s < 0 it is a polynomial in t and admits a digit-combinatorial
expansion: a sum over head-free carry-free compositions (m_0, ..., m_d)
of -s with q-even positive interior, each contributing the multinomial
coefficient of -s over the parts reduced mod p (a product of digit-column
multinomials, all nonzero because the composition is carry-free) times
t to the weight d*m_0 + (d-1)*m_1 + ... + m_{d-1}, the whole sum carrying
the sign (-1)^d.

Both the expansion and the literal summation are implemented; the test
and verification suites require them to agree coefficient for
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Iterator, Union

from .compose import HEAD, modest
from .digitlab import PrimePower, base_digits, vanishing_threshold
from .errors import ResourceLimitError
from .fqpoly import INF, FieldSpec, PackedSum, Poly, RationalFn, monic_polys

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
# digit splits the formula route may walk; the suites and the benchmark
# reach at most 8^7 (q = 2, k in {127, 191}, d = 7)
FORMULA_SPLIT_LIMIT = 10_000_000


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


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    if slots == 1:
        yield (total,)
        return
    for y in range(total + 1):
        for rest in _compositions(total - y, slots - 1):
            yield (y,) + rest


def iter_index_tuples(
    k: int, d: int, q: PrimePower
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Stream (parts, weight, multinomial mod p) over the head-free index
    set of k with d+1 parts.

    Enumerates by distributing each base-p digit of k among the parts, so
    carry-freeness is structural and every multinomial coefficient is a
    product of digit-column multinomials, each nonzero mod p.  Raises
    ResourceLimitError first when the digit splits, the product of
    C(a + d, d) over the digits a, exceed FORMULA_SPLIT_LIMIT.
    """
    p = q.p
    qeven_mod = q.q - 1
    digits = base_digits(k, p)
    splits = prod(comb(a + d, d) for a in digits)
    if splits > FORMULA_SPLIT_LIMIT:
        raise ResourceLimitError(
            f"{splits} digit splits exceed the formula-route guard {FORMULA_SPLIT_LIMIT}"
        )
    positions = [(j, a, p**j) for j, a in enumerate(digits) if a]
    # factorials mod p up to the largest digit are units mod p
    fact = [1] * (max(digits, default=0) + 1)
    for i in range(2, len(fact)):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [pow(x, -1, p) for x in fact]
    parts = [0] * (d + 1)

    def rec(idx: int, coeff: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
        if idx == len(positions):
            for i in range(1, d + 1):
                m = parts[i]
                if m == 0 or m % qeven_mod != 0:
                    return
            w = sum((d - i) * parts[i] for i in range(d))
            yield tuple(parts), w, coeff
            return
        _, a, pw = positions[idx]
        for split in _compositions(a, d + 1):
            mult = fact[a]
            for y in split:
                mult *= inv_fact[y]
            for i, y in enumerate(split):
                if y:
                    parts[i] += y * pw
            yield from rec(idx + 1, (coeff * mult) % p)
            for i, y in enumerate(split):
                if y:
                    parts[i] -= y * pw

    yield from rec(0, 1)


def power_sum_formula(d: int, s: int, field: FieldSpec) -> PowerSumResult:
    """Digit-combinatorial evaluation of S(d, s) for s < 0.

    An empty index set yields the zero polynomial.  Distinct compositions
    can share a weight, so coefficients are accumulated per exponent; only
    the extreme degrees are guaranteed collision-free.
    """
    if s >= 0:
        raise ValueError("power_sum_formula requires s < 0")
    if d < 0:
        raise ValueError("d must be non-negative")
    pp = field.pp
    if d == 0:
        return PowerSumResult(field, d, s, "formula", Poly.one(field))
    k = -s
    sign = 1 if d % 2 == 0 else pp.p - 1
    acc: dict[int, int] = {}
    add = field.add_codes
    for _, w, coeff in iter_index_tuples(k, d, pp):
        c = (sign * coeff) % pp.p
        prev = acc.get(w, 0)
        acc[w] = add(prev, c)
    if acc:
        coeffs = [0] * (max(acc) + 1)
        for w, c in acc.items():
            coeffs[w] = c
    else:
        coeffs = []
    return PowerSumResult(field, d, s, "formula", Poly(field, coeffs))


def power_sum_bruteforce(
    d: int, s: int, field: FieldSpec, max_terms: int = BRUTE_FORCE_LIMIT
) -> PowerSumResult:
    """Literal summation of a^(-s) over all monic a of degree d.

    Polynomial-valued for s <= 0, rational for s > 0.  Refuses to start
    when q^d exceeds max_terms.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
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


def bruteforce_power_table(
    d: int, kmax: int, field: FieldSpec, max_terms: int = BRUTE_FORCE_LIMIT
) -> list[Poly]:
    """S(d, -k) for every 1 <= k <= kmax by incremental multiplication.

    Entry k of the returned list (1-based; entry 0 is S(d, 0)) matches
    power_sum_bruteforce(d, -k) but the whole sweep shares the running
    powers a, a^2, ..., a^kmax of each monic.
    """
    if d < 0 or kmax < 0:
        raise ValueError("need d >= 0 and kmax >= 0")
    count = field.pp.q**d
    if count > max_terms:
        raise ResourceLimitError(
            f"q^d = {count} exceeds the brute-force guard {max_terms}"
        )
    acc = [PackedSum(field) for _ in range(kmax + 1)]
    for a in monic_polys(field, d):
        ap = a.packed()
        cur = Poly.one(field).packed()
        acc[0].add(cur)
        for k in range(1, kmax + 1):
            cur = PackedSum(field).add(cur, ap).canonical()
            acc[k].add(cur)
    return [Poly.from_packed(field, s.value) for s in acc]


@lru_cache(maxsize=None)
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
    k = -s
    if vanishing_threshold(k, q) < d:
        return INF
    return modest(k, d, q, HEAD).weight


def vanishes(d: int, s: int, q: PrimePower) -> bool:
    """True exactly when S(d, s) = 0 for s < 0, i.e. when d exceeds the
    vanishing threshold of -s."""
    if s >= 0:
        raise ValueError("vanishes requires s < 0")
    if d < 0:
        raise ValueError("d must be non-negative")
    if d == 0:
        return False
    return vanishing_threshold(-s, q) < d
