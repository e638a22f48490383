"""Power sums over monic polynomials of fixed degree.

S(d, s) is the sum of a^(-s) over the q^d monic polynomials a of degree d
in t.  For s < 0 it is a polynomial in t.  Writing a = t*b + c with b
monic of degree d-1 and c in F_q, and summing c^m over F_q (-1 when m > 0
is a multiple of q-1, else 0), gives the one-part recurrence

    S_d(-k) = -sum C(k, j) t^j S_{d-1}(-j),   S_0 = 1,

over j < k with (q-1) | (k-j); by Lucas' theorem only the base-p digit
submasks j of k contribute.  It is the formula route.  Unrolled, it is
the digit-combinatorial expansion: a sum over head-free carry-free
compositions (m_0, ..., m_d) of -s with q-even positive interior, each
contributing the multinomial coefficient of -s over the parts mod p
times t to the weight d*m_0 + (d-1)*m_1 + ... + m_{d-1}, with the sign
(-1)^d.  The verification and test suites check the recurrence against
that expansion and against the literal summation.  Its nodes S(d, k) are
kept in one store per field for the life of the process, which
``power_sum_formula`` and every multizeta sweep share; it is cleared whole
once it holds more than STORE_BITS, and no result depends on it.
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
    submasks j < k of k with (q-1) | (k-j).  Every node (d, j) it reaches
    is kept in the field's store, which later calls read; the result does
    not depend on it.  Raises ResourceLimitError, before the store is read,
    when the work bound, the product of (a + 1) plus d - 1 times the
    product of C(a + 2, 2) over the base-p digits a of k, exceeds
    FORMULA_SPLIT_LIMIT, so a warm store changes no outcome.  A call that
    finds the store holding more than STORE_BITS clears it whole first.
    S_0 = 1 is returned at once: at d = 0 the bound cannot trip, and the
    Lucas tables would cost time linear in the largest digit of k.
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
    value = store.get((d, k))  # a hit skips the Lucas tables below
    if value is not None:
        return value
    # C(k, j) mod p by Lucas; every digit of every j is at most a digit of k
    fact = [1] * (max(digits, default=0) + 1)
    for i in range(2, len(fact)):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [pow(x, -1, p) for x in fact]

    def node(d: int, k: int) -> int:
        global _store_bits
        value = store.get((d, k))
        if value is not None:
            return value
        if d == 0:
            value = 1
        else:
            run = PackedSum(field)
            ds = base_digits(k, p)
            for bs in itertools.product(*(range(a + 1) for a in ds)):
                j = 0
                for b in reversed(bs):
                    j = j * p + b
                if j == k or (k - j) % qm:
                    continue
                sub = node(d - 1, j)
                if sub:
                    c = 1
                    for a, b in zip(ds, bs):
                        c = c * fact[a] * inv_fact[b] * inv_fact[a - b] % p
                    run.add_scaled(sub, p - c, j)
            value = run.canonical()
        store[(d, k)] = value
        with _store_lock:
            _store_bits += value.bit_length() + _ENTRY_BITS
        return value

    return node(d, k)


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
