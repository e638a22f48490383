"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: direct filters, hand-rolled
coordinate arithmetic, literal definitions.  Nothing imports the
structural routes it is used to check (beyond basic value types).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb


def digits_of(n: int, base: int) -> list[int]:
    out = []
    while n:
        n, r = divmod(n, base)
        out.append(r)
    return out


def naive_carry_free(parts, p) -> bool:
    cols: dict[int, int] = {}
    for part in parts:
        for j, d in enumerate(digits_of(part, p)):
            cols[j] = cols.get(j, 0) + d
    return all(v < p for v in cols.values())


def naive_vanishing_threshold(k: int, q: int, p: int) -> Fraction:
    """L(k) by its literal definition: the minimum over p^i < q of the
    base-q digit sum of k * p^i, divided by q - 1."""
    sums = []
    scale = 1
    while scale < q:
        sums.append(sum(digits_of(k * scale, q)))
        scale *= p
    return Fraction(min(sums), q - 1)


def naive_head_free(k: int, d: int, q: int, p: int) -> set[tuple[int, ...]]:
    """All (m_0..m_d) with carry-free sum k and positive q-even interior,
    by filtering every composition of k.  Small k only."""
    out = set()
    for cuts in itertools.combinations_with_replacement(range(k + 1), d):
        bounds = (0,) + cuts + (k,)
        parts = tuple(bounds[i + 1] - bounds[i] for i in range(d + 1))
        if not naive_carry_free(parts, p):
            continue
        if any(m <= 0 or m % (q - 1) != 0 for m in parts[1:]):
            continue
        out.add(parts)
    return out


def naive_tail_free(
    n: int, d: int, q: int, p: int, columns=None
) -> set[tuple[int, ...]]:
    """All (X_1..X_d) with carry-free sum n and positive q-even X_i for
    i < d: every way to split each base-p digit of n over the d parts,
    which is what carry-free means, then filtered.

    With columns (one digit class vector per part, f = len(columns[0])),
    only the compositions whose parts have those class vectors; a split
    is dropped as soon as a part holds more digits of a class than its
    column allows.
    """
    digits = digits_of(n, p)
    f = len(columns[0]) if columns else 1
    out = set()

    def walk(j, parts, used):
        if j == len(digits):
            if columns is not None and used != columns:
                return
            if all(x > 0 and x % (q - 1) == 0 for x in parts[:-1]):
                out.add(parts)
            return
        for split in itertools.product(range(digits[j] + 1), repeat=d):
            if sum(split) != digits[j]:
                continue
            grown = tuple(
                col[: j % f] + (col[j % f] + s,) + col[j % f + 1 :]
                for col, s in zip(used, split)
            )
            if columns is not None and any(
                a > b for col, cap in zip(grown, columns) for a, b in zip(col, cap)
            ):
                continue
            walk(j + 1, tuple(x + s * p**j for x, s in zip(parts, split)), grown)

    walk(0, (0,) * d, ((0,) * f,) * d)
    return out


def naive_multinomial_mod(k: int, parts, p: int) -> int:
    if sum(parts) != k:
        return 0
    total = 1
    rest = k
    for m in parts[:-1]:
        total *= comb(rest, m)
        rest -= m
    return total % p


# -- naive arithmetic in F_p[x]/(modulus), coordinate tuples ----------------


def fp_poly_mulmod(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    # reduce by the monic modulus
    deg = len(modulus) - 1
    while len(prod) > deg:
        lead = prod.pop()
        if lead:
            for j in range(deg):
                prod[len(prod) - deg + j] = (
                    prod[len(prod) - deg + j] - lead * modulus[j]
                ) % p
    prod += [0] * (deg - len(prod))
    return tuple(prod)


def naive_poly_text(codes, p, f):
    """The README text of the polynomial with coefficient codes (low degree
    first), rule by rule: nonzero terms from the highest degree down,
    joined by '+'; a term is c*t^k, with t^1 written t and 'c*' dropped
    when c is the code 1; a constant term is c alone, the code 1 included;
    a coefficient prints as its integer when f = 1 and as its base-p
    digits [a_0,...,a_{f-1}] otherwise; no terms print as 0."""

    def coefficient(c):
        if f == 1:
            return str(c)
        digits = []
        for _ in range(f):
            c, r = divmod(c, p)
            digits.append(str(r))
        return "[" + ",".join(digits) + "]"

    terms = []
    for k in range(len(codes) - 1, -1, -1):
        c = codes[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(coefficient(c))
            continue
        power = "t" if k == 1 else "t^" + str(k)
        terms.append(power if c == 1 else coefficient(c) + "*" + power)
    if not terms:
        return "0"
    return "+".join(terms)


def _decode(c, p, f):
    out = []
    for _ in range(f):
        c, r = divmod(c, p)
        out.append(r)
    return tuple(out)


def _encode(coords, p):
    code = 0
    for c in reversed(coords):
        code = code * p + c
    return code


def naive_poly_eval(codes, x, field):
    """The code of the polynomial with coefficient codes (low degree first)
    at the element with code x, by Horner's rule in independent coordinate
    arithmetic (no field tables)."""
    p, f = field.pp.p, field.pp.f
    modulus = list(field.modulus)
    acc = (0,) * f
    for c in reversed(codes):
        acc = fp_poly_mulmod(acc, _decode(x, p, f), modulus, p)
        acc = tuple((u + v) % p for u, v in zip(acc, _decode(c, p, f)))
    return _encode(acc, p)


def naive_poly_mul_codes(a_codes, b_codes, field):
    """Schoolbook product over coefficient codes using independent
    coordinate arithmetic (no field tables)."""
    p, f = field.pp.p, field.pp.f
    modulus = list(field.modulus)

    if not a_codes or not b_codes:
        return ()
    out = [(0,) * f for _ in range(len(a_codes) + len(b_codes) - 1)]
    for i, x in enumerate(a_codes):
        if not x:
            continue
        dx = _decode(x, p, f)
        for j, y in enumerate(b_codes):
            if not y:
                continue
            prod = fp_poly_mulmod(dx, _decode(y, p, f), modulus, p)
            out[i + j] = tuple(
                (u + v) % p for u, v in zip(out[i + j], prod)
            )
    codes = [_encode(c, p) for c in out]
    while codes and codes[-1] == 0:
        codes.pop()
    return tuple(codes)


@lru_cache(maxsize=None)
def naive_power_sums(field, d, kmax):
    """The literal sum of a^k over the q^d monic a of degree d, for each
    k = 0 .. kmax, as a tuple of coefficient-code tuples.  The monics come
    from itertools.product, every power a^k = a^(k-1) * a is one
    naive_poly_mul_codes call, and the sums add coordinates mod p.  Cached,
    since the larger fields take about a second."""
    p, f, q = field.pp.p, field.pp.f, field.pp.q
    sums = [[] for _ in range(kmax + 1)]  # per k, coordinate lists per slot
    for lower in itertools.product(range(q), repeat=d):
        a = lower + (1,)
        power = (1,)
        for k in range(kmax + 1):
            if k:
                power = naive_poly_mul_codes(power, a, field)
            acc = sums[k]
            acc.extend([0] * f for _ in range(len(power) - len(acc)))
            for slot, code in zip(acc, power):
                for e in range(f):
                    code, r = divmod(code, p)
                    slot[e] = (slot[e] + r) % p
    out = []
    for acc in sums:
        codes = [sum(c * p**e for e, c in enumerate(slot)) for slot in acc]
        while codes and codes[-1] == 0:
            codes.pop()
        out.append(tuple(codes))
    return tuple(out)
