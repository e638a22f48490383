"""Exact arithmetic in F_q, F_q[t] and F_q(t) for q = p^f.

Field elements are canonical residues modulo a fixed monic irreducible
m(x) over F_p, encoded as integers in [0, q) (base-p packing of the
coordinate vector).  Polynomials in t are dense tuples of element codes
with no trailing zeros.  Rational functions are reduced fractions with a
monic denominator.

Multiplication of large polynomials goes through a packed big-integer
representation (Kronecker substitution, one slot of 2f - 1 limbs per
t-coefficient), so a single Python int multiply performs the whole
convolution exactly; limbs are then folded modulo m(x) and p.  Only this
module knows that format.  Its limb width is per field: the smallest of
16, 32 and 64 bits holding 256 coefficient products (p-1)^2 * f.  One
overflow rule covers every packed product: canonical operands add at most
(p-1)^2 * f * min(slots) to a limb (an F_p-multiple c * t^j * a adds at
most (p-1)^2), and ``PackedSum`` renormalizes, or splits the shorter
operand, before any limb could overflow.  Its batch form is
``product_sums``: plain int sums of products while len(factors) *
(p-1)^2 * f * (slots of the longest factor) fits a limb, ``PackedSum``s
otherwise.  ``canonical_values``, the one renormalize route, folds many
sums over one buffer (at p = 2, f = 1 one AND with a low-bit mask), for
``product_sums``, ``PackedSum.canonical`` and ``Poly.from_packed`` alike;
``canonical_polys`` and ``canonical_texts`` read canonical ones back by one
frombuffer, with no fold.  ``lucas_level`` takes one level of a Lucas
recurrence over a box of base-p digit vectors as one binomial transform
per digit, plain int sums under the same rule on a tracked limb bound.
``monic_power_sums`` gives the brute-force sums of a^k over the monics of
one degree, regrouped by the scaling action of F_q^x: it steps the running
powers of a block of a fundamental set of about q^(d-1) monics as numpy
limb arrays, one per F_p coordinate, under the same rule on a tracked limb
bound, reducing mod p by integer division (a - p * (a // p)) and taking
each step's column sums per weight in twice the limb width (at most 64
bits); the weighted sums are projected onto the exponents dk mod q - 1,
and only they are packed.  ``make_field`` accepts exactly the fields with
(p-1)^2 * f + p - 1 < 2^64, each exact on every packed path, and
``field_from_q`` applies that rule before it factors q.  The schoolbook
route is kept for small operands and serves as the independent reference
in the test suite.  All arithmetic
is exact; there is no floating point anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import mul
from typing import Iterator, Optional, Sequence

import numpy as np

from .digitlab import CACHE_LIMIT, PrimePower, _is_prime, _perfect_power

__all__ = [
    "INF",
    "FieldSpec",
    "Poly",
    "RationalFn",
    "PackedSum",
    "canonical_polys",
    "canonical_texts",
    "canonical_valuations",
    "canonical_values",
    "lucas_level",
    "product_sums",
    "make_field",
    "field_from_q",
    "monic_polys",
    "monic_power_sums",
    "poly_gcd",
]

_TABLE_LIMIT = 1024  # f > 1 fields up to this q get q x q operation tables
_SCHOOLBOOK_CUTOFF = 2048
_HEADROOM = 256  # coefficient products a limb of the chosen width holds
_POWER_BLOCK_LIMBS = 1 << 17  # limbs in one monic_power_sums block array
_LEVEL_PIECE = 256  # values lucas_level transforms or folds at once
# the text of t^k for the degrees of most printed values, built once
_T_POWERS = np.array(["", "t", *map("t^{}".format, range(2, 1 << 10))], object)


class _PlusInfinity:
    """Distinguished +infinity used as the t-valuation of zero.

    Compares above every integer and Fraction; adding anything to it
    yields itself.  A singleton, never a sentinel integer.
    """

    __slots__ = ()

    def __gt__(self, other):
        return other is not INF

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INF

    def __add__(self, other):
        return INF

    __radd__ = __add__

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        # unpickles as the module's INF, so identity tests survive workers
        return "INF"


INF = _PlusInfinity()


# ---------------------------------------------------------------------------
# prime-field polynomial helpers (coefficient tuples over Z/p, low degree
# first); used for modulus discovery and element arithmetic
# ---------------------------------------------------------------------------


def _fp_strip(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fp_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    # m monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for j, c in enumerate(m):
                r[shift + j] = (r[shift + j] - lead * c) % p
        r.pop()
    return _fp_strip(r)


def _fp_monics(deg: int, p: int) -> Iterator[tuple[int, ...]]:
    # ascending when the low-to-high coefficient tuple is read as a base-p
    # integer, so the first irreducible found is the lexicographic minimum
    for code in range(p**deg):
        lower = []
        c = code
        for _ in range(deg):
            c, r = divmod(c, p)
            lower.append(r)
        yield tuple(lower) + (1,)


def _fp_mulmod(a: Sequence[int], b: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _fp_mod([c % p for c in prod], m, p)


def _fp_gcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    # Euclid over F_p, each divisor first made monic; the last nonzero
    # remainder, up to a unit
    a, b = tuple(a), tuple(b)
    while b:
        inv = pow(b[-1], -1, p)
        b_monic = tuple(c * inv % p for c in b)
        a, b = b_monic, _fp_mod(a, b_monic, p)
    return a


def _fp_is_irreducible(m: Sequence[int], p: int) -> bool:
    # Rabin's test (M. O. Rabin, SIAM J. Comput. 9, 1980): a monic m of
    # degree f is irreducible over F_p iff x^(p^f) = x mod m and
    # gcd(x^(p^(f/r)) - x, m) = 1 for every prime r dividing f
    f = len(m) - 1
    if f == 1:
        return True
    x = (0, 1)
    frobenius = [x]  # x^(p^i) mod m for i = 0 .. f
    for _ in range(f):
        base, e, power = frobenius[-1], p, (1,)
        while e:
            if e & 1:
                power = _fp_mulmod(power, base, m, p)
            base = _fp_mulmod(base, base, m, p)
            e >>= 1
        frobenius.append(power)
    if frobenius[f] != x:
        return False
    for r in range(2, f + 1):
        if f % r == 0 and _is_prime(r):
            diff = list(frobenius[f // r]) + [0] * 2
            diff[1] = (diff[1] - 1) % p
            if len(_fp_gcd(m, _fp_strip(diff), p)) != 1:
                return False
    return True


def _fp_poly_text(coeffs: Sequence[int], var: str = "x") -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            tail = var if k == 1 else f"{var}^{k}"
            terms.append(head + tail)
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# field specification
# ---------------------------------------------------------------------------


class FieldSpec:
    """F_q = F_p[x]/(m(x)) with m the lexicographically smallest monic
    irreducible of degree f (coefficient tuples compared low-to-high as
    base-p integers), so field construction is deterministic."""

    __slots__ = (
        "pp",
        "modulus",
        "x_fold",
        "pack_stride",
        "_limb_bits",
        "_slot_bits",
        "_product_bound",
        "_chunk_slots",
        "_prime",
        "_modulus_text",
        "_add",
        "_mul",
        "_neg",
        "_inv",
    )

    def __init__(self, pp: PrimePower, modulus: tuple[int, ...]):
        self.pp = pp
        self.modulus = modulus
        f = pp.f
        # x^(f+e) reduced mod m(x), for e in 0 .. f-2
        fold = []
        power = _fp_mod([0] * f + [1], modulus, pp.p)
        for _ in range(max(f - 1, 0)):
            padded = tuple(power) + (0,) * (f - len(power))
            fold.append(padded)
            power = _fp_mod((0,) + tuple(power), modulus, pp.p)
        self.x_fold = tuple(fold)
        self.pack_stride = 2 * f - 1
        bound = self._product_bound = (pp.p - 1) ** 2 * f
        self._limb_bits = next((w for w in (16, 32) if bound * _HEADROOM >> w == 0), 64)
        self._slot_bits = self._limb_bits * self.pack_stride
        # longest operand piece whose product fits on top of a reduced limb
        self._chunk_slots = ((1 << self._limb_bits) - pp.p) // bound
        # prime-field codes are residues mod p, with plain integer arithmetic
        self._prime = pp.p if f == 1 else 0
        self._modulus_text = _fp_poly_text(modulus)
        self._add = self._mul = self._neg = self._inv = None
        if f > 1 and pp.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- code/coordinate conversions ------------------------------------

    def coords_of(self, code: int) -> tuple[int, ...]:
        p, f = self.pp.p, self.pp.f
        out = []
        for _ in range(f):
            code, r = divmod(code, p)
            out.append(r)
        return tuple(out)

    def code_of(self, coords: Sequence[int]) -> int:
        p = self.pp.p
        code = 0
        for c in reversed(tuple(coords)):
            code = code * p + (c % p)
        return code

    # -- raw coordinate arithmetic ---------------------------------------

    def _add_coords(self, a: int, b: int) -> int:
        ca, cb = self.coords_of(a), self.coords_of(b)
        return self.code_of([(x + y) % self.pp.p for x, y in zip(ca, cb)])

    def _mul_coords(self, a: int, b: int) -> int:
        p, f = self.pp.p, self.pp.f
        ca, cb = self.coords_of(a), self.coords_of(b)
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        out = list(prod[:f])
        for e in range(f, 2 * f - 1):
            c = prod[e]
            if c:
                for b_idx, fc in enumerate(self.x_fold[e - f]):
                    out[b_idx] = (out[b_idx] + c * fc) % p
        return self.code_of(out)

    def _build_tables(self) -> None:
        # add and neg digit-wise on the base-p digits of all q codes at once;
        # mul and inv through the powers of one primitive element g, the
        # first code whose powers under _mul_coords reach all q - 1 units
        p, f, q = self.pp.p, self.pp.f, self.pp.q
        codes = np.arange(q, dtype=np.int32)
        add = np.zeros((q, q), dtype=np.int32)
        neg = np.zeros(q, dtype=np.int32)
        for j in range(f):
            digit = codes // p**j % p
            add += (digit[:, None] + digit) % p * p**j
            neg += -digit % p * p**j
        for g in range(2, q):
            powers = [1]
            while (x := self._mul_coords(powers[-1], g)) != 1:
                powers.append(x)
            if len(powers) == q - 1:
                break
        antilog = np.array(powers, dtype=np.int32)
        log = np.zeros(q, dtype=np.int32)
        log[antilog] = np.arange(q - 1, dtype=np.int32)
        mul = np.zeros((q, q), dtype=np.int32)
        mul[1:, 1:] = antilog[(log[1:, None] + log[1:]) % (q - 1)]
        self._add, self._mul, self._neg = add.tolist(), mul.tolist(), neg.tolist()
        self._inv = [0] + antilog[-log[1:] % (q - 1)].tolist()

    # -- public code arithmetic ------------------------------------------

    def add_codes(self, a: int, b: int) -> int:
        if self._prime:
            return (a + b) % self._prime
        if self._add is not None:
            return self._add[a][b]
        return self._add_coords(a, b)

    def mul_codes(self, a: int, b: int) -> int:
        if self._prime:
            return a * b % self._prime
        if self._mul is not None:
            return self._mul[a][b]
        return self._mul_coords(a, b)

    def neg_code(self, a: int) -> int:
        if self._prime:
            return -a % self._prime
        if self._neg is not None:
            return self._neg[a]
        return self.code_of([(-c) % self.pp.p for c in self.coords_of(a)])

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self._prime:
            return pow(a, -1, self._prime)
        if self._inv is not None:
            return self._inv[a]
        return self.pow_code(a, self.pp.q - 2)

    def pow_code(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_code(self.inv_code(a), -e)
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul_codes(out, base)
            base = self.mul_codes(base, base)
            e >>= 1
        return out

    # -- convenience -------------------------------------------------------

    def modulus_text(self) -> str:
        return self._modulus_text

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.pp == other.pp
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.pp, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.pp.q}, modulus={self.modulus_text()})"


@lru_cache(maxsize=CACHE_LIMIT)
def make_field(p: int, f: int) -> FieldSpec:
    """Deterministic field for q = p^f.

    The modulus is the lexicographically smallest monic irreducible of
    degree f over F_p, coefficients compared low-to-high as a base-p
    integer; irreducibility is certified by Rabin's test, in O(f) powers
    x^p mod m(x) and one gcd per prime divisor of f.  Raises ValueError when f < 1
    or (p-1)^2 * f + p - 1 does not fit a 64-bit limb, both before p is
    tested for primality.  Fields are cached (CACHE_LIMIT entries); an
    evicted field is rebuilt equal by value.
    """
    _check_size(p, f)
    pp = PrimePower(p, f)
    modulus = next(cand for cand in _fp_monics(f, p) if _fp_is_irreducible(cand, p))
    return FieldSpec(pp, modulus)


def _check_size(p: int, f: int) -> None:
    # the field-size rule; p < 2 is left to PrimePower
    if f < 1:
        raise ValueError(f"f must be >= 1, got {f}")
    if p > 1 and (p - 1) ** 2 * f + p - 1 >> 64:
        raise ValueError(f"q = {p}^{f}: (p-1)^2*f + p-1 exceeds a 64-bit limb")


def _field_prime_power(q: int) -> PrimePower:
    """``PrimePower.from_q(q)`` after ``make_field``'s size rule, applied to
    q = r^f with f largest (r = p for a prime power) before r is tested for
    primality, so a q too wide for the limbs is refused at once."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    r, f = _perfect_power(q)
    _check_size(r, f)
    if not _is_prime(r):
        raise ValueError(f"{q} is not a prime power")
    return PrimePower(r, f)


def field_from_q(q: int) -> FieldSpec:
    pp = _field_prime_power(q)
    return make_field(pp.p, pp.f)


# ---------------------------------------------------------------------------
# packed representation
# ---------------------------------------------------------------------------


def _pack_codes(codes: Sequence[int], field: FieldSpec) -> int:
    p, f = field.pp.p, field.pp.f
    arr = np.asarray(codes, dtype=np.uint64)
    full = np.zeros((len(codes), field.pack_stride), dtype=f"<u{field._limb_bits // 8}")
    for j in range(f):
        full[:, j] = (arr // p**j) % p
    return int.from_bytes(full.tobytes(), "little")


def _fold_limbs(raw: bytes, field: FieldSpec) -> bytes:
    """Packed limbs, whole slots, with the x-slots folded modulo m(x) into
    the low f limbs, the rest zeroed, all reduced mod p."""
    p, f = field.pp.p, field.pp.f
    dtype = f"<u{field._limb_bits // 8}"
    limbs = np.frombuffer(raw, dtype)
    if f == 1:
        return (limbs % p).tobytes()
    # f - 1 fold terms c * limb (c < p) stay below 2^32 on 16-bit limbs and
    # below 2^64 on 32-bit limbs; 64-bit limbs are reduced first, which
    # keeps a head limb below (p-1) + (f-1)(p-1)^2, as make_field assumes
    rows = limbs.reshape(-1, field.pack_stride)
    rows = rows.astype(np.uint32 if field._limb_bits == 16 else np.uint64)
    if field._limb_bits == 64:
        rows %= p
    for e in range(f, 2 * f - 1):
        col = rows[:, e]
        for b_idx, c in enumerate(field.x_fold[e - f]):
            if c:
                rows[:, b_idx] += c * col
    rows[:, f:] = 0
    rows %= p
    return rows.astype(dtype).tobytes()


class PackedSum:
    """Exact running sum of products of canonical packed polynomials.

    ``add`` and ``add_scaled`` are the one place packed integers are
    multiplied and summed.  ``load`` bounds every limb of ``value``; before
    a term could push a limb past the limb width the sum is renormalized,
    and a product too long to fit even then is taken in pieces of the
    shorter operand.
    """

    __slots__ = ("field", "value", "load")

    def __init__(self, field: FieldSpec):
        self.field, self.value, self.load = field, 0, 0

    def add(self, a: int, b: int = 1) -> "PackedSum":
        """Add a * b for canonical packed a and b; b = 1 adds a itself."""
        if not a or not b:
            return self
        fs = self.field
        la, lb = a.bit_length() // fs._slot_bits + 1, b.bit_length() // fs._slot_bits + 1
        if la < lb:
            a, b, lb = b, a, la
        if lb <= fs._chunk_slots:
            self._reserve(fs._product_bound * lb)
            self.value += a * b
            return self
        bits = fs._chunk_slots * fs._slot_bits
        for shift in range(0, b.bit_length(), bits):
            self._reserve(fs._product_bound * fs._chunk_slots)
            self.value += (a * (b >> shift & (1 << bits) - 1)) << shift
        return self

    def add_scaled(self, a: int, c: int, j: int) -> "PackedSum":
        """Add c * t^j * a for canonical packed a and c in [0, p)."""
        if a and c:
            p1 = self.field.pp.p - 1
            self._reserve(p1 * p1)
            self.value += c * a << j * self.field._slot_bits
        return self

    def _reserve(self, bound: int) -> None:
        if self.load + bound >> self.field._limb_bits:
            self.canonical()
        self.load += bound

    def canonical(self) -> int:
        """The sum, renormalized in place to canonical packed form."""
        if self.load >= self.field.pp.p:
            [self.value] = canonical_values([self.value], self.field)
            self.load = self.field.pp.p - 1
        return self.value


def _products_fit(field: FieldSpec, count: int, longest: int) -> bool:
    """Whether a plain sum of ``count`` products of canonical packed values,
    each with a factor no longer than ``longest``, keeps every limb below
    the limb width: a product adds at most (p-1)^2 * f per slot of it."""
    slots = -(-longest.bit_length() // field._slot_bits)
    return count * field._product_bound * slots >> field._limb_bits == 0


def product_sums(
    field: FieldSpec, columns: Sequence[Sequence[int]], factors: Sequence[int]
) -> list[int]:
    """Canonical packed sum over d of col[d] * factors[d] for each column of
    canonical packed values, d running while both last, renormalized by one
    ``canonical_values`` fold: plain ints when ``_products_fit`` admits
    len(factors) terms and the longest factor, else ``PackedSum``s.  With
    no factors every sum is empty, 0."""
    if not factors:
        return [0] * len(columns)
    if _products_fit(field, len(factors), max(factors, default=0)):
        sums = [sum(map(mul, col, factors)) for col in columns]
    else:
        sums = []
        for col in columns:
            total = PackedSum(field)
            for a, b in zip(col, factors):
                total.add(a, b)
            sums.append(total.value)
    return canonical_values(sums, field)


def canonical_values(values: Sequence[int], field: FieldSpec) -> list[int]:
    """Canonical packed form of each packed value (canonical, or a
    ``PackedSum.value``), all renormalized by a single fold.  Zero stays 0,
    so a value is the zero polynomial exactly when its canonical form is 0.
    At p = 2, f = 1 a limb's residue is its low bit, so the fold is
    n & mask, with a mask built per call holding a 1 at each limb's low bit."""
    fs = field
    # values are non-negative, so the largest is the longest
    slots = -(-max(values).bit_length() // fs._slot_bits) if values else 0
    if not slots:
        return list(values)
    if fs._prime == 2:
        mask = ((1 << slots * fs._slot_bits) - 1) // ((1 << fs._limb_bits) - 1)
        return [n & mask for n in values]
    # every value padded to the longest one's slots, one fold over the lot
    nbytes = slots * fs._slot_bits // 8
    raw = memoryview(_fold_limbs(b"".join([n.to_bytes(nbytes, "little") for n in values]), fs))
    return [
        int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)
    ]


def lucas_level(
    field: FieldSpec,
    values: Sequence[int],
    digits: Sequence[int],
    pascal: Sequence[Sequence[int]],
    keep: Sequence[int],
) -> list[int]:
    """One level of a Lucas recurrence over a box of base-p digit vectors.

    values[i] is a canonical packed x_c for every c with c_i <= digits[i],
    at i = sum of c_i * (digits[0] + 1) * ... * (digits[i-1] + 1), and
    pascal[c][b] is C(c, b) mod p for c up to the largest digit.  Returns,
    for each index of keep, the canonical packed

        t^c x_c - sum over b <= c digitwise of C(c, b) * t^b * x_b,

    c and b read as integers sum c_i * p^i and C(c, b) = prod C(c_i, b_i)
    (Lucas).  Each x_b is shifted to t^b * x_b once; the sum over b is then
    taken one digit axis at a time (Yates' method), y_c = sum over
    b_i <= c_i of C(c_i, b_i) * y_b, as plain int sums over an object array
    while a tracked limb bound fits (an axis multiplies it by at most the
    largest pascal row sum), in pieces of at most _LEVEL_PIECE lines, so a
    step holds at most a piece's new ints.  The box is renormalized first
    where the bound would not fit, and an axis whose terms would overflow
    even canonical limbs goes through ``PackedSum``s.
    """
    p, bits, slot = field.pp.p, field._limb_bits, field._slot_bits
    exps = [0]
    for i, a in enumerate(digits):
        exps = [e + b * p**i for b in range(a + 1) for e in exps]
    flat = np.empty(len(values), object)
    flat[:] = [x << e * slot for x, e in zip(values, exps)]
    load, stride = p - 1, 1
    for a in digits:
        if not a:
            continue
        rows = pascal[: a + 1]
        grow = max(map(sum, rows))
        if load * grow >> bits and load >= p:
            _fold_box(flat, field)
            load = p - 1
        # lines[h, b, l]: the entry with digit b on this axis, the digits
        # below it giving l and those above giving h
        lines = flat.reshape(-1, a + 1, stride)
        if load * grow >> bits:
            # even canonical terms would overflow: one PackedSum per entry
            for h, l in itertools.product(range(len(lines)), range(stride)):
                line, sums = lines[h, :, l], [PackedSum(field) for _ in rows]
                for total, row in zip(sums, rows):
                    for x, coeff in zip(line, row):
                        total.add_scaled(x, coeff, 0)
                line[:] = [total.value for total in sums]
            load = 1 << bits
        else:
            cols, step = min(stride, _LEVEL_PIECE), max(1, _LEVEL_PIECE // stride)
            for h, l in itertools.product(range(0, len(lines), step), range(0, stride, cols)):
                piece = lines[h : h + step, :, l : l + cols]
                # top row first: row c reads only the rows b <= c, not yet
                # replaced
                for c in range(a, 0, -1):
                    acc = piece[:, 0]
                    for b, coeff in enumerate(rows[c][1:], 1):
                        if coeff:
                            acc = acc + (piece[:, b] if coeff == 1 else piece[:, b] * coeff)
                    piece[:, c] = acc
            load *= grow
        stride *= a + 1
    if (load + 1) * (p - 1) >> bits:
        _fold_box(flat, field)
    neg = p - 1  # -y is (p - 1) * y, and y itself at p = 2
    out = []
    for a in range(0, len(keep), _LEVEL_PIECE):
        run = keep[a : a + _LEVEL_PIECE]
        sums = [(values[i] << exps[i] * slot) + (flat[i] * neg if p > 2 else flat[i]) for i in run]
        flat[run] = 0
        out += canonical_values(sums, field)
    return out


def _fold_box(flat: np.ndarray, field: FieldSpec) -> None:
    """Renormalize an object array of packed values in place, by
    ``canonical_values`` over runs of _LEVEL_PIECE values, so that no fold
    pads more than a run to its longest value."""
    for a in range(0, len(flat), _LEVEL_PIECE):
        flat[a : a + _LEVEL_PIECE] = canonical_values(flat[a : a + _LEVEL_PIECE].tolist(), field)


def _canonical_codes(field: FieldSpec, values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient codes of a batch of canonical packed values, one per slot,
    and the slot where each value starts (and the last ends): one frombuffer
    and no fold, as canonical limbs are below p and the x-slots zero."""
    fs, f = field, field.pp.f
    slots = [-(-n.bit_length() // fs._slot_bits) for n in values]
    width = fs._slot_bits // 8
    raw = b"".join([n.to_bytes(s * width, "little") for n, s in zip(values, slots)])
    rows = np.frombuffer(raw, f"<u{fs._limb_bits // 8}").reshape(-1, fs.pack_stride)
    weights = np.array([fs.pp.p**j for j in range(f)], np.uint64)
    codes = rows[:, 0] if f == 1 else rows[:, :f] @ weights
    return codes, np.cumsum([0] + slots)


def canonical_polys(field: FieldSpec, values: Sequence[int]) -> list["Poly"]:
    """The polynomial of each canonical packed value, read as one batch."""
    if not values:
        return []
    codes, starts = _canonical_codes(field, values)
    codes, starts = codes.tolist(), starts.tolist()
    return [Poly._trusted(field, codes[a:b]) for a, b in zip(starts, starts[1:])]


def canonical_texts(field: FieldSpec, values: Sequence[int]) -> list[tuple[str, object]]:
    """(README text, t-valuation) of each canonical packed value, read as
    one batch; the valuation is the lowest set bit over the slot bits, INF
    for 0."""
    if not values:
        return []
    codes, starts = _canonical_codes(field, values)
    nz = np.flatnonzero(codes != 0)  # a bool mask: nonzero is far faster on it
    cuts = np.searchsorted(nz, starts)
    degs = nz - np.repeat(starts[:-1], cuts[1:] - cuts[:-1])
    texts = _terms_texts(field, degs, codes[nz], cuts.tolist())
    return list(zip(texts, canonical_valuations(field, values)))


def canonical_valuations(field: FieldSpec, values: Sequence[int]) -> list:
    """The t-valuation of each canonical packed value: its lowest set bit
    over the slot bits, INF for 0."""
    bits = field._slot_bits
    return [((n & -n).bit_length() - 1) // bits if n else INF for n in values]


def _mul_matrices(field: FieldSpec, codes: np.ndarray) -> np.ndarray:
    """Entry [u, v, i] is F_p coordinate u of codes[i] * x^v mod m(x): the
    matrix of multiplication by codes[i] on coordinate vectors, reduced."""
    p, f = field.pp.p, field.pp.f
    col = [codes // p**e % p for e in range(f)]
    cols = [col]
    # x * c shifts the coordinates up; the top one folds back as x^f mod m
    top = field.x_fold[0] if f > 1 else ()
    for _ in range(f - 1):
        lead = col[-1]
        col = [(lead * top[0]) % p] + [
            (low + lead * c) % p for low, c in zip(col[:-1], top[1:])
        ]
        cols.append(col)
    return np.array(cols, dtype=f"<u{field._limb_bits // 8}").transpose(1, 0, 2)


def monic_power_sums(field: FieldSpec, d: int, kmax: int) -> list[int]:
    """Canonical packed sum of a^k over the q^d monic a of degree d, for
    each k = 0 .. kmax; a sum that is 0 is the int 0.

    The sums are taken over a fundamental set F of the scaling action
    (lambda . a)(t) = lambda^(-d) * a(lambda * t) of F_q^x on the monics
    (``_scaling_groups``): t^d, and for each j < d the monics whose highest
    lower coefficient is b_j, with b_j in a fixed set of g = gcd(d - j, q - 1)
    coset representatives of the (d - j)-th powers.  Coefficient i of
    (lambda . a)^k is lambda^(i - dk) times coefficient i of a^k, every other
    monic is lambda . a for exactly g pairs (lambda, a), and the sum over
    lambda of lambda^e is -1 in F_p when q - 1 divides e and 0 otherwise, so

        S_d(k) = P_k(t^(dk) - sum over a in F, a != t^d, of a^k / g(a)),

    where P_k keeps the coefficients at t^i with i = dk mod q - 1.  F has
    1 + sum over j < d of gcd(d - j, q - 1) * q^j monics, about q^(d-1).
    Each monic of F carries the weight -1/g mod p (1 for t^d); the sums of
    one weight are kept apart and weighted once, reduced, at the end, and
    P_k is one mask over all the sums.  At q = 2, F is every monic, every
    weight is 1 and P_k keeps everything, so neither step runs.

    F is taken in blocks.  A block keeps its running powers a^k as limb
    arrays in the field's limb width, one per F_p coordinate, with a row per
    slot and a column per monic, for the whole sweep over k; no power
    becomes a Python int.  A step from a^(k-1) to a^k shifts by d slots for
    t^d and, for each lower coefficient b_j, adds the f^2 products of
    coordinate arrays with the entries of b_j's multiplication matrix (the
    x-fold built in).  Overflow follows the ``PackedSum`` rule on a tracked
    limb bound: a step multiplies the bound by at most 1 + d * f * (p-1), so
    the step reduces mod p once where the next step could pass the limb
    width (or the column sums their width), and reduces between
    coefficients where even a reduced power could not take a whole step.
    A reduction is a - p * (a // p), the quotient in a scratch row.  The
    block's part of each sum is a column sum per weight in twice the limb
    width, capped at 64 bits (uint32 for 16-bit limbs, else uint64).  Each
    array holds at most _POWER_BLOCK_LIMBS limbs (at least one monic), and
    the sums are laid into packed limbs once, at the end.
    """
    if d < 0 or kmax < 0:
        raise ValueError("need d >= 0 and kmax >= 0")
    p, f, q = field.pp.p, field.pp.f, field.pp.q
    dtype = f"<u{field._limb_bits // 8}"
    size = max(1, _POWER_BLOCK_LIMBS // (d * kmax + 1))
    groups = _scaling_groups(field, d)
    weights = sorted({w for w, _, _ in groups})
    sizes = [len(reps) * q**j for _, j, reps in groups]
    bounds = list(itertools.accumulate(sizes, initial=0))
    # the d * k + 1 slots of sum k are columns offsets[k] .. offsets[k+1]-1
    # of one array per weight, so a single _reduce brings every sum below p;
    # entries are column sums, in twice the limb width capped at 64 bits
    offsets = [k * (d * (k - 1) + 2) // 2 for k in range(kmax + 2)]
    sum_dtype = f"<u{min(2 * field._limb_bits, 64) // 8}"
    flat = np.zeros((len(weights), f, offsets[-1]), sum_dtype)
    sums = [flat[:, :, a:b] for a, b in zip(offsets, offsets[1:])]
    for start in range(0, bounds[-1], size):
        stop = min(start + size, bounds[-1])
        pieces, segments = [], []
        # the block's monics of each weight are one run, as groups are
        # sorted by weight
        for (w, j, reps), a, b in zip(groups, bounds, bounds[1:]):
            lo, hi = max(a, start), min(b, stop)
            if lo < hi:
                pieces.append(_group_codes(q, d, j, reps, lo - a, hi - a))
                col = weights.index(w)
                if segments and segments[-1][0] == col:
                    segments[-1][2] = hi - start
                else:
                    segments.append([col, lo - start, hi - start])
        codes = [np.concatenate(coeff) for coeff in zip(*pieces)]
        # a function of its own, so a block's arrays are freed on return
        _add_block_sums(field, d, codes, segments, sums)
        _reduce(flat, p)
    # weights[0] is 1, the weight of t^d; each step stays below
    # (p-1)^2 + p - 1, which make_field's size rule fits in 64 bits (and in
    # 32 where the limbs, and so p <= 16, are 16-bit)
    total = flat[0]
    for w, part in zip(weights[1:], flat[1:]):
        part *= w
        total += part
        _reduce(total, p)
    if q > 2:
        # column c of sum k holds t^i, i = dk - e for e its distance from
        # the sum's last column; P_k keeps e = 0 mod q - 1, and as
        # 0 <= e <= d * kmax the modulus min(q - 1, d * kmax + 1) keeps the
        # same columns
        e = np.repeat(np.asarray(offsets[1:]) - 1, np.diff(offsets))
        e -= np.arange(offsets[-1])
        e %= min(q - 1, d * kmax + 1)
        total[:, e != 0] = 0
    limbs = np.zeros((offsets[-1], field.pack_stride), dtype)
    limbs[:, :f] = total.T
    raw = memoryview(limbs.tobytes())
    width = field._slot_bits // 8
    return [
        int.from_bytes(raw[a * width : b * width], "little")
        for a, b in zip(offsets, offsets[1:])
    ]


def _scaling_groups(field: FieldSpec, d: int) -> list[tuple[int, int, list[int]]]:
    """The fundamental set F of ``monic_power_sums`` as groups (weight, j,
    reps), sorted by weight: t^d as (1, 0, [0]), and for each j < d the
    g * q^j monics with b_j in reps, b_i free below j and 0 above, where
    g = gcd(d - j, q - 1), reps holds the first code c >= 1 for each value
    of c^((q-1)/g) (one per coset of the (d - j)-th powers in F_q^x) and
    the weight is -1/g mod p."""
    p, q = field.pp.p, field.pp.q
    groups = [(1, 0, [0])]
    for j in range(d):
        g = math.gcd(d - j, q - 1)
        reps, seen = [], set()
        for c in range(1, q):
            if len(reps) == g:
                break
            char = field.pow_code(c, (q - 1) // g)
            if char not in seen:
                seen.add(char)
                reps.append(c)
        groups.append((-pow(g, -1, p) % p, j, reps))
    return sorted(groups, key=lambda group: group[0])


def _group_codes(
    q: int, d: int, j: int, reps: list[int], lo: int, hi: int
) -> list[np.ndarray]:
    """Codes of b_0 .. b_(d-1) of the monics lo .. hi-1 of one group of
    ``_scaling_groups``: monic i has b_j = reps[i // q^j], b_l digit l of i
    in base q below j, and b_l = 0 above j."""
    local = np.arange(lo, hi, dtype=np.int64)
    lead = np.asarray(reps, np.int64)[local // q**j]
    zero = np.zeros_like(local)
    return [local // q**l % q if l < j else lead if l == j else zero for l in range(d)]


def _reduce(a: np.ndarray, p: int, scratch: Optional[np.ndarray] = None) -> None:
    """Reduce a mod p in place as a - p * (a // p), one F_p coordinate a[u]
    at a time, the quotient written to ``scratch`` (a row's shape and dtype)
    when given: np.remainder by a scalar is several times slower."""
    for row in a:
        quot = np.floor_divide(row, p, out=scratch)
        quot *= p
        row -= quot


def _add_block_sums(
    field: FieldSpec,
    d: int,
    codes: list[np.ndarray],
    segments: list[list[int]],
    sums: list[np.ndarray],
) -> None:
    """Add to each sums[k][w] (F_p coordinates by slot, each entry below p)
    the sum of a^k over the monics a..b-1 of the block, for each segment
    (w, a, b); the segments cover the block in order, and monic i is
    a = t^d + sum codes[j][i] t^j.  Every entry stays within the width of
    the sums' dtype."""
    p, f = field.pp.p, field.pp.f
    bits = field._limb_bits
    sum_dtype = sums[0].dtype
    sum_bits = sum_dtype.itemsize * 8
    grow = 1 + d * f * (p - 1)  # a step multiplies a limb bound by at most this
    kmax = len(sums) - 1
    size = segments[-1][2]
    # entry [j][u][v] of mats multiplies coordinate v into coordinate u by b_j
    mats = [[list(row) for row in _mul_matrices(field, c)] for c in codes]
    cur = np.zeros((f, d * kmax + 1, size), f"<u{bits // 8}")
    new, tmp = np.zeros_like(cur), np.empty_like(cur[0])
    cur[0, 0] = 1
    for w, a, b in segments:
        sums[0][w, 0, 0] += b - a
    load = 1  # bound on every limb of cur
    for k in range(1, kmax + 1):
        n = d * (k - 1) + 1  # slots of a^(k-1)
        new[:, :d] = 0
        new[:, d : d + n] = cur[:, :n]
        src, part = list(cur[:, :n]), tmp[:n]
        acc, term = load, f * (p - 1) * load
        for j, mat in enumerate(mats):
            if acc + term >> bits:
                _reduce(new[:, : d + n], p, tmp[: d + n])
                acc = p - 1
            acc += term
            for dst, row in zip(new[:, j : j + n], mat):
                for x, entry in zip(src, row):
                    np.multiply(x, entry, out=part)
                    dst += part
        load = acc
        if load * grow >> bits or load * size + p >> sum_bits:
            _reduce(new[:, : d + n], p, tmp[: d + n])
            load = p - 1
        for w, a, b in segments:
            sums[k][w] += new[:, : d + n, a:b].sum(axis=2, dtype=sum_dtype)
        cur, new = new, cur


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Dense polynomial in t over a FieldSpec.

    Coefficients are element codes, index = power of t, no trailing zeros;
    the zero polynomial has an empty coefficient tuple.  Instances are
    immutable and hashable.
    """

    __slots__ = ("field", "coeffs", "_packed")

    def __init__(self, field: FieldSpec, coeffs: Sequence[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        q = field.pp.q
        if any(not 0 <= c < q for c in cs):
            raise ValueError("coefficient code out of range")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_packed", None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: FieldSpec, code: int) -> "Poly":
        return cls(field, (code,))

    @classmethod
    def t(cls, field: FieldSpec) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def _trusted(cls, field: FieldSpec, coeffs: list[int]) -> "Poly":
        """Poly of codes already in [0, q); only trailing zeros are stripped."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "_packed", None)
        return self

    @classmethod
    def from_packed(cls, field: FieldSpec, n: int) -> "Poly":
        """Polynomial of a packed value, canonical or a ``PackedSum.value``."""
        return canonical_polys(field, canonical_values([n], field))[0]

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def t_valuation(self):
        """Lowest nonzero t-exponent; INF for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return INF

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        fs = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = fs.add_codes
        for i, c in enumerate(b):
            if c:
                out[i] = add(out[i], c)
        return Poly(fs, out)

    def __neg__(self) -> "Poly":
        fs = self.field
        return Poly(fs, [fs.neg_code(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        la, lb = len(self.coeffs), len(other.coeffs)
        if la * lb <= _SCHOOLBOOK_CUTOFF:
            return _mul_schoolbook(self, other)
        return _mul_packed(self, other)

    def scale(self, code: int) -> "Poly":
        fs = self.field
        if code == 0:
            return Poly.zero(fs)
        if code == 1:
            return self
        mul = fs.mul_codes
        return Poly(fs, [mul(c, code) for c in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative exponent: use RationalFn")
        out = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        fs = self.field
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = len(dv) - 1
        inv_lead = fs.inv_code(dv[-1])
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1 - dd, -1, -1):
            c = rem[i + dd]
            if c:
                factor = fs.mul_codes(c, inv_lead)
                quot[i] = factor
                for j, d in enumerate(dv):
                    if d:
                        rem[i + j] = fs.add_codes(
                            rem[i + j], fs.neg_code(fs.mul_codes(factor, d))
                        )
        return Poly(fs, quot), Poly(fs, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.field.inv_code(self.coeffs[-1]))

    # -- misc ---------------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed fields")

    def packed(self) -> int:
        """Canonical packed integer form (cached)."""
        cached = self._packed
        if cached is None:
            cached = _pack_codes(self.coeffs, self.field)
            object.__setattr__(self, "_packed", cached)
        return cached

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.pp, self.coeffs))

    def text(self) -> str:
        """Bit-exact text form: terms high-degree first, see README."""
        cs = np.array(self.coeffs, np.uint64)
        degs = np.flatnonzero(cs)
        return _terms_texts(self.field, degs, cs[degs], [0, len(degs)])[0]

    def __repr__(self) -> str:
        return f"Poly({self.text()} over F{self.field.pp.q})"


def _terms_texts(
    field: FieldSpec, degs: np.ndarray, codes: np.ndarray, cuts: list[int]
) -> list[str]:
    """README text of each polynomial j whose nonzero terms, ascending, are
    codes[i] * t^degs[i] for cuts[j] <= i < cuts[j+1]: terms high degree
    first as c*t^k, t^1 as t, the factor c* left out for the code 1 and a
    constant term as c, which at f > 1 is the coordinate vector
    [a_0,...,a_{f-1}]; 0 for no terms."""

    def ctext(c: int) -> str:
        return str(c) if field.pp.f == 1 else "[" + ",".join(map(str, field.coords_of(c))) + "]"

    top = int(degs.max(initial=0)) + 1
    powers = _T_POWERS
    if top > len(powers):
        powers = np.array([*powers, *map("t^{}".format, range(len(powers), top))], object)
    # last term first, so that each polynomial's run reads high to low
    degs, codes, end = degs[::-1], codes[::-1], len(degs)
    pieces = powers[degs].tolist()
    # terms other than t^k: a coefficient other than 1, or a constant; only
    # their codes are read back
    shown = np.flatnonzero((codes != 1) | (degs == 0))
    for i, code in zip(shown.tolist(), codes[shown].tolist()):
        c, power = ctext(code), pieces[i]
        pieces[i] = c + "*" + power if power else c
    return ["+".join(pieces[end - b : end - a]) or "0" for a, b in zip(cuts, cuts[1:])]


def _mul_schoolbook(a: Poly, b: Poly) -> Poly:
    fs = a.field
    add, mul = fs.add_codes, fs.mul_codes
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    bc = b.coeffs
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(bc):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return Poly(fs, out)


def _mul_packed(a: Poly, b: Poly) -> Poly:
    return Poly.from_packed(a.field, PackedSum(a.field).add(a.packed(), b.packed()).value)


def monic_polys(field: FieldSpec, d: int) -> Iterator[Poly]:
    """All q^d monic polynomials of degree d, in a fixed deterministic order."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    q = field.pp.q
    for lower in itertools.product(range(q), repeat=d):
        yield Poly(field, lower + (1,))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RationalFn:
    """Reduced quotient of two polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = Poly.one(num.field)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        num._check(den)
        if num.is_zero:
            num, den = Poly.zero(num.field), Poly.one(num.field)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.coeffs[-1]
            if lead != 1:
                inv = den.field.inv_code(lead)
                num, den = num.scale(inv), den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFn is immutable")

    @property
    def field(self) -> FieldSpec:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @property
    def t_valuation(self):
        if self.num.is_zero:
            return INF
        return self.num.t_valuation - self.den.t_valuation

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RationalFn":
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        return RationalFn(self.den, self.num)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        return self * other.inverse()

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def text(self) -> str:
        if self.is_polynomial:
            return self.num.text()
        return f"{self.num.text()}/({self.den.text()})"

    def __repr__(self) -> str:
        return f"RationalFn({self.text()} over F{self.field.pp.q})"
