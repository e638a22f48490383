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
operand, before any limb could overflow.  ``canonical_products`` takes
many products at once under the same rule: each pair is one big-int
multiply (or a ``PackedSum`` when the shorter operand is too long), and a
single fold over one buffer renormalizes them all and gives their sum;
``block_size`` says how many fit its fixed limb budget.  ``make_field``
accepts exactly the fields with (p-1)^2 * f + p - 1 < 2^64, each exact on
every packed path.  The schoolbook route is kept for small operands and
serves as the independent reference in the test suite.  All arithmetic
is exact; there is no floating point anywhere in this module.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .digitlab import PrimePower

__all__ = [
    "INF",
    "FieldSpec",
    "FieldElement",
    "Poly",
    "RationalFn",
    "PackedSum",
    "block_size",
    "canonical_products",
    "make_field",
    "field_from_q",
    "monic_polys",
    "poly_gcd",
]

_TABLE_LIMIT = 1024  # f > 1 fields up to this q get q x q operation tables
CACHE_LIMIT = 1 << 16  # entries in each cache that lives as long as the process
_SCHOOLBOOK_CUTOFF = 2048
_HEADROOM = 256  # coefficient products a limb of the chosen width holds
_BLOCK_LIMBS = 1 << 16  # limbs one canonical_products fold should cover


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


def _fp_is_irreducible(m: Sequence[int], p: int) -> bool:
    # trial division by every monic of degree <= deg(m)/2
    deg = len(m) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for cand in _fp_monics(d, p):
            if _fp_mod(m, cand, p) == ():
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

    def element(self, code: int) -> "FieldElement":
        return FieldElement(self, code % self.pp.q)

    def from_int(self, n: int) -> "FieldElement":
        """Image of an ordinary integer in the prime subfield."""
        return FieldElement(self, n % self.pp.p)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

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
    integer; irreducibility is certified by trial division against every
    monic polynomial of degree at most f/2.  Raises ValueError when
    (p-1)^2 * f + p - 1 does not fit a 64-bit limb.  Fields are cached
    (CACHE_LIMIT entries); an evicted field is rebuilt equal by value.
    """
    if (p - 1) ** 2 * f + p - 1 >> 64:
        raise ValueError(f"q = {p}^{f}: (p-1)^2*f + p-1 exceeds a 64-bit limb")
    pp = PrimePower(p, f)
    modulus = next(cand for cand in _fp_monics(f, p) if _fp_is_irreducible(cand, p))
    return FieldSpec(pp, modulus)


def field_from_q(q: int) -> FieldSpec:
    pp = PrimePower.from_q(q)
    return make_field(pp.p, pp.f)


class FieldElement:
    """Immutable element of a FieldSpec, stored as its canonical code."""

    __slots__ = ("field", "code")

    def __init__(self, field: FieldSpec, code: int):
        if not 0 <= code < field.pp.q:
            raise ValueError(f"code {code} out of range for q={field.pp.q}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "code", code)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coords_of(self.code)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, self.field.add_codes(self.code, other.code))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg_code(self.code))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, self.field.mul_codes(self.code, other.code))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow_code(self.code, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_code(self.code))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __bool__(self) -> bool:
        return self.code != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.code == other.code
        )

    def __hash__(self) -> int:
        return hash((self.field.pp, self.code))

    def __repr__(self) -> str:
        if self.field.pp.f == 1:
            return f"F{self.field.pp.q}({self.code})"
        return f"F{self.field.pp.q}{list(self.coeffs)}"


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


def _limb_rows(n: int, field: FieldSpec) -> np.ndarray:
    nbytes = -(-n.bit_length() // field._slot_bits) * field._slot_bits // 8
    raw = np.frombuffer(n.to_bytes(nbytes, "little"), f"<u{field._limb_bits // 8}")
    return raw.reshape(-1, field.pack_stride)


def _fold_rows(rows: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Limb rows with the x-slots folded modulo m(x) into the low f limbs,
    the rest zeroed, all reduced mod p."""
    p, f = field.pp.p, field.pp.f
    if f == 1:
        return rows % p
    # f - 1 fold terms c * limb (c < p) stay below 2^32 on 16-bit limbs and
    # below 2^64 on 32-bit limbs; 64-bit limbs are reduced first, which
    # keeps a head limb below (p-1) + (f-1)(p-1)^2, as make_field assumes
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
    return rows


def _renorm_packed(n: int, field: FieldSpec) -> int:
    """Fold x-slots modulo m(x) and reduce limbs mod p; canonical packed."""
    rows = _fold_rows(_limb_rows(n, field), field)
    dtype = f"<u{field._limb_bits // 8}"
    return int.from_bytes(rows.astype(dtype, copy=False).tobytes(), "little")


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
            self.value = _renorm_packed(self.value, self.field)
            self.load = self.field.pp.p - 1
        return self.value


def block_size(field: FieldSpec, slots: int) -> int:
    """How many products of at most ``slots`` slots one
    ``canonical_products`` call should take: as many as fit _BLOCK_LIMBS
    limbs, and at least one."""
    return max(1, _BLOCK_LIMBS // (slots * field.pack_stride))


def canonical_products(
    xs: Sequence[int], ys: Sequence[int], field: FieldSpec
) -> tuple[list[int], int]:
    """Canonical packed x * y for each pair of canonical packed x and y, and
    the canonical packed sum of those products.

    Each product is one big-int multiply; all of them are laid out in one
    buffer and renormalized by a single fold.  A pair whose shorter operand
    exceeds the chunk length goes through ``PackedSum.add``, which splits it.
    """
    fs = field
    limit = fs._chunk_slots * fs._slot_bits
    prods = [
        x * y if min(x.bit_length(), y.bit_length()) < limit
        else PackedSum(fs).add(x, y).value
        for x, y in zip(xs, ys)
    ]
    slots = -(-max(map(int.bit_length, prods), default=0) // fs._slot_bits)
    if not slots:
        return prods, 0
    nbytes = slots * fs._slot_bits // 8
    dtype = f"<u{fs._limb_bits // 8}"
    rows = np.frombuffer(b"".join(n.to_bytes(nbytes, "little") for n in prods), dtype)
    rows = _fold_rows(rows.reshape(-1, fs.pack_stride), fs)
    raw = memoryview(rows.astype(dtype, copy=False).tobytes())
    out = [
        int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)
    ]
    total = rows.reshape(len(prods), -1).sum(axis=0, dtype=np.uint64) % fs.pp.p
    return out, int.from_bytes(total.astype(dtype).tobytes(), "little")


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
        if n == 0:
            return cls._trusted(field, [])
        head = _fold_rows(_limb_rows(n, field), field)[:, : field.pp.f]
        weights = np.array([field.pp.p**j for j in range(field.pp.f)], dtype=np.uint64)
        return cls._trusted(field, (head * weights).sum(axis=1).tolist())

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

    def evaluate(self, point: FieldElement) -> FieldElement:
        fs = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = fs.add_codes(fs.mul_codes(acc, point.code), c)
        return FieldElement(fs, acc)

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
        if self.is_zero:
            return "0"
        fs = self.field
        f = fs.pp.f
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if f == 1:
                ctext = str(c)
            else:
                ctext = "[" + ",".join(str(x) for x in fs.coords_of(c)) + "]"
            if k == 0:
                parts.append(ctext)
                continue
            tpart = "t" if k == 1 else f"t^{k}"
            parts.append(tpart if c == 1 else f"{ctext}*{tpart}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.text()} over F{self.field.pp.q})"


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
