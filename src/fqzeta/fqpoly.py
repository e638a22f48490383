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
operand, before any limb could overflow.  ``canonical_values``
renormalizes many running sums by a single fold over one buffer;
``canonical_polys`` and ``canonical_texts`` read canonical ones back by
one frombuffer, with no fold.
``monic_power_sums`` gives the brute-force sums of a^k over the monics of
one degree: it steps the running powers of a block of monics as numpy limb
arrays, one per F_p coordinate, under the same rule on a tracked limb
bound, and packs only the sums.  ``make_field``
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

from .digitlab import CACHE_LIMIT, PrimePower

__all__ = [
    "INF",
    "FieldSpec",
    "FieldElement",
    "Poly",
    "RationalFn",
    "PackedSum",
    "canonical_polys",
    "canonical_texts",
    "canonical_values",
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


def canonical_values(values: Sequence[int], field: FieldSpec) -> list[int]:
    """Canonical packed form of each packed value (canonical, or a
    ``PackedSum.value``), all renormalized by a single fold.  Zero stays 0,
    so a value is the zero polynomial exactly when its canonical form is 0."""
    # every value padded to the longest one's slots, one fold over the lot
    fs = field
    slots = -(-max(map(int.bit_length, values), default=0) // fs._slot_bits)
    if not slots:
        return list(values)
    nbytes = slots * fs._slot_bits // 8
    dtype = f"<u{fs._limb_bits // 8}"
    rows = np.frombuffer(b"".join(n.to_bytes(nbytes, "little") for n in values), dtype)
    rows = _fold_rows(rows.reshape(-1, fs.pack_stride), fs)
    raw = memoryview(rows.astype(dtype, copy=False).tobytes())
    return [
        int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)
    ]


def _canonical_codes(field: FieldSpec, values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient codes of a batch of canonical packed values, one per slot,
    and the slot where each value starts (and the last ends): one frombuffer
    and no fold, as canonical limbs are below p and the x-slots zero."""
    fs, f = field, field.pp.f
    slots = [-(-n.bit_length() // fs._slot_bits) for n in values]
    width = fs._slot_bits // 8
    raw = b"".join(n.to_bytes(s * width, "little") for n, s in zip(values, slots))
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
    nz = np.flatnonzero(codes)
    cuts = np.searchsorted(nz, starts)
    degs = nz - np.repeat(starts[:-1], cuts[1:] - cuts[:-1])
    texts = _terms_texts(field, degs, codes[nz], cuts.tolist())
    bits = field._slot_bits
    return list(zip(texts, [((n & -n).bit_length() - 1) // bits if n else INF for n in values]))


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

    The monics are taken in blocks.  A block keeps its running powers a^k
    as limb arrays in the field's limb width, one per F_p coordinate, with
    a row per slot and a column per monic, for the whole sweep over k; no
    power becomes a Python int.  A step from a^(k-1) to a^k shifts by d
    slots for t^d and, for each lower coefficient b_j, adds the f^2
    products of coordinate arrays with the entries of b_j's multiplication
    matrix (the x-fold built in).  Overflow follows the ``PackedSum`` rule
    on a tracked limb bound: a step multiplies the bound by at most
    1 + d * f * (p-1), so the step reduces mod p once where the next step
    could pass the limb width (or the column sums 64 bits), and reduces
    between coefficients where even a reduced power could not take a whole
    step.  The block's part of each sum is a column sum.  Each array holds
    at most _POWER_BLOCK_LIMBS limbs (at least one monic), and the sums are
    laid into packed limbs once, at the end.
    """
    if d < 0 or kmax < 0:
        raise ValueError("need d >= 0 and kmax >= 0")
    p, f, q = field.pp.p, field.pp.f, field.pp.q
    dtype = f"<u{field._limb_bits // 8}"
    size = max(1, _POWER_BLOCK_LIMBS // (d * kmax + 1))
    # the d * k + 1 slots of sum k are columns offsets[k] .. offsets[k+1]-1
    # of one array, so a single % p reduces every sum
    offsets = [k * (d * (k - 1) + 2) // 2 for k in range(kmax + 2)]
    flat = np.zeros((f, offsets[-1]), np.uint64)
    sums = [flat[:, a:b] for a, b in zip(offsets, offsets[1:])]
    for start in range(0, q**d, size):
        index = np.arange(start, min(start + size, q**d), dtype=np.int64)
        # a function of its own, so a block's arrays are freed on return
        _add_block_sums(field, d, index, sums)
        flat %= p
    limbs = np.zeros((offsets[-1], field.pack_stride), dtype)
    limbs[:, :f] = flat.T
    raw = memoryview(limbs.tobytes())
    width = field._slot_bits // 8
    return [
        int.from_bytes(raw[a * width : b * width], "little")
        for a, b in zip(offsets, offsets[1:])
    ]


def _add_block_sums(
    field: FieldSpec, d: int, index: np.ndarray, sums: list[np.ndarray]
) -> None:
    """Add to each sums[k] (F_p coordinates by slot, each entry below p) the
    sum of a^k over the monics of the block, a = t^d + sum b_j t^j with b_j
    base-q digit j of its index; every entry stays below 2^64."""
    p, f, q = field.pp.p, field.pp.f, field.pp.q
    bits = field._limb_bits
    grow = 1 + d * f * (p - 1)  # a step multiplies a limb bound by at most this
    kmax = len(sums) - 1
    # entry [j][u][v] of mats multiplies coordinate v into coordinate u by b_j
    mats = [
        [list(row) for row in _mul_matrices(field, index // q**j % q)]
        for j in range(d)
    ]
    cur = np.zeros((f, d * kmax + 1, len(index)), f"<u{bits // 8}")
    new, tmp = np.zeros_like(cur), np.empty_like(cur[0])
    cur[0, 0] = 1
    sums[0][0, 0] += len(index)
    load = 1  # bound on every limb of cur
    for k in range(1, kmax + 1):
        n = d * (k - 1) + 1  # slots of a^(k-1)
        new[:, :d] = 0
        new[:, d : d + n] = cur[:, :n]
        src, part = list(cur[:, :n]), tmp[:n]
        acc, term = load, f * (p - 1) * load
        for j, mat in enumerate(mats):
            if acc + term >> bits:
                new[:, : d + n] %= p
                acc = p - 1
            acc += term
            for dst, row in zip(new[:, j : j + n], mat):
                for x, entry in zip(src, row):
                    np.multiply(x, entry, out=part)
                    dst += part
        load = acc
        if load * grow >> bits or load * len(index) + p >> 64:
            new[:, : d + n] %= p
            load = p - 1
        sums[k] += new[:, : d + n].sum(axis=2, dtype=np.uint64)
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
        return canonical_polys(field, [_renorm_packed(n, field)])[0]

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
    pieces, cs = powers[degs].tolist(), codes.tolist()
    # terms other than t^k: a coefficient other than 1, or a constant
    for i in np.flatnonzero((codes != 1) | (degs == 0)).tolist():
        c, power = ctext(cs[i]), pieces[i]
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
