"""Carry-free compositions with q-even part constraints.

Two conventions are used, distinguished by which end of the tuple is the
unconstrained slot:

* head-free: tuples (m_0, ..., m_d) of d+1 parts whose carry-free base-p
  sum is the target k, with m_i > 0 and q-even for 1 <= i <= d; these
  index the monomials of the degree-d power sum at exponent -k, and the
  weight d*m_0 + (d-1)*m_1 + ... + m_{d-1} is the t-degree of the
  corresponding monomial.
* tail-free: tuples (X_1, ..., X_d) of d parts summing carry-free to N,
  with X_i > 0 and q-even for i < d; the weight is X_1 + 2*X_2 + ... +
  d*X_d.  Reversal is a bijection between tail-free d-part compositions
  of N and head-free (d-1)-part-index compositions of N.

Enumeration is organized through class matrices: the matrix whose columns
are the digit class vectors of the parts.  Grouping by matrix bounds the
work by digit sums rather than by the size of the target, and inside one
matrix class the "monotone representative" (largest p-powers to the
earliest parts, per digit class) is simultaneously the lexicographically
largest and the unique minimum-weight member, which gives fast structural
routes to the greedy, modest and optimal compositions.  The selections
made from the full enumeration, their independent oracle, live in verify.

Each cache is keyed by what its value depends on, and holds at most
CACHE_LIMIT entries:

* _target(n, q): a target's digit record, read in one walk: its class
  vector, the (q-1)-scaled digit-sum coordinates, the per-class (p-power,
  multiplicity) groups and the digit sum;
* _class_columns(class vector, d, q): the sorted columns of the valid
  matrices, which depend on the class vector only, not on the target;
* valid_class_matrices(n, d, q): those columns as ClassMatrix objects of
  target n, each of which computes its monotone parts once, on first use,
  for modest, optimal_set and greedy alike;
* _class_sums(powers, caps): the per-class sum tables below.

A matrix expands to the product, over digit classes, of per-class sum
tables: each lists the per-column sums for every way to hand one class's
p-powers to the columns, and depends only on the class's (p-power,
multiplicity) pairs and the column counts, so every matrix, target, field
and caller with the same key shares one table; the enumerations
themselves are not cached, since their size grows with the output.  The
default-scale verify suites (compose and powersum) read 6,475 cells of
1,777 targets through 546 column searches, and leave 4,267 tables of at
most 894 rows, 115,686 in all; the largest table of the q = 2 target
1023 at d = 4 has 25,200 rows in about 3.7 MB.  A table's rows are
counted from its split counts before it is built, and it is built and
cached only up to TABLE_ROWS rows, so the cache holds at most
CACHE_LIMIT * TABLE_ROWS rows.  A class with more assignments is walked
lazily, split by split of its largest power down to uncached tables of
the rest, in the same order; so an enumeration's max_results cap stops
it after that many results, whatever the size of its classes.

A tuple expanded from a valid class matrix is carry-free (its columns sum
to the target's class vector) and q-even in its constrained slots (those
columns are even-class) by construction, so the enumerators and the
greedy / modest / optimal routes build their results with the private
trusted constructor Composition._trusted, which skips re-validation.  It
is used only for such tuples; the public Composition(...) always
validates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, mul, sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .digitlab import (
    CACHE_LIMIT,
    ClassVector,
    PrimePower,
    _scaled_coords,
    _shift_weights,
    base_digits,
    carry_free_add,
)
from .errors import EmptySetError, ResourceLimitError

__all__ = [
    "Composition",
    "ClassMatrix",
    "HEAD",
    "TAIL",
    "power_classes",
    "valid_class_matrices",
    "monotone_rep",
    "enumerate_head_free",
    "enumerate_tail_free",
    "tail_free_nonempty",
    "greedy",
    "modest",
    "optimal_set",
]

HEAD = "head"
TAIL = "tail"

DIGIT_SUM_LIMIT = 24
ENUMERATION_LIMIT = 2_000_000
TABLE_ROWS = 1 << 15  # rows of the largest cached per-class sum table


@dataclass(frozen=True)
class Composition:
    """A carry-free composition in one of the two conventions.

    parts are (m_0..m_d) for kind=HEAD (d+1 parts, head unconstrained) or
    (X_1..X_d) for kind=TAIL (d parts, tail unconstrained).
    """

    q: PrimePower
    parts: tuple[int, ...]
    kind: str
    target: int

    def __post_init__(self) -> None:
        if self.kind not in (HEAD, TAIL):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not self.parts:
            raise ValueError("composition needs at least one part")
        if carry_free_add(self.parts, self.q.p) != self.target:
            raise ValueError("parts must sum carry-free to the target")
        qm1 = self.q.q - 1  # a part is q-even when q - 1 divides it
        if any(p <= 0 or p % qm1 for p in self.constrained_slice):
            raise ValueError("constrained parts must be positive and q-even")

    @classmethod
    def _trusted(
        cls, q: PrimePower, parts: tuple[int, ...], kind: str, target: int
    ) -> "Composition":
        """Composition of parts already known to be valid: only for tuples
        expanded from a valid class matrix."""
        self = object.__new__(cls)
        # one dict update in place of a frozen __setattr__ per field
        self.__dict__.update(q=q, parts=parts, kind=kind, target=target)
        return self

    @property
    def constrained_slice(self) -> tuple[int, ...]:
        if self.kind == HEAD:
            return self.parts[1:]
        return self.parts[:-1]

    @property
    def weight(self) -> int:
        """Convention weight; equals the t-degree of the matching power-sum
        monomial in the head-free convention."""
        if self.kind == HEAD:
            d = len(self.parts) - 1
            return sum((d - j) * m for j, m in enumerate(self.parts))
        return sum((j + 1) * x for j, x in enumerate(self.parts))

    def reversed(self) -> "Composition":
        kind = TAIL if self.kind == HEAD else HEAD
        return Composition(self.q, self.parts[::-1], kind, self.target)


@dataclass(frozen=True)
class ClassMatrix:
    """Columns are the per-part digit class vectors of a tail-free
    composition class; all but the last column must be even-class."""

    q: PrimePower
    columns: tuple[tuple[int, ...], ...]
    target: int

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Row-major view (one row per digit class), as usually displayed."""
        f = self.q.f
        return tuple(tuple(col[i] for col in self.columns) for i in range(f))

    def is_valid(self) -> bool:
        sums = tuple(map(sum, zip(*self.columns)))
        if sums != _target(self.target, self.q).entries:
            return False
        powers = _shift_weights(self.q, 0)
        qm1 = self.q.q - 1
        for col in self.columns[:-1]:
            if not any(col) or not _even_dot(col, powers, qm1):
                return False
        return True

    # The monotone parts of a valid matrix, computed on first use: the
    # matrices of valid_class_matrices are cached, so each cell's parts
    # are built once for modest, optimal_set and greedy together.
    @cached_property
    def _tail_parts(self) -> tuple[int, ...]:
        return _monotone_parts(self.columns, _target(self.target, self.q).classes)

    @cached_property
    def _head_parts(self) -> tuple[int, ...]:
        # greedy's: the monotone parts of the reversed columns
        return _monotone_parts(
            self.columns[::-1], _target(self.target, self.q).classes
        )


class _Target(NamedTuple):
    """What compose reads of a target's base-p digits, gathered in one walk."""

    entries: tuple[int, ...]  # the digit class vector
    scaled: tuple[int, ...]  # (q-1) times its digit-sum coordinates
    # per digit class (exponent mod f), the (p-power, multiplicity) pairs
    # of the nonzero digits, largest power first; and each class's powers
    # repeated by their multiplicities, as power_classes returns them
    groups: tuple[tuple[tuple[int, int], ...], ...]
    classes: tuple[tuple[int, ...], ...]
    digit_sum: int


@lru_cache(maxsize=CACHE_LIMIT)
def _target(n: int, q: PrimePower) -> _Target:
    """The digit record of a positive target.  Cached (CACHE_LIMIT
    entries): the one walk over a target's digits."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    entries = [0] * q.f
    groups: list[list[tuple[int, int]]] = [[] for _ in range(q.f)]
    digits = base_digits(n, q.p)
    for j in range(len(digits) - 1, -1, -1):
        if digits[j]:
            entries[j % q.f] += digits[j]
            groups[j % q.f].append((q.p**j, digits[j]))
    return _Target(
        tuple(entries),
        _scaled_coords(ClassVector(q, tuple(entries))),
        tuple(map(tuple, groups)),
        tuple(tuple(val for val, m in g for _ in range(m)) for g in groups),
        sum(digits),
    )


def power_classes(n: int, q: PrimePower) -> tuple[tuple[int, ...], ...]:
    """Non-increasing p-power values of a positive integer n, one sequence
    per residue class (mod f) of the exponent."""
    if n <= 0:
        raise ValueError("n must be positive")
    return _target(n, q).classes


def _even_dot(entries: Sequence[int], powers: Sequence[int], qm1: int) -> bool:
    # Divisibility of the weighted digit count (powers[i] = p^i) by q-1;
    # equivalent to the integrality of every digit-sum coordinate.
    return sum(e * w for e, w in zip(entries, powers)) % qm1 == 0


def _digit_guard(n: int, q: PrimePower) -> None:
    total = _target(n, q).digit_sum
    if total > DIGIT_SUM_LIMIT:
        raise ResourceLimitError(
            f"base-{q.p} digit sum of {n} is {total}, above the limit "
            f"{DIGIT_SUM_LIMIT}"
        )


# ---------------------------------------------------------------------------
# valid class matrices
# ---------------------------------------------------------------------------


def _iter_columns(
    remaining: tuple[int, ...],
    cols_left: int,
    rows: tuple[tuple[int, ...], ...],
    qm1: int,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    # rows are the (q-1)-scaled digit-sum weight rows, so the capacity
    # bound below is compared in integers scaled by q-1; row 0 is p^i
    if cols_left == 1:
        yield (remaining,)
        return
    floor = (cols_left - 2) * qm1
    # candidate even-class columns below the remaining budget, in
    # lexicographic order so the overall matrix order is deterministic
    for cand in itertools.product(*[range(e + 1) for e in remaining]):
        if not any(cand) or not _even_dot(cand, rows[0], qm1):
            continue
        rest = tuple(r - c for r, c in zip(remaining, cand))
        if any(rest):
            if min(sum(w * r for w, r in zip(row, rest)) for row in rows) < floor:
                continue
        elif cols_left > 2:
            continue
        for tail in _iter_columns(rest, cols_left - 1, rows, qm1):
            yield (cand,) + tail


@lru_cache(maxsize=CACHE_LIMIT)
def _class_columns(
    entries: tuple[int, ...], d: int, q: PrimePower
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The columns of every valid d-column class matrix of the class
    vector entries, sorted.  Cached (CACHE_LIMIT entries): they depend only
    on the class vector, so every target sharing it shares one search."""
    rows = tuple(_shift_weights(q, i) for i in range(q.f))
    return tuple(sorted(_iter_columns(entries, d, rows, q.q - 1)))


@lru_cache(maxsize=CACHE_LIMIT)
def valid_class_matrices(n: int, d: int, q: PrimePower) -> tuple[ClassMatrix, ...]:
    """All d-column class matrices for tail-free compositions of n.

    Columns sum to the digit class vector of n and all but the last are
    nonzero even-class.  Returned sorted by flattened column entries.
    Cached (CACHE_LIMIT entries); the matrices are frozen, so callers
    share them, and their monotone parts with them.
    """
    if n <= 0 or d <= 0:
        raise ValueError("need n >= 1 and d >= 1")
    _digit_guard(n, q)
    columns = _class_columns(_target(n, q).entries, d, q)
    return tuple(ClassMatrix(q, cols, n) for cols in columns)


def _monotone_parts(
    columns: Sequence[Sequence[int]], classes: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    # Assign, inside every digit class, the largest available p-powers to
    # the earliest columns; the per-class counts are the column entries.
    # classes is power_classes of the target, computed once per target.
    parts = [0] * len(columns)
    for c, seq in enumerate(classes):
        pos = 0
        for i, col in enumerate(columns):
            take = col[c]
            parts[i] += sum(seq[pos : pos + take])
            pos += take
        if pos != len(seq):
            raise ValueError("column sums do not match the class vector")
    return tuple(parts)


def monotone_rep(matrix: ClassMatrix) -> Composition:
    """The unique monotone representative of a valid class matrix.

    Within the matrix class it is lexicographically the largest composition
    and the unique one of minimum weight.
    """
    if not matrix.is_valid():
        raise ValueError("matrix is not valid for its target")
    return Composition._trusted(matrix.q, matrix._tail_parts, TAIL, matrix.target)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _splits(total: int, caps: Sequence[int]) -> list[tuple[int, ...]]:
    # every (y_0, ..., y_{d-1}) with sum total and y_i <= caps[i], in
    # lexicographic order; a prefix that the caps after it cannot
    # complete is never extended
    if total == 1:  # the common case: one column takes the one power
        d = len(caps)
        return [
            (0,) * i + (1,) + (0,) * (d - 1 - i)
            for i in range(d - 1, -1, -1)
            if caps[i]
        ]
    partial = [((), total)]
    room = sum(caps)
    for cap in caps[:-1]:
        room -= cap
        partial = [
            (split + (y,), rest - y)
            for split, rest in partial
            for y in range(max(0, rest - room), min(rest, cap) + 1)
        ]
    return [split + (rest,) for split, rest in partial if rest <= caps[-1]]


def _table_rows(powers: tuple[tuple[int, int], ...], caps: tuple[int, ...]) -> int:
    """The number of rows of the class table of (powers, caps), counted
    from split counts without building it.

    Pass by pass, the partials are counted per caps left, held sorted:
    how a partial can go on depends only on that multiset.  The last
    power fills what the others leave, so each partial before it is one
    row.
    """
    counts = {tuple(sorted(caps)): 1}
    for _, mult in powers[:-1]:
        grown: dict[tuple[int, ...], int] = {}
        for left, ways in counts.items():
            for split in _splits(mult, left):
                key = tuple(sorted(map(sub, left, split)))
                grown[key] = grown.get(key, 0) + ways
        counts = grown
    return sum(counts.values())


@lru_cache(maxsize=CACHE_LIMIT)
def _class_sums(
    powers: tuple[tuple[int, int], ...], caps: tuple[int, ...]
) -> Optional[tuple[tuple[int, ...], ...]]:
    """Per-column sums for every way to hand one digit class's p-powers
    to the columns, column i taking caps[i] of them; None when there are
    more than TABLE_ROWS of them, which _table_rows tells before any is
    built.

    powers are the class's (value, multiplicity) pairs, largest first,
    and the caps sum to the multiplicities.  One pass per distinct power
    but the last extends each partial (sums, caps left) by every split of
    its multiplicity, so the table is ordered with the largest power's
    split most significant; the last power takes the caps left.  Cached
    (CACHE_LIMIT entries): the table depends only on (powers, caps), so
    every matrix, target and field with the same key shares it.
    """
    # each p-power but the last goes to one of the columns: the count is
    # needed only when that bound does not settle it
    free = sum(caps) - (powers[-1][1] if powers else 0)
    if len(caps) ** free > TABLE_ROWS and _table_rows(powers, caps) > TABLE_ROWS:
        return None
    partial = [((0,) * len(caps), caps)]
    for val, mult in powers[:-1]:
        steps = {  # caps left -> [(added sums, caps left after)]
            left: [
                (tuple([y * val for y in split]), tuple(map(sub, left, split)))
                for split in _splits(mult, left)
            ]
            for left in {left for _, left in partial}
        }
        partial = [
            (tuple(map(add, sums, step)), rest)
            for sums, left in partial
            for step, rest in steps[left]
        ]
    last = itertools.repeat(powers[-1][0] if powers else 0)
    return tuple(tuple(map(add, sums, map(mul, left, last))) for sums, left in partial)


def _iter_class_sums(
    powers: tuple[tuple[int, int], ...],
    caps: tuple[int, ...],
    base: tuple[int, ...],
) -> Iterator[tuple[int, ...]]:
    # The rows of a class with no table, each plus base, in the table's
    # order: every split of the largest power, then the rest of the class.
    # The rest's tables are built uncached, since they are not shared.
    (val, mult), rest = powers[0], powers[1:]
    for split in _splits(mult, caps):
        left = tuple(map(sub, caps, split))
        head = tuple(b + y * val for b, y in zip(base, split))
        table = _class_sums.__wrapped__(rest, left)
        if table is None:
            yield from _iter_class_sums(rest, left, head)
        else:
            for sums in table:
                yield tuple(map(add, head, sums))


def _iter_classes(
    keys: Sequence[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]],
) -> Iterator[tuple[int, ...]]:
    # the product of the class tables keyed (powers, caps), the first class
    # most significant; a class without a table is generated afresh each
    # time it is walked, so nothing it yields is held
    (powers, caps), rest = keys[0], keys[1:]
    rows = _class_sums(powers, caps)
    if rows is None:
        rows = _iter_class_sums(powers, caps, (0,) * len(caps))
    if not rest:
        yield from rows
        return
    for row in rows:
        for sums in _iter_classes(rest):
            yield tuple(map(add, row, sums))


def _iter_matrix_expansion(
    matrix: ClassMatrix,
) -> Iterator[tuple[int, ...]]:
    columns = matrix.columns
    groups = _target(matrix.target, matrix.q).groups
    keys = [
        (group, tuple(col[c] for col in columns)) for c, group in enumerate(groups)
    ]
    return _iter_classes(keys)


def iter_tail_free_parts(n: int, d: int, q: PrimePower) -> Iterator[tuple[int, ...]]:
    """Lazily yield the part tuples of every tail-free composition."""
    for matrix in valid_class_matrices(n, d, q):
        yield from _iter_matrix_expansion(matrix)


def enumerate_tail_free(
    n: int, d: int, q: PrimePower, max_results: int = ENUMERATION_LIMIT
) -> tuple[Composition, ...]:
    """The complete set of tail-free compositions of n with d parts,
    sorted lexicographically on parts."""
    found = _sorted_capped(iter_tail_free_parts(n, d, q), max_results)
    return tuple(Composition._trusted(q, p, TAIL, n) for p in found)


def enumerate_head_free(
    k: int, d: int, q: PrimePower, max_results: int = ENUMERATION_LIMIT
) -> tuple[Composition, ...]:
    """The complete head-free index set for the degree-d power sum at
    exponent -k: d+1 parts, head unconstrained; sorted on parts.

    Empty exactly when d exceeds the vanishing threshold of k.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if d < 0:
        raise ValueError("d must be non-negative")
    # d = 0 has the one composition (k,), returned whatever the cap
    heads = (parts[::-1] for parts in iter_tail_free_parts(k, d + 1, q)) if d else ()
    found = _sorted_capped(heads, max_results)
    if d == 0:
        return (Composition(q, (k,), HEAD, k),)
    return tuple(Composition._trusted(q, p, HEAD, k) for p in found)


def _sorted_capped(parts: Iterable[tuple[int, ...]], max_results: int) -> list[tuple[int, ...]]:
    """The part tuples sorted; ValueError for a negative max_results before
    the first is taken, ResourceLimitError as soon as there are more."""
    if max_results < 0:
        raise ValueError("max_results must be non-negative")
    out = []
    for p in parts:
        out.append(p)
        if len(out) > max_results:
            raise ResourceLimitError(f"more than {max_results} compositions; raise max_results")
    out.sort()
    return out


def tail_free_nonempty(n: int, d: int, q: PrimePower) -> bool:
    """Emptiness criterion: d-part tail-free compositions of n exist iff
    the class vector of n splits exactly into d-1 even parts or its
    capacity exceeds d-1."""
    if n <= 0 or d <= 0:
        return False
    # digitlab's capacity_equals(v, d - 1) or capacity_exceeds(v, d - 1),
    # on the target's scaled coordinates
    qm1 = q.q - 1
    scaled = _target(n, q).scaled
    low, bound = min(scaled), (d - 1) * qm1
    return low > bound or (
        d > 1 and low == bound and all(c % qm1 == 0 for c in scaled)
    )


# ---------------------------------------------------------------------------
# greedy / modest / optimal
# ---------------------------------------------------------------------------


def _tail_monotone_reps(n: int, d: int, q: PrimePower) -> list[tuple[int, ...]]:
    return [m._tail_parts for m in valid_class_matrices(n, d, q)]


def modest(target: int, d: int, q: PrimePower, kind: str = HEAD) -> Composition:
    """The modest composition.

    kind=HEAD: the element of the head-free index set whose reversal is
    lexicographically largest (it indexes the unique lowest-degree monomial
    of the power sum).  kind=TAIL: the lexicographically largest tail-free
    composition.  Computed structurally as a maximum over monotone
    representatives of valid class matrices.
    """
    if kind == HEAD:
        if d == 0:
            return Composition(q, (target,), HEAD, target)
        reps = _tail_monotone_reps(target, d + 1, q)
        if not reps:
            raise EmptySetError(f"no head-free compositions of {target} at d={d}")
        return Composition._trusted(q, max(reps)[::-1], HEAD, target)
    reps = _tail_monotone_reps(target, d, q)
    if not reps:
        raise EmptySetError(f"no tail-free compositions of {target} at d={d}")
    return Composition._trusted(q, max(reps), TAIL, target)


def greedy(k: int, d: int, q: PrimePower) -> Composition:
    """Lexicographically largest head-free composition; it indexes the
    unique maximal-degree monomial of the power sum."""
    if d == 0:
        return Composition(q, (k,), HEAD, k)
    mats = valid_class_matrices(k, d + 1, q)
    if not mats:
        raise EmptySetError(f"no head-free compositions of {k} at d={d}")
    return Composition._trusted(q, max(m._head_parts for m in mats), HEAD, k)


def optimal_set(n: int, d: int, q: PrimePower) -> tuple[Composition, ...]:
    """All minimum-weight tail-free compositions of n with d parts.

    Any minimum-weight composition is the monotone representative of its
    own class matrix, so the minimum over representatives is exhaustive.
    """
    reps = _tail_monotone_reps(n, d, q)
    if not reps:
        raise EmptySetError(f"no tail-free compositions of {n} at d={d}")
    weights = [sum(map(mul, range(1, d + 1), parts)) for parts in reps]
    best = min(weights)
    winners = sorted(parts for parts, w in zip(reps, weights) if w == best)
    return tuple(Composition._trusted(q, parts, TAIL, n) for parts in winners)
