"""Named verification suites.

Each check pits a structural implementation against an independent
brute-force oracle (or against an exactly computed value) over an
explicit finite range, and reports one pass/fail line.  The default
ranges are the acceptance ranges; the CLI exposes overrides.

All counting and timing is integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from . import compose, digitlab, mzv, powersum
from .compose import HEAD, TAIL
from .digitlab import ClassVector, PrimePower
from .errors import DegenerateCoverError, EmptySetError, FqzetaError, PreconditionError
from .fqpoly import INF, Poly, RationalFn, field_from_q

__all__ = [
    "CheckResult",
    "run_digit_suite",
    "run_membership_suite",
    "run_cover_suite",
    "run_compose_suite",
    "run_power_sum_suite",
    "run_mzv_suite",
    "run_example_suite",
    "run_suites",
    "SUITE_NAMES",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    millis: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} [{self.millis} ms]"


class CheckFailure(Exception):
    pass


# what a check body may raise to fail its check
_CHECK_ERRORS = (CheckFailure, FqzetaError, AssertionError)


def _run(name: str, body: Callable[[], str]) -> CheckResult:
    t0 = time.monotonic_ns()
    try:
        detail = body()
        passed = True
    except _CHECK_ERRORS as exc:
        detail = str(exc)
        passed = False
    millis = (time.monotonic_ns() - t0) // 1_000_000
    return CheckResult(name, passed, detail, millis)


def _pps(qs: Sequence[int]) -> list[PrimePower]:
    return [PrimePower.from_q(q) for q in qs]


# ---------------------------------------------------------------------------
# digit suite
# ---------------------------------------------------------------------------


def run_digit_suite(
    qs: Sequence[int] = (2, 3, 4, 5, 8, 9),
    nmax: int = 200,
) -> list[CheckResult]:
    pps = _pps(qs)
    rng = random.Random(20260808)
    results = []

    def digit_sum_identity() -> str:
        for pp in pps:
            for n in range(1, nmax + 1):
                v = digitlab.digit_class_vector(n, pp)
                coords = digitlab.digit_sum_coords(v)
                lhs = coords[0] * (pp.q - 1)
                if lhs != digitlab.digit_sum_base_q(n, pp):
                    raise CheckFailure(f"coordinate identity fails at q={pp.q} n={n}")
                if pp.is_q_even(n) != (coords[0].denominator == 1):
                    raise CheckFailure(f"parity vs integrality fails at q={pp.q} n={n}")
                shifted = digitlab.digit_class_vector(n * pp.p, pp)
                expect = tuple(
                    v.entries[(i - 1) % pp.f] for i in range(pp.f)
                )
                if shifted.entries != expect:
                    raise CheckFailure(f"class shift fails at q={pp.q} n={n}")
        return f"q in {list(qs)}, n <= {nmax}"

    def carry_free_multiset() -> str:
        checked = 0
        for pp in pps:
            p = pp.p
            for _ in range(400):
                parts = [rng.randrange(0, 200) for _ in range(rng.randrange(1, 5))]
                got = digitlab.carry_free_add(parts, p)
                union: dict[int, int] = {}
                for part in parts:
                    for e, m in enumerate(digitlab.base_digits(part, p)):
                        union[e] = union.get(e, 0) + m
                disjoint = all(m < p for m in union.values())
                if disjoint != (got is not None):
                    raise CheckFailure(f"carry-free vs multiset mismatch: {parts} p={p}")
                if got is not None and got != sum(parts):
                    raise CheckFailure(f"carry-free sum wrong: {parts} p={p}")
                checked += 1
        return f"{checked} random part tuples"

    def threshold_integrality() -> str:
        for pp in pps:
            for k in range(1, nmax + 1):
                L = digitlab.vanishing_threshold(k, pp)
                if (L.denominator == 1) != pp.is_q_even(k):
                    raise CheckFailure(f"threshold integrality fails q={pp.q} k={k}")
        return f"k <= {nmax}"

    def shift_map_inverse() -> str:
        from fractions import Fraction

        for pp in pps:
            for _ in range(200):
                entries = tuple(
                    Fraction(rng.randrange(-40, 40)) for _ in range(pp.f)
                )
                v = digitlab.FracVector(pp, entries)
                back = digitlab.shift_difference_inv(digitlab.shift_difference(v))
                fwd = digitlab.shift_difference(digitlab.shift_difference_inv(v))
                if back.entries != entries or fwd.entries != entries:
                    raise CheckFailure(f"inverse pair fails q={pp.q} v={entries}")
            ones = digitlab.FracVector(pp, tuple([Fraction(1)] * pp.f))
            img = digitlab.shift_difference(ones)
            if img.entries != tuple([Fraction(pp.p - 1)] * pp.f):
                raise CheckFailure(f"all-ones image wrong for q={pp.q}")
        return "random rational vectors, both orders"

    def shift_order_lemma() -> str:
        from fractions import Fraction

        hits = 0
        for pp in pps:
            for _ in range(3000):
                a = [rng.randrange(-10, 10) for _ in range(pp.f)]
                b = [rng.randrange(-10, 10) for _ in range(pp.f)]
                fa = digitlab.shift_difference(
                    digitlab.FracVector(pp, tuple(Fraction(x) for x in a))
                ).entries
                fb = digitlab.shift_difference(
                    digitlab.FracVector(pp, tuple(Fraction(x) for x in b))
                ).entries
                ge = all(x >= y for x, y in zip(fa, fb))
                strict = any(x > y for x, y in zip(fa, fb))
                if ge and strict:
                    hits += 1
                    if not all(x > y for x, y in zip(a, b)):
                        raise CheckFailure(
                            f"order lemma fails q={pp.q} a={a} b={b}"
                        )
        return f"{hits} dominating pairs hit"

    results.append(_run("digit-sum-identity", digit_sum_identity))
    results.append(_run("carry-free-multiset", carry_free_multiset))
    results.append(_run("threshold-integrality", threshold_integrality))
    results.append(_run("shift-map-inverse", shift_map_inverse))
    results.append(_run("shift-order-lemma", shift_order_lemma))
    return results


# ---------------------------------------------------------------------------
# membership suite (even-class lattice, capacities, emptiness)
# ---------------------------------------------------------------------------


def _even_candidates(budget: tuple[int, ...], pp: PrimePower) -> list[tuple[int, ...]]:
    out = []
    for cand in itertools.product(*[range(b + 1) for b in budget]):
        if not any(cand):
            continue
        dot = sum(c * pp.p**i for i, c in enumerate(cand))
        if dot % (pp.q - 1) == 0:
            out.append(cand)
    return out


class _CoverOracle:
    """Exhaustive search: can `count` nonzero even-class vectors fit under
    a budget with nonzero slack?  Memoized per prime power."""

    def __init__(self, pp: PrimePower):
        self.pp = pp
        self.memo: dict[tuple[tuple[int, ...], int], bool] = {}

    def covers(self, rem: tuple[int, ...], count: int) -> bool:
        if count == 0:
            return any(rem)
        key = (rem, count)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        ans = False
        for cand in _even_candidates(rem, self.pp):
            rest = tuple(r - c for r, c in zip(rem, cand))
            if self.covers(rest, count - 1):
                ans = True
                break
        self.memo[key] = ans
        return ans


def run_membership_suite(
    qs: Sequence[int] = (2, 3, 4, 8, 9),
    nmax: int = 300,
    mmax: int = 5,
) -> list[CheckResult]:
    dmax_empty = 5
    pps = _pps(qs)
    results = []

    def even_class_lattice() -> str:
        for pp in pps:
            even_images = set()
            all_images = []
            for n in range(1, nmax + 1):
                v = digitlab.digit_class_vector(n, pp)
                all_images.append((n, v))
                if pp.is_q_even(n):
                    even_images.add(v.entries)
            for n, v in all_images:
                structural = digitlab.is_even_class(v)
                definitional = v.entries in even_images
                if structural != definitional or structural != pp.is_q_even(n):
                    raise CheckFailure(
                        f"even-class mismatch q={pp.q} n={n}: "
                        f"structural={structural} enumerated={definitional}"
                    )
            zero = ClassVector(pp, (0,) * pp.f)
            if digitlab.is_even_class(zero):
                raise CheckFailure(f"zero vector accepted for q={pp.q}")
        return f"n <= {nmax}, enumerated even images"

    def capacity_characterization() -> str:
        checked = 0
        for pp in pps:
            oracle = _CoverOracle(pp)
            for n in range(1, nmax + 1):
                v = digitlab.digit_class_vector(n, pp)
                member = digitlab.is_even_class(v)
                for m in range(1, mmax + 1):
                    structural_i = digitlab.capacity_exceeds(v, m - 1)
                    brute_i = oracle.covers(v.entries, m - 1)
                    if structural_i != brute_i:
                        raise CheckFailure(
                            f"capacity_exceeds mismatch q={pp.q} n={n} m={m}"
                        )
                    structural_j = digitlab.capacity_equals(v, m)
                    brute_j = (
                        member
                        and oracle.covers(v.entries, m - 1)
                        and not oracle.covers(v.entries, m)
                    )
                    if structural_j != brute_j:
                        raise CheckFailure(
                            f"capacity_equals mismatch q={pp.q} n={n} m={m}"
                        )
                    checked += 1
                if digitlab.capacity_equals(v, 0):
                    raise CheckFailure(f"capacity_equals(v, 0) true at q={pp.q} n={n}")
        return f"{checked} membership comparisons"

    def nonempty_criterion() -> str:
        for pp in pps:
            for n in range(1, nmax + 1):
                for d in range(1, dmax_empty + 1):
                    probe = next(
                        compose.iter_tail_free_parts(n, d, pp), None
                    )
                    if (probe is not None) != compose.tail_free_nonempty(n, d, pp):
                        raise CheckFailure(
                            f"emptiness criterion fails q={pp.q} N={n} d={d}"
                        )
        return f"N <= {nmax}, d <= {dmax_empty}"

    def even_split_interpretation() -> str:
        # splitting into exactly d carry-free q-even parts matches the
        # integral-capacity reading, small range
        for pp in pps:
            for n in range(1, 61):
                v = digitlab.digit_class_vector(n, pp)
                for d in range(1, 4):
                    splittable = _splittable(n, d, pp)
                    expected = digitlab.is_even_class(v) and digitlab.split_capacity(
                        v
                    ) >= d
                    if splittable != expected:
                        raise CheckFailure(
                            f"split interpretation fails q={pp.q} n={n} d={d}"
                        )
        return "n <= 60, d <= 3"

    results.append(_run("even-class-lattice", even_class_lattice))
    results.append(_run("capacity-characterization", capacity_characterization))
    results.append(_run("nonempty-criterion", nonempty_criterion))
    results.append(_run("even-split-interpretation", even_split_interpretation))
    return results


def _splittable(n: int, d: int, pp: PrimePower) -> bool:
    # exists a carry-free split of n into exactly d positive q-even parts;
    # equivalent to decomposing the class vector into d even-class vectors,
    # since per-class counts can always be realized by actual digit powers
    return _splittable_vec(digitlab.digit_class_vector(n, pp).entries, d, pp)


def _splittable_vec(entries: tuple[int, ...], d: int, pp: PrimePower) -> bool:
    if d == 0:
        return not any(entries)
    for cand in _even_candidates(entries, pp):
        rest = tuple(a - b for a, b in zip(entries, cand))
        if _splittable_vec(rest, d - 1, pp):
            return True
    return False


# ---------------------------------------------------------------------------
# cover-extension suite
# ---------------------------------------------------------------------------


def run_cover_suite(
    qs: Sequence[int] = (4, 8, 9),
    instances: int = 10_000,
) -> list[CheckResult]:
    entry_max = 30  # largest entry of a random class vector
    pps = _pps(qs)
    rng = random.Random(314159)
    results = []

    def cover_postconditions() -> str:
        checked = 0
        degenerate = 0
        rejected = 0
        while checked < instances:
            pp = pps[rng.randrange(len(pps))]
            u_entries = tuple(rng.randrange(0, entry_max + 1) for _ in range(pp.f))
            if not any(u_entries):
                continue
            v_entries = tuple(rng.randrange(0, e + 1) for e in u_entries)
            if not any(v_entries) or v_entries == u_entries:
                continue
            u = ClassVector(pp, u_entries)
            v = ClassVector(pp, v_entries)
            beta = digitlab.digit_sum_coords(u)
            alpha = digitlab.digit_sum_coords(v)
            k = min(
                math.floor(b) - math.ceil(a) for b, a in zip(beta, alpha)
            )
            try:
                w = digitlab.extend_to_cover(u, v)
            except DegenerateCoverError:
                if k != 0 or any(b.denominator != 1 for b in beta):
                    raise CheckFailure(
                        f"unexpected degenerate rejection q={pp.q} u={u_entries} v={v_entries}"
                    )
                degenerate += 1
                continue
            except PreconditionError:
                if k >= 0:
                    raise CheckFailure(
                        f"unexpected rejection q={pp.q} u={u_entries} v={v_entries}"
                    )
                rejected += 1
                continue
            if k < 0:
                raise CheckFailure(
                    f"accepted negative slack q={pp.q} u={u_entries} v={v_entries}"
                )
            if not digitlab.is_even_class(w):
                raise CheckFailure(f"cover not even-class: q={pp.q} u={u_entries} v={v_entries}")
            if not (v <= w and w <= u):
                raise CheckFailure(f"cover not between: q={pp.q} u={u_entries} v={v_entries}")
            diff = u - w
            if not (
                digitlab.capacity_equals(diff, k)
                or digitlab.capacity_exceeds(diff, k)
            ):
                raise CheckFailure(
                    f"difference capacity wrong: q={pp.q} u={u_entries} v={v_entries} k={k}"
                )
            checked += 1
        return (
            f"{checked} instances verified "
            f"({degenerate} degenerate, {rejected} negative-slack rejections)"
        )

    def cover_degenerate_rejection() -> str:
        # whenever the construction is refused, no conforming vector exists
        confirmed = 0
        for pp in pps:
            if pp.f > 2:
                bound = 3
            else:
                bound = 5
            grids = itertools.product(
                *[range(bound + 1) for _ in range(pp.f)]
            )
            for u_entries in grids:
                if not any(u_entries):
                    continue
                u = ClassVector(pp, u_entries)
                for v_entries in itertools.product(
                    *[range(e + 1) for e in u_entries]
                ):
                    if not any(v_entries) or v_entries == u_entries:
                        continue
                    v = ClassVector(pp, v_entries)
                    beta = digitlab.digit_sum_coords(u)
                    alpha = digitlab.digit_sum_coords(v)
                    k = min(
                        math.floor(b) - math.ceil(a)
                        for b, a in zip(beta, alpha)
                    )
                    if k < 0:
                        continue
                    try:
                        digitlab.extend_to_cover(u, v)
                        continue
                    except DegenerateCoverError:
                        pass
                    # exhaustive: no w in [v, u] satisfies all postconditions
                    for w_entries in itertools.product(
                        *[range(lo, hi + 1) for lo, hi in zip(v_entries, u_entries)]
                    ):
                        w = ClassVector(pp, w_entries)
                        if not digitlab.is_even_class(w):
                            continue
                        diff = u - w
                        if digitlab.capacity_equals(diff, k) or digitlab.capacity_exceeds(
                            diff, k
                        ):
                            raise CheckFailure(
                                f"rejected but cover exists: q={pp.q} "
                                f"u={u_entries} v={v_entries} w={w_entries}"
                            )
                    confirmed += 1
        return f"{confirmed} degenerate inputs confirmed coverless"

    results.append(_run("cover-extension-postconditions", cover_postconditions))
    results.append(_run("cover-degenerate-rejection", cover_degenerate_rejection))
    return results


# ---------------------------------------------------------------------------
# composition suite
# ---------------------------------------------------------------------------


def run_compose_suite(
    qs: Sequence[int] = (2, 3, 4, 8, 9),
    nmax: int = 300,
    enum_nmax: int = 120,
) -> list[CheckResult]:
    enum_dmax = 3
    pps = _pps(qs)
    results = []
    collected: list[tuple[PrimePower, int, int, compose.Composition]] = []

    def unique_minimum_weight() -> str:
        cells = 0
        for pp in pps:
            for n in range(1, nmax + 1):
                d = 1
                while compose.tail_free_nonempty(n, d, pp):
                    opt = compose.optimal_set(n, d, pp)
                    mod = compose.modest(n, d, pp, TAIL)
                    if len(opt) != 1 or opt[0] != mod:
                        raise CheckFailure(
                            f"optimal set is not the modest singleton: "
                            f"q={pp.q} N={n} d={d}: "
                            f"{[c.parts for c in opt]} vs {mod.parts}"
                        )
                    collected.append((pp, n, d, mod))
                    cells += 1
                    d += 1
        return f"{cells} nonempty (q, N, d) cells, N <= {nmax}"

    def restriction_consistency() -> str:
        # Drop-first restricts exactly.  Drop-last must be compared within
        # the subset whose final slot keeps the positive q-even constraint:
        # the shortened tuple's last slot was constrained before the drop,
        # and the unconstrained set can beat it by absorbing everything
        # into its free slot (e.g. q=3, N=8: (6,2,0) drops to (6,2) while
        # the free-slot maximum of two-part compositions of 8 is (8,0)).
        checked = 0
        for pp, n, d, comp in collected:
            parts = comp.parts
            if d < 2:
                continue
            head_rest = n - parts[0]
            if head_rest >= 1:
                sub = compose.modest(head_rest, d - 1, pp, TAIL)
                if sub.parts != parts[1:]:
                    raise CheckFailure(f"drop-first fails q={pp.q} N={n} d={d}")
            rest = n - parts[-1]
            if rest >= 1:
                best = None
                best_weight = None
                classes = compose.power_classes(rest, pp)
                for matrix in compose.valid_class_matrices(rest, d - 1, pp):
                    last_col = matrix.columns[-1]
                    if not digitlab.is_even_class(ClassVector(pp, last_col)):
                        continue
                    cand = compose._monotone_parts(matrix.columns, classes)
                    w = sum((j + 1) * x for j, x in enumerate(cand))
                    if best is None or cand > best:
                        best = cand
                    if best_weight is None or w < best_weight[0]:
                        best_weight = (w, cand)
                if best != parts[:-1] or best_weight[1] != parts[:-1]:
                    raise CheckFailure(
                        f"drop-last fails q={pp.q} N={n} d={d}: "
                        f"{parts[:-1]} vs lexmax {best} / minweight {best_weight}"
                    )
            checked += 1
        return (
            f"{checked} restrictions (drop-first exact; drop-last within "
            "the final-slot-constrained subset)"
        )

    def power_scaling_consistency() -> str:
        checked = 0
        for pp, n, d, comp in collected:
            if n > 40:
                continue
            for e in range(1, 4):
                scaled = compose.modest(n * pp.p**e, d, pp, TAIL)
                if scaled.parts != tuple(x * pp.p**e for x in comp.parts):
                    raise CheckFailure(
                        f"p-power scaling fails q={pp.q} N={n} d={d} e={e}"
                    )
                checked += 1
        return f"{checked} scalings, exponents 1..3"

    def interior_part_structure() -> str:
        checked = 0
        for pp, n, d, comp in collected:
            if d < 3:
                continue
            parts = comp.parts
            for i in range(1, d - 1):  # interior, 0-indexed
                v = digitlab.digit_class_vector(parts[i], pp)
                if not digitlab.capacity_equals(v, 1):
                    raise CheckFailure(
                        f"interior part not a one-split: q={pp.q} N={n} d={d} i={i+1}"
                    )
            last = parts[-1]
            if pp.is_q_even(n):
                if last != 0:
                    raise CheckFailure(
                        f"last part nonzero at even target: q={pp.q} N={n} d={d}"
                    )
            else:
                v = digitlab.digit_class_vector(last, pp)
                if not (
                    digitlab.capacity_exceeds(v, 0)
                    and not digitlab.capacity_exceeds(v, 1)
                ):
                    raise CheckFailure(
                        f"last part capacity wrong: q={pp.q} N={n} d={d}"
                    )
            checked += 1
        return f"{checked} compositions of depth >= 3"

    def leading_part_bounds() -> str:
        for pp, n, d, comp in collected:
            parts = comp.parts
            digits = digitlab.base_digits(n, pp.p)
            lead = digits[-1] * pp.p ** (len(digits) - 1)
            if parts[0] < lead:
                raise CheckFailure(f"leading block bound fails q={pp.q} N={n} d={d}")
            if 2 * parts[0] <= n:
                raise CheckFailure(f"half bound fails q={pp.q} N={n} d={d}")
            w = comp.weight
            if not (n <= w < 2 * n):
                raise CheckFailure(f"weight window fails q={pp.q} N={n} d={d}")
            if d >= 2 and n - parts[0] >= 1:
                if compose.tail_free_nonempty(n - parts[0], d, pp):
                    raise CheckFailure(
                        f"leading remainder unexpectedly splittable: "
                        f"q={pp.q} N={n} d={d}"
                    )
        return f"{len(collected)} compositions checked"

    def monotone_class_lemma() -> str:
        checked = 0
        for pp in pps:
            for n in range(1, enum_nmax + 1):
                for d in range(1, enum_dmax + 1):
                    for matrix in compose.valid_class_matrices(n, d, pp):
                        members = sorted(compose._iter_matrix_expansion(matrix))
                        rep = compose.monotone_rep(matrix)
                        if rep.parts != members[-1]:
                            raise CheckFailure(
                                f"monotone rep not lex-max q={pp.q} N={n} d={d}"
                            )
                        weights = sorted(
                            compose.Composition(pp, m, TAIL, n).weight
                            for m in members
                        )
                        if rep.weight != weights[0] or (
                            len(weights) > 1 and weights[0] == weights[1]
                        ):
                            raise CheckFailure(
                                f"monotone rep not unique min weight "
                                f"q={pp.q} N={n} d={d}"
                            )
                        checked += 1
        return f"{checked} matrix classes, N <= {enum_nmax}, d <= {enum_dmax}"

    def class_partition() -> str:
        for pp in pps:
            for n in range(1, enum_nmax + 1, 7):
                for d in range(1, enum_dmax + 1):
                    full = [c.parts for c in compose.enumerate_tail_free(n, d, pp)]
                    grouped: list[tuple[int, ...]] = []
                    for matrix in compose.valid_class_matrices(n, d, pp):
                        grouped.extend(compose._iter_matrix_expansion(matrix))
                    if sorted(full) != sorted(grouped) or len(grouped) != len(
                        set(grouped)
                    ):
                        raise CheckFailure(
                            f"matrix classes do not partition q={pp.q} N={n} d={d}"
                        )
        return f"sampled N <= {enum_nmax}, d <= {enum_dmax}"

    def selection_route_agreement() -> str:
        checked = 0
        for pp in pps:
            for n in range(1, enum_nmax + 1, 3):
                for d in range(0, enum_dmax):
                    if not compose.tail_free_nonempty(n, d + 1, pp):
                        continue
                    if compose.greedy(n, d, pp) != _greedy_by_enumeration(n, d, pp):
                        raise CheckFailure(f"greedy routes differ q={pp.q} k={n} d={d}")
                    if compose.modest(n, d, pp, HEAD) != _modest_by_enumeration(
                        n, d, pp, HEAD
                    ):
                        raise CheckFailure(f"modest routes differ q={pp.q} k={n} d={d}")
                    wd = d + 1
                    opt_struct = compose.optimal_set(n, wd, pp)
                    opt_enum = _optimal_set_by_enumeration(n, wd, pp)
                    if opt_struct != opt_enum:
                        raise CheckFailure(
                            f"optimal routes differ q={pp.q} N={n} d={wd}"
                        )
                    checked += 1
        return f"{checked} (q, target, d) cells compared on both routes"

    def reversal_bijection() -> str:
        for pp in pps:
            for n in range(1, enum_nmax + 1, 11):
                for d in range(0, enum_dmax):
                    head = [c.parts for c in compose.enumerate_head_free(n, d, pp)]
                    tail = [
                        c.parts[::-1]
                        for c in compose.enumerate_tail_free(n, d + 1, pp)
                    ]
                    if sorted(head) != sorted(tail):
                        raise CheckFailure(f"reversal bijection fails q={pp.q} k={n} d={d}")
        return f"sampled targets <= {enum_nmax}"

    results.append(_run("unique-minimum-weight", unique_minimum_weight))
    results.append(_run("restriction-consistency", restriction_consistency))
    results.append(_run("power-scaling-consistency", power_scaling_consistency))
    results.append(_run("interior-part-structure", interior_part_structure))
    results.append(_run("leading-part-bounds", leading_part_bounds))
    results.append(_run("monotone-class-lemma", monotone_class_lemma))
    results.append(_run("class-partition", class_partition))
    results.append(_run("selection-route-agreement", selection_route_agreement))
    results.append(_run("reversal-bijection", reversal_bijection))
    return results


# Brute-force selections over the full enumeration: the oracles for the
# structural greedy / modest / optimal_set routes.


def _greedy_by_enumeration(k: int, d: int, q: PrimePower) -> compose.Composition:
    comps = compose.enumerate_head_free(k, d, q)
    if not comps:
        raise EmptySetError(f"no head-free compositions of {k} at d={d}")
    return max(comps, key=lambda c: c.parts)


def _modest_by_enumeration(
    target: int, d: int, q: PrimePower, kind: str = HEAD
) -> compose.Composition:
    if kind == HEAD:
        comps = compose.enumerate_head_free(target, d, q)
        key = lambda c: c.parts[::-1]
    else:
        comps = compose.enumerate_tail_free(target, d, q)
        key = lambda c: c.parts
    if not comps:
        raise EmptySetError(f"no compositions of {target} at d={d}")
    return max(comps, key=key)


def _optimal_set_by_enumeration(
    n: int, d: int, q: PrimePower
) -> tuple[compose.Composition, ...]:
    comps = compose.enumerate_tail_free(n, d, q)
    if not comps:
        raise EmptySetError(f"no tail-free compositions of {n} at d={d}")
    best = min(c.weight for c in comps)
    return tuple(c for c in comps if c.weight == best)


# ---------------------------------------------------------------------------
# power-sum suite
# ---------------------------------------------------------------------------


def run_power_sum_suite(
    qs: Sequence[int] = (2, 3, 4, 5, 8, 9),
    dmax: int = 3,
    kmax: int = 200,
    guard: int = 1_000_000,
) -> list[CheckResult]:
    results = []
    formula_cache: dict[tuple[int, int, int], Poly] = {}
    # whether the head-free index set of (q, d, k) is nonempty: recorded by
    # extreme-degree-uniqueness, which enumerates every cell, and read by
    # vanishing-threshold-agreement, which enumerates only cells it lacks
    nonempty: dict[tuple[int, int, int], bool] = {}

    def formula_vs_bruteforce() -> str:
        compared = 0
        skipped = 0
        for q in qs:
            field = field_from_q(q)
            for d in range(0, dmax + 1):
                if q**d > guard:
                    skipped += 1
                    continue
                table = powersum.bruteforce_power_table(d, kmax, field)
                for k in range(1, kmax + 1):
                    form = powersum.power_sum_formula(d, -k, field).value
                    formula_cache[(q, d, k)] = form
                    if form != table[k]:
                        raise CheckFailure(
                            f"routes disagree at q={q} d={d} s={-k}"
                        )
                    compared += 1
        return f"{compared} (q, d, s) cells compared, {skipped} skipped by guard"

    def extreme_degree_uniqueness() -> str:
        checked = 0
        for q in qs:
            pp = PrimePower.from_q(q)
            for d in range(1, dmax + 1):
                for k in range(1, kmax + 1):
                    minw = maxw = None
                    min_count = max_count = 0
                    comps = compose.enumerate_head_free(k, d, pp)
                    nonempty[(q, d, k)] = bool(comps)
                    for comp in comps:
                        w = comp.weight
                        if minw is None or w < minw:
                            minw, min_count = w, 1
                        elif w == minw:
                            min_count += 1
                        if maxw is None or w > maxw:
                            maxw, max_count = w, 1
                        elif w == maxw:
                            max_count += 1
                    poly = formula_cache.get((q, d, k))
                    if poly is None:
                        poly = powersum.power_sum_formula(
                            d, -k, field_from_q(q)
                        ).value
                    if minw is None:
                        if not poly.is_zero:
                            raise CheckFailure(f"empty set, nonzero sum q={q} d={d} k={k}")
                        continue
                    if min_count != 1 or max_count != 1:
                        raise CheckFailure(
                            f"extreme weight not unique q={q} d={d} k={k}"
                        )
                    if poly.t_valuation != minw or poly.degree != maxw:
                        raise CheckFailure(
                            f"extremes do not match the polynomial q={q} d={d} k={k}"
                        )
                    if compose.modest(k, d, pp, HEAD).weight != minw:
                        raise CheckFailure(f"modest weight wrong q={q} d={d} k={k}")
                    if compose.greedy(k, d, pp).weight != maxw:
                        raise CheckFailure(f"greedy weight wrong q={q} d={d} k={k}")
                    checked += 1
        return f"{checked} nonzero power sums, extremes unique and matched"

    def threshold_agreement() -> str:
        for q in qs:
            pp = PrimePower.from_q(q)
            for d in range(0, dmax + 1):
                for k in range(1, kmax + 1):
                    if d > 0 and (q, d, k) not in nonempty:
                        nonempty[(q, d, k)] = bool(
                            compose.enumerate_head_free(k, d, pp)
                        )
                    empty = d > 0 and not nonempty[(q, d, k)]
                    poly = formula_cache.get((q, d, k))
                    if poly is None:
                        poly = powersum.power_sum_formula(
                            d, -k, field_from_q(q)
                        ).value
                    is_zero_poly = poly.is_zero
                    pred = powersum.vanishes(d, -k, pp)
                    if not (pred == is_zero_poly == empty):
                        raise CheckFailure(
                            f"triple agreement fails q={q} d={d} k={k}: "
                            f"criterion={pred} poly_zero={is_zero_poly} empty={empty}"
                        )
        return "criterion == zero polynomial == empty index set"

    def valuation_chain() -> str:
        for q in qs:
            pp = PrimePower.from_q(q)
            for k in range(1, kmax + 1):
                top = digitlab._threshold_floor(k, pp)
                nus = [powersum.power_sum_valuation(d, -k, pp) for d in range(top + 1)]
                if any(v is INF for v in nus):
                    raise CheckFailure(f"infinite valuation inside chain q={q} k={k}")
                for d in range(2, top + 1):
                    if not nus[d] > nus[d - 1]:
                        raise CheckFailure(f"chain not strict at q={q} k={k} d={d}")
                if top >= 1:
                    if not nus[1] >= nus[0] or nus[0] != 0:
                        raise CheckFailure(f"chain tail fails q={q} k={k}")
                    eq = nus[1] == nus[0]
                    modest_tail = compose.modest(k, 1, pp, HEAD).parts == (0, k)
                    if eq != modest_tail:
                        raise CheckFailure(
                            f"equality case mismatch q={q} k={k}: "
                            f"nu1==nu0 is {eq}, modest==(0,k) is {modest_tail}"
                        )
                # cross-check against computed polynomials where available
                for d in range(min(top, dmax) + 1):
                    poly = formula_cache.get((q, d, k))
                    if poly is not None and poly.t_valuation != nus[d]:
                        raise CheckFailure(
                            f"structural valuation differs from polynomial "
                            f"q={q} d={d} k={k}"
                        )
        return f"chains verified for k <= {kmax}"

    results.append(_run("formula-vs-bruteforce", formula_vs_bruteforce))
    results.append(_run("extreme-degree-uniqueness", extreme_degree_uniqueness))
    results.append(_run("vanishing-threshold-agreement", threshold_agreement))
    results.append(_run("valuation-chain", valuation_chain))
    return results


# ---------------------------------------------------------------------------
# multizeta suite
# ---------------------------------------------------------------------------


_TRIVIAL = "trivial-zero-equivalence"
_VALUATION = "valuation-additivity"


def _check_trivial_zero(res: mzv.ZetaResult, q: int) -> bool:
    # zeta_negative raises VanishingMismatchError on any criterion/value
    # disagreement; recheck the prediction.  Returns whether res is a zero.
    predicted = mzv.classify_zero(res.index.s, res.index.field.pp)
    if res.value.is_zero:
        if predicted != mzv.TRIVIAL_ZERO or res.classification != mzv.TRIVIAL_ZERO:
            raise CheckFailure(f"zero not predicted trivial at q={q} s={res.index.s}")
        return True
    if predicted != mzv.NONZERO or res.classification != mzv.NONZERO:
        raise CheckFailure(f"nonzero value predicted zero at q={q} s={res.index.s}")
    return False


def _check_valuation(res: mzv.ZetaResult, q: int) -> None:
    expected = mzv.zeta_valuation(res.index.s, res.index.field.pp)
    if res.valuation != expected:
        raise CheckFailure(
            f"valuation mismatch q={q} s={res.index.s}: "
            f"{res.valuation} vs {expected}"
        )


def _negative_sweep_pass(
    qs: Sequence[int], depths: Sequence[int], smin: int
) -> dict[str, tuple[bool, str]]:
    """One sweep_negative pass per (q, depth) feeding both
    trivial-zero-equivalence and valuation-additivity.

    Each check keeps its own counters and first failure, as if it swept
    alone, and the pass ends early only once both have failed.  Returns
    (passed, detail) per check name.
    """
    tuples = zeros = checked = 0
    failures: dict[str, str] = {}

    def results():
        for q in qs:
            field = field_from_q(q)
            for depth in depths:
                for res in mzv.sweep_negative(field, depth, smin):
                    yield q, res

    try:
        for q, res in results():
            if _TRIVIAL not in failures:
                try:
                    zeros += _check_trivial_zero(res, q)
                    tuples += 1
                except _CHECK_ERRORS as exc:
                    failures[_TRIVIAL] = str(exc)
            if _VALUATION not in failures and not res.value.is_zero:
                try:
                    _check_valuation(res, q)
                    checked += 1
                except _CHECK_ERRORS as exc:
                    failures[_VALUATION] = str(exc)
            if len(failures) == 2:
                break
    except _CHECK_ERRORS as exc:
        # an evaluation error ends every check still running
        for name in (_TRIVIAL, _VALUATION):
            failures.setdefault(name, str(exc))
    details = {
        _TRIVIAL: f"{tuples} tuples evaluated exactly, {zeros} zeros, "
        "all zeros trivial, zero mismatch errors",
        _VALUATION: f"{checked} nonzero tuples match the additive valuation",
    }
    return {n: (n not in failures, failures.get(n, d)) for n, d in details.items()}


def _replay(outcome: tuple[bool, str]) -> str:
    passed, detail = outcome
    if not passed:
        raise CheckFailure(detail)
    return detail


def run_mzv_suite(
    qs: Sequence[int] = (2, 3, 4, 9),
    depths: Sequence[int] = (2, 3),
    smin: int = -60,
    goss_kmax: int = 200,
) -> list[CheckResult]:
    results = []

    def mixed_sign_example() -> str:
        field = field_from_q(3)
        s1 = powersum.power_sum_formula(1, -8, field).value
        s2 = powersum.power_sum_formula(2, -8, field).value
        if s1.text() != "2*t^6+2*t^4+2*t^2+2" or s2.text() != "t^6+t^4+t^2":
            raise CheckFailure("power-sum values differ from the expected display")
        s12 = powersum.power_sum_bruteforce(1, 2, field).value
        if not isinstance(s12, RationalFn):
            raise CheckFailure("positive-exponent sum is not rational")
        if (RationalFn(s2) * s12).text() != "1":
            raise CheckFailure("cross product is not 1")
        summands = [
            RationalFn(s1),
            RationalFn(s2),
            RationalFn(s2) * s12,
        ]
        total = summands[0] + summands[1] + summands[2]
        if not total.is_zero:
            raise CheckFailure("three-term identity does not cancel")
        res = mzv.zeta_mixed((-8, 2), field)
        if not (res.exact and res.value.is_zero):
            raise CheckFailure("mixed evaluation is not an exact zero")
        return "all displayed identities reproduced exactly"

    sweep: dict[str, tuple[bool, str]] = {}

    def trivial_zero_equivalence() -> str:
        # the shared pass runs here, so this check's time covers both
        sweep.update(_negative_sweep_pass(qs, depths, smin))
        return _replay(sweep[_TRIVIAL])

    def valuation_additivity() -> str:
        return _replay(sweep[_VALUATION])

    def depth_one_parity() -> str:
        # Goss: zeta(s) for s < 0 vanishes exactly when -s is q-even; one
        # depth-1 sweep per field (none for an empty range) shares its
        # engine's power sums
        for q in qs if goss_kmax >= 1 else ():
            field = field_from_q(q)
            [(_, tails, row)] = mzv.sweep_rows(field, 1, -goss_kmax)
            for s, (n, _) in reversed(list(zip(tails, row))):
                if (not n) != field.pp.is_q_even(-s):
                    raise CheckFailure(f"parity mismatch q={q} s={s}")
        return f"1 <= -s <= {goss_kmax}, vanishing iff q-even"

    results.append(_run("mixed-sign-example", mixed_sign_example))
    results.append(_run(_TRIVIAL, trivial_zero_equivalence))
    results.append(_run(_VALUATION, valuation_additivity))
    results.append(_run("depth-one-parity", depth_one_parity))
    return results


# ---------------------------------------------------------------------------
# worked-example suite
# ---------------------------------------------------------------------------


def run_example_suite() -> list[CheckResult]:
    results = []

    def class_matrix_example() -> str:
        pp = PrimePower(3, 2)
        v = digitlab.digit_class_vector(131, pp)
        if v.entries != (5, 2):
            raise CheckFailure(f"class vector of 131 is {v.entries}")
        mats = compose.valid_class_matrices(131, 2, pp)
        rows = sorted(m.rows() for m in mats)
        expected = sorted([((5, 0), (1, 1)), ((2, 3), (2, 0))])
        if rows != expected:
            raise CheckFailure(f"matrix set is {rows}")
        first = next(m for m in mats if m.rows() == ((5, 0), (1, 1)))
        members = set(compose._iter_matrix_expansion(first))
        if (128, 3) not in members or (104, 27) not in members:
            raise CheckFailure("expected members missing from the first class")
        if compose.monotone_rep(first).parts != (128, 3):
            raise CheckFailure("monotone representative is not (128, 3)")
        pc = compose.power_classes(131, pp)
        if pc != ((81, 9, 9, 1, 1), (27, 3)):
            raise CheckFailure(f"power classes are {pc}")
        w2 = {c.parts for c in compose.enumerate_tail_free(131, 2, pp)}
        if (128, 3) not in w2 or (104, 27) not in w2:
            raise CheckFailure("expected compositions missing from the full set")
        return "class vector, both matrices, members and power classes match"

    results.append(_run("class-matrix-example", class_matrix_example))
    return results


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITE_NAMES = ("digits", "compose", "powersum", "mzv", "all")


def run_suites(suite: str = "all", **overrides) -> list[CheckResult]:
    """Run one named suite (or all), forwarding range overrides that the
    individual suites accept."""

    def pick(fn, *names):
        kw = {k: v for k, v in overrides.items() if k in names and v is not None}
        return fn(**kw)

    out: list[CheckResult] = []
    if suite in ("digits", "all"):
        out += pick(run_digit_suite, "qs", "nmax")
        out += pick(run_membership_suite, "qs", "nmax", "mmax")
        out += pick(run_cover_suite, "instances")
    if suite in ("compose", "all"):
        out += pick(run_compose_suite, "qs", "nmax", "enum_nmax")
        out += run_example_suite()
    if suite in ("powersum", "all"):
        out += pick(run_power_sum_suite, "qs", "dmax", "kmax")
    if suite in ("mzv", "all"):
        out += pick(run_mzv_suite, "qs", "depths", "smin", "goss_kmax")
    return out
