import itertools
import math
import sys
import threading

import pytest

from fqzeta import (
    INF,
    Poly,
    PrimePower,
    RationalFn,
    ResourceLimitError,
    bruteforce_power_table,
    field_from_q,
    power_sum_bruteforce,
    power_sum_formula,
    power_sum_valuation,
    vanishes,
)
from fqzeta import make_field
from fqzeta.compose import HEAD, enumerate_head_free
from fqzeta.digitlab import base_digits
from fqzeta import fqpoly, powersum

import oracles


class TestFormula:
    def test_remark_values(self, F3):
        assert power_sum_formula(1, -8, F3).value.text() == "2*t^6+2*t^4+2*t^2+2"
        assert power_sum_formula(2, -8, F3).value.text() == "t^6+t^4+t^2"
        assert power_sum_formula(3, -8, F3).value.is_zero

    def test_d0(self, F3):
        res = power_sum_formula(0, -5, F3)
        assert res.value == Poly.one(F3)
        assert res.valuation == 0

    def test_d0_reads_no_digits(self, monkeypatch):
        # S_0 = 1 comes before the digits of k, the work bound and the Lucas
        # tables, which would take time linear in the largest digit
        def refused(*args):
            raise AssertionError("base_digits called at d = 0")

        monkeypatch.setattr(powersum, "base_digits", refused)
        field = make_field(1000003, 1)
        assert powersum.power_sum_packed(0, 1000002, field) == 1
        assert power_sum_formula(0, -1000002, field).value == Poly.one(field)

    def test_rejects_nonnegative_s(self, F3):
        with pytest.raises(ValueError):
            power_sum_formula(1, 0, F3)
        with pytest.raises(ValueError):
            power_sum_formula(1, 2, F3)

    def test_large_prime_single_term(self):
        # one index tuple, (p-1) = 0 + (p-1): S(1, -(p-1)) = -1
        field = make_field(65521, 1)
        assert power_sum_formula(1, -65520, field).value.coeffs == (65520,)

    def test_one_term_costs_no_digit_tables(self, monkeypatch):
        # S_1(-(p-1)) = -1: the lowest digit steps from its residue, so no
        # binomial row of the digit p - 1 is built
        built = []
        row = powersum._binomial_row

        def spy(a, p):
            built.append(a)
            return row(a, p)

        monkeypatch.setattr(powersum, "_binomial_row", spy)
        field = make_field(1000003, 1)
        powersum._clear_store()
        assert power_sum_formula(1, -1000002, field).value.coeffs == (1000002,)
        assert built == []

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27, 257])
    def test_lucas_terms_match_submask_filter(self, q):
        # every base-p digit submask j < k with (q-1) | (k-j), and C(k, j)
        # mod p (by Lucas, a product over the digits), against the plain
        # enumeration of all submasks
        p, qm = field_from_q(q).pp.p, q - 1
        for k in [*range(1, 120), p**3 - 1, 3 * p**2 + p - 1, q * q - 1]:
            ds = base_digits(k, p)
            if math.prod(a + 1 for a in ds) > 4096:
                continue
            want = {}
            for bs in itertools.product(*(range(a + 1) for a in ds)):
                j = sum(b * p**i for i, b in enumerate(bs))
                if j < k and (k - j) % qm == 0:
                    want[j] = math.prod(map(math.comb, ds, bs)) % p
            got = list(powersum._lucas_terms(k, p, qm, {}))
            assert dict(got) == want and len(got) == len(want), (q, k)

    def test_split_guard(self):
        field = field_from_q(257)
        with pytest.raises(ResourceLimitError):
            power_sum_formula(2, -66048, field)

    def test_coefficients_against_expansion(self):
        # the t^w coefficient is (-1)^d times the sum of the mod-p
        # multinomials of the head-free compositions of weight w
        for q in (3, 4, 9):
            field = field_from_q(q)
            p = field.pp.p
            for d in (1, 2, 3):
                for k in range(1, 41):
                    expected: dict[int, int] = {}
                    for comp in enumerate_head_free(k, d, field.pp):
                        coeff = oracles.naive_multinomial_mod(k, comp.parts, p)
                        assert coeff != 0
                        w = comp.weight
                        expected[w] = expected.get(w, 0) + coeff
                    sign = (-1) ** d
                    got = power_sum_formula(d, -k, field).value.coeffs
                    assert {w: c for w, c in enumerate(got) if c} == {
                        w: sign * c % p for w, c in expected.items() if c % p
                    }, (q, d, k)

    def test_readme_example(self):
        assert power_sum_formula(2, -10, field_from_q(9)).value.text() == "0"

    def test_json_record(self, F3):
        rec = power_sum_formula(2, -8, F3).to_json_dict()
        assert rec == {
            "q": 3,
            "p": 3,
            "f": 1,
            "modulus": "x",
            "d": 2,
            "s": -8,
            "method": "formula",
            "value": "t^6+t^4+t^2",
            "valuation": 2,
        }
        rec0 = power_sum_formula(3, -8, F3).to_json_dict()
        assert rec0["value"] == "0" and rec0["valuation"] == "inf"


class TestBruteForce:
    def test_positive_exponent(self, F3):
        res = power_sum_bruteforce(1, 2, F3)
        assert isinstance(res.value, RationalFn)
        assert res.value.text() == "1/(t^6+t^4+t^2)"
        assert res.valuation == -2

    def test_d0(self, F3):
        assert power_sum_bruteforce(0, 7, F3).value == RationalFn(Poly.one(F3))
        assert power_sum_bruteforce(0, -7, F3).value == Poly.one(F3)

    def test_s0_vanishes_for_positive_d(self, F3):
        assert power_sum_bruteforce(2, 0, F3).value.is_zero

    def test_guard(self, F3):
        with pytest.raises(ResourceLimitError):
            power_sum_bruteforce(3, -2, F3, max_terms=5)
        with pytest.raises(ResourceLimitError):
            power_sum_bruteforce(0, -2, F3, max_terms=0)

    def test_negative_max_terms(self, F3):
        with pytest.raises(ValueError, match="max_terms"):
            power_sum_bruteforce(1, -2, F3, max_terms=-1)

    def test_routes_agree_small(self):
        for q in (2, 3, 4, 9):
            field = field_from_q(q)
            for d in (1, 2):
                for k in range(1, 25):
                    a = power_sum_formula(d, -k, field).value
                    b = power_sum_bruteforce(d, -k, field).value
                    assert a == b, (q, d, k)

    def test_table_matches_single_calls(self):
        for q in (3, 4):
            field = field_from_q(q)
            table = bruteforce_power_table(2, 12, field)
            for k in range(1, 13):
                assert table[k] == power_sum_bruteforce(2, -k, field).value
            assert table[0] == power_sum_bruteforce(2, 0, field).value

    @pytest.mark.parametrize(
        "q, kmax, ks, size, blocks",
        [
            # the 10 monics of F (of 64) in blocks of 3: the last block
            # holds one monic
            pytest.param(
                8, 300, (0, 1, 2, 63, 126, 127, 191, 255, 287, 299, 300), 3, 4,
                id="8-300-ks0-4",
            ),
            # all 8 monics of F (of 25) in one block under the default limb
            # budget
            pytest.param(5, 40, range(41), None, 1, id="5-40-ks1-1"),
        ],
    )
    def test_table_blocks_match_single_calls(
        self, monkeypatch, q, kmax, ks, size, blocks
    ):
        field = field_from_q(q)
        if size:
            monkeypatch.setattr(fqpoly, "_POWER_BLOCK_LIMBS", size * (2 * kmax + 1))
        built = []
        build = fqpoly._mul_matrices

        def spy(fs, codes):
            built.append(len(codes))
            return build(fs, codes)

        # _mul_matrices runs twice per block at d = 2
        monkeypatch.setattr(fqpoly, "_mul_matrices", spy)
        table = bruteforce_power_table(2, kmax, field)
        assert len(built) == 2 * blocks
        for k in ks:
            assert table[k] == power_sum_bruteforce(2, -k, field).value, k

    @pytest.mark.parametrize(
        "q, ranges",
        [
            (2, ((0, 8), (1, 8), (2, 8), (3, 8), (3, 0))),
            (3, ((0, 6), (1, 8), (2, 8), (3, 6), (2, 0))),
            (4, ((0, 4), (1, 6), (2, 6), (3, 5), (3, 0))),
            (8, ((0, 3), (1, 6), (2, 4), (3, 3), (1, 0))),
            (9, ((0, 3), (1, 8), (2, 4), (3, 2), (3, 0))),
            (27, ((0, 3), (1, 6), (2, 2), (2, 0))),
            (257, ((0, 3), (1, 3), (1, 0))),
            (263, ((0, 3), (1, 3), (1, 0))),
            # 64-bit limbs
            (65521, ((0, 2), (1, 1), (1, 0))),
        ],
    )
    def test_table_matches_naive_sums(self, q, ranges):
        field = field_from_q(q)
        for d, kmax in ranges:
            table = bruteforce_power_table(d, kmax, field)
            expected = oracles.naive_power_sums(field, d, kmax)
            assert [value.coeffs for value in table] == list(expected), (d, kmax)

    @pytest.mark.parametrize("q", [3, 9])
    def test_table_edge_cases(self, q):
        field = field_from_q(q)
        one = Poly.one(field)
        assert bruteforce_power_table(0, 0, field) == [one]
        assert bruteforce_power_table(0, 4, field) == [one] * 5
        assert bruteforce_power_table(2, 0, field) == [
            power_sum_bruteforce(2, 0, field).value
        ]

    def test_table_64_bit_limbs(self):
        # q = 65521 needs 64-bit limbs; S(1, -k) = 0 for 0 < k < q - 1, so
        # the table checks that 65521 running powers cancel exactly
        field = field_from_q(65521)
        table = bruteforce_power_table(1, 4, field)
        assert table[0] == power_sum_bruteforce(1, 0, field).value
        for k in range(1, 5):
            assert table[k] == power_sum_formula(1, -k, field).value, k

    @pytest.mark.parametrize("q", [257, 263])
    def test_table_matches_formula_past_limb_overflow(self, q):
        # one coefficient product (p-1)^2 no longer fits a 16-bit limb;
        # the first nonzero cells are k >= q - 1
        field = field_from_q(q)
        table = bruteforce_power_table(1, 300, field)
        for k in range(1, 301):
            assert table[k] == power_sum_formula(1, -k, field).value, k


class TestAwkwardFields:
    # q = 2; f = 3 over p = 2 and over p = 3; p = 257, whose coefficient
    # product (p-1)^2 needs 32-bit limbs.  (d, kmax) keep q^d * kmax small.
    @pytest.mark.parametrize(
        "q, ranges",
        [
            (2, ((1, 200), (2, 200), (3, 200))),
            (8, ((1, 200), (2, 120), (3, 40))),
            (27, ((1, 200), (2, 80))),
            (257, ((1, 600),)),
        ],
    )
    def test_formula_matches_table(self, q, ranges):
        field = field_from_q(q)
        nonzero = 0
        for d, kmax in ranges:
            table = bruteforce_power_table(d, kmax, field)
            for k in range(1, kmax + 1):
                value = power_sum_formula(d, -k, field).value
                assert value == table[k], (d, k)
                nonzero += not value.is_zero
        assert nonzero

    def test_formula_matches_table_depth_three_q27(self):
        # every entry is 0 (k < q - 1); the table sums 27^3 running powers
        field = field_from_q(27)
        table = bruteforce_power_table(3, 12, field)
        for k in range(1, 13):
            assert table[k] == power_sum_formula(3, -k, field).value, k

    def test_formula_matches_bruteforce_depth_three_q27(self):
        field = field_from_q(27)
        for k in (1, 2):
            assert (
                power_sum_formula(3, -k, field).value
                == power_sum_bruteforce(3, -k, field).value
            )


class TestValuationAndVanishing:
    def test_examples(self, q3):
        assert power_sum_valuation(1, -8, q3) == 0
        assert power_sum_valuation(2, -8, q3) == 2
        assert power_sum_valuation(0, -5, q3) == 0
        assert power_sum_valuation(3, -8, q3) is INF

    def test_vanishes_examples(self, q3):
        assert vanishes(3, -8, q3)
        assert not vanishes(2, -8, q3)
        for q in (2, 3, 4, 9):
            pp = PrimePower.from_q(q)
            assert not vanishes(1, -(q - 1) if q > 2 else -1, pp)

    def test_valuation_matches_formula(self):
        for q in (2, 3, 9):
            pp = PrimePower.from_q(q)
            field = field_from_q(q)
            for d in (0, 1, 2):
                for k in range(1, 30):
                    nu = power_sum_valuation(d, -k, pp)
                    poly = power_sum_formula(d, -k, field).value
                    assert nu == poly.t_valuation, (q, d, k)

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 13, 16, 25, 27])
    def test_terms_in_one_scaling_class(self, q):
        # a(t) -> lambda^(-d) a(lambda t) permutes the monics of degree d, so
        # S_d(-k) has terms t^j only at j = dk mod q - 1: the projection the
        # brute-force kernel applies, checked here on the formula route
        field = field_from_q(q)
        nonzero = 0
        for d in range(5):
            for k in range(1, 61):
                coeffs = power_sum_formula(d, -k, field).value.coeffs
                terms = [j for j, c in enumerate(coeffs) if c]
                assert all((j - d * k) % (q - 1) == 0 for j in terms), (d, k)
                nonzero += bool(coeffs)
        assert nonzero > 60

    def test_degree_window(self):
        # every exponent sits between the modest and greedy weights
        from fqzeta import greedy, modest

        for q in (3, 4):
            pp = PrimePower.from_q(q)
            field = field_from_q(q)
            for d in (1, 2):
                for k in range(1, 40):
                    poly = power_sum_formula(d, -k, field).value
                    if poly.is_zero:
                        continue
                    lo = modest(k, d, pp, HEAD).weight
                    hi = greedy(k, d, pp).weight
                    assert poly.t_valuation == lo
                    assert poly.degree == hi
                    assert all(
                        lo <= e <= hi
                        for e, c in enumerate(poly.coeffs)
                        if c
                    )


def _force(monkeypatch, route):
    """Make ``power_sum_packed`` take one route: "level" fills whole levels,
    "node" recurses node by node, "rule" leaves the choice to the rule."""
    if route != "rule":
        monkeypatch.setattr(powersum, "_level_route_pays", lambda *args: route == "level")


class TestLevelRoute:
    """The level route (``fqpoly.lucas_level`` over the digit box of k) and
    the node-by-node recursion, each forced, against each other and against
    the literal sums."""

    # dense boxes (every digit p - 1, all ones at q = 2) and sparse ones
    # (zero digits, digits below p - 1)
    CELLS = {
        2: (255, 1057, 600),
        3: (80, 242, 164, 500),
        4: (255, 259, 1000),
        5: (124, 179, 652),
        8: (63, 511, 519),
        9: (80, 728, 737),
        16: (255, 277),
        25: (624, 652),
        27: (728, 758),
        257: (256, 770, 1546),
    }

    def values(self, monkeypatch, route, field, d, ks):
        _force(monkeypatch, route)
        out = []
        for k in ks:
            powersum._clear_store()
            out.append(power_sum_formula(d, -k, field).value)
        return out

    @pytest.mark.parametrize("q", sorted(CELLS))
    def test_routes_agree(self, monkeypatch, q):
        field = field_from_q(q)
        nonzero = 0
        for d in range(1, 6):
            level = self.values(monkeypatch, "level", field, d, self.CELLS[q])
            node = self.values(monkeypatch, "node", field, d, self.CELLS[q])
            assert level == node, d
            nonzero += sum(not v.is_zero for v in level)
        assert nonzero

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_routes_match_naive_sums(self, monkeypatch, q):
        field = field_from_q(q)
        for d in range(2, 6):
            if q**d > 32:
                break
            want = oracles.naive_power_sums(field, d, 30)[1:]
            for route in ("level", "node"):
                got = self.values(monkeypatch, route, field, d, range(1, 31))
                assert [v.coeffs for v in got] == list(want), (route, d)

    def test_rule_takes_each_route(self, monkeypatch, F2, F9):
        filled = []
        level = powersum.lucas_level

        def spy(field, *args):
            filled.append(field.pp.q)
            return level(field, *args)

        monkeypatch.setattr(powersum, "lucas_level", spy)
        powersum._clear_store()
        # q = 2, eight one-bits: levels 1 and 2 a whole level at a time
        power_sum_formula(3, -255, F2)
        assert filled == [2, 2]
        # q = 9: node by node, every node of level 2 reached from the top
        power_sum_formula(3, -728, F9)
        assert filled == [2, 2]
        assert (2, 728 - 8) in powersum._store[F9]
        # the level below is stored: the direct sum alone, no box
        monkeypatch.setattr(powersum, "_fill_levels", None)
        powersum._store[F2].pop((3, 255))
        power_sum_formula(3, -255, F2)


def _snapshot():
    return {f: dict(m) for f, m in powersum._store.items()}, powersum._store_bits


def _charged():
    """What the store's entries are charged, over every field."""
    return sum(
        v.bit_length() + powersum._ENTRY_BITS
        for store in powersum._store.values()
        for v in store.values()
    )


class TestStore:
    """The per-field store of S(d, k) that ``power_sum_packed`` keeps for
    the life of the process: values never depend on it."""

    # (d, k) cells per q, reaching q = 27 and the 32-bit limbs of q = 257
    CELLS = {
        2: [(d, k) for d in (1, 2, 3, 4) for k in (7, 30, 63, 64, 127)],
        3: [(d, k) for d in (1, 2, 3) for k in (8, 26, 40, 80, 161)],
        4: [(d, k) for d in (1, 2, 3) for k in (15, 30, 63, 100)],
        9: [(d, k) for d in (1, 2, 3) for k in (8, 80, 100, 242)],
        27: [(d, k) for d in (1, 2) for k in (26, 52, 100, 728)],
        257: [(d, k) for d in (1, 2) for k in (256, 512, 700, 1000)],
    }

    route = "rule"

    @pytest.fixture(autouse=True)
    def _route(self, monkeypatch):
        _force(monkeypatch, self.route)

    @pytest.mark.parametrize("q", sorted(CELLS))
    def test_cold_and_warm_values_agree(self, q):
        field = field_from_q(q)
        cells = self.CELLS[q]
        cold = []
        for d, k in cells:
            powersum._clear_store()
            cold.append(power_sum_formula(d, -k, field).value)
        assert any(not v.is_zero for v in cold)
        # warm, and in reverse order, so each cell reads nodes of the others
        warm = [power_sum_formula(d, -k, field).value for d, k in reversed(cells)]
        assert warm[::-1] == cold
        assert set(powersum._store) == {field}

    def test_store_dropped_over_budget(self, monkeypatch, F2, F3):
        powersum._clear_store()
        expected = [power_sum_formula(d, -30, F2).value for d in (1, 2, 3)]
        powersum._clear_store()
        monkeypatch.setattr(powersum, "STORE_BITS", 8)
        assert power_sum_formula(1, -30, F2).value == expected[0]
        assert powersum._store_bits > 8
        # the next call finds the store over budget and starts from empty
        assert power_sum_formula(2, -8, F3).value.text() == "t^6+t^4+t^2"
        assert set(powersum._store) == {F3}
        assert powersum._store_bits == _charged()
        assert [power_sum_formula(d, -30, F2).value for d in (1, 2, 3)] == expected

    @pytest.mark.parametrize("budget", [None, 8])
    def test_guard_trip_leaves_store_unchanged(self, monkeypatch, F3, budget):
        field = field_from_q(257)
        power_sum_formula(2, -512, field)
        power_sum_formula(3, -80, F3)
        if budget is not None:
            monkeypatch.setattr(powersum, "STORE_BITS", budget)
        before = _snapshot()
        with pytest.raises(ResourceLimitError):
            power_sum_formula(2, -66048, field)
        assert _snapshot() == before

    def test_guard_trips_with_cold_and_warm_store(self):
        field = field_from_q(257)
        powersum._clear_store()
        with pytest.raises(ResourceLimitError):
            power_sum_formula(2, -66048, field)
        # the depth-1 node of the guarded cell, and a level over a digit box
        # (S(1, -c) for c = 257 * b, b <= 4)
        power_sum_formula(1, -66048, field)
        power_sum_formula(2, -1028, field)
        with pytest.raises(ResourceLimitError):
            power_sum_formula(2, -66048, field)

    def test_threads_lose_no_bit_count(self):
        # more threads than cores, switching often, each filling its own
        # field's store from cold, so no node is added twice; a lost update
        # would leave the count below what the entries are charged
        qs = (2, 3, 4, 9, 27, 257)
        expected = {
            (q, d, k): power_sum_formula(d, -k, field_from_q(q)).value
            for q in qs
            for d, k in self.CELLS[q]
        }
        powersum._clear_store()
        got, errors = {}, []

        def work(q):
            try:
                for d, k in self.CELLS[q]:
                    got[q, d, k] = power_sum_formula(d, -k, field_from_q(q)).value
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(q,)) for q in qs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert got == expected
        assert powersum._store_bits == _charged()


class TestStoreLevelRoute(TestStore):
    """The store tests with every fill below a missing node taken a whole
    level at a time."""

    route = "level"


class TestStoreNodeRoute(TestStore):
    """The store tests with every fill taken node by node."""

    route = "node"
