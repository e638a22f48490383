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
from fqzeta.fqpoly import block_size

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

    def test_rejects_nonnegative_s(self, F3):
        with pytest.raises(ValueError):
            power_sum_formula(1, 0, F3)
        with pytest.raises(ValueError):
            power_sum_formula(1, 2, F3)

    def test_large_prime_single_term(self):
        # one index tuple, (p-1) = 0 + (p-1): S(1, -(p-1)) = -1
        field = make_field(65521, 1)
        assert power_sum_formula(1, -65520, field).value.coeffs == (65520,)

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
        "q, kmax, ks, blocks",
        [
            # 64 monics in blocks of 21: the last block holds one monic
            (8, 300, (0, 1, 2, 63, 126, 127, 191, 255, 287, 299, 300), 4),
            # all 25 monics in one block
            (5, 40, range(41), 1),
        ],
    )
    def test_table_blocks_match_single_calls(self, q, kmax, ks, blocks):
        field = field_from_q(q)
        assert -(-(q**2) // block_size(field, 2 * kmax + 1)) == blocks
        table = bruteforce_power_table(2, kmax, field)
        for k in ks:
            assert table[k] == power_sum_bruteforce(2, -k, field).value, k

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
