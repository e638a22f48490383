import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqzeta import (
    INF,
    FieldElement,
    FieldSpec,
    Poly,
    RationalFn,
    field_from_q,
    make_field,
    monic_polys,
)
from fqzeta.fqpoly import (
    CACHE_LIMIT,
    PackedSum,
    _mul_packed,
    _mul_schoolbook,
    canonical_polys,
    canonical_texts,
    canonical_values,
    monic_power_sums,
    poly_gcd,
)
from fqzeta import fqpoly
from fqzeta.mzv import _threshold_floor
from fqzeta.powersum import power_sum_valuation

import oracles


class TestMakeField:
    def test_moduli(self):
        assert make_field(3, 1).modulus_text() == "x"
        assert make_field(2, 2).modulus_text() == "x^2+x+1"
        assert make_field(3, 2).modulus_text() == "x^2+1"
        assert make_field(2, 3).modulus_text() == "x^3+x+1"

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            make_field(4, 1)

    def test_limb_capacity(self):
        # accepted up to (p-1)^2 * f + p - 1 < 2^64, exact on the packed path
        for p, f in ((65521, 1), (251, 2), (4294967291, 1)):
            field = make_field(p, f)
            a = Poly(field, [field.pp.q - 1] * 60)
            assert _mul_packed(a, a).coeffs == oracles.naive_poly_mul_codes(
                a.coeffs, a.coeffs, field
            )
        with pytest.raises(ValueError):
            make_field(4294967311, 1)
        with pytest.raises(ValueError):
            make_field(3, 2**62)

    def test_registry_identity(self):
        assert make_field(3, 2) is make_field(3, 2)
        assert field_from_q(9) is make_field(3, 2)

    def test_process_caches_bounded(self):
        for cached in (make_field, power_sum_valuation, _threshold_floor):
            assert cached.cache_info().maxsize == CACHE_LIMIT

    def test_evicted_field_rebuilt_equal(self):
        old = make_field(3, 2)
        a = Poly(old, (1, 2, 3))
        make_field.cache_clear()
        new = make_field(3, 2)
        assert new is not old and new == old
        assert a * Poly(new, (4, 5)) == Poly(old, (4, 5)) * a


class TestFieldElement:
    @settings(deadline=None, max_examples=150)
    @given(
        st.sampled_from([2, 3, 4, 5, 8, 9]),
        st.integers(0, 8),
        st.integers(0, 8),
        st.integers(0, 8),
    )
    def test_field_axioms(self, q, a, b, c):
        field = field_from_q(q)
        x = field.element(a % q)
        y = field.element(b % q)
        z = field.element(c % q)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == field.zero
        if y:
            assert y * y.inverse() == field.one

    @pytest.mark.parametrize("q", [2, 3, 257, 1021])
    def test_prime_field_ops_match_coordinates(self, q):
        field = field_from_q(q)
        assert field._add is None and field._mul is None
        rng = random.Random(q)
        for _ in range(300):
            a, b = rng.randrange(q), rng.randrange(q)
            assert field.add_codes(a, b) == field._add_coords(a, b)
            assert field.mul_codes(a, b) == field._mul_coords(a, b)
            neg = field.code_of([-c for c in field.coords_of(a)])
            assert field.neg_code(a) == neg
            if a:
                inv = field.inv_code(a)
                assert 0 < inv < q and field._mul_coords(a, inv) == 1

    @pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49, 121])
    def test_tables_match_coordinates(self, q):
        field = field_from_q(q)
        for a in range(q):
            assert field._add[a] == [field._add_coords(a, b) for b in range(q)]
            assert field._mul[a] == [field._mul_coords(a, b) for b in range(q)]
            assert field._add_coords(a, field._neg[a]) == 0
            if a:
                assert field._mul_coords(a, field._inv[a]) == 1

    def test_table_build_time(self):
        # make_field's cache is bypassed, so the tables are built here
        start = time.perf_counter()
        field = make_field.__wrapped__(31, 2)
        assert time.perf_counter() - start < 0.5
        assert field._mul is not None

    def test_frobenius_additive(self):
        rng = random.Random(5)
        for q in (4, 8, 9):
            field = field_from_q(q)
            p = field.pp.p
            for _ in range(60):
                x = field.element(rng.randrange(q))
                y = field.element(rng.randrange(q))
                assert (x + y) ** p == x**p + y**p

    def test_prime_subfield(self):
        F9 = field_from_q(9)
        # codes 0..p-1 are the prime subfield; -1 maps to p-1
        minus_one = -F9.one
        assert minus_one.code == 2
        assert (F9.from_int(7)).code == 1


class TestPolyBasics:
    def test_product_example(self, F3):
        t = Poly.t(F3)
        one = Poly.one(F3)
        two = Poly.constant(F3, 2)
        assert ((t + one) * (t + two)).text() == "t^2+2"

    def test_degree_and_valuation(self, F3):
        zero = Poly.zero(F3)
        assert zero.degree == -1
        assert zero.t_valuation is INF
        p = Poly(F3, (0, 0, 1, 0, 1, 0, 1))  # t^6+t^4+t^2
        assert p.degree == 6
        assert p.t_valuation == 2
        p2 = Poly(F3, (2, 0, 2, 0, 2, 0, 2))
        assert p2.t_valuation == 0

    def test_text_format(self, F3, F9):
        assert Poly.zero(F3).text() == "0"
        assert Poly(F3, (2, 0, 2, 0, 2, 0, 2)).text() == "2*t^6+2*t^4+2*t^2+2"
        assert Poly(F3, (0, 1)).text() == "t"
        assert Poly(F3, (1,)).text() == "1"
        assert Poly(F9, (0, 3)).text() == "[0,1]*t"
        assert Poly(F9, (2, 1)).text() == "t+[2,0]"

    def test_text_unit_and_other_coefficients(self, F3, F9):
        # a unit coefficient is dropped before t and t^k but kept alone
        assert Poly(F3, (1, 2, 1)).text() == "t^2+2*t+1"
        assert Poly(F9, (1,)).text() == "[1,0]"
        assert Poly(F9, (0, 1, 7)).text() == "[1,2]*t^2+t"
        assert Poly(F9, (5, 3, 0, 4, 1)).text() == "t^4+[1,1]*t^3+[0,1]*t+[2,1]"

    @settings(deadline=None, max_examples=60)
    @given(q=st.sampled_from((2, 3, 4, 8, 9, 16, 27, 257, 65521)), data=st.data())
    def test_canonical_batches_match_the_text_oracle(self, q, data):
        # 16-, 32- (q = 257) and 64-bit (q = 65521) limbs, f up to 4; every
        # batch mixes lengths and holds the zero polynomial, the constants
        # 1 and q - 1, degree-1 values and a degree past the t^k table
        field = field_from_q(q)
        p, f = field.pp.p, field.pp.f
        code = st.one_of(st.just(1), st.integers(0, q - 1))
        drawn = data.draw(st.lists(st.lists(code, max_size=40), max_size=10))
        corners = [[], [1], [q - 1], [0, 1], [1, 1], [q - 1, q - 1], [0] * 4200 + [q - 1]]
        batch = data.draw(st.permutations([Poly(field, c).coeffs for c in corners + drawn]))
        packed = [Poly(field, c).packed() for c in batch]
        polys, texts = canonical_polys(field, packed), canonical_texts(field, packed)
        assert [poly.coeffs for poly in polys] == batch
        assert len(texts) == len(batch)
        for coeffs, (text, valuation) in zip(batch, texts):
            nonzero = [k for k, c in enumerate(coeffs) if c]
            assert text == oracles.naive_poly_text(coeffs, p, f)
            assert valuation == (nonzero[0] if nonzero else INF)
            assert Poly(field, coeffs).text() == text

    @pytest.mark.parametrize(
        "q, d, size",
        [(2, 3, 3), (4, 2, 16), (9, 2, 7), (257, 1, 100), (65521, 1, 4096), (3, 0, 5)],
    )
    def test_monic_blocks_are_the_packed_monics(self, monkeypatch, q, d, size):
        # monic_power_sums over blocks of `size` monics gives the literal
        # sums: every case but q = 4 and d = 0 ends on a partial block, and
        # q = 65521 has 64-bit limbs
        field = field_from_q(q)
        kmax = 1 if q > 1000 else 4
        monkeypatch.setattr(fqpoly, "_POWER_BLOCK_LIMBS", size * (d * kmax + 1))
        # _mul_matrices runs d times per block, on the block's codes
        built = []
        build = fqpoly._mul_matrices

        def spy(fs, codes):
            built.append(len(codes))
            return build(fs, codes)

        monkeypatch.setattr(fqpoly, "_mul_matrices", spy)
        sums = monic_power_sums(field, d, kmax)
        expected = oracles.naive_power_sums(field, d, kmax)
        assert sums == [Poly(field, e).packed() for e in expected]
        sizes = [min(size, q**d - i) for i in range(0, q**d, size)]
        assert built == [n for n in sizes for _ in range(d)]

    def test_monic_enumeration_count(self, F3, F9):
        assert sum(1 for _ in monic_polys(F3, 2)) == 9
        assert sum(1 for _ in monic_polys(F9, 1)) == 9
        polys = list(monic_polys(F9, 2))
        assert len(polys) == len(set(polys)) == 81
        assert all(p.is_monic and p.degree == 2 for p in polys)

    def test_eval_homomorphism(self, F9):
        rng = random.Random(11)
        for _ in range(40):
            a = Poly(F9, tuple(rng.randrange(9) for _ in range(4)))
            b = Poly(F9, tuple(rng.randrange(9) for _ in range(3)))
            x = F9.element(rng.randrange(9))
            assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
            assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


class TestPolyMultiplicationRoutes:
    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from([2, 3, 4, 5, 8, 9, 27, 257, 263, 63001, 65521]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 80),
        st.integers(1, 80),
    )
    def test_schoolbook_vs_packed_vs_oracle(self, q, seed, la, lb):
        field = field_from_q(q)
        rng = random.Random(seed)
        a = Poly(field, tuple(rng.randrange(q) for _ in range(la)))
        b = Poly(field, tuple(rng.randrange(q) for _ in range(lb)))
        if a.is_zero or b.is_zero:
            return
        school = _mul_schoolbook(a, b)
        packed = _mul_packed(a, b)
        assert school == packed
        assert school.coeffs == oracles.naive_poly_mul_codes(
            a.coeffs, b.coeffs, field
        )

    def test_packed_sum_renormalizes_and_splits(self):
        # q = 257 has 32-bit limbs and a bound of 2^16 per coefficient pair.
        # 250 copies of a dense 300-slot square overflow a limb without a
        # mid-way renormalization (250 * 300 * 2^16 > 2^32), and a sparse
        # product of two 70000-slot operands exceeds the bound on its own,
        # so the shorter operand is split.
        field = field_from_q(257)
        rng = random.Random(257)
        dense = Poly(field, [256] * 300)
        sparse = []
        for _ in range(2):
            coeffs = [0] * 70000
            for i in rng.sample(range(69999), 8) + [69999]:
                coeffs[i] = rng.randrange(1, 257)
            sparse.append(Poly(field, coeffs))
        pairs = [(dense, dense)] * 250 + [tuple(sparse)]
        acc = PackedSum(field)
        expected = Poly.zero(field)
        products = {}
        for a, b in pairs:
            acc.add(a.packed(), b.packed())
            key = (id(a), id(b))
            if key not in products:
                products[key] = Poly(
                    field, oracles.naive_poly_mul_codes(a.coeffs, b.coeffs, field)
                )
            expected = expected + products[key]
        assert Poly.from_packed(field, acc.value) == expected

    @pytest.mark.parametrize("q", [9, 257])
    def test_monic_power_sums(self, q):
        # canonical packed sums equal to the literal sums (a zero sum is 0);
        # at q = 9 the 30 steps of d = 1 pass the 16-bit limb several times
        field = field_from_q(q)
        ranges = {9: ((0, 8), (1, 30), (2, 12), (3, 3)), 257: ((0, 3), (1, 4))}[q]
        for d, kmax in ranges:
            sums = monic_power_sums(field, d, kmax)
            expected = oracles.naive_power_sums(field, d, kmax)
            assert sums == [Poly(field, e).packed() for e in expected], d
        with pytest.raises(ValueError):
            monic_power_sums(field, -1, 3)
        with pytest.raises(ValueError):
            monic_power_sums(field, 1, -1)

    def test_monic_power_sums_reduce_between_coefficients(self):
        # with 16-bit limbs forced on F_251, a reduced power takes
        # 250 + 2 * 250^2 > 2^16 in a step of d = 2, so every step from k = 2
        # on reduces between its two lower coefficients
        natural = field_from_q(251)
        narrow = FieldSpec(natural.pp, natural.modulus)
        narrow._limb_bits, narrow._slot_bits = 16, 16
        got = [Poly.from_packed(narrow, n) for n in monic_power_sums(narrow, 2, 6)]
        want = [Poly.from_packed(natural, n) for n in monic_power_sums(natural, 2, 6)]
        assert [g.coeffs for g in got] == [w.coeffs for w in want]

    @pytest.mark.parametrize("q", [2, 9, 257])
    def test_canonical_values(self, q):
        # running sums a * b + b, not renormalized, come back canonical;
        # a zero sum stays 0
        field = field_from_q(q)
        rng = random.Random(q)

        def dense(n):
            return Poly(field, [rng.randrange(q) for _ in range(n)] + [1])

        pairs = [(dense(rng.randrange(30)), dense(rng.randrange(30))) for _ in range(12)]
        sums = [
            PackedSum(field).add(a.packed(), b.packed()).add(b.packed()).value
            for a, b in pairs
        ]
        expected = [
            Poly(field, oracles.naive_poly_mul_codes(a.coeffs, b.coeffs, field)) + b
            for a, b in pairs
        ]
        got = canonical_values(sums + [0], field)
        assert got == [e.packed() for e in expected] + [0]
        assert canonical_values([0, 0], field) == [0, 0]

    @pytest.mark.parametrize("q", [9, 257])
    def test_packed_sum_add_scaled(self, q):
        # eight overlapping terms c * t^j * a with coordinates p-1 and c
        # near p-1, 10^4 times over, put about 8 * 10^4 * (p-1)^2 on the
        # middle limbs: far past a 16-bit limb at q = 9 and a 32-bit limb
        # at q = 257, so the sum must renormalize on the way
        field = field_from_q(q)
        p = field.pp.p
        base = Poly(field, [q - 1] * 12 + [1])
        terms = [(base, p - 1 - i % 2, i) for i in range(8)]
        rounds = 10_000
        acc = PackedSum(field)
        for _ in range(rounds):
            for a, c, j in terms:
                acc.add_scaled(a.packed(), c, j)
        expected = Poly.zero(field)
        for a, c, j in terms:
            scaled = oracles.naive_poly_mul_codes(a.coeffs, (c * rounds % p,), field)
            expected = expected + Poly(field, (0,) * j + scaled)
        assert Poly.from_packed(field, acc.value) == expected

    def test_valuation_additive(self, F9):
        rng = random.Random(3)
        for _ in range(50):
            a = Poly(F9, tuple(rng.randrange(9) for _ in range(rng.randrange(1, 9))))
            b = Poly(F9, tuple(rng.randrange(9) for _ in range(rng.randrange(1, 9))))
            prod = a * b
            if a.is_zero or b.is_zero:
                assert prod.t_valuation is INF
            else:
                assert prod.t_valuation == a.t_valuation + b.t_valuation

    def test_triangle_inequality(self, F4):
        rng = random.Random(17)
        for _ in range(100):
            a = Poly(F4, tuple(rng.randrange(4) for _ in range(rng.randrange(1, 8))))
            b = Poly(F4, tuple(rng.randrange(4) for _ in range(rng.randrange(1, 8))))
            s = a + b
            va, vb, vs = a.t_valuation, b.t_valuation, s.t_valuation
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)


class TestDivisionAndGcd:
    def test_divmod_roundtrip(self, F9):
        rng = random.Random(23)
        for _ in range(60):
            a = Poly(F9, tuple(rng.randrange(9) for _ in range(rng.randrange(0, 10))))
            b = Poly(F9, tuple(rng.randrange(9) for _ in range(rng.randrange(1, 6))))
            if b.is_zero:
                continue
            qq, r = divmod(a, b)
            assert qq * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_gcd_monic(self, F3):
        t = Poly.t(F3)
        one = Poly.one(F3)
        a = (t + one) * (t + one) * t
        b = (t + one) * Poly.constant(F3, 2)
        g = poly_gcd(a, b)
        assert g == t + one


class TestRationalFn:
    def test_sum_inverse_squares(self, F3):
        # sum over the three monic linear polynomials of 1/a^2
        total = RationalFn(Poly.zero(F3))
        for a in monic_polys(F3, 1):
            total = total + RationalFn(Poly.one(F3), a * a)
        assert total.text() == "1/(t^6+t^4+t^2)"
        assert total.t_valuation == -2

    def test_reduced_invariant(self, F3):
        rng = random.Random(31)
        for _ in range(60):
            num = Poly(F3, tuple(rng.randrange(3) for _ in range(rng.randrange(0, 6))))
            den = Poly(F3, tuple(rng.randrange(3) for _ in range(rng.randrange(1, 6))))
            if den.is_zero:
                continue
            r = RationalFn(num, den)
            assert r.den.is_monic
            assert poly_gcd(r.num, r.den).degree == 0 or r.num.is_zero

    def test_add_inverse_and_normalize_idempotent(self, F9):
        rng = random.Random(41)
        for _ in range(40):
            num = Poly(F9, tuple(rng.randrange(9) for _ in range(rng.randrange(0, 5))))
            den = Poly(F9, tuple(rng.randrange(9) for _ in range(rng.randrange(1, 5))))
            if den.is_zero:
                continue
            x = RationalFn(num, den)
            assert (x + (-x)).is_zero
            again = RationalFn(x.num, x.den)
            assert again == x
            if not x.is_zero:
                assert x * x.inverse() == RationalFn(Poly.one(F9))

    def test_zero_division(self, F3):
        with pytest.raises(ZeroDivisionError):
            RationalFn(Poly.one(F3), Poly.zero(F3))
        with pytest.raises(ZeroDivisionError):
            RationalFn(Poly.zero(F3)).inverse()


class TestInfinity:
    def test_ordering(self):
        assert INF > 10**100
        assert not (INF < 10**100)
        assert INF >= INF and INF <= INF
        assert INF + 5 is INF
        assert 5 + INF is INF
        assert repr(INF) == "inf"

    def test_pickles_as_itself(self):
        # sweep workers send valuations back to the parent process
        assert pickle.loads(pickle.dumps(INF)) is INF
