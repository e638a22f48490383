import pytest

from fqzeta import (
    Poly,
    PreconditionError,
    RationalFn,
    ZetaIndex,
    classify_zero,
    field_from_q,
    power_sum_bruteforce,
    power_sum_formula,
    zeta_mixed,
    zeta_negative,
    zeta_valuation,
)
from fqzeta import mzv, powersum
from fqzeta.cli import main
from fqzeta.errors import VanishingMismatchError
from fqzeta.mzv import NONZERO, NOT_APPLICABLE, TRIVIAL_ZERO


class TestZetaIndex:
    def test_properties(self, F3):
        idx = ZetaIndex(F3, (-8, 2))
        assert idx.depth == 2
        assert idx.weight == -6
        assert idx.signs == "-+"
        assert not idx.all_negative

    def test_validation(self, F3):
        with pytest.raises(ValueError):
            ZetaIndex(F3, ())
        with pytest.raises(ValueError):
            ZetaIndex(F3, (-2, 0))


class TestNegativeEvaluation:
    def test_depth1_qeven_vanishes(self, F3):
        res = zeta_negative((-2,), F3)
        assert res.value.is_zero
        assert res.classification == NOT_APPLICABLE
        assert res.exact

    def test_depth1_qodd_constant_term(self, F3):
        # unique least-degree term is the constant 1
        res = zeta_negative((-1,), F3)
        assert res.valuation == 0
        assert res.value.coeffs[0] == 1
        assert res.classification == NONZERO

    def test_depth1_matches_bruteforce_sum(self):
        import math
        from fqzeta import vanishing_threshold

        for q in (2, 3, 4, 9):
            field = field_from_q(q)
            for k in range(1, 25):
                res = zeta_negative((-k,), field)
                top = math.floor(vanishing_threshold(k, field.pp))
                total = Poly.zero(field)
                for d in range(top + 1):
                    total = total + power_sum_bruteforce(d, -k, field).value
                assert res.value == total, (q, k)

    def test_trivial_zero_example(self, F3):
        res = zeta_negative((-1, -2), F3)
        assert res.value.is_zero
        assert res.classification == TRIVIAL_ZERO

    def test_nonzero_example(self, F3):
        res = zeta_negative((-2, -2), F3)
        assert not res.value.is_zero
        assert res.classification == NONZERO
        assert res.valuation == 0

    def test_rejects_mixed(self, F3):
        with pytest.raises(PreconditionError):
            zeta_negative((-8, 2), F3)

    @pytest.mark.parametrize(
        "q, ranges",
        [
            pytest.param(2, [range(-9, 0)] * 2, id="q2-depth2"),
            pytest.param(3, [range(-9, 0)] * 2, id="q3-depth2"),
            pytest.param(4, [range(-20, 0)] * 2, id="q4-depth2"),
            pytest.param(13, [range(-80, 0)] * 2, id="q13-depth2"),
            pytest.param(2, [range(-9, 0)] * 3, id="q2-depth3"),
            pytest.param(8, [range(-30, 0)] * 2, id="q8-depth2"),
            pytest.param(16, [range(-40, -10), range(-6, 0)], id="q16-anchored"),
            pytest.param(27, [range(-60, -20), range(-8, 0)], id="q27-anchored"),
            # depth 3 is nontrivial at q = 8 only from -s_1 >= 63
            pytest.param(
                8, [range(-72, -62), range(-14, -6), range(-4, 0)], id="q8-depth3"
            ),
            # 32-bit limbs; s_1 <= -256 leaves room for two degrees
            pytest.param(
                257, [(-256, -300, -512), (-1, -2, -256)], id="q257-chosen"
            ),
        ],
    )
    def test_sum_matches_direct_product_sum(self, sweep_tuples, q, ranges):
        # direct nested sum over admissible chains d_1 > ... > d_r >= 0,
        # each d_i within the threshold of -s_i, of formula-route Polys,
        # against the sweep's values read by canonical_polys
        import itertools
        import math
        from fqzeta import vanishing_threshold

        field = field_from_q(q)

        def chains(s, above):
            if not s:
                yield Poly.one(field)
                return
            top = math.floor(vanishing_threshold(-s[0], field.pp))
            for d in range(min(above - 1, top), len(s) - 2, -1):
                factor = power_sum_formula(d, s[0], field).value
                for rest in chains(s[1:], d):
                    yield factor * rest

        swept = list(sweep_tuples(field, ranges))
        assert [s for s, _, _ in swept] == list(itertools.product(*ranges))
        nonzero = 0
        for s, value, _ in swept:
            total = Poly.zero(field)
            for term in chains(s, math.inf):
                total = total + term
            assert value == total, (q, s)
            nonzero += not total.is_zero
        assert nonzero, "every case needs a nonzero tuple"


class TestClassification:
    def test_examples(self, q3):
        assert classify_zero((-1, -2), q3) == TRIVIAL_ZERO
        assert classify_zero((-2, -2), q3) == NONZERO

    def test_never_trivial_when_thresholds_large(self, q3):
        # all thresholds >= depth means the criterion cannot fire
        assert classify_zero((-8, -8), q3) == NONZERO

    def test_depth1_rejected(self, q3):
        with pytest.raises(PreconditionError):
            classify_zero((-2,), q3)

    def test_rule_at_depths_one_and_three(self, F3):
        # nonzero is NONZERO at any depth; zero is NOT_APPLICABLE at depth 1
        # and TRIVIAL_ZERO from depth 2 on, for packed values and Polys alike
        for zero, nonzero in ((0, 5), (Poly.zero(F3), Poly.one(F3))):
            assert mzv.classification(1, zero) == NOT_APPLICABLE
            assert mzv.classification(1, nonzero) == NONZERO
            assert mzv.classification(3, zero) == TRIVIAL_ZERO
            assert mzv.classification(3, nonzero) == NONZERO

    def test_rule_matches_zeta_negative(self, F3):
        # -2 is q-even and -1 is not; (-2, -2, -2) is a trivial zero and
        # (-8, -2, -1) is not
        for s, cls in (
            ((-2,), NOT_APPLICABLE),
            ((-1,), NONZERO),
            ((-2, -2, -2), TRIVIAL_ZERO),
            ((-8, -2, -1), NONZERO),
        ):
            res = zeta_negative(s, F3)
            assert res.classification == cls
            assert mzv.classification(len(s), res.value) == cls


class TestZetaValuation:
    def test_example(self, q3):
        assert zeta_valuation((-2, -2), q3) == 0

    def test_rejects_trivial(self, q3):
        with pytest.raises(PreconditionError):
            zeta_valuation((-1, -2), q3)

    def test_additivity_small_sweep(self, F9, q9):
        for s1 in range(-10, 0):
            for s2 in range(-10, 0):
                if classify_zero((s1, s2), q9) == TRIVIAL_ZERO:
                    continue
                res = zeta_negative((s1, s2), F9)
                assert res.valuation == zeta_valuation((s1, s2), q9)

    def test_other_chains_strictly_above(self, F3):
        # every admissible chain beyond the leading one has a strictly
        # larger product valuation
        import math
        from fqzeta import vanishing_threshold, power_sum_valuation

        s = (-4, -2)
        lead = zeta_valuation(s, F3.pp)
        b1 = math.floor(vanishing_threshold(4, F3.pp))
        b2 = math.floor(vanishing_threshold(2, F3.pp))
        for d1 in range(b1 + 1):
            for d2 in range(min(d1 - 1, b2) + 1):
                if (d1, d2) == (1, 0):
                    continue
                v1 = power_sum_valuation(d1, -4, F3.pp)
                v2 = power_sum_valuation(d2, -2, F3.pp)
                assert v1 + v2 > lead


class TestMixed:
    def test_remark_zero(self, F3):
        res = zeta_mixed((-8, 2), F3)
        assert res.exact
        assert res.value.is_zero
        assert res.classification == NOT_APPLICABLE

    def test_remark_summands(self, F3):
        s1m8 = power_sum_formula(1, -8, F3).value
        s2m8 = power_sum_formula(2, -8, F3).value
        s12 = power_sum_bruteforce(1, 2, F3).value
        one = RationalFn(Poly.one(F3))
        assert RationalFn(s1m8) * one == RationalFn(s1m8)
        assert (RationalFn(s2m8) * s12) == one
        total = RationalFn(s1m8) + RationalFn(s2m8) + one
        assert total.is_zero

    def test_positive_lead_truncates(self, F3):
        res = zeta_mixed((2,), F3, d_max=4)
        assert not res.exact
        assert res.classification == NOT_APPLICABLE

    def test_positive_lead_requires_dmax(self, F3):
        with pytest.raises(PreconditionError):
            zeta_mixed((2, -1), F3)

    def test_negative_lead_exact_matches_negative_route(self, F3):
        res_a = zeta_mixed((-4, -2), F3)
        res_b = zeta_negative((-4, -2), F3)
        assert res_a.exact
        assert RationalFn(res_b.value) == res_a.value


class TestGoss:
    """Depth one vanishes exactly at the q-even exponents (Goss)."""

    def test_examples(self, F3):
        assert zeta_negative((-2,), F3).value.is_zero
        assert not zeta_negative((-1,), F3).value.is_zero

    def test_q_even_family(self, sweep_tuples):
        for q in (2, 3, 4, 9):
            field = field_from_q(q)
            for (s,), value, _ in sweep_tuples(field, [range(-40, 0)]):
                assert value.is_zero == field.pp.is_q_even(s), (q, s)

    def test_rejects_positive(self, F3):
        with pytest.raises(PreconditionError):
            zeta_negative((2,), F3)


class TestSweep:
    def test_lexicographic_order_and_results(self, F3, sweep_tuples):
        results = list(sweep_tuples(F3, [range(-3, 0)] * 2))
        tuples = [s for s, _, _ in results]
        assert tuples == sorted(tuples)
        assert len(tuples) == 9
        for s, value, _ in results:
            assert value == zeta_negative(s, F3).value

    @pytest.mark.parametrize(
        "q, depth, smin", [(2, 3, -8), (2, 2, -30), (9, 2, -40)]
    )
    def test_shared_engine_matches_fresh_evaluations(
        self, sweep_tuples, q, depth, smin
    ):
        # one engine shares its columns and suffix tables across the sweep;
        # each tuple evaluated on its own must give the same value
        field = field_from_q(q)
        results = list(sweep_tuples(field, [range(smin, 0)] * depth))
        assert len(results) == (-smin) ** depth
        assert any(not value.is_zero for _, value, _ in results)
        for s, value, cls in results:
            fresh = zeta_negative(s, field)
            assert (value, cls) == (fresh.value, fresh.classification)

    @pytest.mark.parametrize("q", [2, 9])
    def test_prefix_is_a_slice_of_the_full_sweep(self, sweep_tuples, q):
        # leading ranges of one entry each fix a prefix of the box
        field = field_from_q(q)
        box = [range(-5, 0)] * 3
        full = list(sweep_tuples(field, box))
        for prefix in [(), (-3,), (-5, -1), (-2, -4, -1)]:
            ranges = [(x,) for x in prefix] + box[len(prefix):]
            part = list(sweep_tuples(field, ranges))
            expected = [row for row in full if row[0][: len(prefix)] == prefix]
            assert part == expected
            assert len(part) == 5 ** (3 - len(prefix))

    @pytest.mark.parametrize(
        "ranges, message",
        [
            ([], "depth >= 1"),
            ([range(-3, 0), ()], "at least one entry"),
            ([range(-3, 1)], "entries must be <= -1"),
            ([(-2,), (-1, 3)], "entries must be <= -1"),
        ],
        ids=["no-position", "empty-range", "zero-entry", "positive-entry"],
    )
    def test_range_validation(self, F3, ranges, message):
        # no position, an empty range, or an entry above -1, refused at the
        # call rather than at the first row
        with pytest.raises(ValueError, match=message):
            mzv.sweep_rows(F3, ranges)

    def test_readme_example(self):
        assert zeta_negative((-8, -2), field_from_q(9)).classification == NONZERO

    def test_json_record_shape(self, F3):
        res = zeta_negative((-2, -1), F3)
        rec = res.to_json_dict()
        assert rec["s"] == [-2, -1]
        assert rec["depth"] == 2
        assert rec["classification"] in (NONZERO, TRIVIAL_ZERO)
        assert isinstance(rec["exact"], bool)
        assert set(rec) == {
            "q",
            "p",
            "f",
            "modulus",
            "s",
            "depth",
            "value",
            "valuation",
            "classification",
            "exact",
        }


class TestPowerSumStore:
    """Every engine reads S(d, k) from ``powersum``'s per-field store;
    values never depend on what it holds."""

    TUPLES = {
        2: [(-7, -3), (-15, -7, -1), (-30, -30, -30), (-31, -1, -5)],
        3: [(-8, -2), (-26, -8, -2), (-80, -4, -1), (-9, -9)],
        4: [(-15, -3), (-63, -15, -3), (-60, -33, -7)],
        9: [(-80, -8), (-242, -8), (-100, -50, -1)],
        27: [(-728, -26), (-60, -28), (-100, -27)],
        257: [(-256, -5), (-512, -300), (-700, -256)],
    }

    @pytest.mark.parametrize("q", sorted(TUPLES))
    def test_cold_and_warm_values_agree(self, q):
        field = field_from_q(q)
        tuples = self.TUPLES[q]
        cold = []
        for s in tuples:
            powersum._clear_store()
            res = zeta_negative(s, field)
            cold.append((res.value, res.classification))
        assert any(not value.is_zero for value, _ in cold)
        warm = []
        for s in reversed(tuples):
            res = zeta_negative(s, field)
            warm.append((res.value, res.classification))
        assert warm[::-1] == cold

    def test_sweep_fills_the_store_power_sum_formula_reads(self, F2):
        powersum._clear_store()
        zeta_negative((-30, -30, -30), F2)
        entries, bits = len(powersum._store[F2]), powersum._store_bits
        value = power_sum_formula(2, -30, F2).value
        assert (len(powersum._store[F2]), powersum._store_bits) == (entries, bits)
        powersum._clear_store()
        assert power_sum_formula(2, -30, F2).value == value


class TestRowMismatch:
    """The engine classifies a row once but checks every tuple's value."""

    @pytest.mark.parametrize(
        "s, forced, cls, message",
        [
            ((-2, -2), 0, NONZERO, "= 0 but no structural index forces it"),
            ((-1, -2), 1, TRIVIAL_ZERO, "!= 0 yet the trivial-zero criterion holds"),
        ],
    )
    def test_wrong_value_of_one_tuple_raises(
        self, monkeypatch, capsys, F3, s, forced, cls, message
    ):
        assert zeta_negative(s, F3).classification == cls
        # the row's own product sum, the one whose columns are the engine's
        # columns of its tails (a suffix table's are built per call), gives
        # the forced value at s before the row's check reads it
        row, sums, current = mzv._NegativeEngine.row, mzv.product_sums, []

        def in_row(engine, head, tails):
            current[:] = [engine, head, tails]
            return row(engine, head, tails)

        def wrong_on_one(field, columns, factors):
            out = sums(field, columns, factors)
            engine, head, tails = current
            own = [engine._columns[-x] for x in tails]
            if (field.pp.q, head) == (3, s[:-1]) and list(map(id, columns)) == list(map(id, own)):
                out[list(tails).index(s[-1])] = forced
            return out

        monkeypatch.setattr(mzv._NegativeEngine, "row", in_row)
        monkeypatch.setattr(mzv, "product_sums", wrong_on_one)
        with pytest.raises(VanishingMismatchError) as exc:
            list(mzv.sweep_rows(F3, [range(-3, 0)] * 2))
        assert f"zeta{s} {message}" in str(exc.value)
        assert main(["sweep", "--q", "3", "--depth", "2", "--smin", "-3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"zeta{s} {message}" in out.err

