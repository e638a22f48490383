"""The vanishing rule d > L(k) and the trivial-zero criterion built on it.

L(k) and its integer floor are pinned against the literal definition in
``oracles``; the one head-level criterion in ``mzv`` is exercised on
fields outside the default verification suites, and replaced by a stub
to show that the engine, ``classify_zero`` and ``zeta_valuation`` all
decide through it.
"""

import math

import pytest

import fqzeta.mzv as mzv
import oracles
from fqzeta import (
    PrimePower,
    VanishingMismatchError,
    field_from_q,
    power_sum_valuation,
    vanishing_threshold,
    vanishes,
)
from fqzeta import digitlab, fqpoly
from fqzeta.errors import PreconditionError

QS = (2, 3, 4, 5, 8, 9, 25, 27, 32, 257, 65521)
KS = (*range(1, 1001), 10**6 + 7, 3**20, 2**40 - 1)


class TestThresholdOwner:
    @pytest.mark.parametrize("q", QS)
    def test_threshold_and_floor_match_definition(self, q):
        pp = PrimePower.from_q(q)
        for k in KS:
            expected = oracles.naive_vanishing_threshold(k, q, pp.p)
            assert vanishing_threshold(k, pp) == expected, (q, k)
            assert digitlab._threshold_floor(k, pp) == math.floor(expected), (q, k)

    @pytest.mark.parametrize("q", (2, 9, 257))
    def test_vanishes_reads_the_floor(self, q):
        pp = PrimePower.from_q(q)
        for k in range(1, 300):
            top = math.floor(oracles.naive_vanishing_threshold(k, q, pp.p))
            for d in range(top + 3):
                assert vanishes(d, -k, pp) == (d > top), (q, k, d)
            assert power_sum_valuation(top + 1, -k, pp) is fqpoly.INF

    def test_nonpositive_k_rejected(self):
        for k in (0, -3):
            with pytest.raises(ValueError, match=f"k must be positive, got {k}"):
                vanishing_threshold(k, PrimePower(3, 2))

    def test_one_cache_one_limit(self):
        assert mzv._threshold_floor is digitlab._threshold_floor
        assert fqpoly.CACHE_LIMIT == digitlab.CACHE_LIMIT
        info = digitlab._threshold_floor.cache_info()
        assert info.maxsize == digitlab.CACHE_LIMIT


class TestTrivialCriterion:
    @pytest.mark.parametrize(
        "q, depth, smin",
        [(5, 2, -80), (7, 2, -80), (8, 2, -80), (16, 2, -80), (5, 3, -30)],
    )
    def test_sweep_agrees_with_classify_and_valuation(
        self, sweep_tuples, q, depth, smin
    ):
        field = field_from_q(q)
        pp = field.pp
        nonzero = 0
        for s, value, cls in sweep_tuples(field, [range(smin, 0)] * depth):
            assert mzv.classify_zero(s, pp) == cls, s
            assert value.is_zero == (cls == mzv.TRIVIAL_ZERO), s
            if not value.is_zero:
                assert mzv.zeta_valuation(s, pp) == value.t_valuation, s
                nonzero += 1
        assert nonzero > 0
        if (q, depth) == (5, 2):
            assert nonzero == 4880

    def test_every_caller_decides_through_the_one_criterion(self, monkeypatch):
        field = field_from_q(3)
        s = (-2, -1)
        res = mzv.zeta_negative(s, field)
        assert res.classification == mzv.NONZERO
        assert mzv.classify_zero(s, field.pp) == mzv.NONZERO
        assert mzv.zeta_valuation(s, field.pp) == res.valuation
        monkeypatch.setattr(mzv, "_trivial_criterion", lambda head, q: True)
        assert mzv.classify_zero(s, field.pp) == mzv.TRIVIAL_ZERO
        with pytest.raises(VanishingMismatchError, match="trivial-zero criterion holds"):
            mzv.zeta_negative(s, field)
        with pytest.raises(PreconditionError, match="trivial zero"):
            mzv.zeta_valuation(s, field.pp)
