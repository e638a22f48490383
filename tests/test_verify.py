"""The mzv suite's shared sweep: one pass, two independently reported checks."""

from collections import Counter

import pytest

from fqzeta import mzv, verify
from fqzeta.errors import VanishingMismatchError

SMALL = dict(qs=(2, 3), depths=(2, 3), smin=-4, goss_kmax=6)


def _by_name(results):
    return {r.name: (r.passed, r.detail) for r in results}


@pytest.fixture(scope="module")
def reference():
    return _by_name(verify.run_mzv_suite(**SMALL))


def test_reference_run_passes(reference):
    assert all(passed for passed, _ in reference.values())
    assert reference["valuation-additivity"] == (
        True,
        "40 nonzero tuples match the additive valuation",
    )


def test_one_sweep_per_field_and_depth(monkeypatch):
    calls = Counter()
    sweep = mzv.sweep_negative

    def counting(field, depth, *args, **kwargs):
        calls[field.pp.q, depth] += 1
        return sweep(field, depth, *args, **kwargs)

    monkeypatch.setattr(mzv, "sweep_negative", counting)
    verify.run_mzv_suite(**SMALL)
    assert calls == {(q, d): 1 for q in SMALL["qs"] for d in SMALL["depths"]}


def test_valuation_failure_is_reported_alone(monkeypatch, reference):
    valuation = mzv.zeta_valuation

    def wrong_on_one(s, q):
        v = valuation(s, q)
        return v + 1 if (q.q, tuple(s)) == (3, (-2, -2)) else v

    monkeypatch.setattr(mzv, "zeta_valuation", wrong_on_one)
    got = _by_name(verify.run_mzv_suite(**SMALL))
    assert got["valuation-additivity"] == (
        False,
        "valuation mismatch q=3 s=(-2, -2): 0 vs 1",
    )
    assert {k: v for k, v in got.items() if k != "valuation-additivity"} == {
        k: v for k, v in reference.items() if k != "valuation-additivity"
    }


def test_trivial_zero_failure_is_reported_alone(monkeypatch, reference):
    classify = mzv.classify_zero

    def wrong_on_one(s, q):
        if (q.q, tuple(s)) == (2, (-1, -3, -2)):
            return mzv.NONZERO
        return classify(s, q)

    monkeypatch.setattr(mzv, "classify_zero", wrong_on_one)
    got = _by_name(verify.run_mzv_suite(**SMALL))
    assert got["trivial-zero-equivalence"] == (
        False,
        "zero not predicted trivial at q=2 s=(-1, -3, -2)",
    )
    assert {k: v for k, v in got.items() if k != "trivial-zero-equivalence"} == {
        k: v for k, v in reference.items() if k != "trivial-zero-equivalence"
    }


def test_evaluation_error_fails_both_checks(monkeypatch):
    # the sweep evaluates a row of tuples head + (x,) per engine call
    row = mzv._NegativeEngine.row

    def raising_on_one(engine, head, tails):
        if (engine.field.pp.q, head) == (3, (-4,)) and -1 in tails:
            raise VanishingMismatchError("injected at (-4, -1)")
        return row(engine, head, tails)

    monkeypatch.setattr(mzv._NegativeEngine, "row", raising_on_one)
    got = _by_name(verify.run_mzv_suite(**SMALL))
    for name in ("trivial-zero-equivalence", "valuation-additivity"):
        assert got[name] == (False, "injected at (-4, -1)")
    assert got["depth-one-parity"][0]
