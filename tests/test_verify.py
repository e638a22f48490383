"""The mzv suite's shared sweep: one pass, two independently reported checks."""

import itertools
from collections import Counter

import pytest

from fqzeta import digitlab, fqpoly, mzv, verify
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


def _fails_alone(got, reference, name, detail):
    # name fails with exactly detail; every other check reads as in reference
    assert got[name] == (False, detail)
    assert {k: v for k, v in got.items() if k != name} == {
        k: v for k, v in reference.items() if k != name
    }


def test_one_sweep_per_field_and_depth(monkeypatch):
    calls = Counter()
    sweep = mzv.sweep_rows

    def counting(field, ranges):
        calls[field.pp.q, len(ranges)] += 1
        return sweep(field, ranges)

    monkeypatch.setattr(mzv, "sweep_rows", counting)
    verify.run_mzv_suite(**SMALL)
    assert {key: n for key, n in calls.items() if key[1] >= 2} == {
        (q, d): 1 for q in SMALL["qs"] for d in SMALL["depths"]
    }


def test_row_expectations_once_per_head(monkeypatch, reference):
    # classify_zero once per grid row, zeta_valuation once per nontrivial row
    classified, valued = Counter(), Counter()
    classify, valuation = mzv.classify_zero, mzv.zeta_valuation
    nontrivial = set()

    def counting_classify(s, q):
        key = q.q, tuple(s[:-1])
        classified[key] += 1
        got = classify(s, q)
        if got == mzv.NONZERO:
            nontrivial.add(key)
        return got

    def counting_valuation(s, q):
        valued[q.q, tuple(s[:-1])] += 1
        return valuation(s, q)

    monkeypatch.setattr(mzv, "classify_zero", counting_classify)
    monkeypatch.setattr(mzv, "zeta_valuation", counting_valuation)
    assert _by_name(verify.run_mzv_suite(**SMALL)) == reference
    entries = range(SMALL["smin"], 0)
    heads = {
        (q, head)
        for q in SMALL["qs"]
        for d in SMALL["depths"]
        for head in itertools.product(entries, repeat=d - 1)
    }
    assert classified == {key: 1 for key in heads}
    assert valued == {key: 1 for key in nontrivial}
    assert 0 < len(nontrivial) < len(heads)


def test_valuation_failure_is_reported_alone(monkeypatch, reference):
    valuation = mzv.zeta_valuation

    def wrong_on_one_head(s, q):
        v = valuation(s, q)
        return v + 1 if (q.q, tuple(s[:-1])) == (3, (-2,)) else v

    monkeypatch.setattr(mzv, "zeta_valuation", wrong_on_one_head)
    got = _by_name(verify.run_mzv_suite(**SMALL))
    # the row's first tuple is the first to disagree
    _fails_alone(
        got, reference, "valuation-additivity",
        "valuation mismatch q=3 s=(-2, -4): 0 vs 1",
    )


def test_trivial_zero_failure_is_reported_alone(monkeypatch, reference):
    classify = mzv.classify_zero

    def wrong_on_one_head(s, q):
        if (q.q, tuple(s[:-1])) == (2, (-1, -3)):
            return mzv.NONZERO
        return classify(s, q)

    monkeypatch.setattr(mzv, "classify_zero", wrong_on_one_head)
    got = _by_name(verify.run_mzv_suite(**SMALL))
    _fails_alone(
        got, reference, "trivial-zero-equivalence",
        "zero not predicted trivial at q=2 s=(-1, -3, -4)",
    )


def _changed_at(monkeypatch, q, s, change):
    # engine rows as computed, but with change applied to the packed value
    # of the one tuple s of field q, after the engine's own check
    row = mzv._NegativeEngine.row

    def changed(engine, head, tails):
        got = row(engine, head, tails)
        if engine.field.pp.q == q and head == s[:-1]:
            got = [change(engine.field, n) if x == s[-1] else n for x, n in zip(tails, got)]
        return got

    monkeypatch.setattr(mzv._NegativeEngine, "row", changed)


def test_zero_made_nonzero_fails_trivial_zero_alone(monkeypatch, reference):
    _changed_at(monkeypatch, 2, (-1, -3, -2), lambda field, n: 1)
    got = _by_name(verify.run_mzv_suite(**SMALL))
    _fails_alone(
        got, reference, "trivial-zero-equivalence",
        "nonzero value predicted zero at q=2 s=(-1, -3, -2)",
    )


def test_value_shifted_one_slot_fails_valuation_alone(monkeypatch, reference):
    # t * zeta(-2, -2) at q = 3: still nonzero, valuation 1 instead of 0
    _changed_at(monkeypatch, 3, (-2, -2), lambda field, n: n << field._slot_bits)
    got = _by_name(verify.run_mzv_suite(**SMALL))
    _fails_alone(
        got, reference, "valuation-additivity",
        "valuation mismatch q=3 s=(-2, -2): 1 vs 0",
    )


def test_depth_below_two_is_refused():
    # depth 1 belongs to depth-one-parity; no check runs
    for depths in ((1, 2), (0,), (-1, 3)):
        with pytest.raises(ValueError, match="depths must be >= 2"):
            verify.run_mzv_suite(**{**SMALL, "depths": depths})
        with pytest.raises(ValueError, match="depths must be >= 2"):
            verify.run_suites("digits", depths=depths)


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(goss_kmax=0), "goss_kmax must be >= 1"),
        (dict(goss_kmax=-5), "goss_kmax must be >= 1"),
        (dict(smin=0), "smin must be <= -1"),
        (dict(smin=3), "smin must be <= -1"),
    ],
    ids=["goss-kmax-0", "goss-kmax-negative", "smin-0", "smin-positive"],
)
def test_empty_or_positive_range_is_refused(monkeypatch, bad, message):
    # a parity range that checks nothing, or sweep entries above -1, is
    # refused before any check or suite runs
    def refused(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(mzv, "sweep_rows", refused)
    with pytest.raises(ValueError, match=message):
        verify.run_mzv_suite(**{**SMALL, **bad})
    monkeypatch.setattr(verify, "run_digit_suite", refused)
    for suite in ("mzv", "all"):
        with pytest.raises(ValueError, match=message):
            verify.run_suites(suite, **bad)


def test_repeated_fields_and_depths_are_checked_once(monkeypatch, reference):
    # first-seen order; the counts are those of the distinct grid
    calls = Counter()
    sweep = mzv.sweep_rows

    def counting(field, ranges):
        calls[field.pp.q, len(ranges)] += 1
        return sweep(field, ranges)

    monkeypatch.setattr(mzv, "sweep_rows", counting)
    got = verify.run_suites("mzv", **{**SMALL, "qs": (3, 2, 3), "depths": (3, 2, 2, 3)})
    assert _by_name(got) == reference
    assert list(calls) == [(3, 3), (3, 2), (2, 3), (2, 2), (3, 1), (2, 1)]
    assert set(calls.values()) == {1}


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


def test_parity_sweeps_once_per_field(monkeypatch, reference):
    # one depth-1 sweep, and so one engine, per field; no per-exponent call
    depths = Counter()
    sweep = mzv.sweep_rows

    def counting(field, ranges):
        depths[field.pp.q, len(ranges)] += 1
        return sweep(field, ranges)

    def refused(s, field):
        raise AssertionError("zeta_negative builds an engine per exponent")

    monkeypatch.setattr(mzv, "sweep_rows", counting)
    monkeypatch.setattr(mzv, "zeta_negative", refused)
    got = _by_name(verify.run_mzv_suite(**SMALL))
    assert got == reference
    assert {key: n for key, n in depths.items() if key[1] == 1} == {
        (q, 1): 1 for q in SMALL["qs"]
    }


def test_parity_mismatch_names_q_and_s(monkeypatch, reference):
    # at q = 3, s = -4 is q-even and zeta(-4) = 0; a nonzero value there,
    # and at s = -6, fails the check, which names the first one
    row = mzv._NegativeEngine.row

    def wrong_at_two(engine, head, tails):
        got = row(engine, head, tails)
        if engine.field.pp.q == 3 and not head:
            got = [1 if x in (-4, -6) else n for x, n in zip(tails, got)]
        return got

    monkeypatch.setattr(mzv._NegativeEngine, "row", wrong_at_two)
    got = _by_name(verify.run_mzv_suite(**SMALL))
    assert got["depth-one-parity"] == (False, "parity mismatch q=3 s=-4")
    assert {k: v for k, v in got.items() if k != "depth-one-parity"} == {
        k: v for k, v in reference.items() if k != "depth-one-parity"
    }


@pytest.mark.parametrize(
    "suite",
    [
        verify.run_digit_suite,
        verify.run_membership_suite,
        verify.run_cover_suite,
        verify.run_compose_suite,
        verify.run_power_sum_suite,
        verify.run_mzv_suite,
    ],
    ids=lambda fn: fn.__name__,
)
def test_suite_refuses_field_too_wide_for_limbs(monkeypatch, suite):
    # called directly, as run_suites and the CLI are not in front: 2^61 - 1
    # is refused by the field-size rule before it is tested for primality
    is_prime = digitlab._is_prime

    def refused(n):
        if n > 2**32:
            raise AssertionError(f"{n} was tested for primality")
        return is_prime(n)

    monkeypatch.setattr(digitlab, "_is_prime", refused)
    monkeypatch.setattr(fqpoly, "_is_prime", refused)
    with pytest.raises(ValueError, match="exceeds a 64-bit limb"):
        suite(qs=(3, 2**61 - 1))
