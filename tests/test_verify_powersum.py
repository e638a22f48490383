"""The power-sum suite's shared enumeration: one head-free pass per
(q, d, k), read as the reversed tail-free parts of (q, d + 1, k), two
independently reported checks.

The failure lines asserted here were taken from the suite before its two
checks shared one enumeration.
"""

from collections import Counter
from types import SimpleNamespace

from fqzeta import compose, verify

SMALL = dict(qs=(2, 3), dmax=2, kmax=12)
CHECKS = ("extreme-degree-uniqueness", "vanishing-threshold-agreement")


def _by_name(results):
    return {r.name: (r.passed, r.detail) for r in results}


def _empty_on(cell, monkeypatch):
    # the head-free cell (q, d, k) reads the tail-free parts of (k, d + 1)
    iter_tail_free_parts = compose.iter_tail_free_parts

    def wrong_on_one(n, d, q):
        if (q.q, d - 1, n) == cell:
            return iter(())
        return iter_tail_free_parts(n, d, q)

    monkeypatch.setattr(compose, "iter_tail_free_parts", wrong_on_one)


def test_one_enumeration_per_cell(monkeypatch):
    calls = Counter()
    iter_tail_free_parts = compose.iter_tail_free_parts

    def counting(n, d, q):
        calls[q.q, d - 1, n] += 1
        return iter_tail_free_parts(n, d, q)

    monkeypatch.setattr(compose, "iter_tail_free_parts", counting)
    got = _by_name(verify.run_power_sum_suite(**SMALL))
    assert all(passed for passed, _ in got.values())
    assert calls == {
        (q, d, k): 1
        for q in SMALL["qs"]
        for d in range(1, SMALL["dmax"] + 1)
        for k in range(1, SMALL["kmax"] + 1)
    }


def test_reference_lines():
    got = _by_name(verify.run_power_sum_suite(**SMALL))
    assert [got[name] for name in CHECKS] == [
        (True, "30 nonzero power sums, extremes unique and matched"),
        (True, "criterion == zero polynomial == empty index set"),
    ]


def test_wrong_enumeration_fails_both_checks(monkeypatch):
    _empty_on((3, 1, 4), monkeypatch)
    got = _by_name(verify.run_power_sum_suite(**SMALL))
    assert [got[name] for name in CHECKS] == [
        (False, "empty set, nonzero sum q=3 d=1 k=4"),
        (
            False,
            "triple agreement fails q=3 d=1 k=4: "
            "criterion=False poly_zero=False empty=True",
        ),
    ]
    assert got["formula-vs-bruteforce"][0] and got["valuation-chain"][0]


def test_cells_after_an_early_failure_are_still_enumerated(monkeypatch):
    # extreme-degree-uniqueness stops at its first cell, so the wrong cell
    # is reached only by vanishing-threshold-agreement's own enumeration
    _empty_on((3, 1, 4), monkeypatch)
    greedy = compose.greedy

    def wrong_weight_on_first(k, d, q):
        if (q.q, d, k) == (2, 1, 1):
            return SimpleNamespace(weight=-1)
        return greedy(k, d, q)

    monkeypatch.setattr(compose, "greedy", wrong_weight_on_first)
    got = _by_name(verify.run_power_sum_suite(**SMALL))
    assert [got[name] for name in CHECKS] == [
        (False, "greedy weight wrong q=2 d=1 k=1"),
        (
            False,
            "triple agreement fails q=3 d=1 k=4: "
            "criterion=False poly_zero=False empty=True",
        ),
    ]
