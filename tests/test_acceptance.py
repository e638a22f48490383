"""Acceptance criteria.

Each test exercises one numbered criterion at its full stated range and
prints one pass/fail line.  All comparisons are exact; the only
tolerances are the stated runtime budgets.  Suites shared by several
criteria run once via module-scoped fixtures.
"""

import time

import pytest

from fqzeta import (
    ClassMatrix,
    Poly,
    PrimePower,
    RationalFn,
    digit_class_vector,
    field_from_q,
    power_classes,
    power_sum_bruteforce,
    power_sum_formula,
    valid_class_matrices,
    zeta_mixed,
)
from fqzeta import compose, verify
from fqzeta.compose import monotone_rep


def _report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def _named(results, name):
    for r in results:
        if r.name == name:
            return r
    raise AssertionError(f"check {name!r} missing from suite")


@pytest.fixture(scope="module")
def power_sum_suite():
    t0 = time.monotonic_ns()
    results = verify.run_power_sum_suite(
        qs=(2, 3, 4, 5, 8, 9), dmax=3, kmax=200, guard=10**6
    )
    return results, (time.monotonic_ns() - t0) // 1_000_000


@pytest.fixture(scope="module")
def mzv_suite():
    t0 = time.monotonic_ns()
    results = verify.run_mzv_suite(
        qs=(2, 3, 4, 9), depths=(2, 3), smin=-60, goss_kmax=200
    )
    return results, (time.monotonic_ns() - t0) // 1_000_000


@pytest.fixture(scope="module")
def compose_suite():
    results = verify.run_compose_suite(qs=(2, 3, 4, 8, 9), nmax=300)
    return results


@pytest.fixture(scope="module")
def membership_suite():
    return verify.run_membership_suite(qs=(2, 3, 4, 8, 9), nmax=300, mmax=5)


@pytest.fixture(scope="module")
def cover_suite():
    return verify.run_cover_suite(qs=(4, 8, 9), instances=10_000)


def test_criterion_01_displayed_identity():
    t0 = time.monotonic_ns()
    field = field_from_q(3)
    s1 = power_sum_formula(1, -8, field).value
    s2 = power_sum_formula(2, -8, field).value
    ok = s1.text() == "2*t^6+2*t^4+2*t^2+2"
    ok = ok and s2.text() == "t^6+t^4+t^2"
    s12 = power_sum_bruteforce(1, 2, field).value
    ok = ok and (RationalFn(s2) * s12) == RationalFn(Poly.one(field))
    z = zeta_mixed((-8, 2), field)
    ok = ok and z.exact and z.value.is_zero
    elapsed = (time.monotonic_ns() - t0) // 1_000_000
    ok = ok and elapsed < 1000
    _report(
        1,
        ok,
        f"q=3 displayed power sums, unit product and zero sum [{elapsed} ms]",
    )


def test_criterion_02_worked_matrix_example():
    t0 = time.monotonic_ns()
    pp = PrimePower(3, 2)
    ok = digit_class_vector(131, pp).entries == (5, 2)
    mats = valid_class_matrices(131, 2, pp)
    ok = ok and sorted(m.rows() for m in mats) == [
        ((2, 3), (2, 0)),
        ((5, 0), (1, 1)),
    ]
    first = ClassMatrix(pp, ((5, 1), (0, 1)), 131)
    members = set(compose._iter_matrix_expansion(first))
    ok = ok and (128, 3) in members and (104, 27) in members
    ok = ok and monotone_rep(first).parts == (128, 3)
    pc = power_classes(131, pp)
    ok = ok and pc == ((81, 9, 9, 1, 1), (27, 3))
    elapsed = (time.monotonic_ns() - t0) // 1_000_000
    ok = ok and elapsed < 1000
    _report(2, ok, f"q=9, N=131 matrices, members, power classes [{elapsed} ms]")


def test_criterion_03_formula_vs_bruteforce(power_sum_suite):
    results, elapsed = power_sum_suite
    r = _named(results, "formula-vs-bruteforce")
    ok = r.passed and elapsed < 300_000
    _report(3, ok, f"{r.detail}; scan took {elapsed} ms (budget 300000)")


def test_criterion_04_extreme_degrees(power_sum_suite):
    results, _ = power_sum_suite
    r = _named(results, "extreme-degree-uniqueness")
    _report(4, r.passed, r.detail)


def test_criterion_05_vanishing_triple_agreement(power_sum_suite):
    results, _ = power_sum_suite
    r = _named(results, "vanishing-threshold-agreement")
    _report(5, r.passed, r.detail)


def test_criterion_06_valuation_chain(power_sum_suite):
    results, _ = power_sum_suite
    r = _named(results, "valuation-chain")
    _report(6, r.passed, r.detail)


def test_criterion_07_negative_sweep(mzv_suite):
    results, elapsed = mzv_suite
    r1 = _named(results, "trivial-zero-equivalence")
    r2 = _named(results, "valuation-additivity")
    assert r1.detail == (
        "878400 tuples evaluated exactly, 531360 zeros, "
        "all zeros trivial, zero mismatch errors"
    )
    assert r2.detail == "347040 nonzero tuples match the additive valuation"
    ok = r1.passed and r2.passed and elapsed < 600_000
    _report(
        7,
        ok,
        f"{r1.detail}; {r2.detail}; suite took {elapsed} ms (budget 600000)",
    )


def test_criterion_08_depth_one_parity(mzv_suite):
    results, _ = mzv_suite
    r = _named(results, "depth-one-parity")
    _report(8, r.passed, r.detail)


def test_criterion_09_unique_optimal(compose_suite):
    r = _named(compose_suite, "unique-minimum-weight")
    _report(9, r.passed, r.detail)


def test_criterion_10_membership_characterizations(membership_suite):
    r1 = _named(membership_suite, "even-class-lattice")
    r2 = _named(membership_suite, "capacity-characterization")
    r3 = _named(membership_suite, "nonempty-criterion")
    ok = r1.passed and r2.passed and r3.passed
    _report(10, ok, f"{r1.detail}; {r2.detail}; {r3.detail}")


def test_criterion_11_cover_extension(cover_suite):
    r = _named(cover_suite, "cover-extension-postconditions")
    _report(11, r.passed, r.detail)


def test_criterion_12_structural_invariants(compose_suite):
    r1 = _named(compose_suite, "restriction-consistency")
    r2 = _named(compose_suite, "power-scaling-consistency")
    r3 = _named(compose_suite, "leading-part-bounds")
    ok = r1.passed and r2.passed and r3.passed
    _report(12, ok, f"{r1.detail}; {r2.detail}; {r3.detail}")


def test_all_suite_checks_pass(
    power_sum_suite, mzv_suite, compose_suite, membership_suite, cover_suite
):
    # everything not tied to a numbered criterion must pass as well
    every = (
        list(power_sum_suite[0])
        + list(mzv_suite[0])
        + list(compose_suite)
        + list(membership_suite)
        + list(cover_suite)
        + verify.run_digit_suite()
        + verify.run_example_suite()
    )
    failed = [r for r in every if not r.passed]
    for r in failed:
        print(r.line())
    assert not failed, f"{len(failed)} suite checks failed"
