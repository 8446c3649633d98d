"""Shipping criteria, one test per criterion, at their stated tolerances.

Quick-profile criteria run in the default session; the long simulation
campaigns carry the ``full`` marker (``pytest -m full``).  Each test prints
its criterion's one-line verdict so the suite output doubles as the
acceptance report.

Four criteria assert asymptotic bands that are provably out of reach at
the stated instance sizes (see the failure messages for the measured
values); they are implemented exactly as stated and left failing rather
than loosened: criterion 1 (the sqrt-log band at x=1e6), criterion 10
(the +/- 5*window bands and the round-1 half-open cap at n=5000),
criterion 11 (deviation monotonicity across the floor(n**eps) jump) and
criterion 13 (the log-form uniform-graph budget vs the sharp process
trajectory).
"""

import re

import pytest

from greedygraph import acceptance


def _run(cid: int) -> acceptance.CriterionResult:
    res = acceptance.CRITERIA[cid](seed=0)
    print(res.verdict())
    return res


def _assert_passed(res: acceptance.CriterionResult):
    assert res.passed, (
        f"criterion {res.cid} failed: " + "; ".join(res.failures)
        + f" | details: {res.details}")


def test_criterion_01_numerics_identity():
    _assert_passed(_run(1))


def test_criterion_02_oracle_n4():
    _assert_passed(_run(2))


@pytest.mark.full
def test_criterion_03_oracle_n5():
    _assert_passed(_run(3))


def test_criterion_04_round_equivalence():
    _assert_passed(_run(4))


def test_criterion_05_fixed_point():
    _assert_passed(_run(5))


def test_criterion_06_convergence_sandwich():
    _assert_passed(_run(6))


def test_criterion_07_mc_vs_recursion():
    _assert_passed(_run(7))


def test_criterion_08_scale_convergence():
    _assert_passed(_run(8))


def test_criterion_09_telescoping():
    _assert_passed(_run(9))


@pytest.mark.full
def test_criterion_10_slot_windows():
    _assert_passed(_run(10))


@pytest.mark.full
def test_criterion_11_edge_trend():
    _assert_passed(_run(11))


@pytest.mark.full
def test_criterion_12_c4_prediction():
    _assert_passed(_run(12))


@pytest.mark.full
def test_criterion_13_gnm_comparison():
    _assert_passed(_run(13))


def test_criterion_14_variance_margins():
    _assert_passed(_run(14))


def test_each_criterion_has_one_test_marked_by_profile():
    # the ``full`` marker must follow the registered profile, so the default
    # session runs exactly the quick criteria
    tests = {}
    for name in list(globals()):
        m = re.fullmatch(r"test_criterion_(\d+)_\w+", name)
        if m:
            tests.setdefault(int(m.group(1)), []).append(name)
    assert sorted(tests) == sorted(acceptance.CRITERIA)
    for cid, names in tests.items():
        assert len(names) == 1, f"C{cid} has tests {names}"
        marks = [mark.name for mark in getattr(globals()[names[0]], "pytestmark", [])]
        assert ("full" in marks) == (acceptance.CRITERIA[cid].profile == "full"), names[0]
