"""Shipping criteria, one test per criterion in ``acceptance.CRITERIA``.

Quick-profile criteria run in the default session; the long simulation
campaigns carry the ``full`` marker (``pytest -m full``).  Each test prints
its criterion's one-line verdict, so the suite output doubles as the
acceptance report.  The criteria left failing by design, with their
measured values, are listed in ``greedygraph.acceptance``.
"""

import pytest

from greedygraph import acceptance


@pytest.mark.parametrize("cid", [
    pytest.param(cid, id=f"C{cid:02d}",
                 marks=[pytest.mark.full] if run.profile == "full" else [])
    for cid, run in acceptance.CRITERIA.items()])
def test_criterion(cid):
    res = acceptance.CRITERIA[cid](seed=0)
    print(res.verdict())
    assert res.passed, (
        f"criterion {res.cid} failed: " + "; ".join(res.failures)
        + f" | details: {res.details}")
