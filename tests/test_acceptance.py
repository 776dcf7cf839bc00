"""The acceptance gate: one test per headline criterion.

Each test prints its pass/fail line (run pytest -s to watch them stream);
`forestmaps repro` runs the same suite from the command line.
"""

import pytest

from forestmaps.acceptance import CRITERIA


@pytest.mark.parametrize("fn", CRITERIA, ids=[f.__name__ for f in CRITERIA])
def test_criterion(fn):
    res = fn()
    print(res.line())
    assert res.passed, "criterion %d: %s" % (res.number, res.detail)
