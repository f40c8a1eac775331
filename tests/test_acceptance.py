"""The acceptance gate: every criterion at its stated parameters.

Each test runs one criterion through the shared engine, prints its
pass/fail line and asserts the verdict; `tamewild selftest` runs the same
engine from the command line.
"""

import pytest

from tamewild.acceptance import CRITERIA, run_all
from tamewild.cli import RunConfig


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(precision=64, budget=500, seed=0)


@pytest.mark.parametrize("number", range(1, len(CRITERIA) + 1),
                         ids=[f"criterion_{i}" for i in
                              range(1, len(CRITERIA) + 1)])
def test_acceptance(number, cfg):
    result, = run_all(cfg, only=number)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.ident}: {result.name} "
          f"({result.elapsed:.1f}s) {result.detail}")
    assert result.passed, result.detail
