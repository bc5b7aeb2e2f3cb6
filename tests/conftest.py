"""Shared fixtures: the three standard parameter sets and seeded RNGs."""

import random
import sys

import pytest

from twisted_dihedral.field import FieldParams
from twisted_dihedral.kex import setup_public_params

# (p, m, n) triples exercised throughout the suite.
PARAM_TRIPLES = [(3, 1, 3), (5, 1, 5), (3, 2, 9)]


def make_pp(p, m, n, seed=0):
    return setup_public_params(p, m, n, random.Random(seed))


@pytest.fixture(scope="session")
def f3():
    return FieldParams(3)


@pytest.fixture(scope="session")
def f7():
    return FieldParams(7)


@pytest.fixture(scope="session")
def f9():
    return FieldParams(3, 2)


@pytest.fixture(scope="session")
def pp333():
    return make_pp(3, 1, 3, seed=101)


@pytest.fixture(scope="session")
def pp515():
    return make_pp(5, 1, 5, seed=202)


@pytest.fixture(scope="session")
def pp329():
    return make_pp(3, 2, 9, seed=303)


@pytest.fixture(scope="session")
def all_pps(pp333, pp515, pp329):
    return [pp333, pp515, pp329]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criterion pass/fail lines after the test run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    lines = getattr(mod, "REPORTED", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
