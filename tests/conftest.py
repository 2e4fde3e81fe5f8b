"""Shared fixtures: a session-wide cache of census runs, and empty search
memos for a test.

Several test modules consult the same enumeration results; computing each
(k, n) sweep once keeps the whole suite inside the stated time budgets.
"""

import sys

import pytest

import braidcensus.commutator
from braidcensus.census import census

# The package attribute braidcensus.census is the function, so the module
# is taken from sys.modules.
CENSUS_MODULE = sys.modules["braidcensus.census"]


@pytest.fixture(scope="session")
def census_cache():
    cache = {}

    def get(k, n):
        if (k, n) not in cache:
            cache[k, n] = census(k, n)
        return cache[k, n]

    return get


@pytest.fixture
def fresh_tree():
    """An empty chain tree and empty u-sets of the commutator census, before
    and after the test: nothing searched before it hides the search from the
    test, and nothing found under a monkeypatched search outlives it.
    Yields the tree."""
    memos = (CENSUS_MODULE._TREES, braidcensus.commutator._U_SETS)
    for memo in memos:
        memo.clear()
    yield CENSUS_MODULE._TREES
    for memo in memos:
        memo.clear()
