"""Shared fixtures: a session-wide cache of census runs.

Several test modules consult the same enumeration results; computing each
(k, n) sweep once keeps the whole suite inside the stated time budgets.
"""

import pytest

from braidcensus.census import census


@pytest.fixture(scope="session")
def census_cache():
    cache = {}

    def get(k, n):
        if (k, n) not in cache:
            cache[k, n] = census(k, n)
        return cache[k, n]

    return get
