"""Fixtures shared by the test modules."""

import pytest

from pglchar import formulas, involutions

# The routes' per-block tables that a fault injected beneath them can hide behind.
ROUTE_TABLES = (formulas._basic_step, formulas._transition_column, involutions._block_involutions)


@pytest.fixture
def fresh_route_tables():
    """Empty the route tables before the test and after it, so a fault injected
    beneath one is read by the route, and is not left in it for later tests."""
    for table in ROUTE_TABLES:
        table.cache_clear()
    yield
    for table in ROUTE_TABLES:
        table.cache_clear()
