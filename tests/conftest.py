"""Test-session settings: property tests draw the same examples on every run,
and every test starts with an empty diagonal memo, so a test that swaps the
transform table and counts its reads sees cold builds."""

import pytest
from hypothesis import settings

from fock_toeplitz import operators

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def empty_diagonal_memo():
    operators._diagonal.cache_clear()
