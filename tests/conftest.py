"""Test-session settings: property tests draw the same examples on every run,
and every test starts with an empty diagonal memo and an empty
``mellin_weighted_cached``, so a test that counts transforms sees cold
builds."""

import pytest
from hypothesis import settings

from fock_toeplitz import mellin, operators

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def empty_memos():
    operators._diagonal.cache_clear()
    mellin.mellin_weighted_cached.cache_clear()
