"""Test-session settings: property tests draw the same examples on every run,
and every test starts with an empty diagonal memo and counts, basis grid
and ``mellin_weighted_cached``, so a test that counts transforms or norms
sees cold builds."""

import pytest
from hypothesis import settings

from fock_toeplitz import mellin, operators

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def empty_memos():
    operators._memo.clear()
    operators._memo_counts.clear()
    operators._basis_grid.cache_clear()
    mellin.mellin_weighted_cached.cache_clear()
