import pytest

from dqdsim import evolve


@pytest.fixture(autouse=True)
def no_sweep_plans():
    """Each test starts with no memoised sweep plan, so none laid under a patched grid constant
    or spy is served to another test."""
    evolve._PLANS.clear()
