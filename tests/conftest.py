import pytest

from dqdsim import evolve, protocol


@pytest.fixture(autouse=True)
def no_memoised_plans():
    """Each test starts with no memoised sweep plan, ramp spectrum or channel, so none
    laid under a patched grid constant or spy is served to another test."""
    for memo in (evolve._PLANS, evolve._SPECTRA, protocol._CHANNELS):
        memo.clear()
