import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that leaves cyclic garbage collection disabled.

    The collector's flag is process-wide, so the guard enables it again
    before failing: no later test inherits the state.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left cyclic garbage collection disabled")
