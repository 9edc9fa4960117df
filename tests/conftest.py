import gc

import pytest


@pytest.fixture
def restore_gc():
    """Put the cyclic collector back in the state the test found it in."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()
