import pytest

from stegolink import harness


@pytest.fixture(autouse=True)
def fresh_helper():
    # a sweep's helper process is forked from the test that runs it, so it
    # sees that test's monkeypatches, caches and warning filters
    yield
    harness.close_helper()
