"""Fixtures shared by the test modules."""
import pytest
from hypothesis import settings

from entrobound import estimators

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic; no per-example deadline, as timing varies between hosts.
settings.register_profile("entrobound", derandomize=True, deadline=None)
settings.load_profile("entrobound")


@pytest.fixture
def executors(monkeypatch):
    """Worker counts of the thread pools started during the test, in order."""
    made = []

    class CountingExecutor(estimators.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", CountingExecutor)
    return made
