"""Fixtures shared by the test modules."""
import pytest

from entrobound import estimators


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
