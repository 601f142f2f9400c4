"""Fixtures shared by the test modules."""

import pytest

from mallows_binomial import bootstrap


@pytest.fixture
def pool_starts(monkeypatch):
    """The ``max_workers`` of every process pool the bootstrap module starts."""
    starts = []

    class CountingPool(bootstrap.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bootstrap, "ProcessPoolExecutor", CountingPool)
    return starts
