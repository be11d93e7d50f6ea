"""Fixtures shared by the test modules."""

import pytest

from k3pairs import reset_caches


@pytest.fixture
def cold_monkeypatch(monkeypatch):
    """``monkeypatch`` with every module cache of k3pairs emptied before
    the test and again after its patches are undone, for a test that
    patches what a memoized function reads: no value built before the
    patch is read under it, and none built under it outlives it."""
    reset_caches()
    yield monkeypatch
    monkeypatch.undo()
    reset_caches()
