"""Fixtures shared by the test modules."""

import pytest

from qprobe import superop


@pytest.fixture
def lu_factor_calls(monkeypatch):
    """The list of matrices passed to superop.lu_factor while the test runs."""
    calls = []
    factor = superop.lu_factor

    def counting(a, *args, **kwargs):
        calls.append(a)
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(superop, "lu_factor", counting)
    return calls
