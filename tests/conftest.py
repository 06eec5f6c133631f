"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def bordered_inverses(monkeypatch):
    """The list of matrices passed to numpy.linalg.inv while the test runs:
    the bordered matrices the structured solver inverts."""
    calls = []
    inv = np.linalg.inv

    def counting(a, *args, **kwargs):
        calls.append(a)
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return calls
