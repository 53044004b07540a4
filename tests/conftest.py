"""Fixtures shared by the test modules."""

import pytest

from surfmaps import RotationMap


@pytest.fixture
def builds(monkeypatch):
    """``builds(f, *args)``: the number of RotationMap constructions made
    by one call ``f(*args)``."""

    def count(f, *args):
        calls = []
        post_init = RotationMap.__post_init__

        def counting(self):
            calls.append(1)
            post_init(self)

        with monkeypatch.context() as mp:
            mp.setattr(RotationMap, "__post_init__", counting)
            f(*args)
        return len(calls)

    return count
