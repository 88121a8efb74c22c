"""Fixtures shared by the solver tests."""

from __future__ import annotations

import pytest

from repro.solvers.stopping import Extrapolator


@pytest.fixture
def candidates(monkeypatch):
    """The extrapolated candidates the loops form, in order; each costs
    the loop one more product."""
    formed = []
    candidate = Extrapolator.candidate

    def spy(self, x):
        z = candidate(self, x)
        if z is not None:
            formed.append(z)
        return z

    monkeypatch.setattr(Extrapolator, "candidate", spy)
    return formed
