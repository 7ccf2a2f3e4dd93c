"""Shared fixtures."""

import pytest

from prodgeom import funcspec, jets


@pytest.fixture
def scalar_value_calls(monkeypatch):
    """The points of every call to the scalar value pass ``funcspec._values``,
    through each module binding of it (``evaluate``'s and the jets')."""
    calls = []
    real = funcspec._values

    def counted(spec, pt):
        calls.append(tuple(pt))
        return real(spec, pt)

    for module in (funcspec, jets):
        monkeypatch.setattr(module, "_values", counted)
    return calls
