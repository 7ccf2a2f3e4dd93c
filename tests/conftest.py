"""Shared fixtures, and the hypothesis profile of the CLI fuzz."""

import pytest
from hypothesis import settings

from prodgeom import funcspec, jets

# ``--hypothesis-profile=fuzz`` runs every property without an explicit
# example count, the CLI fuzz among them, at 10,000 examples
settings.register_profile("fuzz", max_examples=10_000, deadline=None)


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
