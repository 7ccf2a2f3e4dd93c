"""Shared fixtures, the hypothesis profile of the CLI fuzz, and the table of
golden CLI invocations."""

from pathlib import Path

import pytest
from hypothesis import settings

from prodgeom import funcspec, geometry, jets, verify

# ``--hypothesis-profile=fuzz`` runs every property without an explicit
# example count, the CLI fuzz among them, at 10,000 examples
settings.register_profile("fuzz", max_examples=10_000, deadline=None)

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
INVOCATIONS = GOLDEN / "invocations.txt"
# verify's exit code and stdout digest per seed, read by tests/test_verify_seeds.py
VERIFY_SEEDS = GOLDEN / "verify_seeds.json"


def golden_invocations() -> list:
    """The rows of ``tests/golden/invocations.txt`` as (golden file name,
    argv), in table order; lines that are blank or start with ``#`` are not
    rows."""
    rows = []
    for line in INVOCATIONS.read_text().splitlines():
        if line and not line.startswith("#"):
            golden, *argv = line.split(" ")
            rows.append((golden, argv))
    return rows


@pytest.fixture
def scalar_value_calls(monkeypatch):
    """The points of every call to the scalar value pass ``funcspec._values``,
    through each module binding of it (``evaluate``'s, the jets', the
    closed-form determinant's and verify's)."""
    calls = []
    real = funcspec._values

    def counted(spec, pt):
        calls.append(tuple(pt))
        return real(spec, pt)

    for module in (funcspec, jets, geometry, verify):
        monkeypatch.setattr(module, "_values", counted)
    return calls
