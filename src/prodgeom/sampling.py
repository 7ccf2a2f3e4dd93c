"""Seeded random specs and sample points for the property and verify suites.

Parameter ranges are guard-safe on the default [0.5, 2] sampling box: every
generated component is defined, nonzero and has a nonzero first derivative
there, so closed-form and finite-difference routes are both usable.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .funcspec import (
    Composite,
    ExpFn,
    Homothetical,
    Identity,
    Log,
    LogPowFn,
    OuterFn,
    PowFn,
    Power,
    Scale,
)

COMPONENT_KINDS = ("pow", "exp", "logpow")


def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def points_loguniform(n: int, count: int, seed_or_rng, lo: float = 0.5,
                      hi: float = 2.0) -> list:
    """`count` points drawn log-uniformly from [lo, hi]^n."""
    rng = _rng(seed_or_rng)
    a, b = math.log(lo), math.log(hi)
    return [tuple(math.exp(rng.uniform(a, b)) for _ in range(n)) for _ in range(count)]


def _signed(rng: random.Random, lo: float, hi: float, positive: bool) -> float:
    mag = rng.uniform(lo, hi)
    if positive or rng.random() < 0.5:
        return mag
    return -mag


def random_component(rng: random.Random, kind: str | None = None,
                     positive: bool = False):
    """One guard-safe component; `positive` forces a positive value on the box."""
    kind = kind if kind is not None else rng.choice(COMPONENT_KINDS)
    if kind == "pow":
        return PowFn(gamma=_signed(rng, 0.6, 1.4, positive),
                     beta=rng.uniform(0.0, 1.0),
                     alpha=_signed(rng, 0.3, 1.6, False))
    if kind == "exp":
        return ExpFn(gamma=_signed(rng, 0.6, 1.4, positive),
                     lam=_signed(rng, 0.3, 1.0, False))
    if kind == "logpow":
        b = _signed(rng, 0.3, 1.2, False)
        # keeps a + b ln x >= ~0.4 on [0.5, 2] where |ln x| <= 0.694
        a = 0.75 * abs(b) + rng.uniform(0.4, 1.6)
        return LogPowFn(a=a, b=b, m=_signed(rng, 0.3, 1.6, False))
    raise ValueError(f"unknown component kind {kind!r}")


def random_homothetical(rng: random.Random, n: int | None = None,
                        n_range: tuple = (2, 5), positive: bool = False,
                        kinds: Sequence[str] = COMPONENT_KINDS,
                        min_exp: int = 0) -> Homothetical:
    """Random product spec; `min_exp` forces that many exponential components."""
    if n is None:
        n = rng.randint(*n_range)
    picks = [rng.choice(list(kinds)) for _ in range(n)]
    if min_exp:
        slots = list(range(n))
        rng.shuffle(slots)
        for s in slots[:min_exp]:
            picks[s] = "exp"
    return Homothetical(tuple(random_component(rng, kind=k, positive=positive)
                              for k in picks))


def random_outer(rng: random.Random) -> OuterFn:
    """Random outer map with nonzero slope on positive arguments."""
    roll = rng.randrange(4)
    if roll == 0:
        return Identity()
    if roll == 1:
        return Power(d=_signed(rng, 0.4, 2.0, positive=False))
    if roll == 2:
        return Scale(gamma=rng.uniform(0.5, 2.0))
    return Log()


def random_composite(rng: random.Random, n: int | None = None,
                     n_range: tuple = (2, 4)) -> Composite:
    """Random outer-composed spec with a positive inner product.

    The inner components are forced positive on the box so that log and
    fractional-power outers are always admissible.
    """
    inner = random_homothetical(rng, n=n, n_range=n_range, positive=True)
    return Composite(random_outer(rng), inner.components)
