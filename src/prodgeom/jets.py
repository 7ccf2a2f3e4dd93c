"""Second-order differentiation: closed-form jets plus a finite-difference oracle.

A 1-D jet is the triple (value, first derivative, second derivative) of a
component at a point. Multivariate jets are assembled exactly from 1-D jets
through the product and chain rules, never from finite differences;
``fd_jet`` is the independent central-difference route used to cross-check
that assembly. All arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .funcspec import (
    Acms,
    ComponentFn,
    Composite,
    ExpFn,
    FunctionSpec,
    Homothetical,
    Identity,
    Log,
    LogPowFn,
    OuterFn,
    PowFn,
    Scale,
    _point,
    evaluate,
    outer_value,
)


@dataclass(frozen=True)
class Jet1:
    """Value and first two derivatives of a 1-D component at a point."""

    value: float
    d1: float
    d2: float


@dataclass(frozen=True, eq=False)
class Jet2N:
    """Value, gradient and (exactly symmetric) Hessian at a point.

    ``factors``: the 1-D jets a homothetical jet was built from (None otherwise).
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    factors: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.gradient)


def _finite1(jet: Jet1, x: float) -> Jet1:
    if not (math.isfinite(jet.value) and math.isfinite(jet.d1) and math.isfinite(jet.d2)):
        raise NumericalError(f"non-finite 1-D jet at x = {x!r}: {jet}")
    return jet


def jet1d(c: ComponentFn, x: float) -> Jet1:
    """Exact (value, f', f'') of a component at x.

    pow:    f = g(x+b)^a,      f' = g a (x+b)^(a-1),  f'' = g a (a-1)(x+b)^(a-2)
    exp:    f = g e^(Lx),      f' = L f,              f'' = L^2 f
    logpow: f = u^m, u = a + b ln x,
            f' = m u^(m-1) b/x,
            f'' = m (m-1) u^(m-2) (b/x)^2 - m u^(m-1) b/x^2

    Coefficient-zero terms are skipped before the power is formed, so points
    where the base is 0 but the term vanishes (e.g. alpha = 1 at x + beta = 0)
    stay exact. Raises DomainError when x violates the component guard.
    """
    x = float(x)
    c.guard(x)
    try:
        return _jet1d_guarded(c, x)
    except (OverflowError, ZeroDivisionError):  # a denominator that underflowed to 0
        raise NumericalError(f"1-D jet overflowed at x = {x!r}") from None


def _jet1d_guarded(c: ComponentFn, x: float) -> Jet1:
    if isinstance(c, PowFn):
        b = x + c.beta
        v = c.gamma * b ** c.alpha
        d1 = c.gamma * c.alpha * b ** (c.alpha - 1.0)
        coeff = c.alpha * (c.alpha - 1.0)
        d2 = c.gamma * coeff * b ** (c.alpha - 2.0) if coeff != 0.0 else 0.0
        return _finite1(Jet1(v, d1, d2), x)
    if isinstance(c, ExpFn):
        v = c.gamma * math.exp(c.lam * x)
        return _finite1(Jet1(v, c.lam * v, c.lam * c.lam * v), x)
    if isinstance(c, LogPowFn):
        u = c.a + c.b * math.log(x)
        w = c.b / x
        v = u ** c.m
        t1 = c.m * u ** (c.m - 1.0)
        coeff = c.m * (c.m - 1.0)
        d2 = (coeff * u ** (c.m - 2.0) * w * w if coeff != 0.0 else 0.0) - t1 * c.b / (x * x)
        return _finite1(Jet1(v, t1 * w, d2), x)
    raise ValidationError(f"unknown component kind {c!r}")


def _product_parts(components, pt):
    """Factor jets and the jet of their product u: (1-D jets, u, grad u, hessian of u)."""
    jets = tuple(jet1d(c, x) for c, x in zip(components, pt))
    n = len(jets)
    vals = [j.value for j in jets]

    def prod_except(skip):
        p = 1.0
        for k in range(n):
            if k not in skip:
                p *= vals[k]
        return p

    u = prod_except(())
    du = [jets[i].d1 * prod_except((i,)) for i in range(n)]
    d2u = np.zeros((n, n))
    for i in range(n):
        d2u[i, i] = jets[i].d2 * prod_except((i,))
        for j in range(i + 1, n):
            mixed = jets[i].d1 * jets[j].d1 * prod_except((i, j))
            d2u[i, j] = mixed
            d2u[j, i] = mixed
    return jets, u, du, d2u


def _outer_jet(outer: OuterFn, u: float):
    """(F(u), F'(u), F''(u)); the value and its domain guard come from ``outer_value``."""
    value = outer_value(outer, u)
    if isinstance(outer, Identity):
        return value, 1.0, 0.0
    if isinstance(outer, Scale):
        return value, outer.gamma, 0.0
    if isinstance(outer, Log):
        return value, 1.0 / u, -1.0 / (u * u)
    d = outer.d  # Power: outer_value has rejected every other kind
    coeff = d * (d - 1.0)
    return value, d * u ** (d - 1.0), coeff * u ** (d - 2.0) if coeff != 0.0 else 0.0


def _acms_parts(spec: Acms, pt):
    """Jet of the CES core g = gamma * (sum_i (beta_i x_i)^rho)^(d/rho)."""
    for k, x in enumerate(pt):
        if x <= 0.0:
            raise DomainError(f"acms needs strictly positive inputs; x{k + 1} = {x!r}")
    rho, q = spec.rho, spec.d / spec.rho
    n = spec.n
    s = 0.0
    ds = []
    d2s = []
    for b, x in zip(spec.betas, pt):
        base = b * x
        s += base ** rho
        ds.append(rho * b * base ** (rho - 1.0))
        d2s.append(rho * (rho - 1.0) * b * b * base ** (rho - 2.0))
    g = spec.gamma * s ** q
    c1 = spec.gamma * q * s ** (q - 1.0)
    coeff = q * (q - 1.0)
    c2 = spec.gamma * coeff * s ** (q - 2.0) if coeff != 0.0 else 0.0
    dg = [c1 * ds[i] for i in range(n)]
    d2g = np.zeros((n, n))
    for i in range(n):
        d2g[i, i] = c2 * ds[i] * ds[i] + c1 * d2s[i]
        for j in range(i + 1, n):
            mixed = c2 * ds[i] * ds[j]
            d2g[i, j] = mixed
            d2g[j, i] = mixed
    return g, dg, d2g


def _chain(outer: OuterFn, u, du, d2u):
    """Value, gradient and Hessian of F(u(x)) from the jet of u and the outer jet."""
    value, f1, f2 = _outer_jet(outer, u)
    n = len(du)
    grad = [f1 * du[i] for i in range(n)]
    hess = np.zeros((n, n))
    for i in range(n):
        hess[i, i] = f2 * du[i] * du[i] + f1 * d2u[i, i]
        for j in range(i + 1, n):
            mixed = f2 * du[i] * du[j] + f1 * d2u[i, j]
            hess[i, j] = mixed
            hess[j, i] = mixed
    return value, grad, hess


def _assemble(spec: FunctionSpec, pt: list) -> Jet2N:
    factors = None
    try:
        if isinstance(spec, Homothetical):
            factors, value, grad, hess = _product_parts(spec.components, pt)
        elif isinstance(spec, Composite):
            _, u, du, d2u = _product_parts(spec.components, pt)
            value, grad, hess = _chain(spec.outer, u, du, d2u)
        elif isinstance(spec, Acms):
            value, grad, hess = _chain(spec.outer, *_acms_parts(spec, pt))
        else:
            raise ValidationError(f"unknown spec kind {spec!r}")
    except (OverflowError, ZeroDivisionError):
        raise NumericalError(f"jet assembly overflowed at {tuple(pt)!r}") from None
    gradient = np.array(grad, dtype=float)
    if not (math.isfinite(value) and np.isfinite(gradient).all() and np.isfinite(hess).all()):
        raise NumericalError(f"non-finite jet at point {tuple(pt)!r}")
    return Jet2N(value, gradient, hess, factors)


def jet_multivariate(spec: FunctionSpec, point: Sequence[float]) -> Jet2N:
    """Exact value, gradient and Hessian of a spec at a point, in one pass.

    The value slot repeats the scalar evaluation's operations, so it equals
    ``evaluate`` bit for bit; the Hessian is filled once per unordered index
    pair, so symmetry holds exactly. Raises DomainError outside the domain,
    ValidationError for a point of the wrong arity and NumericalError where
    the assembly overflows.
    """
    pt = _point(spec, point)
    try:
        return _assemble(spec, pt)
    except NumericalError:
        # The assembly meets a factor's derivatives before the guards of
        # later factors and of the outer map, so an overflow may hide that
        # the point is outside the domain. Evaluation reaches every guard
        # without forming a derivative; a DomainError from it outranks the
        # overflow.
        evaluate(spec, pt)
        raise


@dataclass(frozen=True)
class FdSteps:
    """Relative step sizes for the central-difference stencils.

    First derivatives use h = rel_first * max(1, |x_i|); pure second
    derivatives use the 3-point stencil and mixed partials the 4-point cross
    stencil, both with h = rel_second * max(1, |x_i|). The defaults balance
    truncation against rounding for 64-bit floats.
    """

    rel_first: float = 6e-6
    rel_second: float = 2e-4

    def first(self, x: float) -> float:
        return self.rel_first * max(1.0, abs(x))

    def second(self, x: float) -> float:
        return self.rel_second * max(1.0, abs(x))


def fd_jet(evaluator: Callable[[Sequence[float]], float], point: Sequence[float],
           steps: FdSteps = FdSteps()) -> Jet2N:
    """Finite-difference jet of a black-box evaluator (truncation order 2).

    Gradient entries come from the two-point central difference, diagonal
    Hessian entries from the 3-point stencil and mixed entries from the
    4-point cross stencil. Raises NumericalError when a stencil point leaves
    the evaluator's domain or the evaluator returns a non-finite value.
    """
    pt = [float(x) for x in point]
    n = len(pt)

    def ev(q):
        try:
            v = float(evaluator(q))
        except DomainError as e:
            raise NumericalError(f"stencil point {tuple(q)!r} left the domain: {e}") from e
        except OverflowError:
            raise NumericalError(f"evaluator overflowed at {tuple(q)!r}") from None
        if not math.isfinite(v):
            raise NumericalError(f"evaluator returned non-finite value at {tuple(q)!r}")
        return v

    def shifted(deltas):
        q = list(pt)
        for idx, dh in deltas:
            q[idx] += dh
        return ev(q)

    f0 = ev(pt)
    grad = np.zeros(n)
    for i in range(n):
        h = steps.first(pt[i])
        grad[i] = (shifted([(i, h)]) - shifted([(i, -h)])) / (2.0 * h)
    hess = np.zeros((n, n))
    for i in range(n):
        h = steps.second(pt[i])
        hess[i, i] = (shifted([(i, h)]) - 2.0 * f0 + shifted([(i, -h)])) / (h * h)
        for j in range(i + 1, n):
            hj = steps.second(pt[j])
            mixed = (shifted([(i, h), (j, hj)])
                     - shifted([(i, h), (j, -hj)])
                     - shifted([(i, -h), (j, hj)])
                     + shifted([(i, -h), (j, -hj)])) / (4.0 * h * hj)
            hess[i, j] = mixed
            hess[j, i] = mixed
    return Jet2N(f0, grad, hess)


def norm_rel_gaps(approx: Jet2N, exact: Jet2N) -> tuple:
    """(gradient gap, Hessian gap) of an approximate jet against an exact one.

    Each gap is the largest entrywise |approx - exact|, divided by
    max(1, largest |exact| entry) of the same block.
    """
    def gap(a, e):
        return float(np.max(np.abs(a - e))) / max(1.0, float(np.max(np.abs(e))))

    return gap(approx.gradient, exact.gradient), gap(approx.hessian, exact.hessian)
