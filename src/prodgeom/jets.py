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

from .errors import DomainError, NumericalError
from .funcspec import Acms, ComponentFn, FunctionSpec, Homothetical, _point, _values


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


def _factor_jet(c: ComponentFn, x: float, v: float) -> Jet1:
    # v is c.value(x), so the guard has already run
    jet = Jet1(v, *c.derivs(x, v))
    if not (math.isfinite(jet.value) and math.isfinite(jet.d1) and math.isfinite(jet.d2)):
        raise NumericalError(f"non-finite 1-D jet at x = {x!r}: {jet}")
    return jet


def jet1d(c: ComponentFn, x: float) -> Jet1:
    """Exact (value, f', f'') of a component at x: ``c.value(x)`` and
    ``c.derivs(x, value)``, whose docstrings give the formulas.

    Raises DomainError when x violates the component guard and
    NumericalError where the jet overflows or is not finite.
    """
    x = float(x)
    try:
        return _factor_jet(c, x, c.value(x))
    except (OverflowError, ZeroDivisionError):  # a denominator that underflowed to 0
        raise NumericalError(f"1-D jet overflowed at x = {x!r}") from None


def _product_parts(components, pt, vals):
    """Factor jets and the derivatives of their product: (1-D jets, grad, hessian)."""
    jets = tuple(_factor_jet(c, x, v) for c, x, v in zip(components, pt, vals))
    n = len(jets)

    def prod_except(skip):
        p = 1.0
        for k in range(n):
            if k not in skip:
                p *= vals[k]
        return p

    du = [jets[i].d1 * prod_except((i,)) for i in range(n)]
    d2u = np.zeros((n, n))
    for i in range(n):
        d2u[i, i] = jets[i].d2 * prod_except((i,))
        for j in range(i + 1, n):
            mixed = jets[i].d1 * jets[j].d1 * prod_except((i, j))
            d2u[i, j] = mixed
            d2u[j, i] = mixed
    return jets, du, d2u


def _acms_parts(spec: Acms, pt, s: float):
    """Gradient and Hessian of the CES core g = gamma * s^(d/rho), from the sum s."""
    rho, q = spec.rho, spec.d / spec.rho
    n = spec.n
    ds = []
    d2s = []
    for b, x in zip(spec.betas, pt):
        base = b * x
        ds.append(rho * b * base ** (rho - 1.0))
        d2s.append(rho * (rho - 1.0) * b * b * base ** (rho - 2.0))
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
    return dg, d2g


def _chain(outer, u, du, d2u):
    """Gradient and Hessian of F(u(x)) from the derivatives of u and of F."""
    f1, f2 = outer.derivs(u)
    n = len(du)
    grad = [f1 * du[i] for i in range(n)]
    hess = np.zeros((n, n))
    for i in range(n):
        hess[i, i] = f2 * du[i] * du[i] + f1 * d2u[i, i]
        for j in range(i + 1, n):
            mixed = f2 * du[i] * du[j] + f1 * d2u[i, j]
            hess[i, j] = mixed
            hess[j, i] = mixed
    return grad, hess


def jet_multivariate(spec: FunctionSpec, point: Sequence[float]) -> Jet2N:
    """Exact value, gradient and Hessian of a spec at a point, in one pass.

    The value slot is ``evaluate``'s own value pass, which runs every domain
    guard before any derivative is formed; the Hessian is filled once per
    unordered index pair, so symmetry holds exactly. Raises DomainError
    outside the domain, ValidationError for a point of the wrong arity and
    NumericalError where the value or a derivative overflows.
    """
    pt = _point(spec, point)
    parts, u, value = _values(spec, pt)
    factors = None
    try:
        if isinstance(spec, Acms):
            grad, hess = _chain(spec.outer, u, *_acms_parts(spec, pt, parts))
        else:
            jets, grad, hess = _product_parts(spec.components, pt, parts)
            if isinstance(spec, Homothetical):
                factors = jets
            else:
                grad, hess = _chain(spec.outer, u, grad, hess)
    except (OverflowError, ZeroDivisionError):
        raise NumericalError(f"jet assembly overflowed at {tuple(pt)!r}") from None
    gradient = np.array(grad, dtype=float)
    if not (np.isfinite(gradient).all() and np.isfinite(hess).all()):
        raise NumericalError(f"non-finite jet at point {tuple(pt)!r}")
    return Jet2N(value, gradient, hess, factors)


#: Relative central-difference steps: h = FD_REL_FIRST * max(1, |x_i|) for
#: first derivatives, h = FD_REL_SECOND * max(1, |x_i|) for second ones;
#: they balance truncation against rounding for 64-bit floats.
FD_REL_FIRST = 6e-6
FD_REL_SECOND = 2e-4


def fd_jet(evaluator: Callable[[Sequence[float]], float], point: Sequence[float]) -> Jet2N:
    """Finite-difference jet of a black-box evaluator (truncation order 2).

    Gradient entries come from the two-point central difference, diagonal
    Hessian entries from the 3-point stencil and mixed entries from the
    4-point cross stencil, with the fixed steps ``FD_REL_FIRST`` and
    ``FD_REL_SECOND``. Raises NumericalError when a stencil point leaves
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
        h = FD_REL_FIRST * max(1.0, abs(pt[i]))
        grad[i] = (shifted([(i, h)]) - shifted([(i, -h)])) / (2.0 * h)
    hess = np.zeros((n, n))
    for i in range(n):
        h = FD_REL_SECOND * max(1.0, abs(pt[i]))
        hess[i, i] = (shifted([(i, h)]) - 2.0 * f0 + shifted([(i, -h)])) / (h * h)
        for j in range(i + 1, n):
            hj = FD_REL_SECOND * max(1.0, abs(pt[j]))
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
