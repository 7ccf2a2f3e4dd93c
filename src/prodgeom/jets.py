"""Second-order differentiation: closed-form jets plus a finite-difference oracle.

A 1-D jet is the triple (value, first derivative, second derivative) of a
component at a point. Multivariate jets are assembled exactly from 1-D jets
through the product and chain rules, never from finite differences;
``fd_jet`` is the independent central-difference route used to cross-check
that assembly. All arithmetic is 64-bit floating point. The assembly takes
floats for one point or, in ``_jet_columns``, numpy columns with one entry
per point, and performs the same operations in the same order on both. The
finite-difference stencil is written once the same way: ``fd_jet`` calls a
black-box evaluator per stencil point, and ``_fd_columns`` evaluates a spec
at one stencil point of every row at once (``funcspec._value_columns``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .funcspec import (Acms, ComponentFn, FunctionSpec, Homothetical, _column_pow, _map_rows,
                       _point, _term_column, _value_columns, _values, evaluate)


@dataclass(frozen=True)
class Jet1:
    """Value and first two derivatives of a 1-D component at a point (in
    ``_jet_columns``, columns of them over many points)."""

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


def _product_parts(jets, vals, shape=()):
    """Gradient (a list) and Hessian of the product of the factor jets, whose
    values are ``vals``; ``shape`` is () for float slots and (k,) for columns
    of k points, whose Hessian is then (n, n, k)."""
    n = len(jets)

    def prod_except(skip):
        p = 1.0
        for k in range(n):
            if k not in skip:
                p *= vals[k]
        return p

    du = [jets[i].d1 * prod_except((i,)) for i in range(n)]
    d2u = np.zeros((n, n) + shape)
    for i in range(n):
        d2u[i, i] = jets[i].d2 * prod_except((i,))
        for j in range(i + 1, n):
            d2u[i, j] = d2u[j, i] = jets[i].d1 * jets[j].d1 * prod_except((i, j))
    return du, d2u


def _acms_parts(spec: Acms, pt, s, pw=pow, shape=()):
    """Gradient and Hessian of the CES core g = gamma * s^(d/rho), from the
    sum s (``shape`` as in ``_product_parts``; ``pw`` computes ``**``)."""
    rho, q = spec.rho, spec.d / spec.rho
    n = spec.n
    ds = []
    d2s = []
    for b, x in zip(spec.betas, pt):
        base = b * x
        ds.append(rho * b * pw(base, rho - 1.0))
        d2s.append(rho * (rho - 1.0) * b * b * pw(base, rho - 2.0))
    c1 = spec.gamma * q * pw(s, q - 1.0)
    coeff = q * (q - 1.0)
    c2 = spec.gamma * coeff * pw(s, q - 2.0) if coeff != 0.0 else 0.0
    dg = [c1 * ds[i] for i in range(n)]
    d2g = np.zeros((n, n) + shape)
    for i in range(n):
        d2g[i, i] = c2 * ds[i] * ds[i] + c1 * d2s[i]
        for j in range(i + 1, n):
            d2g[i, j] = d2g[j, i] = c2 * ds[i] * ds[j]
    return dg, d2g


def _chain(f1, f2, du, d2u, shape=()):
    """Gradient and Hessian of F(u(x)) from the derivatives of u and
    F'(u) = f1, F''(u) = f2 (``shape`` as in ``_product_parts``)."""
    n = len(du)
    grad = [f1 * du[i] for i in range(n)]
    hess = np.zeros((n, n) + shape)
    for i in range(n):
        hess[i, i] = f2 * du[i] * du[i] + f1 * d2u[i, i]
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = f2 * du[i] * du[j] + f1 * d2u[i, j]
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
            dg, d2g = _acms_parts(spec, pt, parts)
            grad, hess = _chain(*spec.outer.derivs(u), dg, d2g)
        else:
            factors = tuple(_factor_jet(c, x, v) for c, x, v in zip(spec.components, pt, parts))
            grad, hess = _product_parts(factors, parts)
            if not isinstance(spec, Homothetical):
                factors = None
                grad, hess = _chain(*spec.outer.derivs(u), grad, hess)
    except (OverflowError, ZeroDivisionError):
        raise NumericalError(f"jet assembly overflowed at {tuple(pt)!r}") from None
    gradient = np.array(grad, dtype=float)
    if not (np.isfinite(gradient).all() and np.isfinite(hess).all()):
        raise NumericalError(f"non-finite jet at point {tuple(pt)!r}")
    return Jet2N(value, gradient, hess, factors)


def _jet_columns(spec: FunctionSpec, points: np.ndarray):
    """The jets of a spec at the rows of an (m, n) point array, as columns.

    Returns ``(rows, value, gradient, hessian, factors, ok)``. ``rows`` indexes
    the points whose value pass succeeded; the other fields hold one entry
    per such row: value (k,), gradient (k, n), Hessian (k, n, n), for
    homothetical specs the factors' 1-D jets with (k,) columns as slots
    (None otherwise), and ``ok`` (k,). Where ``ok`` holds, a row has the bits
    of ``jet_multivariate`` at its point; elsewhere that call raises.

    The value pass is ``funcspec._value_columns``, so every guard runs
    first, and derivatives run only on the rows it accepted, through each
    component's and outer map's own scalar ``derivs``. Only + - * / run on
    whole columns, in the order of the scalar assembly, which is shared.
    """
    parts, u, value, failed = _value_columns(spec, points)
    rows = np.flatnonzero(~failed)
    k = len(rows)
    if k == 0:
        return rows, None, None, None, None, np.zeros(0, dtype=bool)
    pt = list(points[rows].T)
    parts, u = parts[rows], u[rows]
    nan2 = (math.nan, math.nan)
    shape = (k,)
    factors = None
    ok = np.ones(k, dtype=bool)
    if isinstance(spec, Acms):
        dg, d2g = _acms_parts(spec, pt, parts, _column_pow, shape)
        grad, hess = _chain(*_map_rows(spec.outer.derivs, u, failed=nan2).T, dg, d2g, shape)
    else:
        vals = list(parts.T)
        factors = []
        for c, x, v in zip(spec.components, pt, vals):
            d1, d2 = _map_rows(c.derivs, x, v, failed=nan2).T
            factors.append(Jet1(v, d1, d2))
            ok &= np.isfinite(v) & np.isfinite(d1) & np.isfinite(d2)
        grad, hess = _product_parts(factors, vals, shape)
        if not isinstance(spec, Homothetical):
            factors = None
            grad, hess = _chain(*_map_rows(spec.outer.derivs, u, failed=nan2).T, grad, hess,
                                shape)
    gradient = np.stack(grad, axis=1)
    hessian = hess.transpose(2, 0, 1)
    ok &= np.isfinite(gradient).all(axis=1) & np.isfinite(hessian).all(axis=(1, 2))
    return rows, value[rows], gradient, hessian, factors, ok


#: Relative central-difference steps: h = FD_REL_FIRST * max(1, |x_i|) for
#: first derivatives, h = FD_REL_SECOND * max(1, |x_i|) for second ones;
#: they balance truncation against rounding for 64-bit floats.
FD_REL_FIRST = 6e-6
FD_REL_SECOND = 2e-4


def _fd_parts(f, pt, mx=max, shape=()):
    """Value, gradient (a list) and Hessian of ``fd_jet`` from stencil values.

    ``f(deltas)`` is the function at ``pt`` moved by ``(axis, step)`` pairs
    (``()`` for ``pt`` itself); it is called in a fixed order: f0, the
    +-h pair of each axis, then for each axis i its +-h pair and the four
    corners with each later axis j. ``pt`` holds floats, or (k,) columns
    with ``mx`` taking the elementwise maximum; ``shape`` is as in
    ``_product_parts``.
    """
    n = len(pt)
    f0 = f(())
    grad = []
    for i in range(n):
        h = FD_REL_FIRST * mx(1.0, abs(pt[i]))
        grad.append((f(((i, h),)) - f(((i, -h),))) / (2.0 * h))
    hess = np.zeros((n, n) + shape)
    for i in range(n):
        h = FD_REL_SECOND * mx(1.0, abs(pt[i]))
        hess[i, i] = (f(((i, h),)) - 2.0 * f0 + f(((i, -h),))) / (h * h)
        for j in range(i + 1, n):
            hj = FD_REL_SECOND * mx(1.0, abs(pt[j]))
            hess[i, j] = hess[j, i] = (f(((i, h), (j, hj))) - f(((i, h), (j, -hj)))
                                       - f(((i, -h), (j, hj)))
                                       + f(((i, -h), (j, -hj)))) / (4.0 * h * hj)
    return f0, grad, hess


def fd_jet(evaluator: Callable[[Sequence[float]], float], point: Sequence[float]) -> Jet2N:
    """Finite-difference jet of a black-box evaluator (truncation order 2).

    Gradient entries come from the two-point central difference, diagonal
    Hessian entries from the 3-point stencil and mixed entries from the
    4-point cross stencil, with the fixed steps ``FD_REL_FIRST`` and
    ``FD_REL_SECOND``. The evaluator is called one stencil point at a time.
    Raises NumericalError when a stencil point leaves the evaluator's
    domain or the evaluator returns a non-finite value.
    """
    pt = [float(x) for x in point]

    def ev(deltas):
        q = list(pt)
        for idx, dh in deltas:
            q[idx] += dh
        try:
            v = float(evaluator(q))
        except DomainError as e:
            raise NumericalError(f"stencil point {tuple(q)!r} left the domain: {e}") from e
        except OverflowError:
            raise NumericalError(f"evaluator overflowed at {tuple(q)!r}") from None
        if not math.isfinite(v):
            raise NumericalError(f"evaluator returned non-finite value at {tuple(q)!r}")
        return v

    f0, grad, hess = _fd_parts(ev, pt)
    return Jet2N(f0, np.array(grad, dtype=float), hess)


def _fd_columns(spec: FunctionSpec, points: np.ndarray):
    """``fd_jet(lambda q: evaluate(spec, q), p)`` at every row p of a (k, n)
    point array, as columns: (value (k,), gradient (k, n), Hessian (k, n, n),
    failed (k,)).

    Each stencil point is one value pass over all rows
    (``funcspec._value_columns``) that re-evaluates only the terms of the
    one or two axes it moves, so memory stays O(k n) apart from the
    Hessian. ``failed`` marks the rows where some stencil point fails the
    value pass, which is where that ``fd_jet`` call raises; every other row
    has its bits.
    """
    failed = np.zeros(len(points), dtype=bool)

    def ev(deltas):
        q = points.copy()
        terms = list(base)
        for idx, dh in deltas:
            q[:, idx] += dh
            terms[idx] = _term_column(spec, idx, q[:, idx])
        _, _, value, bad = _value_columns(spec, q, terms)
        np.logical_or(failed, bad, out=failed)
        return value

    with np.errstate(all="ignore"):  # a failed row's numbers are discarded
        base = [_term_column(spec, k, col) for k, col in enumerate(points.T)]
        value, grad, hess = _fd_parts(ev, list(points.T), np.maximum, (len(points),))
    return value, np.stack(grad, axis=1), hess.transpose(2, 0, 1), failed


def _rel_gap(approx, exact, axis=None):
    # max and fmax are exact, so a reduction over one row or over whole
    # columns gives the same bits; fmax(1, nan) is 1, as max(1.0, nan) is
    return (np.max(np.abs(approx - exact), axis=axis)
            / np.fmax(1.0, np.max(np.abs(exact), axis=axis)))


def norm_rel_gaps(approx: Jet2N, exact: Jet2N) -> tuple:
    """(gradient gap, Hessian gap) of an approximate jet against an exact one.

    Each gap is the largest entrywise |approx - exact|, divided by
    max(1, largest |exact| entry) of the same block.
    """
    return (float(_rel_gap(approx.gradient, exact.gradient)),
            float(_rel_gap(approx.hessian, exact.hessian)))


def _fd_gaps(spec: FunctionSpec, points: np.ndarray, gradient: np.ndarray,
             hessian: np.ndarray) -> np.ndarray:
    """``max(norm_rel_gaps(fd_jet(lambda q: evaluate(spec, q), p), exact))``
    at every row p of a (k, n) point array, whose exact jets have the
    gradients (k, n) and Hessians (k, n, n) given, bit for bit.

    The FD jets are formed in columns (``_fd_columns``). A row whose stencil
    failed goes through ``fd_jet`` itself, in row order, which raises that
    row's NumericalError; so the first such row decides the error.
    """
    _, fd_gradient, fd_hessian, failed = _fd_columns(spec, points)
    with np.errstate(all="ignore"):
        g = _rel_gap(fd_gradient, gradient, axis=1)
        h = _rel_gap(fd_hessian, hessian, axis=(1, 2))
    gaps = np.where(h > g, h, g)  # max(g, h), which keeps g when either is nan
    for i in np.flatnonzero(failed).tolist():
        approx = fd_jet(lambda q: evaluate(spec, q), points[i])
        gaps[i] = max(norm_rel_gaps(approx, Jet2N(approx.value, gradient[i], hessian[i])))
    return gaps
