"""Second-order differentiation: closed-form jets plus a finite-difference oracle.

A 1-D jet is (value, f', f'') of a component at a point; multivariate jets
are assembled exactly from them by the product and chain rules, and
``fd_jet`` is the independent central-difference oracle. The assembly and
the stencil are each written once for one point's floats and for numpy
columns over many points (``_jet_columns``, ``_fd_columns``), with the same
64-bit operations in the same order, so both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .funcspec import (_LINEAR_OUTER, Acms, ComponentFn, FunctionSpec, Homothetical, _column_pow,
                       _coords, _core_value, _map_rows, _per_point, _point, _term_column,
                       _term_core, _value_pass, _values, evaluate)


@dataclass(frozen=True)
class Jet1:
    """Value and first two derivatives of a 1-D component at a point (in
    ``_jet_columns``, columns of them over many points)."""

    value: float
    d1: float
    d2: float


@dataclass(frozen=True, eq=False)
class Jet2N:
    """Value, gradient and (exactly symmetric) Hessian at a point; ``factors``
    are the 1-D jets a homothetical jet was built from (None otherwise)."""

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
    ``c.derivs(x, value)``, whose docstrings give the formulas. Raises
    DomainError when x violates the component guard and NumericalError
    where the jet overflows, divides by an underflowed zero or is not finite."""
    [x] = _coords((x,))
    try:
        return _factor_jet(c, x, c.value(x))
    except OverflowError:
        raise NumericalError(f"1-D jet overflowed at x = {x!r}") from None
    except ZeroDivisionError:  # a denominator that underflowed to 0
        raise NumericalError(f"1-D jet underflowed at x = {x!r}") from None


def _fill(n, shape, rules):
    """The (n, n) + ``shape`` Hessian with entry rules ``(diag, off)``: entry
    (i, i) is ``diag(i)``, and for i < j ``off(i, j)``, computed once (i
    ascending, then j) and stored at (i, j) and (j, i), so symmetry is exact."""
    diag, off = rules
    hess = np.zeros((n, n) + shape)
    for i in range(n):
        hess[i, i] = diag(i)
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = off(i, j)
    return hess


def _product_parts(jets, vals):
    """Gradient (a list) and Hessian entry rules (for ``_fill``) of the
    product of the factor jets, whose values are ``vals``: floats, or (m,)
    columns over m points, whose entries are then (m,) columns.

    Every product of the other values runs from 1.0 in index order, from
    shared prefixes; ``off(i, j)`` keeps the product skipping i up to j for
    the next j in ``_fill``'s order, so O(n) products stay live. ``mul``
    returns a new column, so no shared product is ever written into."""
    prefix = list(accumulate(vals[:-1], mul, initial=1.0))  # prefix[i]: of vals[:i]
    skip = [reduce(mul, vals[i + 1:], p) for i, p in enumerate(prefix)]
    run = [None, None, None]  # (i, j, the product skipping i of vals[:j])

    def off(i, j):
        ri, rj, p = run
        if ri != i or rj > j:
            rj, p = i + 1, prefix[i]
        run[:] = i, j, reduce(mul, vals[rj:j], p)
        return jets[i].d1 * jets[j].d1 * reduce(mul, vals[j + 1:], run[2])

    du = [jet.d1 * p for jet, p in zip(jets, skip)]
    return du, (lambda i: jets[i].d2 * skip[i], off)


def _acms_parts(spec: Acms, pt, s, pw=pow):
    """Gradient and Hessian rules of the CES core g = gamma * s^(d/rho), from the
    sum s (a float or a column, as in ``_product_parts``; ``pw`` computes ``**``)."""
    rho, q = spec.rho, spec.d / spec.rho
    ds, d2s = [], []
    for b, x in zip(spec.betas, pt):
        base = b * x
        ds.append(rho * b * pw(base, rho - 1.0))
        d2s.append(rho * (rho - 1.0) * b * b * pw(base, rho - 2.0))
    c1 = spec.gamma * q * pw(s, q - 1.0)
    coeff = q * (q - 1.0)
    c2 = spec.gamma * coeff * pw(s, q - 2.0) if coeff != 0.0 else 0.0
    dg = [c1 * d for d in ds]
    return dg, (lambda i: c2 * ds[i] * ds[i] + c1 * d2s[i],
                lambda i, j: c2 * ds[i] * ds[j])


def _chain(f1, f2, du, rules):
    """Gradient and Hessian rules of F(u(x)) from those of u (composed, not
    filled) and F'(u) = f1, F''(u) = f2 (floats or columns, as in ``_product_parts``)."""
    diag, off = rules
    grad = [f1 * du[i] for i in range(len(du))]
    return grad, (lambda i: f2 * du[i] * du[i] + f1 * diag(i),
                  lambda i, j: f2 * du[i] * du[j] + f1 * off(i, j))


def jet_multivariate(spec: FunctionSpec, point: Sequence[float]) -> Jet2N:
    """Exact value, gradient and Hessian of a spec at a point, in one pass.

    The value slot is ``evaluate``'s own value pass, which runs every domain
    guard before any derivative is formed; the Hessian is filled once per
    unordered index pair, so symmetry holds exactly. Raises DomainError
    outside the domain, ValidationError for a point of the wrong arity and
    NumericalError where the value or a derivative overflows or divides by
    an underflowed zero.
    """
    pt = _point(spec, point)
    parts, u, value = _values(spec, pt)
    factors = None
    try:
        if isinstance(spec, Acms):
            grad, rules = _acms_parts(spec, pt, parts)
        else:
            factors = tuple(_factor_jet(c, x, v) for c, x, v in zip(spec.components, pt, parts))
            grad, rules = _product_parts(factors, parts)
        if not isinstance(spec, Homothetical):
            factors = None
            grad, rules = _chain(*spec.outer.derivs(u), grad, rules)
        hess = _fill(spec.n, (), rules)
    except OverflowError:
        raise NumericalError(f"jet assembly overflowed at {tuple(pt)!r}") from None
    except ZeroDivisionError:  # a denominator that underflowed to 0
        raise NumericalError(f"jet assembly underflowed at {tuple(pt)!r}") from None
    gradient = np.array(grad, dtype=float)
    if not all(map(math.isfinite, [*grad, *hess.ravel().tolist()])):
        raise NumericalError(f"non-finite jet at point {tuple(pt)!r}")
    return Jet2N(value, gradient, hess, factors)


def _jet_columns(spec: FunctionSpec, points: np.ndarray):
    """The jets of a spec at the rows of an (m, n) point array, as columns.

    Returns ``(value, gradient, hessian, factors, ok)``, each with one entry
    per row: value (m,), gradient (m, n), Hessian (m, n, n), for homothetical
    specs the factors' 1-D jets with (m,) columns as slots (None otherwise),
    and ``ok`` (m,). Where ``ok`` holds, a row has the bits of
    ``jet_multivariate`` at its point; elsewhere that call raises.

    The value pass (``funcspec._value_pass``) runs first. Each component's
    ``derivs`` runs once per distinct coordinate of its axis and the outer
    map's row by row (a linear map's constants once), all on Python floats.
    A row whose value or term is not finite gets nan inputs first (a power
    of a negative base would be complex), so it stays flagged. Only + - * /
    run on whole columns, in the order of the scalar assembly, which is shared.
    """
    groups, distinct, terms, core, u, value = _value_pass(spec, points)
    failed = ~np.isfinite(value)
    u = np.where(failed, math.nan, u)

    def derivs(fn, *cols):  # the (f', f'') columns, two empty ones for no rows
        return _map_rows(fn, *cols, failed=(math.nan, math.nan)).reshape(-1, 2).T

    factors = None
    ok = ~failed
    if isinstance(spec, Acms):
        pt = list(np.where(failed[:, None], math.nan, points).T)
        grad, rules = _acms_parts(spec, pt, core, _column_pow)
    else:
        factors = []
        for c, v, (coords, index), t in zip(spec.components, terms, groups, distinct):
            d1, d2 = derivs(c.derivs, np.where(np.isfinite(t), coords, math.nan), t)[:, index]
            factors.append(Jet1(v, d1, d2))
            ok &= np.isfinite(v) & np.isfinite(d1) & np.isfinite(d2)
        grad, rules = _product_parts(factors, terms)
    if not isinstance(spec, Homothetical):
        factors = None
        outer = spec.outer
        outer_derivs = ([np.full(u.shape, d) for d in outer.derivs(math.nan)]
                        if isinstance(outer, _LINEAR_OUTER) else derivs(outer.derivs, u))
        grad, rules = _chain(*outer_derivs, grad, rules)
    gradient = np.stack(grad, axis=1)
    hessian = _fill(spec.n, value.shape, rules).transpose(2, 0, 1)
    ok &= np.isfinite(gradient).all(axis=1) & np.isfinite(hessian).all(axis=(1, 2))
    return value, gradient, hessian, factors, ok


#: Relative central-difference steps, h = FD_REL_* * max(1, |x_i|) for first and for
#: second derivatives; they balance truncation against rounding for 64-bit floats.
FD_REL_FIRST = 6e-6
FD_REL_SECOND = 2e-4


def _fd_parts(pt, term, finish, mx=max):
    """Value, gradient (a list) and Hessian of ``fd_jet``'s stencil at ``pt``:
    floats, or (k,) columns over k points with ``mx`` the elementwise max.

    A stencil point moves one or two axes of ``pt`` by +-h. ``term(k, x)``
    maps axis k's coordinate x, once at ``pt`` and once per (axis, step)
    pair, and a stencil value is ``finish`` of the n mapped coordinates,
    taken in a fixed order: f0, the +-h pair of each axis, then for each
    axis i its +-h pair and the four corners with each later axis j."""
    n = len(pt)
    shape = getattr(pt[0], "shape", ())
    base = [term(k, x) for k, x in enumerate(pt)]

    def moves(rel):  # (h, (i, term at x_i + h), (i, term at x_i - h)) of each axis i
        return [(h, (i, term(i, x + h)), (i, term(i, x - h)))
                for i, (x, h) in enumerate(zip(pt, [rel * mx(1.0, abs(x)) for x in pt]))]

    def f(*moved):  # finish at pt with the moved axes' terms
        terms = list(base)
        for i, t in moved:
            terms[i] = t
        return finish(terms)

    first, second = moves(FD_REL_FIRST), moves(FD_REL_SECOND)
    f0 = f()
    grad = [(f(up) - f(down)) / (2.0 * h) for h, up, down in first]
    hess = np.zeros((n, n) + shape)
    for i, (h, up, down) in enumerate(second):
        hess[i, i] = (f(up) - 2.0 * f0 + f(down)) / (h * h)
        for j in range(i + 1, n):
            hj, up_j, down_j = second[j]
            hess[i, j] = hess[j, i] = (f(up, up_j) - f(up, down_j) - f(down, up_j)
                                       + f(down, down_j)) / (4.0 * h * hj)
    return f0, grad, hess


def fd_jet(evaluator: Callable[[Sequence[float]], float], point: Sequence[float]) -> Jet2N:
    """Finite-difference jet of a black-box evaluator (truncation order 2).

    Gradient entries come from the two-point central difference, diagonal
    Hessian entries from the 3-point stencil and mixed entries from the
    4-point cross stencil, with the fixed steps ``FD_REL_FIRST`` and
    ``FD_REL_SECOND``, calling the evaluator on one stencil point's list of
    floats at a time. Raises ValidationError for a point with no coordinate,
    and NumericalError naming the stencil point where it leaves the
    evaluator's domain or the evaluator overflows, divides by zero or
    returns a non-finite value, or where an entry is not finite (a stencil
    sum can overflow although every value is finite).
    """
    pt = _coords(point)
    if not pt:
        raise ValidationError("a finite-difference jet needs a point with a coordinate")

    def ev(q):
        try:
            v = float(evaluator(q))
        except DomainError as e:
            raise NumericalError(f"stencil point {tuple(q)!r} left the domain: {e}") from e
        except OverflowError:
            raise NumericalError(f"evaluator overflowed at {tuple(q)!r}") from None
        except ZeroDivisionError:
            raise NumericalError(f"evaluator divided by zero at {tuple(q)!r}") from None
        if not math.isfinite(v):
            raise NumericalError(f"evaluator returned non-finite value at {tuple(q)!r}")
        return v

    f0, grad, hess = _fd_parts(pt, lambda k, x: x, ev)
    if not all(map(math.isfinite, [*grad, *hess.ravel().tolist()])):
        raise NumericalError(f"non-finite finite-difference jet at {tuple(pt)!r}")
    return Jet2N(f0, np.array(grad, dtype=float), hess)


def _fd_point(spec: FunctionSpec, pt: list):
    """``fd_jet(lambda q: _values(spec, q)[2], pt)`` at a list of n floats, bit
    for bit, from the axes' terms; None where that call raises: a guard fails,
    a power overflows, or an entry is not finite (as a non-finite value makes one)."""
    acms = isinstance(spec, Acms)

    def term(k, x):  # axis k's term of _values, with its guard
        if not acms:
            return spec.components[k].value(x)
        if x <= 0.0:
            raise DomainError(f"acms needs strictly positive inputs; x{k + 1} = {x!r}")
        return (spec.betas[k] * x) ** spec.rho

    def finish(terms):  # _values' value from the terms
        core = _term_core(spec, terms)
        u = spec.gamma * core ** (spec.d / spec.rho) if acms else core
        return u if isinstance(spec, Homothetical) else spec.outer.value(u)

    try:
        f0, grad, hess = _fd_parts(pt, term, finish)
    except (DomainError, OverflowError, ZeroDivisionError):
        return None
    if not all(map(math.isfinite, [*grad, *hess.ravel().tolist()])):
        return None
    return Jet2N(f0, np.array(grad, dtype=float), hess)


def _fd_columns(spec: FunctionSpec, points: np.ndarray):
    """``fd_jet(lambda q: evaluate(spec, q), p)`` at every row p of a (k, n)
    point array, as columns: (value (k,), gradient (k, n), Hessian (k, n, n),
    failed (k,)), from ``_fd_parts`` on the columns: five term columns per
    axis, one row map per stencil point, memory O(k n) apart from the
    Hessian. ``failed`` marks the rows with an entry that is not finite (a
    failed stencil value is nan), where that call raises; the rest have its bits."""
    with np.errstate(all="ignore"):  # a failed row's numbers are discarded
        value, grad, hess = _fd_parts(list(points.T), lambda k, x: _term_column(spec, k, x),
                                      lambda terms: _core_value(spec, _term_core(spec, terms))[1],
                                      np.maximum)
    gradient, hessian = np.stack(grad, axis=1), hess.transpose(2, 0, 1)
    failed = ~(np.isfinite(gradient).all(axis=1) & np.isfinite(hessian).all(axis=(1, 2)))
    return value, gradient, hessian, failed


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
             hessian: np.ndarray) -> tuple:
    """``max(norm_rel_gaps(fd_jet(lambda q: evaluate(spec, q), p), exact))``
    at every row p of a (k, n) point array, whose exact jets have the
    gradients (k, n) and Hessians (k, n, n) given, bit for bit, from
    ``_fd_columns``, as (gaps (k,), errors). A row they flag goes through
    ``fd_jet`` itself (``funcspec._per_point``): where that returns, the row
    has its gap; where it raises, errors[i] is its NumericalError (None
    elsewhere) and gaps[i] is not a gap.
    """
    _, fd_gradient, fd_hessian, failed = _fd_columns(spec, points)
    with np.errstate(all="ignore"):
        g = _rel_gap(fd_gradient, gradient, axis=1)
        h = _rel_gap(fd_hessian, hessian, axis=(1, 2))
    gaps = np.where(h > g, h, g)  # max(g, h), which keeps g when either is nan
    done, errors = _per_point(lambda spec, p: fd_jet(lambda q: evaluate(spec, q), p),
                              spec, points, failed)
    for i, approx in done.items():
        gaps[i] = max(norm_rel_gaps(approx, Jet2N(approx.value, gradient[i], hessian[i])))
    return gaps, errors
