"""Second-order differentiation: closed-form jets plus a finite-difference oracle.

A 1-D jet is the triple (value, first derivative, second derivative) of a
component at a point. Multivariate jets are assembled exactly from 1-D jets
through the product and chain rules, never from finite differences;
``fd_jet`` is the independent central-difference route used to cross-check
that assembly. All arithmetic is 64-bit floating point. The assembly takes
floats for one point or, in ``_jet_columns``, numpy columns with one entry
per point (nan where the value pass flags it), with the same operations in
the same order on both; its helpers return Hessian entry rules, which
``_fill`` alone turns into a matrix, once per jet; the product rule's
entries share running products, each in index order from 1.0
(``_product_parts``). The finite-difference stencil is written once the
same way: ``fd_jet`` calls a black-box evaluator per stencil point, and
``_fd_columns`` evaluates a spec at one stencil point of every row at once,
from each axis's term columns formed once per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .funcspec import (_LINEAR_OUTER, Acms, ComponentFn, FunctionSpec, Homothetical, _column_pow,
                       _coords, _core_value, _map_rows, _point, _term_column, _term_core,
                       _value_pass, _values, evaluate)


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
    [x] = _coords((x,))
    try:
        return _factor_jet(c, x, c.value(x))
    except (OverflowError, ZeroDivisionError):  # a denominator that underflowed to 0
        raise NumericalError(f"1-D jet overflowed at x = {x!r}") from None


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
    the next j (``_fill``'s order; any other order rebuilds it) and
    multiplies in the tail past j, so O(n) products stay live. ``mul``
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
    ds = []
    d2s = []
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
    NumericalError where the value or a derivative overflows.
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
    except (OverflowError, ZeroDivisionError):
        raise NumericalError(f"jet assembly overflowed at {tuple(pt)!r}") from None
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

    The value pass runs first, so every guard does too
    (``funcspec._value_pass``, bit for bit as ``funcspec._values``). Each
    axis runs its term and its component's ``derivs`` once per distinct
    coordinate (a grid block holds few distinct values per axis) and gathers
    the results back to the rows. A row whose value is not finite (where
    ``_values`` raises) gets nan coordinates and u before the CES parts or
    the outer map's ``derivs`` run (a power of a negative base would be
    complex), and a coordinate whose term is not finite gets a nan
    coordinate for its ``derivs``; such a row stays flagged. Derivatives run
    through each component's and outer map's own scalar ``derivs``; a linear
    outer map's constant pair is read once and filled into columns. Only
    + - * / run on whole columns, in the order of the scalar assembly, which
    is shared.
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


#: Relative central-difference steps: h = FD_REL_FIRST * max(1, |x_i|) for
#: first derivatives, h = FD_REL_SECOND * max(1, |x_i|) for second ones;
#: they balance truncation against rounding for 64-bit floats.
FD_REL_FIRST = 6e-6
FD_REL_SECOND = 2e-4


def _fd_parts(f, pt, mx=max):
    """Value, gradient (a list) and Hessian of ``fd_jet`` from stencil values.

    ``f(deltas)`` is the function at ``pt`` moved by ``(axis, step)`` pairs
    (``()`` for ``pt`` itself); it is called in a fixed order: f0, the
    +-h pair of each axis, then for each axis i its +-h pair and the four
    corners with each later axis j. Each axis's four moves (+-h for first
    and for second derivatives) are formed once, so every call that moves
    an axis by a step hands ``f`` the same pair object. ``pt`` holds floats,
    or (k,) columns with ``mx`` taking the elementwise maximum.
    """
    n = len(pt)
    shape = getattr(pt[0], "shape", ())

    def moves(rel):  # (h, (i, h), (i, -h)) of each axis i
        return [(h, (i, h), (i, -h)) for i, h in enumerate([rel * mx(1.0, abs(x)) for x in pt])]

    first, second = moves(FD_REL_FIRST), moves(FD_REL_SECOND)
    f0 = f(())
    grad = [(f((up,)) - f((down,))) / (2.0 * h) for h, up, down in first]
    hess = np.zeros((n, n) + shape)
    for i, (h, up, down) in enumerate(second):
        hess[i, i] = (f((up,)) - 2.0 * f0 + f((down,))) / (h * h)
        for j in range(i + 1, n):
            hj, up_j, down_j = second[j]
            hess[i, j] = hess[j, i] = (f((up, up_j)) - f((up, down_j))
                                       - f((down, up_j))
                                       + f((down, down_j))) / (4.0 * h * hj)
    return f0, grad, hess


def fd_jet(evaluator: Callable[[Sequence[float]], float], point: Sequence[float]) -> Jet2N:
    """Finite-difference jet of a black-box evaluator (truncation order 2).

    Gradient entries come from the two-point central difference, diagonal
    Hessian entries from the 3-point stencil and mixed entries from the
    4-point cross stencil, with the fixed steps ``FD_REL_FIRST`` and
    ``FD_REL_SECOND``. The evaluator is called one stencil point at a time.
    Raises NumericalError when a stencil point leaves the evaluator's
    domain, the evaluator returns a non-finite value, or a gradient or
    Hessian entry is not finite (a stencil sum can overflow although every
    value is finite).
    """
    pt = _coords(point)

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
    if not all(map(math.isfinite, [*grad, *hess.ravel().tolist()])):
        raise NumericalError(f"non-finite finite-difference jet at {tuple(pt)!r}")
    return Jet2N(f0, np.array(grad, dtype=float), hess)


def _fd_columns(spec: FunctionSpec, points: np.ndarray):
    """``fd_jet(lambda q: evaluate(spec, q), p)`` at every row p of a (k, n)
    point array, as columns: (value (k,), gradient (k, n), Hessian (k, n, n),
    failed (k,)).

    Each axis's term column (``funcspec._term_column``) is evaluated five
    times per block: at the points and at each of its four moved
    coordinates, x_i +- h for first and for second derivatives (a moved
    coordinate is the same add whichever stencil asks for it). Each stencil
    point then combines the cached columns of all rows at once
    (``funcspec._term_core``) and finishes its own row map
    (``funcspec._core_value``), so memory stays O(k n) apart from the
    Hessian. ``failed`` marks the rows with a gradient or Hessian entry that
    is not finite, which is where that ``fd_jet`` call raises: every stencil
    value enters some entry, so a stencil point that fails the value pass
    (nan) makes one so too. Every other row has its bits.
    """
    moved = {}  # id of an (axis, step) pair of _fd_parts -> its term column

    def ev(deltas):
        terms = list(base)
        for move in deltas:
            idx, dh = move
            if id(move) not in moved:  # _fd_parts keeps each pair alive
                moved[id(move)] = _term_column(spec, idx, points[:, idx] + dh)
            terms[idx] = moved[id(move)]
        return _core_value(spec, _term_core(spec, terms))[1]

    with np.errstate(all="ignore"):  # a failed row's numbers are discarded
        base = [_term_column(spec, k, col) for k, col in enumerate(points.T)]
        value, grad, hess = _fd_parts(ev, list(points.T), np.maximum)
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
             hessian: np.ndarray) -> np.ndarray:
    """``max(norm_rel_gaps(fd_jet(lambda q: evaluate(spec, q), p), exact))``
    at every row p of a (k, n) point array, whose exact jets have the
    gradients (k, n) and Hessians (k, n, n) given, bit for bit.

    The FD jets are formed in columns (``_fd_columns``). A row they flag goes
    through ``fd_jet`` itself, in row order, which raises that row's
    NumericalError; so the first such row decides the error.
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
