"""Graph-hypersurface geometry: Hessians, determinants, Gauss-Kronecker curvature.

For the graph of f in (n+1)-space the Gauss-Kronecker curvature is

    G = det(H(f)) / omega^(n+2),   omega = sqrt(1 + sum_i (df/dx_i)^2),

so omega >= 1 always and a developable graph is one with G identically zero.
For product-form (homothetical) specs the Hessian determinant additionally
has a closed form in the component log-derivatives; the partial-pivot LU
determinant stays available as an independent oracle against it.
``gauss_kronecker_batch`` computes many points at once, bit for bit as
``gauss_kronecker`` point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericalError, ProdgeomError, SpecError, ValidationError
from .funcspec import FunctionSpec, Homothetical, _column_pow, _point
from .jets import Jet2N, _jet_columns, jet1d, jet_multivariate
from .sampling import points_loguniform


def plu_det(matrix: np.ndarray) -> float:
    """Determinant by Gaussian elimination with partial pivoting.

    Matrices here are small dense symmetric blocks (n <= ~10); no blocking
    or scaling refinements are needed at that size.
    """
    m = np.array(matrix, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValidationError(f"determinant needs a square matrix, got {m.shape}")
    det = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        if m[p, k] == 0.0:
            return 0.0
        if p != k:
            m[[k, p]] = m[[p, k]]
            det = -det
        det *= m[k, k]
        if k + 1 < n:
            m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k] / m[k, k], m[k, k + 1:])
    return float(det)


def plu_dets(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (k, m, m) stack of matrices, bit for bit as ``plu_det``.

    Each matrix goes through the same first-max pivots, full-row swaps and
    floating-point operations, in the same order, as a ``plu_det`` call on it
    alone, so ``plu_dets(stack)[i]`` has the bits of ``plu_det(stack[i])``
    (0.0 for a matrix that meets a zero pivot). The Python loop runs over
    elimination steps rather than matrices, which pays off for many minors
    of one matrix; for a single matrix ``plu_det`` is faster.
    """
    m = np.array(stack, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValidationError(f"stacked determinant needs a (k, m, m) array, got {m.shape}")
    n = m.shape[1]
    rows = np.arange(m.shape[0])
    det = np.ones(m.shape[0])
    live = np.ones(m.shape[0], dtype=bool)
    for k in range(n):
        p = k + np.argmax(np.abs(m[:, k:, k]), axis=1)
        dead = m[rows, p, k] == 0.0
        if dead.any():
            # zeroing a finished matrix keeps its later steps free of inf/nan
            m[dead] = 0.0
            live &= ~dead
        swap = p != k
        top = m[:, k].copy()
        m[:, k] = m[rows, p]
        m[rows, p] = top
        det[swap] = -det[swap]
        det *= m[:, k, k]
        if k + 1 < n:
            pivot = np.where(live, m[:, k, k], 1.0)
            m[:, k + 1:, k + 1:] -= (m[:, k + 1:, k] / pivot[:, None])[:, :, None] \
                * m[:, k, None, k + 1:]
    det[~live] = 0.0
    return det


def det_scale(matrix: np.ndarray) -> float:
    """Magnitude scale for a determinant: product of the row max-norms.

    Zero tests on determinants are taken relative to this scale, which bounds
    the magnitude of any single expansion term.
    """
    m = np.asarray(matrix, dtype=float)
    return float(np.prod(np.max(np.abs(m), axis=1)))


def hessian(spec: FunctionSpec, point: Sequence[float]) -> np.ndarray:
    """Symmetric Hessian matrix of the spec at the point (exact assembly)."""
    return jet_multivariate(spec, point).hessian


def hessian_det_direct(spec: FunctionSpec, point: Sequence[float]) -> float:
    """Hessian determinant via partial-pivot elimination (the oracle route)."""
    return plu_det(hessian(spec, point))


def _closed_form(jets, pw=pow):
    """The closed form of ``hessian_det_closed`` on the factors' 1-D jets,
    whose values must be nonzero when n > 1. The slots are floats, or
    columns with ``pw`` applying ``**`` row by row."""
    n = len(jets)
    if n == 1:
        return jets[0].d2
    # r_i = (f_i'/f_i)'
    r = [(j.d2 * j.value - j.d1 * j.d1) / (j.value * j.value) for j in jets]
    f = 1.0
    for j in jets:
        f *= j.value
    prod_tail = 1.0
    for i in range(1, n):
        prod_tail *= r[i]
    term1 = (jets[0].d2 / jets[0].value) * prod_tail
    acc = 0.0
    for i in range(1, n):
        partial = 1.0
        for k in range(1, n):
            if k != i:
                partial *= r[k]
        acc += pw(jets[i].d1 / jets[i].value, 2) * partial
    return pw(f, n) * (term1 + r[0] * acc)


def _closed_det(jets, point) -> float:
    """``_closed_form`` at one point; ``point`` only names it in a message."""
    if len(jets) > 1:
        for k, j in enumerate(jets):
            if j.value == 0.0:
                raise DomainError(
                    f"closed-form determinant undefined where component {k + 1} vanishes")
    try:
        return _closed_form(jets)
    except OverflowError:
        raise NumericalError(
            f"closed-form determinant overflowed at {tuple(map(float, point))!r}") from None
    except ZeroDivisionError:  # a factor's square underflowed to 0
        raise NumericalError(
            f"closed-form determinant underflowed at {tuple(map(float, point))!r}") from None


def hessian_det_closed(spec: FunctionSpec, point: Sequence[float]) -> float:
    """Closed-form Hessian determinant for product specs.

    det H = f^n * [ (f1''/f1) * prod_{i>=2} r_i
                    + r_1 * sum_{i>=2} (f_i'/f_i)^2 * prod_{k>=2, k!=i} r_k ]

    where r_i = (f_i'/f_i)' is evaluated as (f_i'' f_i - f_i'^2) / f_i^2 to
    avoid cancellation when f_i'/f_i is large. Needs every component value
    nonzero at the point (DomainError otherwise); n = 1 reduces to f1''.
    ``gauss_kronecker`` applies the same closed form to its jet's factors.
    """
    if not isinstance(spec, Homothetical):
        raise SpecError(f"closed-form determinant needs a homothetical spec, got {spec.kind}")
    pt = _point(spec, point)
    return _closed_det([jet1d(c, x) for c, x in zip(spec.components, pt)], pt)


@dataclass(frozen=True)
class CurvatureRecord:
    """Curvature quantities of the graph of a spec at one point.

    ``gk_curvature`` equals ``hessian_det / omega ** (n + 2)`` by
    construction, with omega >= 1 always. ``jet`` is the one jet every
    field was read from; ``value`` is its value slot.
    """

    omega: float
    hessian_det: float
    gk_curvature: float
    n: int
    jet: Jet2N = field(compare=False, repr=False)

    @property
    def value(self) -> float:
        return self.jet.value


# numpy's overflow warnings are silenced: a non-finite result raises NumericalError
@np.errstate(all="ignore")
def gauss_kronecker(spec: FunctionSpec, point: Sequence[float]) -> CurvatureRecord:
    """Gauss-Kronecker curvature of the graph of the spec at the point.

    For homothetical specs the determinant uses the closed form on the jet's
    own factor jets, falling back to the LU route at points where the closed
    form fails: a factor value is exactly zero (the closed form divides by
    factor values), or the closed form overflows, underflows or is not
    finite; other kinds use the LU route. Raises NumericalError where omega,
    the determinant or the curvature overflows or is not finite.
    """
    jet = jet_multivariate(spec, point)
    n = jet.n
    omega = math.sqrt(1.0 + float(np.dot(jet.gradient, jet.gradient)))
    det = math.nan
    if jet.factors is not None:
        try:
            det = _closed_det(jet.factors, point)
        except (DomainError, NumericalError):
            pass
    if not math.isfinite(det):
        det = plu_det(jet.hessian)
    try:
        gk = det / omega ** (n + 2)
    except OverflowError:
        raise NumericalError(
            f"omega^{n + 2} overflowed at {tuple(map(float, point))!r}") from None
    if not (math.isfinite(omega) and math.isfinite(det) and math.isfinite(gk)):
        raise NumericalError(f"non-finite omega, determinant or curvature at "
                             f"{tuple(map(float, point))!r}")
    return CurvatureRecord(omega=omega, hessian_det=det, gk_curvature=gk, n=n, jet=jet)


class CurvatureBlock(NamedTuple):
    """Curvature quantities of a spec at m points, one row per point.

    Row i of each column has the bits of ``gauss_kronecker(spec, points[i])``:
    ``value`` (m,), ``gradient`` (m, n), ``hessian`` (m, n, n), ``omega``,
    ``hessian_det`` and ``gk_curvature`` (m,). ``errors[i]`` is the error
    that call raises (None where it returns); that row's numbers are nan.
    """

    value: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray
    omega: np.ndarray
    hessian_det: np.ndarray
    gk_curvature: np.ndarray
    errors: tuple


def gauss_kronecker_batch(spec: FunctionSpec, points) -> CurvatureBlock:
    """``gauss_kronecker`` at every row of an (m, n) point array, bit for bit.

    The jets are formed column by column (``jets._jet_columns``); omega, the
    closed-form determinant and the curvature follow on whole columns, and
    the LU route (other kinds, rows where the closed form fails) runs once
    on the stacked Hessians (``plu_dets``). Transcendentals stay on Python
    floats, row by row. A row the columns cannot reproduce exactly (a guard
    fails, a power overflows, a result is not finite) goes back through
    ``gauss_kronecker`` itself, in input order, which gives its result or
    its error.
    """
    x = np.array(points, dtype=float)
    n = spec.n
    if x.ndim != 2 or x.shape[1] != n:
        raise ValidationError(
            f"points must form an (m, {n}) array for a spec with {n} variables, "
            f"got shape {x.shape}")
    m = len(x)
    value, omega, det, gk = (np.full(m, math.nan) for _ in range(4))
    gradient = np.full((m, n), math.nan)
    hessian = np.full((m, n, n), math.nan)
    errors = [None] * m
    with np.errstate(all="ignore"):  # rows that go non-finite are redone one by one
        rows, v, g, h, factors, ok = _jet_columns(spec, x)
        if len(rows):
            om = np.sqrt(1.0 + np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
            if factors is None:
                d = plu_dets(h)
            else:
                d = _closed_form(factors, _column_pow)
                lu = ~np.isfinite(d)
                if n > 1:
                    lu |= np.logical_or.reduce([j.value == 0.0 for j in factors])
                if lu.any():
                    d[lu] = plu_dets(h[lu])
            curv = d / _column_pow(om, n + 2)
            ok &= np.isfinite(om) & np.isfinite(d) & np.isfinite(curv)
            done = rows[ok]
            value[done], gradient[done], hessian[done] = v[ok], g[ok], h[ok]
            omega[done], det[done], gk[done] = om[ok], d[ok], curv[ok]
        redo = np.ones(m, dtype=bool)
        redo[rows[ok]] = False
        for i in np.flatnonzero(redo).tolist():
            try:
                rec = gauss_kronecker(spec, x[i])
            except ProdgeomError as e:
                errors[i] = e
                continue
            value[i], gradient[i], hessian[i] = rec.value, rec.jet.gradient, rec.jet.hessian
            omega[i], det[i], gk[i] = rec.omega, rec.hessian_det, rec.gk_curvature
    return CurvatureBlock(value, gradient, hessian, omega, det, gk, tuple(errors))


def is_developable(spec: FunctionSpec, sample_points=None, tol: float = 1e-8,
                   seed: int = 42):
    """(max |G| over samples <= tol, that max).

    Default samples are 50 seeded log-uniform points in [0.5, 2]^n.
    """
    if sample_points is None:
        sample_points = points_loguniform(spec.n, 50, seed)
    sample_points = list(sample_points)
    if not sample_points:
        raise ValidationError("developability test needs at least one sample point")
    max_g = max(abs(gauss_kronecker(spec, p).gk_curvature) for p in sample_points)
    return max_g <= tol, max_g
