"""Graph-hypersurface geometry: Hessians, determinants, Gauss-Kronecker curvature.

For the graph of f in (n+1)-space the Gauss-Kronecker curvature is

    G = det(H(f)) / omega^(n+2),   omega = sqrt(1 + sum_i (df/dx_i)^2),

so omega >= 1 always and a developable graph is one with G identically zero.
For product-form (homothetical) specs the Hessian determinant additionally
has a closed form in the component log-derivatives; the partial-pivot LU
determinant stays available as an independent oracle against it: ``plu_det``
on one matrix (on Python floats up to order 25), ``plu_dets`` on a stack, bit for bit alike.
``gauss_kronecker_batch`` computes many points at once, bit for bit as
``gauss_kronecker`` point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericalError, SpecError, ValidationError
from .funcspec import (FunctionSpec, Homothetical, _column_pow, _per_point, _point, _point_rows,
                       _values)
from .jets import Jet1, Jet2N, _factor_jet, _jet_columns, jet_multivariate
from .sampling import points_loguniform


#: The widest matrix ``plu_det`` eliminates on Python floats; ``plu_dets`` takes wider ones.
_SCALAR_LU_MAX = 25


def _float_matrices(a, ndim: int, rule: str) -> np.ndarray:
    # a as a float array of ndim axes, the last two equal; complex, text or object dtypes refused
    try:
        m = np.asarray(a)
    except ValueError:  # ragged rows
        raise ValidationError(f"{rule} of real numbers, got {a!r:.60}") from None
    if m.dtype.kind not in "biuf" or m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{rule} of real numbers, got {m.dtype} of shape {m.shape}")
    return m.astype(float, copy=False)


def plu_det(matrix: np.ndarray) -> float:
    """Determinant by Gaussian elimination with partial pivoting.

    Step k pivots on the first largest |a_ik| (the first nan wins, as in
    ``np.argmax``; a zero gives 0.0), swaps whole rows (det flips sign), sets
    det *= pivot and makes each lower row r x - (r[k] / pivot) * u, u the pivot
    row. It runs on Python floats: at the orders met here (n + 1 <= ~11) a
    vectorised step's numpy calls cost more than its arithmetic. Past order
    ``_SCALAR_LU_MAX``, the crossover measured on a 2-core x86 host, ``plu_dets``
    takes the matrix as a stack of one: the same steps, the same bits.
    """
    m = _float_matrices(matrix, 2, "determinant needs a square (n, n) array")
    if len(m) > _SCALAR_LU_MAX:
        return float(plu_dets(m[None])[0])
    rows, det = m.tolist(), 1.0
    while rows:  # step k on the trailing (n - k)-square block
        p = 0
        for i in range(1, len(rows)):  # the first largest |a_ik|, or the first nan
            a, big = abs(rows[i][0]), abs(rows[p][0])
            if big == big and (a > big or a != a):
                p = i
        pivot = rows[p][0]
        if pivot == 0.0:
            return 0.0
        if p:
            rows[0], rows[p], det = rows[p], rows[0], -det
        det *= pivot
        u, rest = rows[0][1:], []
        for r in rows[1:]:
            f = r[0] / pivot
            rest.append([x - f * y for x, y in zip(r[1:], u)])
        rows = rest
    return det  # overflow is inf and inf / inf nan, quietly: Python floats never warn


@np.errstate(all="ignore")  # overflow is inf and inf / inf nan, quietly, as in plu_det
def plu_dets(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (k, m, m) stack of matrices, bit for bit as ``plu_det``.

    Each matrix goes through the same first-max pivots, full-row swaps and
    floating-point operations, in the same order, as a ``plu_det`` call on it
    alone, so ``plu_dets(stack)[i]`` has the bits of ``plu_det(stack[i])``
    (0.0 for a matrix that meets a zero pivot), whatever its neighbours hold.
    The Python loop runs over elimination steps, each updating one (m, m, k)
    copy with the stack axis last in place, which pays off for many minors.
    """
    s = _float_matrices(stack, 3, "stacked determinant needs a (k, m, m) array")
    count, n = s.shape[:2]
    m = s.transpose(1, 2, 0).copy()
    stacked, det = np.arange(count), np.ones(count)
    scratch = np.empty_like(m[1:, 1:])
    for k in range(n):
        p = k + np.argmax(np.abs(m[k:, k]), axis=0)
        pivot = m[p, k, stacked]
        if not pivot.all():  # det 0.0, and the matrix runs on as the identity
            dead = pivot == 0.0
            m[:, :, dead] = np.eye(n)[:, :, None]
            det[dead], pivot[dead] = 0.0, 1.0
        swap = p != k
        if swap.any():
            top = m[p, :, stacked]
            m[p, :, stacked] = m[k].T
            m[k] = top.T
            np.negative(det, out=det, where=swap)
        det *= pivot
        if k + 1 < n:
            update = scratch[:n - k - 1, :n - k - 1]
            np.multiply((m[k + 1:, k] / pivot)[:, None], m[k, None, k + 1:], out=update)
            np.subtract(m[k + 1:, k + 1:], update, out=m[k + 1:, k + 1:])
    return det


@np.errstate(all="ignore")  # a product that overflows is inf, quietly
def det_scale(matrix: np.ndarray):
    """Magnitude scale for a determinant: product of the row max-norms.

    It bounds the magnitude of any single expansion term; every zero test on
    a determinant reads it through ``_det_ratios``. A (k, m, m) stack gives
    k scales.
    """
    scale = np.prod(np.max(np.abs(np.asarray(matrix, dtype=float)), axis=-1), axis=-1)
    return float(scale) if scale.ndim == 0 else scale


def _det_ratios(det, matrix):
    """|det| / ``det_scale(matrix)`` by one code path for one matrix (a float)
    and a (k, m, m) stack (a (k,) array): the package's one zero test on
    determinants. An exact-zero det reads 0.0, a zero (underflowed) scale gives
    inf, and a nan ratio (det and scale both overflow) reads inf: it shows no zero."""
    with np.errstate(all="ignore"):  # x / 0 and inf / inf come out inf and nan, quietly
        ratio = np.abs(det) / det_scale(matrix)
    ratio = np.where(det == 0.0, 0.0, np.where(np.isnan(ratio), math.inf, ratio))
    return float(ratio) if ratio.ndim == 0 else ratio


def hessian_det_direct(spec: FunctionSpec, point: Sequence[float]) -> float:
    """Hessian determinant via partial-pivot elimination (the oracle route).
    Raises NumericalError where it is not finite (an overflow, quietly inf)."""
    det = plu_det(jet_multivariate(spec, point).hessian)
    if not math.isfinite(det):
        raise NumericalError(f"non-finite LU determinant at {tuple(map(float, point))!r}")
    return det


def _closed_form(jets, pw=pow, squares=None):
    """The closed form of ``hessian_det_closed`` on the factors' 1-D jets:
    floats, or columns with ``pw`` applying ``**`` row by row, where
    ``squares[i - 1]`` may give each (f_i'/f_i)^2 for i >= 1. A zero factor
    value (n > 1) raises ZeroDivisionError on floats and gives nan on columns."""
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
        acc += (pw(jets[i].d1 / jets[i].value, 2) if squares is None else squares[i - 1]) * partial
    return pw(f, n) * (term1 + r[0] * acc)


def hessian_det_closed(spec: FunctionSpec, point: Sequence[float]) -> float:
    """Closed-form Hessian determinant for product specs.

    det H = f^n * [ (f1''/f1) * prod_{i>=2} r_i
                    + r_1 * sum_{i>=2} (f_i'/f_i)^2 * prod_{k>=2, k!=i} r_k ]

    where r_i = (f_i'/f_i)' is evaluated as (f_i'' f_i - f_i'^2) / f_i^2 to
    avoid cancellation when f_i'/f_i is large. The factor jets come from the
    value pass (``funcspec._values``), as in ``jet_multivariate``, so a
    domain guard outranks a derivative's overflow. Needs every component
    value nonzero at the point (DomainError otherwise); n = 1 reduces to
    f1''. NumericalError where the value or a factor jet is not finite, where
    it overflows, or where a factor's square underflows to 0.
    ``gauss_kronecker`` applies the same closed form to its jet's factors.
    """
    if not isinstance(spec, Homothetical):
        raise SpecError(f"closed-form determinant needs a homothetical spec, got {spec.kind}")
    pt = _point(spec, point)
    parts = _values(spec, pt)[0]
    try:
        jets = [_factor_jet(c, x, v) for c, x, v in zip(spec.components, pt, parts)]
        if len(jets) > 1 and 0.0 in parts:
            raise DomainError(f"closed-form determinant undefined where component "
                              f"{parts.index(0.0) + 1} vanishes")
        det = _closed_form(jets)
    except OverflowError:
        raise NumericalError(f"closed-form determinant overflowed at {tuple(pt)!r}") from None
    except ZeroDivisionError:  # a denominator (a factor's square, x^2) underflowed to 0
        raise NumericalError(f"closed-form determinant underflowed at {tuple(pt)!r}") from None
    if not math.isfinite(det):  # a product overflows to inf quietly; inf * -0.0 is nan
        raise NumericalError(f"non-finite closed-form determinant at {tuple(pt)!r}")
    return det


@dataclass(frozen=True)
class CurvatureRecord:
    """Curvature quantities of the graph of a spec at one point.

    ``gk_curvature`` equals ``hessian_det / omega ** (n + 2)`` by
    construction (n is ``jet.n``), with omega >= 1 always. ``jet`` is the
    one jet every field was read from; ``value`` is its value slot.
    """

    omega: float
    hessian_det: float
    gk_curvature: float
    jet: Jet2N = field(compare=False, repr=False)

    @property
    def value(self) -> float:
        return self.jet.value


# numpy's overflow warnings are silenced: a non-finite result raises NumericalError
@np.errstate(all="ignore")
def gauss_kronecker(spec: FunctionSpec, point: Sequence[float]) -> CurvatureRecord:
    """Gauss-Kronecker curvature of the graph of the spec at the point.

    The determinant follows one rule: for homothetical specs, the closed
    form on the jet's own factor jets where it is finite, and the LU route
    everywhere else. The closed form fails where a factor value is exactly
    zero (it divides by factor values) or where it overflows, underflows or
    is not finite; other kinds have no closed form. Raises NumericalError
    where omega, the determinant or the curvature overflows or is not finite.
    """
    jet = jet_multivariate(spec, point)
    n = jet.n
    omega = math.sqrt(1.0 + float(np.dot(jet.gradient, jet.gradient)))
    det = math.nan
    if jet.factors is not None:
        try:
            det = _closed_form(jet.factors)
        except (OverflowError, ZeroDivisionError):
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
    return CurvatureRecord(omega=omega, hessian_det=det, gk_curvature=gk, jet=jet)


def _squared_norms(gradient: np.ndarray) -> np.ndarray:
    # g . g of every row of an (m, n) array, with the bits of float(np.dot(g, g));
    # matmul's bits depend on the memory layout, so it runs on a C-ordered array
    gradient = np.ascontiguousarray(gradient)
    return np.matmul(gradient[:, None, :], gradient[:, :, None])[:, 0, 0]


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

    The jets are formed column by column, one entry per row
    (``jets._jet_columns``); omega, the determinant and the curvature follow
    on whole columns by ``gauss_kronecker``'s one rule, with the LU route run
    once on the stacked Hessians (``plu_dets``). Transcendentals stay on
    Python floats: each axis's terms and component derivatives once per
    distinct coordinate of the block (a grid block repeats each value over
    many rows), the closed form's squares (f_i'/f_i)^2 once per distinct
    coordinate too, the rest row by row. A row the columns cannot reproduce exactly (a
    guard fails, a power overflows, a result is not finite) is set to nan
    and goes back through ``gauss_kronecker`` itself, in input order, which
    gives its result or its error.
    """
    x, n = _point_rows(spec, points), spec.n
    with np.errstate(all="ignore"):  # rows that go non-finite are redone one by one
        value, gradient, hessian, factors, ok = _jet_columns(spec, x)
        omega = np.sqrt(1.0 + _squared_norms(gradient))
        if factors is None:
            det = plu_dets(hessian)
        else:
            # the squares once per distinct coordinate, whose rows share their bits
            squares = [_column_pow(f.d1 / f.value, 2)[index] for f, index in factors[1:]]
            det = _closed_form([Jet1(f.value[index], f.d1[index], f.d2[index])
                                for f, index in factors], _column_pow, squares)
            lu = ~np.isfinite(det)
            if lu.any():
                det[lu] = plu_dets(hessian[lu])
        gk = det / _column_pow(omega, n + 2)
        failed = ~(ok & np.isfinite(omega) & np.isfinite(det) & np.isfinite(gk))
        for column in (value, gradient, hessian, omega, det, gk):
            column[failed] = math.nan
        done, errors = _per_point(gauss_kronecker, spec, x, failed)
        for i, rec in done.items():
            value[i], gradient[i], hessian[i] = rec.value, rec.jet.gradient, rec.jet.hessian
            omega[i], det[i], gk[i] = rec.omega, rec.hessian_det, rec.gk_curvature
    return CurvatureBlock(value, gradient, hessian, omega, det, gk, tuple(errors))


def is_developable(spec: FunctionSpec, sample_points=None, tol: float = 1e-8,
                   seed: int = 42):
    """(max |G| over samples <= tol, that max).

    Default samples are 50 seeded log-uniform points in [0.5, 2]^n. The
    curvatures come from one ``gauss_kronecker_batch`` call, bit for bit as
    ``gauss_kronecker`` point by point. Every sample point is checked first
    (``funcspec._point_rows``), then the first row error is raised.
    """
    if sample_points is None:
        sample_points = points_loguniform(spec.n, 50, seed)
    sample_points = list(sample_points)
    if not sample_points:
        raise ValidationError("developability test needs at least one sample point")
    block = gauss_kronecker_batch(spec, sample_points)
    for error in block.errors:
        if error is not None:
            raise error
    max_g = max(abs(gk) for gk in block.gk_curvature.tolist())
    return max_g <= tol, max_g
