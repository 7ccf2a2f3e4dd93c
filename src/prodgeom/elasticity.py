"""Hicks and Allen elasticities of substitution and the bordered Hessian.

The Hicks elasticity of variable i with respect to j is

              1/(x_i f_i) + 1/(x_j f_j)
    H_ij = - ----------------------------------------------
              f_ii/f_i^2 - 2 f_ij/(f_i f_j) + f_jj/f_j^2

with f_i the first and f_ij the second partials. The Allen-Uzawa elasticity
divides the signed cofactor of the f_ij entry of the bordered Hessian by the
bordered determinant:

    A_ij = (sum_k x_k f_k) / (x_i x_j) * C_ij / det(H^B)

where H^B has a zero corner, the gradient as border row/column and the
Hessian as inner block. Only the cofactors an Allen entry reads are formed:
the strict upper triangle's n(n-1)/2, at points where the bordered matrix is
not singular, from one stacked partial-pivot elimination (``plu_dets``) that
matches a per-minor ``plu_det`` bit for bit. For two variables the two measures
coincide; both are invariant under smooth monotone outer transforms F(u) with
nonzero slope, for every n (C_ij / det(H^B) scales by 1/F', the weight by F').
Indices are 1-based; elasticities live on the strictly positive orthant.

Two numeric confirmations of ``classify``'s symbolic results live here:
``ces_probe`` (one constant Hicks elasticity, Theorem 5.1) and
``check_corollary42`` (Corollary 4.2: with an exponential component, zero
curvature exactly where the bordered matrix is singular).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (AllenUndefined, DomainError, HicksUndefined, NumericalError, SpecError,
                     ValidationError, ZeroGradientError)
from .funcspec import ExpFn, FunctionSpec, Homothetical, _per_point, _point, _point_rows
from .geometry import _det_ratios, gauss_kronecker_batch, plu_det, plu_dets
from .jets import Jet2N, _jet_columns, jet_multivariate
from .sampling import points_loguniform

#: Denominators and bordered determinants are declared zero below this,
#: relative to the magnitude sum (or scale) of their constituent terms.
SINGULARITY_REL = 1e-12


def _positive_point(spec: FunctionSpec, point: Sequence[float]) -> list:
    pt = _point(spec, point)
    for k, x in enumerate(pt):
        if x <= 0.0:
            raise DomainError(
                f"elasticities are defined on the positive orthant; x{k + 1} = {x!r}")
    return pt


def _positive_rows(x: np.ndarray) -> np.ndarray:
    # _positive_point's guard on each row of an (m, n) point array
    return np.min(x, axis=1) > 0.0


def _pair(spec: FunctionSpec, i: int, j: int):
    # an index is what operator.index accepts (numpy integers too), not a bool
    try:
        if isinstance(i, bool) or isinstance(j, bool):
            raise TypeError
        i, j = operator.index(i), operator.index(j)
    except TypeError:
        raise ValidationError(f"pair indices must be integers, got ({i!r},{j!r})") from None
    if not (1 <= i <= spec.n and 1 <= j <= spec.n):
        raise ValidationError(f"pair ({i},{j}) out of range for {spec.n} variables")
    if i == j:
        raise ValidationError(f"elasticity needs two distinct variables, got ({i},{j})")
    return i - 1, j - 1


def _hicks_parts(xa, xb, fa, fb, faa, fab, fbb, div=operator.truediv):
    """(num, den, undefined) of H_ab = -num / den, where ``undefined`` is the zero test:
    on floats a zero product raises ZeroDivisionError, on columns ``div`` gives nan."""
    num = div(1.0, xa * fa) + div(1.0, xb * fb)
    t1 = div(faa, fa * fa)
    t2 = div(2.0 * fab, fa * fb)
    t3 = div(fbb, fb * fb)
    den = t1 - t2 + t3
    return num, den, abs(den) <= SINGULARITY_REL * (abs(t1) + abs(t2) + abs(t3))


def _allen_entry(weight, xa, xb, cofactor, det):
    # A_ab from the weight sum_k x_k f_k, on floats or columns as in _hicks_parts
    return weight / (xa * xb) * cofactor / det


def _hicks_from_jet(grad: list, hess: list, pt, a: int, b: int) -> float:
    # H_ab from a jet's gradient and Hessian as Python lists (tolist(), once
    # per jet); canonical ordering makes H_ij == H_ji bit for bit
    a, b = (a, b) if a < b else (b, a)
    fa, fb = grad[a], grad[b]
    for k, f in ((a, fa), (b, fb)):
        if f == 0.0:
            raise ZeroGradientError(f"partial derivative {k + 1} vanishes at {tuple(pt)!r}")
    try:
        num, den, undefined = _hicks_parts(pt[a], pt[b], fa, fb, hess[a][a], hess[a][b],
                                           hess[b][b])
    except ZeroDivisionError:  # the partials are nonzero but their products underflow
        raise ZeroGradientError(
            f"partial derivatives {a + 1} and {b + 1} underflow at {tuple(pt)!r}") from None
    if undefined:
        raise HicksUndefined(
            f"denominator vanishes for pair ({a + 1},{b + 1}) at {tuple(pt)!r}")
    h = -num / den
    if math.isinf(h):
        raise NumericalError(
            f"infinite Hicks elasticity for pair ({a + 1},{b + 1}) at {tuple(pt)!r}")
    return h


def hicks(spec: FunctionSpec, point: Sequence[float], i: int, j: int) -> float:
    """Hicks elasticity H_ij at a point (i != j, 1-based).

    Raises ZeroGradientError when a needed partial vanishes,
    HicksUndefined when the denominator is zero relative to its terms and
    NumericalError where H_ij is infinite.
    """
    a, b = _pair(spec, i, j)
    pt = _positive_point(spec, point)
    jet = jet_multivariate(spec, pt)
    return _hicks_from_jet(jet.gradient.tolist(), jet.hessian.tolist(), pt, a, b)


def _bordered(gradient: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    # the bordered matrix, or an (m, n+1, n+1) stack of them
    border = np.zeros(gradient.shape[:-1] + (gradient.shape[-1] + 1,) * 2)
    border[..., 0, 1:] = border[..., 1:, 0] = gradient
    border[..., 1:, 1:] = hessian
    return border


def _bordered_ratios(gradient: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    # the _det_ratios of the bordered matrix of each row of (m, n) gradients
    # and (m, n, n) Hessians, bit for bit those of plu_det's determinants
    border = _bordered(gradient, hessian)
    return _det_ratios(plu_dets(border), border)


def bordered_hessian(spec: FunctionSpec, point: Sequence[float]):
    """Bordered Hessian and its determinant: ((n+1)x(n+1) matrix, det).

    Row and column 0 hold (0, f_1, ..., f_n); the inner block is the Hessian.
    The determinant uses partial-pivot elimination.
    """
    jet = jet_multivariate(spec, _positive_point(spec, point))
    border = _bordered(jet.gradient, jet.hessian)
    return border, plu_det(border)


@functools.lru_cache(maxsize=16)
def _minor_index(n: int):
    # the (rows, cols, signs) that cut each strict-upper inner entry's minor,
    # in np.triu_indices order, out of the (n+1)x(n+1) bordered matrix; the
    # arrays are shared by every caller, so they are read-only
    a, b = np.triu_indices(n, 1)
    keep = np.array([[r for r in range(n + 1) if r != c + 1] for c in range(n)])
    table = keep[a, :, None], keep[b, None, :], np.where((a + b) % 2, -1.0, 1.0)
    for t in table:
        t.setflags(write=False)
    return table


#: Most minors per ``plu_dets`` call, 8 rows' at n = 10: a 2,048-row block's would take 74 MB.
COFACTOR_STACK = 400


def _cofactors(border: np.ndarray) -> np.ndarray:
    # the (m, pairs) signed cofactors of the strict-upper inner entries (as in
    # _minor_index) of an (m, n+1, n+1) stack, bit for bit per-minor plu_det
    n = border.shape[-1] - 1
    rows, cols, signs = _minor_index(n)
    step = max(1, COFACTOR_STACK // max(1, len(signs)))  # n = 1 has no upper entry
    dets = [plu_dets(border[s:s + step, rows, cols].reshape(-1, n, n))
            for s in range(0, len(border), step)]
    return signs * np.concatenate([np.empty(0), *dets]).reshape(len(border), len(signs))


def allen(spec: FunctionSpec, point: Sequence[float], i: int, j: int) -> float:
    """Allen-Uzawa elasticity A_ij at a point (i != j, 1-based): the
    ``elasticity_report`` entry, so A_ij == A_ji exactly.

    Raises AllenUndefined when the bordered determinant is zero relative to
    the matrix scale (``geometry._det_ratios``).
    """
    a, b = _pair(spec, i, j)
    report = elasticity_report(spec, point)
    if report.allen is None:
        raise AllenUndefined(f"bordered Hessian is singular at {tuple(map(float, point))!r}")
    return float(report.allen[a, b])


@dataclass(frozen=True, eq=False)
class ElasticityReport:
    """All substitution quantities of a spec at one point.

    ``hicks`` has nan on the diagonal and at pairs where it is undefined (a
    vanishing denominator or a vanishing partial of the pair); ``allen`` is
    None exactly when the bordered determinant's ``geometry._det_ratios``
    is at most ``SINGULARITY_REL``. ``jet`` is the one jet the report was
    read from; ``value`` is its value slot.
    """

    hicks: np.ndarray
    allen: np.ndarray | None
    bordered_det: float
    jet: Jet2N

    @property
    def value(self) -> float:
        return self.jet.value


# numpy's overflow warnings are silenced: a non-finite result raises NumericalError
@np.errstate(all="ignore")
def elasticity_report(spec: FunctionSpec, point: Sequence[float]) -> ElasticityReport:
    """Assemble the full Hicks/Allen report at a point from one jet.

    Raises NumericalError where the bordered determinant or an Allen entry
    is not finite or a Hicks entry is infinite (nan marks an undefined pair).
    """
    pt = _positive_point(spec, point)
    jet = jet_multivariate(spec, pt)
    n = jet.n
    border = _bordered(jet.gradient, jet.hessian)
    det = plu_det(border)
    if not math.isfinite(det):
        raise NumericalError(f"non-finite bordered determinant at {tuple(pt)!r}")
    hicks_m = np.full((n, n), math.nan)
    grad, hess = jet.gradient.tolist(), jet.hessian.tolist()
    for a in range(n):
        for b in range(a + 1, n):
            try:
                hicks_m[a, b] = hicks_m[b, a] = _hicks_from_jet(grad, hess, pt, a, b)
            except (HicksUndefined, ZeroGradientError):
                pass
    singular = _det_ratios(det, border) <= SINGULARITY_REL
    allen_m = None
    if not singular:
        weight = math.fsum(x * g for x, g in zip(pt, grad))
        allen_m = np.full((n, n), math.nan)
        cof = iter(_cofactors(border[None])[0])  # in the loop's (a < b) order
        for a in range(n):
            for b in range(a + 1, n):
                try:
                    v = _allen_entry(weight, pt[a], pt[b], next(cof), det)
                except ZeroDivisionError:
                    raise NumericalError(
                        f"x{a + 1} * x{b + 1} underflows to 0 at {tuple(pt)!r}") from None
                if not math.isfinite(v):
                    raise NumericalError(
                        f"non-finite Allen elasticity for pair ({a + 1},{b + 1}) at {tuple(pt)!r}")
                allen_m[a, b] = allen_m[b, a] = v
    return ElasticityReport(hicks=hicks_m, allen=allen_m, bordered_det=det, jet=jet)


class ElasticityBlock(NamedTuple):
    """Row i has the bits of ``elasticity_report(spec, points[i])`` (``allen`` nan where
    ``singular``, the report's None), or is nan with the report's error in ``errors[i]``."""

    value: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray
    hicks: np.ndarray
    allen: np.ndarray
    singular: np.ndarray
    bordered_det: np.ndarray
    errors: tuple


@np.errstate(all="ignore")  # rows that go non-finite are redone one by one
def elasticity_report_batch(spec: FunctionSpec, points) -> ElasticityBlock:
    """``elasticity_report`` at every row of an (m, n) point sequence, bit for bit, from one
    ``jets._jet_columns`` pass and the report's formulas on (m, pairs) columns. A row they
    flag (where the report raises) goes through ``elasticity_report`` itself, in order."""
    x, n = _point_rows(spec, points), spec.n
    value, gradient, hessian, _, ok = _jet_columns(spec, x)
    ok &= _positive_rows(x)  # the positivity guard outranks any jet error
    a, b = np.triu_indices(n, 1)
    border = _bordered(gradient, hessian)
    det = plu_dets(border)
    num, den, undefined = _hicks_parts(x[:, a], x[:, b], gradient[:, a], gradient[:, b],
                                       hessian[:, a, a], hessian[:, a, b], hessian[:, b, b],
                                       lambda p, q: np.where(q == 0.0, math.nan, p / q))
    hicks_p = np.where(undefined, math.nan, -num / den)
    failed = ~(ok & np.isfinite(det)) | np.isinf(hicks_p).any(axis=1)
    singular = _det_ratios(det, border) <= SINGULARITY_REL
    regular = ~failed & ~singular  # the rows whose Allen entries the report forms
    # math.fsum raises on +inf and -inf, so only where the report sums too
    weight = np.array([math.fsum((xi * g).tolist()) if good else math.nan
                       for xi, g, good in zip(x, gradient, regular.tolist())])
    cof = np.full((len(x), len(a)), math.nan)
    cof[regular] = _cofactors(border[regular])
    allen_p = _allen_entry(weight[:, None], x[:, a], x[:, b], cof, det[:, None])
    failed |= ~(singular | np.isfinite(allen_p).all(axis=1))
    hicks_m, allen_m = np.full((2, len(x), n, n), math.nan)
    hicks_m[:, a, b] = hicks_m[:, b, a] = hicks_p
    allen_m[:, a, b] = allen_m[:, b, a] = allen_p
    singular &= ~failed
    for column in (value, gradient, hessian, hicks_m, allen_m, det):
        column[failed] = math.nan
    done, errors = _per_point(elasticity_report, spec, points, failed)
    for i, r in done.items():
        value[i], hicks_m[i], det[i] = r.value, r.hicks, r.bordered_det
        gradient[i], hessian[i], singular[i] = r.jet.gradient, r.jet.hessian, r.allen is None
        allen_m[i] = math.nan if singular[i] else r.allen
    return ElasticityBlock(value, gradient, hessian, hicks_m, allen_m, singular, det,
                           tuple(errors))


@dataclass(frozen=True)
class CesVerdict:
    """Outcome of the constant-elasticity probe.

    ``sigma`` is the sample mean of all H_ij values and is meaningful when
    ``is_constant``; ``spread`` is max - min over every pair and point.
    """

    is_constant: bool
    sigma: float
    spread: float


def ces_probe(spec: FunctionSpec, sample_points=None, tol: float = 1e-8,
              seed: int = 42) -> CesVerdict:
    """Probe whether H_ij is one constant across pairs and sample points.

    Default samples are 20 seeded log-uniform points in [0.5, 2]^n. A point
    where some H_ij is undefined propagates HicksUndefined naming that point
    rather than being dropped; an infinite H_ij raises NumericalError.
    """
    if spec.n < 2:
        raise ValidationError("the constant-elasticity probe needs >= 2 variables")
    if sample_points is None:
        sample_points = points_loguniform(spec.n, 20, seed)
    sample_points = [_point(spec, p) for p in sample_points]
    if len(sample_points) < 2:
        raise ValidationError("the constant-elasticity probe needs >= 2 sample points")
    values = []
    for p in sample_points:
        jet = jet_multivariate(spec, _positive_point(spec, p))
        grad, hess = jet.gradient.tolist(), jet.hessian.tolist()
        for a in range(spec.n):
            for b in range(a + 1, spec.n):
                try:
                    values.append(_hicks_from_jet(grad, hess, p, a, b))
                except HicksUndefined as e:
                    raise HicksUndefined(f"probe point {tuple(p)!r}: {e}") from None
    spread = max(values) - min(values)
    return CesVerdict(is_constant=spread <= tol,
                      sigma=math.fsum(values) / len(values),
                      spread=spread)


@dataclass(frozen=True)
class Corollary42Report:
    """Joint zero test of curvature and bordered determinant over samples.

    ``equivalent`` is whether ``gk_all_zero`` agrees with every bordered
    determinant's ``geometry._det_ratios`` being at most the tolerance.
    """

    gk_all_zero: bool
    equivalent: bool
    max_abs_gk: float


def check_corollary42(spec: FunctionSpec, sample_points=None, tol: float = 1e-8,
                      seed: int = 42) -> Corollary42Report:
    """Check that zero curvature and a singular bordered matrix coincide.

    Applies to product specs with at least one exponential component (the
    regime where one component log-derivative ratio is constant). Evaluates
    |G| <= tol and the scale-relative |det H^B| (``geometry._det_ratios``)
    <= tol at every sample and reports whether the two predicates agree.
    The samples run as one block (``gauss_kronecker_batch``, then the
    bordered determinants on the stack), bit for bit as point by point. Every
    sample point is checked first (``funcspec._point_rows``), then the first
    row error is raised.
    """
    if not isinstance(spec, Homothetical):
        raise SpecError(f"this check needs a homothetical spec, got {spec.kind}")
    if not any(isinstance(c, ExpFn) for c in spec.components):
        raise SpecError("this check needs at least one exponential component")
    if sample_points is None:
        sample_points = points_loguniform(spec.n, 20, seed)
    sample_points = list(sample_points)
    if not sample_points:
        raise ValidationError("needs at least one sample point")
    x = _point_rows(spec, sample_points)
    block = gauss_kronecker_batch(spec, x)
    for p, good, error in zip(sample_points, _positive_rows(x).tolist(), block.errors):
        if error is not None:
            raise error
        if not good:
            _positive_point(spec, p)  # the bordered matrix lives on the positive orthant
    max_gk = float(np.max(np.abs(block.gk_curvature), initial=0.0))
    gk_zero = max_gk <= tol
    singular = float(np.max(_bordered_ratios(block.gradient, block.hessian), initial=0.0)) <= tol
    return Corollary42Report(gk_all_zero=gk_zero, equivalent=gk_zero == singular,
                             max_abs_gk=max_gk)
