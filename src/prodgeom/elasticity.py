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
Hessian as inner block. The n^2 inner cofactors come from one stacked
partial-pivot elimination over all minors (``plu_dets``), which matches a
per-minor ``plu_det`` bit for bit. For two variables the two measures
coincide; both are invariant under smooth monotone outer transforms with
nonzero slope (for A_ij this is claimed here only for n = 2, where it
follows from the coincidence). Indices are 1-based. All elasticity operations restrict to the
strictly positive orthant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (AllenUndefined, DomainError, HicksUndefined, NumericalError,
                     ValidationError, ZeroGradientError)
from .funcspec import FunctionSpec, _point
from .geometry import det_scale, plu_det, plu_dets
from .jets import Jet2N, jet_multivariate
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


def _pair(spec: FunctionSpec, i: int, j: int):
    if not (1 <= i <= spec.n and 1 <= j <= spec.n):
        raise ValidationError(f"pair ({i},{j}) out of range for {spec.n} variables")
    if i == j:
        raise ValidationError(f"elasticity needs two distinct variables, got ({i},{j})")
    return i - 1, j - 1


def _hicks_from_jet(jet: Jet2N, pt, a: int, b: int) -> float:
    # canonical ordering makes H_ij == H_ji bit for bit
    a, b = (a, b) if a < b else (b, a)
    fa = float(jet.gradient[a])
    fb = float(jet.gradient[b])
    if fa == 0.0:
        raise ZeroGradientError(f"partial derivative {a + 1} vanishes at {tuple(pt)!r}")
    if fb == 0.0:
        raise ZeroGradientError(f"partial derivative {b + 1} vanishes at {tuple(pt)!r}")
    try:
        num = 1.0 / (pt[a] * fa) + 1.0 / (pt[b] * fb)
        t1 = float(jet.hessian[a, a]) / (fa * fa)
        t2 = 2.0 * float(jet.hessian[a, b]) / (fa * fb)
        t3 = float(jet.hessian[b, b]) / (fb * fb)
    except ZeroDivisionError:  # the partials are nonzero but their products underflow
        raise ZeroGradientError(
            f"partial derivatives {a + 1} and {b + 1} underflow at {tuple(pt)!r}") from None
    den = t1 - t2 + t3
    if abs(den) <= SINGULARITY_REL * (abs(t1) + abs(t2) + abs(t3)):
        raise HicksUndefined(
            f"denominator vanishes for pair ({a + 1},{b + 1}) at {tuple(pt)!r}")
    return -num / den


def hicks(spec: FunctionSpec, point: Sequence[float], i: int, j: int) -> float:
    """Hicks elasticity H_ij at a point (i != j, 1-based).

    Raises ZeroGradientError when a needed partial vanishes and
    HicksUndefined when the denominator is zero relative to its terms.
    """
    a, b = _pair(spec, i, j)
    pt = _positive_point(spec, point)
    return _hicks_from_jet(jet_multivariate(spec, pt), pt, a, b)


def _bordered_from_jet(jet: Jet2N):
    n = jet.n
    border = np.zeros((n + 1, n + 1))
    border[0, 1:] = jet.gradient
    border[1:, 0] = jet.gradient
    border[1:, 1:] = jet.hessian
    return border, plu_det(border)


def bordered_hessian(spec: FunctionSpec, point: Sequence[float]):
    """Bordered Hessian and its determinant: ((n+1)x(n+1) matrix, det).

    Row and column 0 hold (0, f_1, ..., f_n); the inner block is the Hessian.
    The determinant uses partial-pivot elimination.
    """
    pt = _positive_point(spec, point)
    return _bordered_from_jet(jet_multivariate(spec, pt))


@functools.lru_cache(maxsize=16)
def _minor_index(n: int):
    # keep[a] lists the rows (equally columns) of the (n+1)x(n+1) bordered
    # matrix that remain once row a + 1 is deleted; the arrays are shared by
    # every caller, so they are read-only
    keep = np.array([[r for r in range(n + 1) if r != a + 1] for a in range(n)])
    signs = np.array([[-1.0 if (a + b) % 2 else 1.0 for b in range(n)] for a in range(n)])
    keep.setflags(write=False)
    signs.setflags(write=False)
    return keep[:, None, :, None], keep[None, :, None, :], signs


def _inner_cofactors(border: np.ndarray) -> np.ndarray:
    # all n^2 minors in one gather, one stacked elimination, then the sign
    # (-1)^((a+1)+(b+1)); bit for bit the per-minor plu_det route
    n = border.shape[0] - 1
    rows, cols, signs = _minor_index(n)
    return signs * plu_dets(border[rows, cols].reshape(n * n, n, n)).reshape(n, n)


def allen(spec: FunctionSpec, point: Sequence[float], i: int, j: int) -> float:
    """Allen-Uzawa elasticity A_ij at a point (i != j, 1-based): the
    ``elasticity_report`` entry, so A_ij == A_ji exactly.

    Raises AllenUndefined when the bordered determinant is zero relative to
    the matrix scale.
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
    None exactly when the bordered determinant is below the singularity
    threshold. ``cofactors`` holds the signed cofactors of the inner
    (Hessian) entries of the bordered matrix. ``jet`` is the one jet the
    report was read from; ``value`` is its value slot.
    """

    hicks: np.ndarray
    allen: np.ndarray | None
    bordered_det: float
    cofactors: np.ndarray
    jet: Jet2N

    @property
    def value(self) -> float:
        return self.jet.value


# numpy's overflow warnings are silenced: a non-finite result raises NumericalError
@np.errstate(all="ignore")
def elasticity_report(spec: FunctionSpec, point: Sequence[float]) -> ElasticityReport:
    """Assemble the full Hicks/Allen report at a point.

    Raises NumericalError where the bordered determinant or an Allen entry
    is not finite or a Hicks entry is infinite (nan marks an undefined pair).
    """
    pt = _positive_point(spec, point)
    jet = jet_multivariate(spec, pt)
    n = jet.n
    border, det = _bordered_from_jet(jet)
    if not math.isfinite(det):
        raise NumericalError(f"non-finite bordered determinant at {tuple(pt)!r}")
    hicks_m = np.full((n, n), math.nan)
    for a in range(n):
        for b in range(a + 1, n):
            try:
                h = _hicks_from_jet(jet, pt, a, b)
            except (HicksUndefined, ZeroGradientError):
                continue
            if math.isinf(h):
                raise NumericalError(
                    f"infinite Hicks elasticity for pair ({a + 1},{b + 1}) at {tuple(pt)!r}")
            hicks_m[a, b] = h
            hicks_m[b, a] = h
    cof = _inner_cofactors(border)
    singular = abs(det) <= SINGULARITY_REL * det_scale(border)
    allen_m = None
    if not singular:
        weight = math.fsum(x * g for x, g in zip(pt, jet.gradient))
        allen_m = np.full((n, n), math.nan)
        for a in range(n):
            for b in range(a + 1, n):
                try:
                    v = weight / (pt[a] * pt[b]) * cof[a, b] / det
                except ZeroDivisionError:
                    raise NumericalError(
                        f"x{a + 1} * x{b + 1} underflows to 0 at {tuple(pt)!r}") from None
                if not math.isfinite(v):
                    raise NumericalError(
                        f"non-finite Allen elasticity for pair ({a + 1},{b + 1}) at {tuple(pt)!r}")
                allen_m[a, b] = v
                allen_m[b, a] = v
    return ElasticityReport(hicks=hicks_m, allen=allen_m, bordered_det=det,
                            cofactors=cof, jet=jet)


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
    rather than being dropped.
    """
    if spec.n < 2:
        raise ValidationError("the constant-elasticity probe needs >= 2 variables")
    if sample_points is None:
        sample_points = points_loguniform(spec.n, 20, seed)
    sample_points = [list(map(float, p)) for p in sample_points]
    if len(sample_points) < 2:
        raise ValidationError("the constant-elasticity probe needs >= 2 sample points")
    values = []
    for p in sample_points:
        jet = jet_multivariate(spec, _positive_point(spec, p))
        for a in range(spec.n):
            for b in range(a + 1, spec.n):
                try:
                    values.append(_hicks_from_jet(jet, p, a, b))
                except HicksUndefined as e:
                    raise HicksUndefined(f"probe point {tuple(p)!r}: {e}") from None
    spread = max(values) - min(values)
    return CesVerdict(is_constant=spread <= tol,
                      sigma=math.fsum(values) / len(values),
                      spread=spread)
