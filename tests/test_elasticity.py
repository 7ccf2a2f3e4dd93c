"""Tests for Hicks/Allen elasticities, the bordered Hessian and the CES probe."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeom import (
    AllenUndefined,
    Composite,
    DomainError,
    ExpFn,
    HicksUndefined,
    Homothetical,
    Identity,
    Log,
    LogPowFn,
    NumericalError,
    PowFn,
    Power,
    ProdgeomError,
    Scale,
    ValidationError,
    ZeroGradientError,
    allen,
    bordered_hessian,
    ces_probe,
    elasticity_report,
    elasticity_report_batch,
    hicks,
    jet_multivariate,
    make_acms,
    make_cobb_douglas,
    make_thm41_family,
)
from prodgeom import elasticity
from prodgeom.elasticity import SINGULARITY_REL
from prodgeom.geometry import det_scale, plu_det
from prodgeom.sampling import (
    points_loguniform,
    random_composite,
    random_homothetical,
    random_outer,
)
from test_funcspec import _EDGE_OUTERS, _JET_COORDS, _edge_spec

EXP_TIMES_LINEAR = Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0)))
PRODUCT = Homothetical((PowFn(1.0, 0.0, 1.0), PowFn(1.0, 0.0, 1.0)))
RATIO = Homothetical((PowFn(1.0, 0.0, 1.0), PowFn(1.0, 0.0, -1.0)))


def test_hicks_cobb_douglas():
    # -(3 + 3/2) / (-2 - 2 - 1/2) by hand
    assert hicks(make_cobb_douglas(1.0, (1 / 3, 2 / 3)), (1.0, 1.0), 1, 2) == \
        pytest.approx(1.0, rel=1e-12)


def test_hicks_acms():
    assert hicks(make_acms(1.0, (1.0, 1.0), 0.5, 1.0), (1.0, 1.0), 1, 2) == \
        pytest.approx(2.0, rel=1e-12)


def test_hicks_exp_times_linear_not_constant():
    assert hicks(EXP_TIMES_LINEAR, (1.0, 1.0), 1, 2) == pytest.approx(2.0, rel=1e-12)
    assert hicks(EXP_TIMES_LINEAR, (2.0, 1.0), 1, 2) == pytest.approx(1.5, rel=1e-12)


def test_hicks_symmetry_is_bitwise():
    rng = random.Random(2)
    compared = 0
    for _ in range(15):
        spec = random_composite(rng, n_range=(2, 3))
        point = points_loguniform(spec.n, 1, rng)[0]
        try:
            forward = hicks(spec, point, 1, 2)
        except (HicksUndefined, ZeroGradientError):
            continue
        compared += 1
        assert forward == hicks(spec, point, 2, 1)
    assert compared >= 10


def test_hicks_requires_positive_orthant():
    with pytest.raises(DomainError):
        hicks(PRODUCT, (-1.0, 1.0), 1, 2)


def test_hicks_pair_validation():
    with pytest.raises(ValidationError):
        hicks(PRODUCT, (1.0, 1.0), 1, 1)
    with pytest.raises(ValidationError):
        hicks(PRODUCT, (1.0, 1.0), 0, 2)
    # an index is an integer, numpy's included, and never a bool
    for measure in (hicks, allen):
        for index in (1.0, "1", None, True):
            with pytest.raises(ValidationError, match="pair indices must be integers"):
                measure(PRODUCT, (1.0, 2.0), index, 2)
            with pytest.raises(ValidationError, match="pair indices must be integers"):
                measure(PRODUCT, (1.0, 2.0), 2, index)
        assert measure(PRODUCT, (1.0, 2.0), np.int64(1), 2) == measure(PRODUCT, (1.0, 2.0), 1, 2)


def test_hicks_zero_gradient():
    spec = Homothetical((PowFn(1.0, -1.0, 2.0), PowFn(1.0, 0.0, 1.0)))
    with pytest.raises(ZeroGradientError):
        hicks(spec, (1.0, 1.0), 1, 2)
    # (1, 1) is inside the domain: the report keeps its value and marks the
    # pair undefined instead of failing
    report = elasticity_report(spec, (1.0, 1.0))
    assert report.value == 0.0
    assert math.isnan(report.hicks[0, 1])
    # partials of 1e-200 are nonzero, but their products underflow to 0
    with pytest.raises(ZeroGradientError):
        hicks(PRODUCT, (1e-200, 1e-200), 1, 2)
    assert math.isnan(elasticity_report(PRODUCT, (1e-200, 1e-200)).hicks[0, 1])


def test_allen_weight_over_a_pair_product_that_underflows_is_numerical_error():
    # (x1 + 1)(x2 + 1) at (1e-170, 1e-170): the point is regular, but x1 * x2
    # is 0 in A_12 = W / (x1 x2) * C_12 / det; the batch keeps its other rows
    spec = Homothetical((PowFn(1.0, 1.0, 1.0), PowFn(1.0, 1.0, 1.0)))
    message = "x1 * x2 underflows to 0 at (1e-170, 1e-170)"
    with pytest.raises(NumericalError) as raised:
        elasticity_report(spec, (1e-170, 1e-170))
    assert str(raised.value) == message
    block = elasticity_report_batch(spec, [(1e-170, 1e-170), (1.0, 2.0)])
    assert [str(e) for e in block.errors[:1]] == [message] and block.errors[1] is None
    assert np.isnan(block.allen[0]).all()
    assert block.allen[1, 0, 1] == elasticity_report(spec, (1.0, 2.0)).allen[0, 1]


def test_hicks_undefined_for_perfect_substitutes():
    linear = make_acms(1.0, (1.0, 2.0), 1.0, 1.0, relax_rho=True)
    with pytest.raises(HicksUndefined):
        hicks(linear, (1.0, 1.0), 1, 2)


def test_hicks_infinite_is_numerical_error():
    # (x1 + 1) * x2 at x1 = 5e-324: 1 / (x1 f_1) is inf, and so is H_12; the
    # report raises the same error
    spec = Homothetical((PowFn(1.0, 1.0, 1.0), PowFn(1.0, 0.0, 1.0)))
    message = r"infinite Hicks elasticity for pair \(1,2\) at \(5e-324, 1.0\)"
    for call in (lambda: hicks(spec, (5e-324, 1.0), 1, 2),
                 lambda: hicks(spec, (5e-324, 1.0), 2, 1),
                 lambda: elasticity_report(spec, (5e-324, 1.0))):
        with pytest.raises(NumericalError, match=message):
            call()


def test_bordered_hessian_product():
    border, det = bordered_hessian(PRODUCT, (1.0, 1.0))
    assert border.tolist() == [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    assert det == pytest.approx(2.0, rel=1e-14)


def test_bordered_hessian_ratio_singular():
    _, det = bordered_hessian(RATIO, (1.0, 1.0))
    assert abs(det) <= 1e-13


def test_bordered_hessian_sqrt():
    _, det = bordered_hessian(make_cobb_douglas(1.0, (0.5, 0.5)), (1.0, 1.0))
    assert det == pytest.approx(0.25, rel=1e-12)


def test_bordered_hessian_overflow_is_inf_without_a_warning():
    # e^x1 * x2 at (360, 1e-5): the entries are finite, the determinant
    # overflows in the elimination's product; the suite turns a numpy
    # RuntimeWarning into a failure
    border, det = bordered_hessian(Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0))),
                                   (360.0, 1e-5))
    assert np.isfinite(border).all() and det == math.inf


def test_allen_product_equals_hicks():
    assert allen(PRODUCT, (1.0, 1.0), 1, 2) == pytest.approx(1.0, rel=1e-12)


def test_allen_sqrt_equals_hicks():
    # cofactor/det by hand with det = 1/4
    assert allen(make_cobb_douglas(1.0, (0.5, 0.5)), (1.0, 1.0), 1, 2) == \
        pytest.approx(1.0, rel=1e-12)


def test_allen_undefined_on_singular_family():
    with pytest.raises(AllenUndefined):
        allen(RATIO, (1.0, 1.0), 1, 2)


def test_two_variable_coincidence_randomised():
    rng = random.Random(6)
    compared = 0
    for k in range(60):
        spec = (random_homothetical(rng, n=2) if k % 2
                else random_composite(rng, n=2))
        point = points_loguniform(2, 1, rng)[0]
        try:
            h = hicks(spec, point, 1, 2)
            a = allen(spec, point, 1, 2)
        except (HicksUndefined, AllenUndefined, ZeroGradientError):
            continue
        compared += 1
        assert abs(h - a) <= 1e-8 * max(1.0, abs(h))
    assert compared >= 30


def test_outer_invariance_of_hicks():
    rng = random.Random(8)
    for _ in range(15):
        inner = random_homothetical(rng, n_range=(2, 3), positive=True)
        point = points_loguniform(inner.n, 1, rng)[0]
        try:
            base = hicks(inner, point, 1, 2)
        except HicksUndefined:
            continue
        for outer in (Power(3.0), Power(0.5), Log()):
            wrapped = Composite(outer, inner.components)
            assert abs(hicks(wrapped, point, 1, 2) - base) <= 1e-8 * max(1.0, abs(base))


def test_outer_invariance_of_allen_for_every_n():
    # A_ij of F(u) equals A_ij of u at n = 3..5, for each kind of outer map
    rng = random.Random(31)
    compared = 0
    for _ in range(100):
        inner = random_homothetical(rng, n_range=(3, 5), positive=True)
        point = points_loguniform(inner.n, 1, rng)[0]
        base = elasticity_report(inner, point).allen
        if base is None:
            continue
        for outer in (Identity(), Power(rng.uniform(0.4, 2.0) * rng.choice((1.0, -1.0))),
                      Scale(rng.uniform(0.5, 2.0)), Log()):
            wrapped = elasticity_report(Composite(outer, inner.components), point).allen
            assert wrapped is not None
            off = ~np.eye(inner.n, dtype=bool)
            assert np.all(np.abs(wrapped - base)[off] <= 1e-12 * np.fmax(1.0, np.abs(base[off])))
            compared += 1
    assert compared >= 200


def test_allen_symmetry():
    rng = random.Random(21)
    compared = 0
    for _ in range(15):
        spec = random_homothetical(rng, n_range=(3, 3))
        point = points_loguniform(3, 1, rng)[0]
        try:
            a12 = allen(spec, point, 1, 2)
            a21 = allen(spec, point, 2, 1)
        except (AllenUndefined, ZeroGradientError):
            continue
        compared += 1
        assert a12 == a21
    assert compared >= 8


def test_hicks_invariant_under_function_scaling():
    rng = random.Random(14)
    for _ in range(10):
        spec = random_homothetical(rng, n=2, kinds=("pow", "exp"))
        c = rng.uniform(0.5, 4.0)
        head = spec.components[0]
        if isinstance(head, PowFn):
            scaled_head = PowFn(head.gamma * c, head.beta, head.alpha)
        else:
            scaled_head = ExpFn(head.gamma * c, head.lam)
        scaled = Homothetical((scaled_head,) + spec.components[1:])
        point = points_loguniform(2, 1, rng)[0]
        try:
            base = hicks(spec, point, 1, 2)
        except HicksUndefined:
            continue
        assert hicks(scaled, point, 1, 2) == pytest.approx(base, rel=1e-10)


def test_ces_probe_cobb_douglas():
    verdict = ces_probe(make_cobb_douglas(1.5, (0.4, 0.8, -0.3)), seed=42)
    assert verdict.is_constant
    assert verdict.sigma == pytest.approx(1.0, abs=1e-10)
    assert verdict.spread <= 1e-8


def test_ces_probe_acms_sigma_two():
    verdict = ces_probe(make_acms(1.0, (1.0, 1.0), 0.5, 1.0), seed=42)
    assert verdict.is_constant
    assert verdict.sigma == pytest.approx(2.0, abs=1e-10)


def test_ces_probe_detects_nonconstant():
    verdict = ces_probe(EXP_TIMES_LINEAR, sample_points=[(1.0, 1.0), (2.0, 1.0)])
    assert not verdict.is_constant
    assert verdict.spread >= 0.5 - 1e-8


def test_ces_probe_reports_offending_point():
    linear = make_acms(1.0, (1.0, 1.0), 1.0, 1.0, relax_rho=True)
    with pytest.raises(HicksUndefined, match="probe point"):
        ces_probe(linear, sample_points=[(1.0, 1.0), (2.0, 1.0)])


def test_ces_probe_infinite_hicks_is_numerical_error():
    # H_12 is infinite at this point, so the probe raises before it sums
    # values of both signs (math.fsum's bare ValueError on -inf + inf)
    spec = Composite(Scale(1.667813321572357),
                     (ExpFn(-2.0, -1.0), LogPowFn(1.0, 1.0, -1.0), LogPowFn(1.0, 1.0, 2.0)))
    point = (5e-324, 0.7765849050885374, 1.9158454559458544)
    with pytest.raises(NumericalError, match=r"infinite Hicks elasticity for pair \(1,2\)"):
        ces_probe(spec, [point, point])


def test_ces_probe_needs_two_variables():
    with pytest.raises(ValidationError):
        ces_probe(Homothetical((PowFn(1.0, 0.0, 2.0),)))


def test_ces_probe_needs_two_sample_points():
    with pytest.raises(ValidationError, match="needs >= 2 sample points"):
        ces_probe(make_cobb_douglas(1.0, (0.5, 0.5)), sample_points=[(1.0, 1.0)])


def test_elasticity_report_regular_point():
    report = elasticity_report(make_cobb_douglas(1.0, (0.5, 0.5)), (1.0, 1.0))
    assert report.hicks[0, 1] == report.hicks[1, 0] == pytest.approx(1.0, rel=1e-12)
    assert math.isnan(report.hicks[0, 0])
    assert report.allen is not None
    assert report.allen[0, 1] == pytest.approx(1.0, rel=1e-12)
    assert report.bordered_det == pytest.approx(0.25, rel=1e-12)


def test_elasticity_report_singular_bordered():
    report = elasticity_report(RATIO, (1.0, 1.0))
    assert report.allen is None
    assert abs(report.bordered_det) <= 1e-13
    # this family is singular for BOTH measures: the Hicks denominator
    # cancels exactly as well, so the pair is reported as nan
    assert math.isnan(report.hicks[0, 1])



@pytest.mark.parametrize("spec, point, message", [
    # e^x1 * x2: the bordered determinant overflows to inf
    (Composite(Identity(), (ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0))), (360.0, 1e-5),
     "bordered determinant"),
    # (x1 + 1) * x2: 1 / (x1 f_1) overflows at a subnormal x1
    (Homothetical((PowFn(1.0, 1.0, 1.0), PowFn(1.0, 0.0, 1.0))), (5e-324, 1.0), "Hicks"),
    # e^(400 x1) * (1 - x2): H_12 is finite, the Allen weight / (x1 x2) is not
    (Homothetical((ExpFn(1.0, 400.0), PowFn(-1.0, -1.0, 1.0))), (0.5, 1e-300), "Allen"),
    # (ln-powers * x3^-3)^5: x_k f_k holds +inf and -inf, where math.fsum
    # would raise ValueError, so the weight waits for a finite determinant
    (Composite(Power(5.0), (LogPowFn(1.0, 1.0, 10.0), LogPowFn(1.0, 1.0, 50.0),
                            PowFn(1.0, 0.0, -3.0))),
     (3.762130500498239e+286, 83.52795540877054, 14.327961673382125), "bordered determinant"),
])
def test_elasticity_report_non_finite_is_numerical_error(spec, point, message):
    with pytest.raises(NumericalError, match=message):
        elasticity_report(spec, point)


def _cofactors_by_minor(border):
    # the strict-upper cofactors by the per-minor route: delete row and
    # column, plu_det, apply the sign (the lower triangle stays 0)
    n = border.shape[0] - 1
    cof = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            minor = np.delete(np.delete(border, a + 1, axis=0), b + 1, axis=1)
            sign = -1.0 if (a + b) % 2 else 1.0
            cof[a, b] = sign * plu_det(minor)
    return cof


def _random_spec(rng, kind, n):
    if kind == "homothetical":
        return random_homothetical(rng, n=n)
    if kind == "composite":
        return random_composite(rng, n=n)
    return make_acms(rng.uniform(0.5, 2.0), [rng.uniform(0.5, 2.0) for _ in range(n)],
                     rng.choice([-2.0, -0.5, 0.25, 0.5, 0.9]), rng.uniform(0.3, 2.0),
                     random_outer(rng))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["homothetical", "composite", "acms"]),
       n=st.sampled_from([2, 3, 5, 10]))
def test_report_allen_bitwise_equal_per_minor_route(seed, kind, n):
    rng = random.Random(seed)
    spec = _random_spec(rng, kind, n)
    point = points_loguniform(n, 1, rng)[0]
    report = elasticity_report(spec, point)
    border, det = bordered_hessian(spec, point)
    assert np.float64(report.bordered_det).view(np.int64) == np.float64(det).view(np.int64)
    if report.allen is not None:
        # every A_ab from its per-minor cofactor, both ways round
        expected = _cofactors_by_minor(border)
        weight = math.fsum(x * g for x, g in zip(point, report.jet.gradient))
        for a in range(n):
            for b in range(a + 1, n):
                want = float(weight / (point[a] * point[b]) * expected[a, b] / det).hex()
                assert float(report.allen[a, b]).hex() == float(report.allen[b, a]).hex() == want
        assert allen(spec, point, 1, n).hex() == allen(spec, point, n, 1).hex() == \
            float(report.allen[0, n - 1]).hex()


def _minor_counts(monkeypatch) -> list:
    # the stack size of every plu_dets call the elasticity module makes
    sizes, real = [], elasticity.plu_dets
    monkeypatch.setattr(elasticity, "plu_dets",
                        lambda stack: sizes.append(len(stack)) or real(stack))
    return sizes


@pytest.mark.parametrize("n", [2, 3, 10])
def test_batch_forms_the_upper_cofactors_of_allen_regular_rows_only(monkeypatch, n):
    # Cobb-Douglas is Allen-regular and the Thm 4.1b spec Allen-singular at
    # every point: besides the bordered stack, each regular row eliminates
    # its n(n-1)/2 upper-triangle minors and each singular row none
    sizes = _minor_counts(monkeypatch)
    regular = make_cobb_douglas(1.0, (1.0 / n,) * n)
    singular = make_thm41_family("b", outer=Power(2.0), alphas=(n - 1.0,) + (-1.0,) * (n - 1))
    for spec, rows, minors in ((regular, 3, n * (n - 1) // 2), (singular, 2, 0)):
        sizes.clear()
        block = elasticity_report_batch(spec, points_loguniform(n, rows, 7))
        assert block.errors == (None,) * rows and block.singular.tolist() == [not minors] * rows
        assert sizes[0] == rows and sum(sizes[1:]) == rows * minors


def test_report_forms_the_upper_cofactors_of_an_allen_regular_point_only(monkeypatch):
    sizes = _minor_counts(monkeypatch)
    report = elasticity_report(RATIO, (1.0, 1.0))
    assert report.allen is None and sizes == []
    report = elasticity_report(make_cobb_douglas(1.0, (0.25, 0.25, 0.5)), (1.0, 2.0, 3.0))
    assert report.allen is not None and sizes == [3]
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.bordered_det = 0.0


# the jets' edge coordinates, a zero of (x - 1)-type factors, and 1e300
_BATCH_COORDS = _JET_COORDS + (1.0, 1e300)


def _report_bits(value, gradient, hessian, hicks_m, det, allen_m) -> list:
    return [float(v).hex() for v in (value, det, *gradient, *np.ravel(hessian),
                                     *np.ravel(hicks_m), *np.ravel(allen_m))]


@pytest.mark.fuzz
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       outer=st.sampled_from(sorted(_EDGE_OUTERS)),
       n=st.integers(2, 10), m=st.integers(1, 9))
def test_batch_bitwise_equals_elasticity_report(seed, kind, outer, n, m):
    # every row has the bits of elasticity_report at its point (sign of zero
    # included), Allen's absence included, or that call's error
    rng = random.Random(seed)
    spec = _edge_spec(rng, kind, outer, n)
    points = [tuple(rng.choice(_BATCH_COORDS) if rng.random() < 0.5 / n
                    else rng.uniform(0.3, 3.0) for _ in range(n)) for _ in range(m)]
    block = elasticity_report_batch(spec, points)
    for i, point in enumerate(points):
        try:
            rep = elasticity_report(spec, point)
        except ProdgeomError as e:
            assert type(block.errors[i]) is type(e) and str(block.errors[i]) == str(e)
            continue
        assert block.errors[i] is None and block.singular[i] == (rep.allen is None)
        assert _report_bits(block.value[i], block.gradient[i], block.hessian[i],
                            block.hicks[i], block.bordered_det[i],
                            block.allen[i] if rep.allen is not None else ()) == \
            _report_bits(rep.value, rep.jet.gradient, rep.jet.hessian, rep.hicks,
                         rep.bordered_det, rep.allen if rep.allen is not None else ())
        if rep.allen is None:
            assert np.isnan(block.allen[i]).all()


def test_batch_rows_and_errors(monkeypatch):
    # (x1 - 1)^2 * x2: the zero partial at x1 = 1 makes H_12 nan in the
    # columns, as per point; only the rows outside the orthant go per point
    spec = Homothetical((PowFn(1.0, -1.0, 2.0), PowFn(1.0, 0.0, 1.0)))
    points = [(1.0, 2.0), (2.0, 3.0), (-1.0, 2.0), (2.0, 0.0)]
    reports = []
    real = elasticity.elasticity_report

    def counted(spec, point):
        reports.append(point)
        return real(spec, point)

    monkeypatch.setattr(elasticity, "elasticity_report", counted)
    block = elasticity_report_batch(spec, points)
    assert reports == points[2:]
    assert math.isnan(block.hicks[0, 0, 1]) and block.errors[:2] == (None, None)
    assert block.hicks[1, 0, 1] == elasticity_report(spec, points[1]).hicks[0, 1]
    errors = block.errors[2:]
    assert all(isinstance(e, DomainError) and e.__traceback__ is None for e in errors)
    assert math.isnan(block.value[2]) and not block.singular[2]
    # x1 / x2 is Allen-singular everywhere, but a row that raises is not singular
    block = elasticity_report_batch(RATIO, [(-1.0, 1.0), (1.0, 1.0)])
    assert isinstance(block.errors[0], DomainError) and block.singular.tolist() == [False, True]
    # e^(400 x1) * (1 - x2): a non-finite Allen entry raises the report's error
    block = elasticity_report_batch(Homothetical((ExpFn(1.0, 400.0), PowFn(-1.0, -1.0, 1.0))),
                                    [(0.5, 1e-300), (0.5, 0.5)])
    assert "non-finite Allen" in str(block.errors[0]) and block.errors[1] is None
    # (x1 + 1) e^-x2: x1 f_1 underflows to 0, so H_12 is undefined (no
    # infinite Hicks entry) while A_12 is finite, per point and in columns
    spec = Homothetical((PowFn(1.0, 1.0, 1.0), ExpFn(1.0, -1.0)))
    block = elasticity_report_batch(spec, [(1e-300, 69.0)])
    rep = elasticity_report(spec, (1e-300, 69.0))
    assert math.isnan(rep.hicks[0, 1]) and math.isnan(block.hicks[0, 0, 1])
    assert block.allen[0, 0, 1] == rep.allen[0, 1] == 1e300
    with pytest.raises(ValidationError):
        elasticity_report_batch(spec, [(1.0, 1.0, 1.0)])
    empty = elasticity_report_batch(spec, np.zeros((0, 2)))
    assert empty.errors == () and empty.allen.shape == (0, 2, 2)
    # a flagged row where the report returns gets the report's result, not a nan row
    columns = elasticity._jet_columns
    for spec in (Homothetical((PowFn(1.0, 0.0, 0.5), PowFn(1.0, 1.0, 2.0))), RATIO):
        points = [(0.5, 2.0), (3.0, 0.25), (-1.0, 1.0)]
        expected = elasticity_report_batch(spec, points)
        with monkeypatch.context() as patch:
            patch.setattr(elasticity, "_jet_columns", lambda spec, x: (
                *columns(spec, x)[:4], np.zeros(len(x), dtype=bool)))
            flagged = elasticity_report_batch(spec, points)
        assert reports[-3:] == points
        for got, want in zip(flagged[:-1], expected[:-1]):
            assert [float(v).hex() for v in np.ravel(got)] == \
                [float(v).hex() for v in np.ravel(want)]
        assert [type(e) for e in flagged.errors] == [type(e) for e in expected.errors]


def _loop_report(spec, point):
    """The report written out as per-pair loops on Python floats, each
    cofactor from its own minor: (Hicks, Allen or None, bordered det)."""
    border, det = bordered_hessian(spec, point)  # the orthant guard and the plu_det route
    pt = [float(x) for x in point]
    jet = jet_multivariate(spec, pt)
    n = spec.n
    if not math.isfinite(det):
        raise NumericalError(f"non-finite bordered determinant at {tuple(pt)!r}")
    hicks_m = np.full((n, n), math.nan)
    for a in range(n):
        for b in range(a + 1, n):
            fa, fb = float(jet.gradient[a]), float(jet.gradient[b])
            try:
                num = 1.0 / (pt[a] * fa) + 1.0 / (pt[b] * fb)
                t1 = float(jet.hessian[a, a]) / (fa * fa)
                t2 = 2.0 * float(jet.hessian[a, b]) / (fa * fb)
                t3 = float(jet.hessian[b, b]) / (fb * fb)
            except ZeroDivisionError:
                continue
            den = t1 - t2 + t3
            if abs(den) <= SINGULARITY_REL * (abs(t1) + abs(t2) + abs(t3)):
                continue
            if math.isinf(h := -num / den):
                raise NumericalError(
                    f"infinite Hicks elasticity for pair ({a + 1},{b + 1}) at {tuple(pt)!r}")
            hicks_m[a, b] = hicks_m[b, a] = h
    if abs(det) <= SINGULARITY_REL * det_scale(border):
        return hicks_m, None, det
    cof = _cofactors_by_minor(border)
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
            allen_m[a, b] = allen_m[b, a] = v
    return hicks_m, allen_m, det


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       outer=st.sampled_from(sorted(_EDGE_OUTERS)),
       n=st.integers(1, 10), m=st.integers(1, 3))
def test_report_bitwise_equals_per_pair_loops(seed, kind, outer, n, m):
    # the report against the float loops written out above: every number
    # has their bits, or the report raises their error
    rng = random.Random(seed)
    spec = _edge_spec(rng, kind, outer, n)
    for _ in range(m):
        point = [rng.choice(_BATCH_COORDS) if rng.random() < 0.5 / n else rng.uniform(0.3, 3.0)
                 for _ in range(n)]
        with np.errstate(all="ignore"):
            try:
                hicks_m, allen_m, det = _loop_report(spec, point)
            except ProdgeomError as e:
                with pytest.raises(type(e)) as raised:
                    elasticity_report(spec, point)
                assert str(raised.value) == str(e)
                continue
        rep = elasticity_report(spec, point)
        assert (rep.allen is None) == (allen_m is None)
        assert [float(v).hex() for v in (rep.bordered_det, *np.ravel(rep.hicks))] == \
            [float(v).hex() for v in (det, *np.ravel(hicks_m))]
        if allen_m is not None:
            assert [v.hex() for v in np.ravel(rep.allen).tolist()] == \
                [v.hex() for v in np.ravel(allen_m).tolist()]
