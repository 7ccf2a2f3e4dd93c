"""Tests for Hicks/Allen elasticities, the bordered Hessian and the CES probe."""

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
    Log,
    PowFn,
    Power,
    ValidationError,
    ZeroGradientError,
    allen,
    bordered_hessian,
    ces_probe,
    elasticity_report,
    hicks,
    make_acms,
    make_cobb_douglas,
)
from prodgeom.geometry import plu_det
from prodgeom.sampling import (
    points_loguniform,
    random_composite,
    random_homothetical,
    random_outer,
)

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


def test_hicks_undefined_for_perfect_substitutes():
    linear = make_acms(1.0, (1.0, 2.0), 1.0, 1.0, relax_rho=True)
    with pytest.raises(HicksUndefined):
        hicks(linear, (1.0, 1.0), 1, 2)


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


def test_ces_probe_needs_two_variables():
    with pytest.raises(ValidationError):
        ces_probe(Homothetical((PowFn(1.0, 0.0, 2.0),)))


def test_elasticity_report_regular_point():
    report = elasticity_report(make_cobb_douglas(1.0, (0.5, 0.5)), (1.0, 1.0))
    assert report.hicks[0, 1] == report.hicks[1, 0] == pytest.approx(1.0, rel=1e-12)
    assert math.isnan(report.hicks[0, 0])
    assert report.allen is not None
    assert report.allen[0, 1] == pytest.approx(1.0, rel=1e-12)
    assert report.bordered_det == pytest.approx(0.25, rel=1e-12)
    assert report.cofactors.shape == (2, 2)


def test_elasticity_report_singular_bordered():
    report = elasticity_report(RATIO, (1.0, 1.0))
    assert report.allen is None
    assert abs(report.bordered_det) <= 1e-13
    # this family is singular for BOTH measures: the Hicks denominator
    # cancels exactly as well, so the pair is reported as nan
    assert math.isnan(report.hicks[0, 1])


def _cofactors_by_minor(border):
    # the per-minor route: delete row and column, plu_det, apply the sign
    n = border.shape[0] - 1
    cof = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
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
def test_report_cofactors_bitwise_equal_per_minor_route(seed, kind, n):
    rng = random.Random(seed)
    spec = _random_spec(rng, kind, n)
    point = points_loguniform(n, 1, rng)[0]
    report = elasticity_report(spec, point)
    border, det = bordered_hessian(spec, point)
    expected = _cofactors_by_minor(border)
    assert report.cofactors.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert np.float64(report.bordered_det).view(np.int64) == np.float64(det).view(np.int64)
    if report.allen is not None:
        # A_1n from the per-minor cofactor
        weight = math.fsum(x * g for x, g in zip(point, report.jet.gradient))
        expected_allen = float(weight / (point[0] * point[n - 1]) * expected[0, n - 1] / det)
        assert allen(spec, point, 1, n).hex() == expected_allen.hex()
        assert allen(spec, point, n, 1).hex() == expected_allen.hex()
