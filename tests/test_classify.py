"""Tests for the symbolic family deciders, constructors and the joint zero check
(``elasticity.check_corollary42``)."""

import ast
import inspect
import math
import random

import pytest

import prodgeom
from prodgeom import classify, elasticity
from prodgeom import (
    Acms,
    Composite,
    DomainError,
    ExpFn,
    Homothetical,
    Identity,
    LogPowFn,
    PowFn,
    Power,
    SpecError,
    ValidationError,
    bordered_hessian,
    ces_probe,
    check_corollary42,
    classify_allen_singular,
    classify_ces,
    classify_developable,
    hicks,
    is_developable,
    make_cobb_douglas,
    make_thm31_family,
    make_thm41_family,
    make_thm51_family,
)
from prodgeom.geometry import det_scale
from prodgeom.sampling import points_loguniform, random_homothetical

E = math.e


def test_classify_developable_two_exponentials():
    spec = Homothetical((PowFn(1.0, 0.0, 2.0), ExpFn(1.0, 1.0), ExpFn(2.0, 3.0)))
    verdict = classify_developable(spec)
    assert verdict.family == "thm31_a"
    assert verdict.certificate["exp_indices"] == [2, 3]


def test_classify_developable_unit_sum():
    verdict = classify_developable(make_cobb_douglas(1.0, (0.25, 0.25, 0.5)))
    assert verdict.family == "thm31_b"
    assert abs(verdict.certificate["alpha_sum"] - 1.0) <= 1e-12


def test_classify_developable_none():
    verdict = classify_developable(make_cobb_douglas(1.0, (0.5, 1.0)))
    assert verdict.family == "none_developable"
    assert "1.5" in verdict.notes


def test_classify_developable_requires_homothetical():
    with pytest.raises(SpecError):
        classify_developable(Composite(Identity(), (PowFn(1.0, 0.0, 1.0),)))


def test_classify_developable_permutation_invariant():
    rng = random.Random(19)
    for _ in range(15):
        spec = random_homothetical(rng, n_range=(2, 4))
        perm = list(range(spec.n))
        rng.shuffle(perm)
        permuted = Homothetical(tuple(spec.components[k] for k in perm))
        assert classify_developable(spec).family == classify_developable(permuted).family


def test_make_thm31_case_b_and_verify():
    spec = make_thm31_family("b", alphas=(0.25, 0.25, 0.5), betas=(0.0, 1.0, 2.0), gamma=3.0)
    assert classify_developable(spec).family == "thm31_b"
    flat, max_g = is_developable(spec, points_loguniform(3, 50, 42), tol=1e-9)
    assert flat and max_g <= 1e-9


def test_make_thm31_case_a_and_verify():
    spec = make_thm31_family("a", components=(ExpFn(1.0, 1.0), ExpFn(1.0, -2.0),
                                              PowFn(1.0, 0.0, 0.7)))
    assert classify_developable(spec).family == "thm31_a"
    flat, _ = is_developable(spec, points_loguniform(3, 50, 42), tol=1e-9)
    assert flat


def test_make_thm31_case_b_validates_sum():
    with pytest.raises(ValidationError):
        make_thm31_family("b", alphas=(0.5, 0.5, 0.5))


@pytest.mark.parametrize("alphas", [(math.inf, -math.inf), (math.inf, 0.5)])
def test_make_thm31_case_b_names_a_non_finite_exponent(alphas):
    # the components are built before the family test, so a non-finite
    # exponent is the component's own error, not a sum (or math.fsum's
    # bare ValueError for inf + -inf)
    with pytest.raises(ValidationError, match="pow component: alpha must be finite"):
        make_thm31_family("b", alphas=alphas)


def test_make_thm31_case_a_needs_two_exponentials():
    with pytest.raises(ValidationError):
        make_thm31_family("a", components=(ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 2.0)))


def test_classify_allen_singular_two_exponentials():
    spec = Composite(Power(2.0), (ExpFn(1.0, 1.0), ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 2.0)))
    assert classify_allen_singular(spec).family == "thm41_a"


def test_classify_allen_singular_zero_sum():
    spec = Composite(Identity(), (PowFn(1.0, 0.0, 1.0), PowFn(1.0, 0.0, -1.0)))
    verdict = classify_allen_singular(spec)
    assert verdict.family == "thm41_b"
    assert abs(verdict.certificate["alpha_sum"]) <= 1e-12


def test_classify_allen_singular_none():
    spec = Composite(Identity(), (PowFn(1.0, 0.0, 1.0), PowFn(1.0, 0.0, 1.0)))
    assert classify_allen_singular(spec).family == "none_allen_singular"
    _, det = bordered_hessian(spec, (1.0, 1.0))
    assert det == pytest.approx(2.0, rel=1e-14)


def test_classify_allen_singular_requires_composite():
    with pytest.raises(SpecError):
        classify_allen_singular(make_cobb_douglas(1.0, (1.0, 1.0)))


def test_make_thm41_families_are_singular():
    rng = random.Random(42)
    case_a = make_thm41_family("a", components=(ExpFn(1.0, 0.5), ExpFn(1.0, -1.0),
                                                PowFn(1.0, 0.5, 1.2)),
                               outer=Power(2.0))
    case_b = make_thm41_family("b", alphas=(1.0, 0.5, -1.5), betas=(0.0, 0.5, 1.0),
                               gamma=2.0)
    for spec in (case_a, case_b):
        for p in points_loguniform(spec.n, 20, rng):
            border, det = bordered_hessian(spec, p)
            assert abs(det) <= 1e-8 * det_scale(border)


def test_make_thm41_case_b_validates_sum():
    with pytest.raises(ValidationError):
        make_thm41_family("b", alphas=(1.0, 1.0))


@pytest.mark.parametrize("make, case, kwargs", [
    (make_thm41_family, "b", {"alphas": []}),
    (make_thm51_family, "a", {"alphas": []}),
    (make_thm51_family, "a", {"alphas": (0.5, 0.0)}),
    (make_thm51_family, "a", {"alphas": (0.5, 0.5), "gamma": 0.0}),
], ids=["thm41-b-empty", "thm51-a-empty", "thm51-a-zero-exponent", "thm51-a-zero-gamma"])
def test_family_constructors_reject_bad_exponents(make, case, kwargs):
    with pytest.raises(ValidationError):
        make(case, **kwargs)


def test_classify_ces_families():
    assert classify_ces(make_cobb_douglas(1.0, (0.3, 0.7))).family == "thm51_a"
    composite_cd = Composite(Power(3.0), (PowFn(1.0, 0.0, 1 / 3), PowFn(1.0, 0.0, 2 / 3)))
    assert classify_ces(composite_cd).family == "thm51_a"
    verdict = classify_ces(Acms(1.0, (1.0, 1.0), 0.5, 1.0))
    assert verdict.family == "thm51_b"
    assert verdict.certificate["sigma"] == pytest.approx(2.0)
    good = Composite(Identity(), (LogPowFn(0.0, 1.0, 2.0), LogPowFn(0.0, 1.0, -2.0)))
    assert classify_ces(good).family == "thm51_c"
    shifted = Homothetical((PowFn(1.0, 1.0, 0.5), PowFn(1.0, 0.0, 0.5)))
    assert classify_ces(shifted).family == "none_ces"


def test_classify_ces_flags_unconstrained_log_shape():
    bad = Homothetical((LogPowFn(0.0, 1.0, 1.0), LogPowFn(0.0, 1.0, 1.0)))
    verdict = classify_ces(bad)
    assert verdict.family == "none_ces"
    assert "constraint" in verdict.notes


def test_classify_ces_rejects_an_object_that_is_not_a_spec():
    with pytest.raises(SpecError, match="unknown kind"):
        classify_ces(PowFn(1.0, 0.0, 2.0))


def test_make_thm51_case_a():
    spec = make_thm51_family("a", alphas=(1 / 3, 2 / 3), outer=Power(3.0))
    verdict = ces_probe(spec, seed=42)
    assert verdict.is_constant and verdict.sigma == pytest.approx(1.0, abs=1e-10)


def test_make_thm51_case_b():
    spec = make_thm51_family("b", sigma=2.0, betas=(1.0, 1.0))
    verdict = ces_probe(spec, seed=42)
    assert verdict.is_constant and verdict.sigma == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(ValidationError):
        make_thm51_family("b", sigma=1.0, betas=(1.0, 1.0))


def test_make_thm51_case_c():
    spec = make_thm51_family("c", mu=(1.0, -1.0))
    pts = points_loguniform(2, 18, 42, lo=1.5, hi=3.0) + [(E, E * E), (E * E, E)]
    verdict = ces_probe(spec, pts)
    assert verdict.is_constant and verdict.sigma == pytest.approx(1.0, abs=1e-10)
    assert hicks(spec, (E, E * E), 1, 2) == pytest.approx(1.0, rel=1e-12)
    assert hicks(spec, (E * E, E), 1, 2) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValidationError):
        make_thm51_family("c", mu=(1.0, 1.0))
    with pytest.raises(ValidationError):
        make_thm51_family("c", mu=(1.0, -1.0, 2.0))


def test_unconstrained_log_pair_is_not_ces():
    # frozen witness values 1/2 at (e, e) and 3/5 at (e^2, e)
    bad = Homothetical((LogPowFn(0.0, 1.0, 1.0), LogPowFn(0.0, 1.0, 1.0)))
    assert hicks(bad, (E, E), 1, 2) == pytest.approx(0.5, rel=1e-12)
    assert hicks(bad, (E * E, E), 1, 2) == pytest.approx(0.6, rel=1e-12)
    pts = points_loguniform(2, 18, 42, lo=1.5, hi=3.0) + [(E, E), (E * E, E)]
    verdict = ces_probe(bad, pts)
    assert not verdict.is_constant
    assert verdict.spread >= 0.1


def test_check_corollary42_two_exponentials():
    spec = Homothetical((ExpFn(1.0, 1.0), ExpFn(1.0, 2.0), PowFn(1.0, 0.0, 3.0)))
    report = check_corollary42(spec, seed=42)
    assert report.gk_all_zero and report.equivalent  # so the bordered matrices are singular


def test_check_corollary42_single_exponential():
    spec = Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 2.0), PowFn(1.0, 0.0, 3.0)))
    report = check_corollary42(spec, seed=42)
    assert not report.gk_all_zero and report.equivalent  # so not all of them singular


def test_check_corollary42_rejects_non_positive_sample():
    # curvature is defined at x1 = -1, the bordered matrix only on the positive orthant
    spec = Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 2.0)))
    with pytest.raises(DomainError, match="positive orthant"):
        check_corollary42(spec, [(-1.0, 1.0)])


def test_check_corollary42_requires_exponential():
    with pytest.raises(SpecError):
        check_corollary42(make_cobb_douglas(1.0, (0.5, 0.5)))


def test_classify_imports_no_numeric_code():
    # the deciders are symbolic: classify reads the error types and the spec
    # model only, and the numeric Corollary 4.2 check lives in elasticity
    tree = ast.parse(inspect.getsource(classify))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert imported == {"__future__", "dataclasses", "math", "typing", "errors", "funcspec"}
    assert prodgeom.check_corollary42 is elasticity.check_corollary42
    assert prodgeom.Corollary42Report is elasticity.Corollary42Report
    assert not {"check_corollary42", "Corollary42Report"} & set(vars(classify))


def test_classifier_soundness_randomised():
    rng = random.Random(77)
    produced = 0
    while produced < 30:
        spec = random_homothetical(rng, n_range=(2, 3))
        verdict = classify_developable(spec)
        if verdict.family == "none_developable":
            alphas = verdict.certificate.get("alphas")
            if alphas is not None and abs(math.fsum(alphas) - 1.0) < 0.05:
                continue  # too close to the flat family for the 1e-6 floor
        produced += 1
        flat, max_g = is_developable(spec, points_loguniform(spec.n, 50, rng), tol=1e-9)
        if verdict.family in ("thm31_a", "thm31_b"):
            assert flat, (spec, max_g)
        else:
            assert max_g > 1e-6, (spec, max_g)
