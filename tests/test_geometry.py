"""Tests for Hessian determinants and Gauss-Kronecker curvature."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeom import (
    Composite,
    DomainError,
    ExpFn,
    Homothetical,
    Identity,
    Log,
    LogPowFn,
    NumericalError,
    PowFn,
    Power,
    ProdgeomError,
    Scale,
    SpecError,
    ValidationError,
    gauss_kronecker,
    gauss_kronecker_batch,
    hessian,
    hessian_det_closed,
    hessian_det_direct,
    is_developable,
    make_acms,
    make_cobb_douglas,
    serialize_spec,
)
from prodgeom import geometry
from prodgeom.cli import run
from prodgeom.geometry import det_scale, plu_det, plu_dets
from prodgeom.sampling import points_loguniform, random_homothetical


def test_hessian_monomial():
    assert hessian(make_cobb_douglas(1.0, (2.0, 3.0)), (1.0, 1.0)).tolist() == \
        [[2.0, 6.0], [6.0, 6.0]]


def test_hessian_sqrt():
    assert hessian(make_cobb_douglas(1.0, (0.5, 0.5)), (1.0, 1.0)).tolist() == \
        [[-0.25, 0.25], [0.25, -0.25]]


def test_hessian_single_variable_at_zero():
    spec = Homothetical((PowFn(1.0, 0.0, 2.0),))
    assert hessian(spec, (0.0,)).tolist() == [[2.0]]
    assert hessian_det_direct(spec, (0.0,)) == 2.0


def test_det_direct_monomial():
    assert hessian_det_direct(make_cobb_douglas(1.0, (2.0, 3.0)), (1.0, 1.0)) == -24.0


def test_det_direct_unit_sum_is_zero():
    det = hessian_det_direct(make_cobb_douglas(1.0, (0.5, 0.5)), (1.0, 1.0))
    assert abs(det) <= 1e-15


def test_det_closed_monomial():
    # bracket by hand: f^2 * (2 * (-3) + (-2) * 9) = -24 at (1, 1)
    assert hessian_det_closed(make_cobb_douglas(1.0, (2.0, 3.0)), (1.0, 1.0)) == -24.0


def test_det_closed_two_exponentials_vanishes():
    spec = Homothetical((PowFn(1.0, 0.0, 2.0), ExpFn(1.0, 1.0), ExpFn(1.0, 1.0)))
    assert abs(hessian_det_closed(spec, (1.0, 1.0, 1.0))) <= 1e-12


def test_det_closed_unit_exponent_sum_vanishes():
    spec = make_cobb_douglas(1.0, (0.25, 0.25, 0.5))
    det = hessian_det_closed(spec, (1.0, 2.0, 3.0))
    assert abs(det) <= 1e-12


def test_det_closed_requires_homothetical():
    spec = Composite(Identity(), (PowFn(1.0, 0.0, 1.0), PowFn(1.0, 0.0, 1.0)))
    with pytest.raises(SpecError):
        hessian_det_closed(spec, (1.0, 1.0))


def test_det_closed_overflow_is_numerical_error():
    spec = make_cobb_douglas(1.0, (0.3, 0.7))
    with pytest.raises(NumericalError, match="overflowed"):
        hessian_det_closed(spec, (1e200, 1e200))


def test_det_closed_zero_component_raises_but_curvature_falls_back():
    # (x1 - 1)^2 * x2^2 has a vanishing first component at x1 = 1
    spec = Homothetical((PowFn(1.0, -1.0, 2.0), PowFn(1.0, 0.0, 2.0)))
    with pytest.raises(DomainError):
        hessian_det_closed(spec, (1.0, 1.0))
    rec = gauss_kronecker(spec, (1.0, 1.0))
    direct = hessian_det_direct(spec, (1.0, 1.0))
    assert rec.hessian_det == direct


def test_closed_vs_direct_randomised():
    rng = random.Random(42)
    for _ in range(80):
        spec = random_homothetical(rng, n_range=(2, 5))
        point = points_loguniform(spec.n, 1, rng)[0]
        direct = hessian_det_direct(spec, point)
        closed = hessian_det_closed(spec, point)
        assert abs(closed - direct) <= 1e-8 * max(1.0, abs(direct))


def test_gauss_kronecker_monomial():
    rec = gauss_kronecker(make_cobb_douglas(1.0, (2.0, 3.0)), (1.0, 1.0))
    assert rec.omega == pytest.approx(math.sqrt(14.0), rel=1e-15)
    assert rec.hessian_det == -24.0
    assert rec.gk_curvature == pytest.approx(-24.0 / 196.0, rel=1e-12)
    assert rec.n == 2
    assert rec.gk_curvature == rec.hessian_det / rec.omega ** (rec.n + 2)


def test_gauss_kronecker_sqrt_flat():
    rec = gauss_kronecker(make_cobb_douglas(1.0, (0.5, 0.5)), (1.3, 0.8))
    assert abs(rec.gk_curvature) <= 1e-12


def test_gauss_kronecker_parabola_vertex():
    rec = gauss_kronecker(Homothetical((PowFn(1.0, 0.0, 2.0),)), (0.0,))
    assert rec.omega == 1.0
    assert rec.gk_curvature == 2.0


def test_omega_at_least_one():
    rng = random.Random(31)
    for _ in range(20):
        spec = random_homothetical(rng)
        point = points_loguniform(spec.n, 1, rng)[0]
        assert gauss_kronecker(spec, point).omega >= 1.0


def test_is_developable_two_exp_family():
    spec = Homothetical((PowFn(1.0, 0.0, 2.0), ExpFn(1.0, 1.0), ExpFn(2.0, 3.0)))
    flat, max_g = is_developable(spec, points_loguniform(3, 50, 42), tol=1e-9)
    assert flat and max_g <= 1e-9


def test_is_developable_rejects_supersum():
    spec = make_cobb_douglas(1.0, (0.6, 0.6))
    flat, max_g = is_developable(spec, points_loguniform(2, 50, 42))
    assert not flat and max_g > 1e-6


def test_is_developable_unit_sum():
    spec = make_cobb_douglas(1.0, (0.3, 0.7))
    flat, max_g = is_developable(spec, points_loguniform(2, 50, 42), tol=1e-9)
    assert flat and max_g <= 1e-9


def test_scale_covariance_of_determinant():
    # scaling f by c (absorbed in the leading gamma) scales det by c^n
    rng = random.Random(13)
    for _ in range(10):
        spec = random_homothetical(rng, kinds=("pow", "exp"))
        c = rng.uniform(0.5, 3.0)
        head = spec.components[0]
        if isinstance(head, PowFn):
            scaled_head = PowFn(head.gamma * c, head.beta, head.alpha)
        else:
            scaled_head = ExpFn(head.gamma * c, head.lam)
        scaled = Homothetical((scaled_head,) + spec.components[1:])
        point = points_loguniform(spec.n, 1, rng)[0]
        base = hessian_det_closed(spec, point)
        assert hessian_det_closed(scaled, point) == pytest.approx(
            c ** spec.n * base, rel=1e-9)
        assert hessian_det_direct(scaled, point) == pytest.approx(
            c ** spec.n * hessian_det_direct(spec, point), rel=1e-9)


def test_gk_permutation_invariance():
    rng = random.Random(23)
    for _ in range(10):
        spec = random_homothetical(rng, n_range=(3, 4))
        point = points_loguniform(spec.n, 1, rng)[0]
        perm = list(range(spec.n))
        rng.shuffle(perm)
        permuted = Homothetical(tuple(spec.components[k] for k in perm))
        permuted_point = tuple(point[k] for k in perm)
        g = gauss_kronecker(spec, point).gk_curvature
        g_perm = gauss_kronecker(permuted, permuted_point).gk_curvature
        assert g_perm == pytest.approx(g, rel=1e-10, abs=1e-14)


def test_plu_det_against_numpy():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8):
        for _ in range(10):
            m = rng.normal(size=(n, n))
            assert plu_det(m) == pytest.approx(float(np.linalg.det(m)), rel=1e-10)


def test_plu_det_singular():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert plu_det(m) == pytest.approx(0.0, abs=1e-15)
    assert det_scale(m) == 8.0


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _assert_stack_matches_plu_det(stack) -> None:
    stack = np.asarray(stack, dtype=float)
    expected = [plu_det(m) for m in stack]
    assert _bits(plu_dets(stack)) == _bits(expected)


# few distinct magnitudes make |pivot| ties and exact cancellations common
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0]),
                   st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def _matrix_stacks(draw):
    size = draw(st.integers(1, 5))
    count = draw(st.integers(1, 5))
    entries = draw(st.lists(_ENTRY, min_size=count * size * size,
                            max_size=count * size * size))
    stack = np.array(entries).reshape(count, size, size)
    if draw(st.booleans()):
        stack = np.triu(stack) + np.swapaxes(np.triu(stack, 1), 1, 2)
    return stack


@settings(max_examples=200, deadline=None)
@given(stack=_matrix_stacks())
def test_plu_dets_bitwise_equals_plu_det(stack):
    _assert_stack_matches_plu_det(stack)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 10))
def test_plu_dets_bitwise_on_gaussian_matrices(seed, size):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(12, size, size))
    _assert_stack_matches_plu_det(stack)
    _assert_stack_matches_plu_det(stack + np.swapaxes(stack, 1, 2))


def test_plu_dets_special_cases_bitwise():
    stack = np.array([
        [[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]],    # zero pivot at step 0
        [[2.0, 4.0, 1.0], [1.0, 2.0, 5.0], [4.0, 8.0, 3.0]],    # zero pivot at step 1
        [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]],    # rank one
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],    # one swap
        [[1.0, 2.0, 0.0], [-1.0, 5.0, 1.0], [1.0, 0.0, 3.0]],   # |pivot| tie
        [[1e-200, 0.0, 0.0], [0.0, -1e-200, 0.0], [0.0, 0.0, 1.0]],  # det underflows to -0.0
        [[-0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],   # signed zero pivot
        [[4.0, 1.0, 2.0], [1.0, 3.0, 0.5], [2.0, 0.5, 5.0]],    # regular symmetric
    ])
    _assert_stack_matches_plu_det(stack)
    dets = plu_dets(stack)
    assert _bits(dets[[0, 1, 2, 6]]) == _bits([0.0] * 4)
    assert _bits(dets[5]) == _bits(-0.0)
    assert dets[3] == -1.0


def test_plu_dets_rejects_non_square_stack():
    with pytest.raises(ValidationError):
        plu_dets(np.zeros((2, 3, 4)))
    with pytest.raises(ValidationError):
        plu_dets(np.zeros((3, 3)))


def _component(rng):
    # integer exponents with beta in {0, -1} and logpow with a = 0 vanish at
    # x = 0 or x = 1, the closed form's LU fallback
    kind = rng.randrange(3)
    if kind == 0:
        return PowFn(rng.choice([1.0, -1.0, rng.uniform(0.2, 3.0)]),
                     rng.choice([0.0, -1.0, 1.0, rng.uniform(0.0, 1.0)]),
                     rng.choice([1.0, 2.0, 3.0, -1.0, 0.5, rng.uniform(-3.0, 3.0) or 1.0]))
    if kind == 1:
        return ExpFn(rng.choice([1.0, -2.0, rng.uniform(0.1, 3.0)]),
                     rng.choice([1.0, -1.0, 400.0, rng.uniform(-3.0, 3.0) or 1.0]))
    return LogPowFn(rng.choice([0.0, 1.0, rng.uniform(0.0, 2.0)]),
                    rng.choice([1.0, -1.0, rng.uniform(0.2, 2.0)]),
                    rng.choice([1.0, 2.0, 0.5, -1.0, rng.uniform(-2.0, 2.0) or 1.0]))


def _outer(rng):
    return rng.choice([Identity(), Power(rng.choice([2.0, -1.0, 0.5, rng.uniform(-2.0, 3.0) or 1.0])),
                       Scale(rng.uniform(0.5, 2.0)), Log()])


# the domain edge, negatives, subnormal and tiny values whose powers
# underflow, and huge ones whose powers overflow
_BLOCK_COORDS = (0.0, -0.0, -0.5, -2.0, 1.0, 5e-324, 1e-300, 1e-160, 1e150, 1e200)


def _record_bits(value, gradient, hessian, omega, det, gk) -> list:
    return [float(v).hex() for v in (value, omega, det, gk, *gradient, *np.ravel(hessian))]


def _assert_batch_matches_scalar(spec, points):
    block = gauss_kronecker_batch(spec, points)
    for i, point in enumerate(points):
        try:
            rec = gauss_kronecker(spec, point)
        except ProdgeomError as e:
            assert type(block.errors[i]) is type(e) and str(block.errors[i]) == str(e)
            continue
        assert block.errors[i] is None
        assert _record_bits(block.value[i], block.gradient[i], block.hessian[i],
                            block.omega[i], block.hessian_det[i], block.gk_curvature[i]) == \
            _record_bits(rec.value, rec.jet.gradient, rec.jet.hessian, rec.omega,
                         rec.hessian_det, rec.gk_curvature)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       n=st.integers(1, 10), m=st.integers(1, 30))
def test_batch_bitwise_equals_gauss_kronecker(seed, kind, n, m):
    rng = random.Random(seed)
    if kind == "homothetical":
        spec = Homothetical([_component(rng) for _ in range(n)])
    elif kind == "composite":
        spec = Composite(_outer(rng), [_component(rng) for _ in range(n)])
    else:
        spec = make_acms(rng.uniform(0.5, 2.0), [rng.uniform(0.5, 2.0) for _ in range(n)],
                         rng.choice((-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0)),
                         rng.uniform(0.5, 2.0), _outer(rng), relax_rho=True)
    points = [[rng.choice(_BLOCK_COORDS) if rng.random() < 0.2 else rng.uniform(0.3, 3.0)
               for _ in range(n)] for _ in range(m)]
    _assert_batch_matches_scalar(spec, points)


@pytest.mark.parametrize("spec, points", [
    # 1e300 * x overflows to inf at x = 1e10, but 1 / inf is a finite value:
    # the 1-D jet is not finite, though the assembled row would be
    (Composite(Power(-1.0), (PowFn(1e300, 0.0, 1.0),)), [(1e10,), (2.0,)]),
    # x1 * x2: a square underflows to 0, or r_1 overflows, in the closed form,
    # so those rows take the LU route
    (make_cobb_douglas(1.0, (1.0, 1.0)), [(1e-200, 1.0), (1e-160, 1.0), (1.0, 2.0)]),
    # 0.4 * 5e-324 underflows to 0 in a CES base with rho = -1
    (make_acms(1.0, (0.4, 1.0), -1.0, 1.0), [(5e-324, 1.0), (1.0, 1.0)]),
])
def test_batch_edge_rows_equal_gauss_kronecker(spec, points):
    _assert_batch_matches_scalar(spec, points)


def test_batch_zero_factor_rows_take_lu(monkeypatch):
    # (x1 - 1)^2 * x2^2: the first factor vanishes on x1 = 1; those rows take
    # the stacked LU route, not the per-point one
    spec = Homothetical((PowFn(1.0, -1.0, 2.0), PowFn(1.0, 0.0, 2.0)))
    points = [(1.0, 1.0), (2.0, 1.5), (1.0, 3.0)]
    monkeypatch.setattr(geometry, "gauss_kronecker", None)
    block = gauss_kronecker_batch(spec, points)
    monkeypatch.undo()
    assert block.errors == (None, None, None)
    assert block.hessian_det.tolist() == [hessian_det_direct(spec, points[0]),
                                          hessian_det_closed(spec, points[1]),
                                          hessian_det_direct(spec, points[2])]


def test_batch_errors_per_row_and_shape_check():
    spec = make_cobb_douglas(1.0, (0.3, 0.7))
    # f'' of the first factor, 1e-300^-1.7, overflows
    block = gauss_kronecker_batch(spec, [(1.0, 1.0), (-1.0, 1.0), (1e-300, 1.0)])
    assert block.errors[0] is None
    assert isinstance(block.errors[1], DomainError)
    assert isinstance(block.errors[2], NumericalError)
    assert math.isnan(block.gk_curvature[1]) and math.isnan(block.value[2])
    with pytest.raises(ValidationError):
        gauss_kronecker_batch(spec, [(1.0, 1.0, 1.0)])
    with pytest.raises(ValidationError):
        gauss_kronecker_batch(spec, [1.0, 1.0])


@pytest.mark.parametrize("spec, point, message", [
    # omega overflows: f' = e^360 squares past the float range
    (Homothetical((ExpFn(1.0, 1.0),)), (360.0,), "non-finite"),
    # ... and the LU determinant overflows to -inf
    (Composite(Identity(), (ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0))), (360.0, 1e-5),
     "non-finite"),
])
def test_gauss_kronecker_non_finite_is_numerical_error(spec, point, message):
    with pytest.raises(NumericalError, match=message):
        gauss_kronecker(spec, point)


@pytest.mark.parametrize("alphas, point, det", [
    # x1 * x2: r_1 = -1 / x1^2 divides by a square that underflows to 0
    ((1.0, 1.0), (1e-200, 1.0), -1.0),
    # ... or overflows to -inf
    ((1.0, 1.0), (1e-160, 1.0), -1.0),
    # x1^0.3 x2^0.7 (det H = 0 exactly): f^2 overflows in the closed form
    ((0.3, 0.7), (1e200, 1e200), 0.0),
])
def test_closed_form_failure_takes_lu_route(capsys, tmp_path, alphas, point, det):
    spec = make_cobb_douglas(1.0, alphas)
    try:
        closed = hessian_det_closed(spec, point)
    except NumericalError:
        closed = math.nan
    assert not math.isfinite(closed)
    assert gauss_kronecker(spec, point).hessian_det == hessian_det_direct(spec, point) == det
    block = gauss_kronecker_batch(spec, [point])
    assert block.errors == (None,) and block.hessian_det.tolist() == [det]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(serialize_spec(spec))
    points_path = tmp_path / "pts.csv"
    points_path.write_text(f"{point[0]!r},{point[1]!r}\n")
    assert run(["curvature", "--spec", str(spec_path), "--points", str(points_path)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[4]) == det and row[-1] == "ok"
