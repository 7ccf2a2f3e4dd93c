"""Tests for Hessian determinants and Gauss-Kronecker curvature."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    allen,
    ces_probe,
    check_corollary42,
    elasticity_report,
    elasticity_report_batch,
    evaluate,
    fd_jet,
    gauss_kronecker,
    gauss_kronecker_batch,
    hessian_det_closed,
    hessian_det_direct,
    hicks,
    is_developable,
    jet1d,
    jet_multivariate,
    make_acms,
    make_cobb_douglas,
    serialize_spec,
)
from prodgeom import geometry
from prodgeom.cli import run
from prodgeom.elasticity import bordered_hessian
from prodgeom.geometry import det_scale, plu_det, plu_dets
from prodgeom.sampling import points_loguniform, random_homothetical
from test_funcspec import _EDGE_OUTERS, _JET_COORDS, _edge_spec


def test_hessian_monomial():
    assert jet_multivariate(make_cobb_douglas(1.0, (2.0, 3.0)), (1.0, 1.0)).hessian.tolist() == \
        [[2.0, 6.0], [6.0, 6.0]]


def test_hessian_sqrt():
    assert jet_multivariate(make_cobb_douglas(1.0, (0.5, 0.5)), (1.0, 1.0)).hessian.tolist() == \
        [[-0.25, 0.25], [0.25, -0.25]]


def test_hessian_single_variable_at_zero():
    spec = Homothetical((PowFn(1.0, 0.0, 2.0),))
    assert jet_multivariate(spec, (0.0,)).hessian.tolist() == [[2.0]]
    assert hessian_det_direct(spec, (0.0,)) == 2.0


def test_det_direct_monomial():
    assert hessian_det_direct(make_cobb_douglas(1.0, (2.0, 3.0)), (1.0, 1.0)) == -24.0


def test_det_direct_unit_sum_is_zero():
    det = hessian_det_direct(make_cobb_douglas(1.0, (0.5, 0.5)), (1.0, 1.0))
    assert abs(det) <= 1e-15


def test_det_direct_non_finite_is_numerical_error():
    # x1^2 x2^3 at (1e55, 1e55): the Hessian is finite, its determinant
    # overflows; plu_det comes out -inf without a warning, which the suite
    # would turn into a failure
    with pytest.raises(NumericalError, match=r"non-finite LU determinant at \(1e\+55, 1e\+55\)"):
        hessian_det_direct(make_cobb_douglas(1.0, (2.0, 3.0)), (1e55, 1e55))


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


@pytest.mark.parametrize("point", [(1e200, 1e200), (1e155, 1e155), (1e300, 1e10)])
def test_det_closed_non_finite_result_is_numerical_error(point):
    # x1 * x2: f overflows to inf without an OverflowError, and inf * -0.0 is
    # nan; the LU route and the curvature raise at these points too
    spec = make_cobb_douglas(1.0, (1.0, 1.0))
    for fn in (hessian_det_closed, hessian_det_direct, gauss_kronecker, evaluate):
        with pytest.raises(NumericalError):
            fn(spec, point)


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


def _det_closed_by_jet1d(spec, point):
    # the closed-form determinant on one jet1d per factor, in factor order:
    # each factor's derivatives run before the next factor's guard
    factors = [jet1d(c, x) for c, x in zip(spec.components, point)]
    if len(factors) > 1 and any(j.value == 0.0 for j in factors):
        raise DomainError("a component vanishes")
    try:
        det = geometry._closed_form(factors)
    except (OverflowError, ZeroDivisionError):
        raise NumericalError("the closed form overflowed") from None
    if not math.isfinite(det):
        raise NumericalError("non-finite closed form")
    return det


def _outcome(fn, spec, point):
    try:
        return fn(spec, point).hex()
    except ProdgeomError as e:
        return type(e).__name__


def test_det_closed_keeps_the_bits_of_the_jet1d_route():
    # on the value pass, hessian_det_closed returns the jet1d route's bits
    # wherever that route returns, and raises its error type elsewhere,
    # except where the value pass raises first: then it raises evaluate's
    # error (a guard outranks a derivative's overflow, and a product that
    # overflows to inf times a zero factor is not finite)
    rng = random.Random(20)
    outcomes = set()
    for _ in range(2500):
        n = rng.randint(1, 6)
        spec = _edge_spec(rng, "homothetical", "identity", n)
        point = tuple(rng.choice(_JET_COORDS) if rng.random() < 0.3 else rng.uniform(0.3, 3.0)
                      for _ in range(n))
        before = _outcome(_det_closed_by_jet1d, spec, point)
        after = _outcome(hessian_det_closed, spec, point)
        if after != before:
            assert before in ("DomainError", "NumericalError")
            assert after == _outcome(evaluate, spec, point)
        outcomes.add(after if after.endswith("Error") else "returns")
    assert outcomes == {"returns", "DomainError", "NumericalError"}


def test_is_developable_default_samples_are_the_seeded_loguniform_points():
    spec = make_cobb_douglas(1.0, (0.3, 0.9))
    assert is_developable(spec) == is_developable(spec, points_loguniform(spec.n, 50, 42))
    assert is_developable(spec, seed=7) == is_developable(spec, points_loguniform(2, 50, 7))


def test_gauss_kronecker_monomial():
    rec = gauss_kronecker(make_cobb_douglas(1.0, (2.0, 3.0)), (1.0, 1.0))
    assert rec.omega == pytest.approx(math.sqrt(14.0), rel=1e-15)
    assert rec.hessian_det == -24.0
    assert rec.gk_curvature == pytest.approx(-24.0 / 196.0, rel=1e-12)
    assert rec.jet.n == 2
    assert rec.gk_curvature == rec.hessian_det / rec.omega ** (rec.jet.n + 2)


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
    # orders 20 and 40 lie past _SCALAR_LU_MAX: LAPACK checks the stack-of-one route too
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 20, 40):
        for _ in range(10):
            m = rng.normal(size=(n, n))
            assert plu_det(m) == pytest.approx(float(np.linalg.det(m)), rel=1e-10)


def test_plu_det_singular():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert plu_det(m) == pytest.approx(0.0, abs=1e-15)
    assert det_scale(m) == 8.0


def test_det_scale_overflow_is_inf_without_a_warning():
    # the bordered matrix of e^x1 * x2 at (360, 1e-5): finite row max-norms
    # whose product overflows; the suite turns a numpy RuntimeWarning into a
    # failure. A zero row times an infinite one is nan, also quietly.
    border, _ = bordered_hessian(Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0))),
                                 (360.0, 1e-5))
    assert np.isfinite(border).all() and det_scale(border) == math.inf
    assert det_scale(np.stack([border, np.eye(3)])).tolist() == [math.inf, 1.0]
    assert math.isnan(det_scale(np.array([[0.0, 0.0], [math.inf, 1.0]])))


@pytest.mark.parametrize("case", ["zero-det", "underflowed-scale", "nan-ratio"])
def test_det_ratios_one_matrix_equals_its_row_in_a_stack(case):
    # one matrix gives a Python float with the bits of its row in a stack
    if case == "zero-det":
        matrix, det, ratio = np.array([[1.0, 2.0], [2.0, 4.0]]), 0.0, 0.0
        assert plu_det(matrix) == det
    elif case == "underflowed-scale":
        matrix, det, ratio = np.diag([1e-200, 1e-200]), 1e-300, math.inf
        assert det_scale(matrix) == 0.0
    else:  # e^x1 * x2 at (360, 1e-5): |det| / scale is inf / inf
        matrix, det = bordered_hessian(Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0))),
                                       (360.0, 1e-5))
        ratio = math.inf
        assert det == det_scale(matrix) == math.inf
    one = geometry._det_ratios(det, matrix)
    stacked = geometry._det_ratios(np.array([2.0, det]), np.stack([np.eye(len(matrix)), matrix]))
    assert type(one) is float and one == ratio
    assert _bits([one]) == _bits(stacked[1:]) and stacked[0] == 2.0


# plu_det as it was before its Python-float route, kept verbatim as the reference
@np.errstate(all="ignore")  # a determinant that overflows is inf, quietly
def _plu_det_numpy_loop(matrix: np.ndarray) -> float:
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


def _assert_same_det(matrix) -> None:
    # plu_det has the bits of the numpy loop above; a nan's sign and payload
    # are not compared
    got, want = plu_det(matrix), _plu_det_numpy_loop(matrix)
    assert type(got) is float
    assert math.isnan(got) and math.isnan(want) or got.hex() == want.hex()


# signed zeros, subnormals, nan, the infinities, magnitudes whose products
# overflow or underflow, and small values that tie in |pivot|
_DET_FLOATS = [0.0, -0.0, 5e-324, -2.5e-308, math.nan, math.inf, -math.inf, 1e300, -1e300,
               1e-300, 1.0, -1.0, 2.0, 0.5]


@st.composite
def _edge_matrices(draw):
    # an n x n matrix, n on both sides of _SCALAR_LU_MAX: gaussian entries times
    # a drawn power of ten, maybe a zero block, and a drawn share of the entries
    # replaced from a drawn palette
    n = draw(st.integers(1, geometry._SCALAR_LU_MAX + 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(n, n)) * 10.0 ** draw(st.one_of(st.just(0), st.integers(-300, 300)))
    if draw(st.booleans()):  # a zero pivot at a drawn step, unless the palette fills it
        step = draw(st.integers(0, n - 1))
        m[step:, :step + 1] = 0.0
    palette = draw(st.lists(st.one_of(st.sampled_from(_DET_FLOATS), st.floats()), max_size=4))
    if palette:
        m = np.where(rng.random((n, n)) < draw(st.sampled_from([0.1, 0.5, 1.0])),
                     rng.choice(palette, size=(n, n)), m)
    if draw(st.booleans()):  # symmetric, signed zeros kept
        m = np.where(np.triu(np.ones((n, n), dtype=bool)), m, m.T)
    return m


@pytest.mark.fuzz
@settings(deadline=None)
@given(matrix=_edge_matrices())
@example(matrix=np.array([[0.0, 1.0, 2.0], [math.nan, 3.0, 4.0], [0.0, 6.0, 7.0]]))  # nan pivot
@example(matrix=np.array([[1.0, 2.0, 3.0], [-1.0, 5.0, 1.0], [1.0, 0.5, 3.0]]))  # |pivot| tie
def test_plu_det_bitwise_equals_the_numpy_loop(matrix):
    _assert_same_det(matrix)


def test_plu_det_routes_meet_at_scalar_lu_max(monkeypatch):
    # order _SCALAR_LU_MAX runs on Python floats and the next order on plu_dets,
    # both with the numpy loop's bits, on gaussian, symmetric and special matrices
    stacks, real = [], geometry.plu_dets
    monkeypatch.setattr(geometry, "plu_dets", lambda s: stacks.append(len(s)) or real(s))
    rng = np.random.default_rng(11)
    for n in (geometry._SCALAR_LU_MAX, geometry._SCALAR_LU_MAX + 1):
        stacks.clear()
        m = rng.normal(size=(n, n))
        special = m.copy()
        special[rng.integers(n, size=3), rng.integers(n, size=3)] = [math.nan, math.inf, -0.0]
        for matrix in (m, m + m.T, special, np.rint(m), m * 1e30, m * 1e-30):
            _assert_same_det(matrix)
        assert stacks == ([] if n == geometry._SCALAR_LU_MAX else [1] * 6)


@pytest.mark.parametrize("det, malformed", [
    (plu_det, 5.0), (plu_det, None), (plu_det, [[1, 2], [3]]), (plu_det, [[1 + 2j, 0], [0, 1]]),
    (plu_det, "x"), (plu_det, [1.0, 2.0]), (plu_det, np.zeros((2, 3))),
    (plu_det, np.eye(2, dtype=complex)), (plu_det, [[None, 1.0], [1.0, 1.0]]),
    (plu_dets, "x"), (plu_dets, [[[1, 2], [3]]]), (plu_dets, [[[1j]]]), (plu_dets, None),
])
def test_determinants_reject_malformed_input(det, malformed):
    # not a bare IndexError, ValueError or TypeError: the shape rule
    with pytest.raises(ValidationError, match=r"needs a .* array of real numbers"):
        det(malformed)


def test_empty_determinants():
    assert plu_det(np.zeros((0, 0))) == 1.0
    assert plu_dets(np.zeros((0, 3, 3))).tolist() == []


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 10), count=st.integers(1, 1500))
def test_plu_dets_bitwise_on_long_stacks(seed, size, count):
    # zero pivots at every step, signed zeros, nan and +-inf among many
    # regular matrices: each determinant (and det_scale) has the bits of its
    # matrix on its own, whatever its neighbours are
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(count, size, size))
    for j in rng.choice(count, size=count // 8, replace=False):
        step = rng.integers(size)
        stack[j, step:, :step + 1] = rng.choice([0.0, -0.0])  # zero pivot at this step
    special = rng.choice(count, size=count // 8, replace=False)
    for j, entry in zip(special, rng.choice([math.nan, math.inf, -math.inf], size=len(special))):
        stack[j, rng.integers(size), rng.integers(size)] = entry
    with np.errstate(all="ignore"):
        expected = [plu_det(m).hex() for m in stack]
        assert [float(d).hex() for d in plu_dets(stack)] == expected
        assert [float(d).hex() for d in plu_dets(stack[::-1])] == expected[::-1]
        # det_scale multiplies the row max-norms in row order, per matrix as stacked
        assert [float(d).hex() for d in det_scale(stack)] == \
            [det_scale(m).hex() for m in stack] == \
            [math.prod(np.max(np.abs(m), axis=1).tolist()).hex() for m in stack]


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


def _random_spec(rng, kind, n):
    if kind == "homothetical":
        return Homothetical([_component(rng) for _ in range(n)])
    if kind == "composite":
        return Composite(_outer(rng), [_component(rng) for _ in range(n)])
    return make_acms(rng.uniform(0.5, 2.0), [rng.uniform(0.5, 2.0) for _ in range(n)],
                     rng.choice((-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0)),
                     rng.uniform(0.5, 2.0), _outer(rng), relax_rho=True)


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
    spec = _random_spec(rng, kind, n)
    points = [[rng.choice(_BLOCK_COORDS) if rng.random() < 0.2 else rng.uniform(0.3, 3.0)
               for _ in range(n)] for _ in range(m)]
    _assert_batch_matches_scalar(spec, points)


# signed zeros, the smallest subnormal, the domain edges x + beta = 0
# (beta = -1 and 1), the logpow holes at x = 1 and e, and values whose
# powers underflow or overflow
_REPEAT_COORDS = (0.0, -0.0, 5e-324, 1.0, -1.0, math.e, 0.5, 2.0, 1e-160, 1e150, 1e200)


@pytest.mark.fuzz
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       n=st.integers(1, 6), m=st.integers(2, 40))
def test_batch_on_repeated_coordinates_bitwise_equals_gauss_kronecker(seed, kind, n, m):
    # coordinates from a small pool, so that the jets' axes repeat them
    rng = random.Random(seed)
    spec = _random_spec(rng, kind, n)
    pool = rng.sample(_REPEAT_COORDS, rng.randint(1, 5))
    points = [[rng.choice(pool) if rng.random() < 0.8 else rng.uniform(0.3, 3.0)
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


def test_batch_keeps_the_result_of_a_flagged_row(monkeypatch):
    # a row the columns flag goes through gauss_kronecker, and where that
    # returns, its numbers are written back: flagging every row changes no bit
    points = [(0.5, 2.0), (3.0, 0.25), (-1.0, 1.0)]
    columns = geometry._jet_columns
    for spec in (Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 0.5))),
                 Composite(Power(2.0), (ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 0.5)))):
        expected = gauss_kronecker_batch(spec, points)
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_jet_columns", lambda spec, x: (
                *columns(spec, x)[:4], np.zeros(len(x), dtype=bool)))
            flagged = gauss_kronecker_batch(spec, points)
        assert expected.errors[:2] == (None, None)
        for got, want in zip(flagged[:-1], expected[:-1]):
            assert [float(v).hex() for v in np.ravel(got)] == \
                [float(v).hex() for v in np.ravel(want)]
        assert [type(e) for e in flagged.errors] == [type(e) for e in expected.errors]


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


@pytest.mark.parametrize("kernel", [gauss_kronecker_batch, elasticity_report_batch])
@pytest.mark.parametrize("points", [[[1.0, 2.0], [1.0]], [(1.0, 2.0), (1.0, 2.0, 3.0)],
                                    [[1.0, "x"]]], ids=["short", "long", "non-number"])
def test_batch_rejects_ragged_points(kernel, points):
    # a ValidationError, not numpy's ValueError about an inhomogeneous shape
    with pytest.raises(ValidationError, match=r"points must form an \(m, 2\) array for a spec "
                                              r"with 2 variables, got ragged rows or a non-number"):
        kernel(make_cobb_douglas(1.0, (0.3, 0.7)), points)


@pytest.mark.parametrize("points", [[(1.0, 1j)], [(1.0, 10**400)]], ids=["complex", "huge-int"])
def test_point_check_turns_numpy_errors_into_validation_error(points):
    # numpy's TypeError and OverflowError are the point check's ValidationError,
    # in the block kernels and the certificates alike
    spec = Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0)))
    for fn in (gauss_kronecker_batch, elasticity_report_batch, is_developable,
               check_corollary42):
        with pytest.raises(ValidationError, match="got ragged rows or a non-number"):
            fn(spec, points)


@pytest.mark.parametrize("point", [(1.0, None), (1.0, "x")], ids=["none", "text"])
def test_coordinate_that_is_not_a_number_is_validation_error(point):
    # no bare TypeError or ValueError from float(), and no None read as nan
    # by numpy (which would report a non-finite value at (1.0, nan))
    spec = Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0)))
    calls = [lambda fn=fn: fn(spec, point)
             for fn in (evaluate, jet_multivariate, hessian_det_direct,
                        hessian_det_closed, gauss_kronecker, bordered_hessian,
                        elasticity_report)]
    calls += [lambda fn=fn: fn(spec, point, 1, 2) for fn in (hicks, allen)]
    calls += [lambda fn=fn: fn(spec, [(1.0, 2.0), point])
              for fn in (gauss_kronecker_batch, elasticity_report_batch, is_developable,
                         check_corollary42, ces_probe)]
    calls += [lambda: fd_jet(lambda q: evaluate(spec, q), point),
              lambda: jet1d(spec.components[1], point[1])]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def test_batch_of_an_empty_list_has_no_rows():
    spec = make_cobb_douglas(1.0, (0.3, 0.7))
    assert gauss_kronecker_batch(spec, []).hessian.shape == (0, 2, 2)
    block = elasticity_report_batch(spec, [])
    assert block.errors == () and block.hicks.shape == (0, 2, 2)


def test_batch_errors_keep_no_frames():
    # a stored error carries no traceback, so a block does not keep the
    # frames of its failing rows' per-point calls alive
    spec = make_cobb_douglas(1.0, (0.3, 0.7))
    block = gauss_kronecker_batch(spec, [(1.0, 1.0), (-1.0, 1.0), (1e-300, 1.0), (0.5, -2.0)])
    errors = [e for e in block.errors if e is not None]
    assert len(errors) == 3 and all(e.__traceback__ is None for e in errors)


def test_batch_of_no_rows():
    block = gauss_kronecker_batch(make_cobb_douglas(1.0, (0.3, 0.7)), np.zeros((0, 2)))
    assert block.errors == ()
    assert block.gradient.shape == (0, 2) and block.hessian.shape == (0, 2, 2)
    assert all(col.shape == (0,) for col in (block.value, block.omega, block.hessian_det,
                                             block.gk_curvature))


def test_batch_out_of_domain_row_runs_scalar_value_pass_once(scalar_value_calls):
    # the column pass flags the row, and only gauss_kronecker's own jet re-runs it
    spec = make_cobb_douglas(1.0, (0.3, 0.7))
    block = gauss_kronecker_batch(spec, [(1.0, 1.0), (-1.0, 1.0), (2.0, 0.5)])
    assert isinstance(block.errors[1], DomainError)
    assert block.errors[0] is None and block.errors[2] is None
    assert scalar_value_calls == [(-1.0, 1.0)]


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


# the jets' edge coordinates, and values whose powers overflow or underflow
_ROBUST_COORDS = _JET_COORDS + (1e300, 1e-300, 5e-324)


@pytest.mark.fuzz
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       outer=st.sampled_from(sorted(_EDGE_OUTERS)),
       n=st.integers(2, 4), m=st.integers(1, 3))
def test_public_functions_return_or_raise_a_prodgeom_error(seed, kind, outer, n, m):
    # at edge coordinates every public per-point function, certificate and
    # batch kernel returns or raises a ProdgeomError: no bare Python error
    # escapes, and no numpy RuntimeWarning (the suite's filter fails on one)
    rng = random.Random(seed)
    spec = _edge_spec(rng, kind, outer, n)
    points = [tuple(rng.choice(_ROBUST_COORDS) if rng.random() < 0.5 else rng.uniform(0.3, 3.0)
                    for _ in range(n)) for _ in range(m)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    calls = [lambda: gauss_kronecker_batch(spec, points),
             lambda: elasticity_report_batch(spec, points),
             lambda: is_developable(spec, points),
             lambda: check_corollary42(spec, points),
             lambda: ces_probe(spec, points * 2)]
    for p in points:
        calls += [lambda fn=fn, p=p: fn(spec, p)
                  for fn in (evaluate, jet_multivariate, hessian_det_direct,
                             hessian_det_closed, gauss_kronecker, bordered_hessian,
                             elasticity_report)]
        calls += [lambda fn=fn, p=p, i=i, j=j: fn(spec, p, i, j)
                  for fn in (hicks, allen) for i, j in pairs]
        calls.append(lambda p=p: fd_jet(lambda q: evaluate(spec, q), p))
        # an evaluator that divides by zero at the point itself
        calls.append(lambda p=p: fd_jet(lambda q: evaluate(spec, q) / (q[0] - p[0]), p))
        calls += [lambda c=c, x=x: jet1d(c, x)
                  for c, x in zip(getattr(spec, "components", ()), p)]
    calls.append(lambda: fd_jet(lambda q: evaluate(spec, q), ()))  # no coordinate
    for call in calls:
        try:
            call()
        except ProdgeomError:
            pass
