"""Tests for closed-form jets and the finite-difference oracle."""

import hashlib
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
    Log,
    LogPowFn,
    NumericalError,
    PowFn,
    Power,
    ValidationError,
    evaluate,
    fd_jet,
    jet1d,
    jet_multivariate,
    make_acms,
    make_cobb_douglas,
)
from prodgeom.jets import _fd_columns
from prodgeom.sampling import (
    points_loguniform,
    random_composite,
    random_homothetical,
    random_outer,
)

E = math.e


def test_jet1d_pow_polynomial():
    j = jet1d(PowFn(gamma=1.0, beta=0.0, alpha=2.0), 3.0)
    assert (j.value, j.d1, j.d2) == (9.0, 6.0, 2.0)


def test_jet1d_exp():
    j = jet1d(ExpFn(gamma=2.0, lam=1.0), 0.0)
    assert (j.value, j.d1, j.d2) == (2.0, 2.0, 2.0)


def test_jet1d_log():
    j = jet1d(LogPowFn(a=0.0, b=1.0, m=1.0), E)
    assert j.value == pytest.approx(1.0, rel=1e-15)
    assert j.d1 == pytest.approx(1.0 / E, rel=1e-15)
    assert j.d2 == pytest.approx(-1.0 / E**2, rel=1e-15)


def test_jet1d_integer_alpha_at_zero_base():
    # alpha = 2 admits x + beta = 0; the linear term must short-circuit
    j = jet1d(PowFn(gamma=3.0, beta=-1.0, alpha=2.0), 1.0)
    assert (j.value, j.d1, j.d2) == (0.0, 0.0, 6.0)
    j = jet1d(PowFn(gamma=3.0, beta=-1.0, alpha=1.0), 1.0)
    assert (j.value, j.d1, j.d2) == (0.0, 3.0, 0.0)


def test_jet1d_domain_guards():
    with pytest.raises(DomainError):
        jet1d(PowFn(gamma=1.0, beta=0.0, alpha=0.5), -1.0)
    with pytest.raises(DomainError):
        jet1d(LogPowFn(a=0.0, b=1.0, m=0.5), 0.5)  # ln(0.5) < 0
    with pytest.raises(DomainError):
        jet1d(LogPowFn(a=0.0, b=1.0, m=1.0), -2.0)


def test_jet1d_overflow_is_numerical_error():
    with pytest.raises(NumericalError):
        jet1d(ExpFn(gamma=1.0, lam=2.0), 1000.0)
    # x * x underflows to 0 in f'' = ... - m u^(m-1) b / x^2
    with pytest.raises(NumericalError):
        jet1d(LogPowFn(a=1.0, b=1.0, m=1.0), 1e-300)


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(0.1, 5.0), lam=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
       x=st.floats(-2.0, 2.0))
def test_exp_ode_identity(gamma, lam, x):
    j = jet1d(ExpFn(gamma=gamma, lam=lam), x)
    assert abs(j.d1 - lam * j.value) <= 1e-12 * max(abs(j.d1), abs(lam * j.value))


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(0.1, 5.0), beta=st.floats(0.0, 2.0),
       alpha=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
       x=st.floats(0.1, 3.0))
def test_pow_ode_identity(gamma, beta, alpha, x):
    j = jet1d(PowFn(gamma=gamma, beta=beta, alpha=alpha), x)
    lhs = (x + beta) * j.d1
    rhs = alpha * j.value
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-300)


def test_jet_multivariate_monomial():
    # hand differentiation of x1^2 x2^3 at (1, 1)
    spec = make_cobb_douglas(1.0, (2.0, 3.0))
    jet = jet_multivariate(spec, (1.0, 1.0))
    assert jet.value == 1.0
    assert jet.gradient.tolist() == [2.0, 3.0]
    assert jet.hessian.tolist() == [[2.0, 6.0], [6.0, 6.0]]


def test_jet_multivariate_sqrt_cobb_douglas():
    # hand differentiation of sqrt(x1 x2) at (1, 1)
    spec = make_cobb_douglas(1.0, (0.5, 0.5))
    jet = jet_multivariate(spec, (1.0, 1.0))
    assert jet.gradient.tolist() == [0.5, 0.5]
    assert jet.hessian.tolist() == [[-0.25, 0.25], [0.25, -0.25]]


def test_jet_multivariate_composite_square():
    # F(u) = u^2 over u = x1 x2 expands to x1^2 x2^2
    spec = Composite(Power(2.0), (PowFn(1.0, 0.0, 1.0), PowFn(1.0, 0.0, 1.0)))
    jet = jet_multivariate(spec, (1.0, 1.0))
    assert jet.value == 1.0
    assert jet.gradient.tolist() == [2.0, 2.0]
    assert jet.hessian.tolist() == [[2.0, 4.0], [4.0, 2.0]]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       n=st.integers(1, 10))
def test_jet_value_bitwise_equals_evaluate(seed, kind, n):
    # the jet's value slot repeats the scalar evaluation's operations in its
    # order, so the two agree to the bit (sign of zero included)
    rng = random.Random(seed)
    if kind == "homothetical":
        spec = random_homothetical(rng, n=n)
    elif kind == "composite":
        spec = random_composite(rng, n=n)
    else:
        spec = make_acms(rng.uniform(0.5, 2.0), [rng.uniform(0.5, 2.0) for _ in range(n)],
                         rng.choice((-1.0, -0.5, 0.25, 0.5, 0.75)), rng.uniform(0.5, 2.0),
                         random_outer(rng))
    point = points_loguniform(n, 1, rng, lo=0.25, hi=4.0)[0]
    try:
        expected = evaluate(spec, point)
    except DomainError:
        with pytest.raises(DomainError):
            jet_multivariate(spec, point)
        return
    assert jet_multivariate(spec, point).value.hex() == expected.hex()


@pytest.mark.parametrize("spec, point", [
    # factor 1's f'' overflows at x1 = 0.0965 before factor 2's guard (x2 > 0)
    (Homothetical((PowFn(1.0, 0.0, -300.0), LogPowFn(1.0, 1.0, 1.0))), (0.0965, -1.0)),
    # ... and before the log outer's guard (u > 0; here u < 0)
    (Composite(Log(), (PowFn(-1.0, 0.0, -300.0), PowFn(1.0, 0.0, 1.0))), (0.0965, 1.0)),
    # x1 * x1 underflows to 0 in factor 1's f'' before factor 2's guard
    (Homothetical((LogPowFn(1.0, 1.0, 1.0), LogPowFn(0.0, 1.0, 0.5))), (1e-300, 0.5)),
])
def test_domain_error_outranks_derivative_overflow(spec, point):
    with pytest.raises(NumericalError):
        jet1d(spec.components[0], point[0])
    with pytest.raises(DomainError):
        jet_multivariate(spec, point)


# coordinates off the [0.3, 3] box: the domain edge, negatives, subnormal
# and tiny values whose powers underflow, and huge ones that overflow
_EXTREME_COORDS = (0.0, -0.5, -2.0, 5e-324, 1e-300, 1e150, 1e200)


def _digest_case(rng):
    kind = rng.randrange(3)
    n = rng.randint(1, 10)
    if kind == 0:
        spec = random_homothetical(rng, n=n)
    elif kind == 1:
        spec = random_composite(rng, n=n)
    else:
        spec = make_acms(rng.uniform(0.5, 2.0), [rng.uniform(0.5, 2.0) for _ in range(n)],
                         rng.choice((-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0)),
                         rng.uniform(0.5, 2.0), random_outer(rng), relax_rho=True)
    point = [rng.choice(_EXTREME_COORDS) if rng.random() < 0.2 else rng.uniform(0.3, 3.0)
             for _ in range(n)]
    return spec, point


def _jet_record(spec, point) -> str:
    try:
        jet = jet_multivariate(spec, point)
    except Exception as e:  # which error a point raises is part of the record
        return type(e).__name__
    floats = [jet.value, *jet.gradient.tolist(), *jet.hessian.ravel().tolist()]
    for j in jet.factors or ():
        floats += [j.value, j.d1, j.d2]
    return " ".join(map(float.hex, floats))


def test_jet_bits_digest():
    # every bit of 4,000 seeded jets (value, gradient, Hessian, factor jets;
    # the sign of zero included) or the class of the error raised instead;
    # about a quarter of the cases end in DomainError or NumericalError
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(4000):
        digest.update((_jet_record(*_digest_case(rng)) + "\n").encode())
    assert digest.hexdigest() == (
        "d72d6693c8cf1c79177d9677bc1b581e28b4417512ecb098f2c70d5da64a4e9c")


def test_hessian_symmetry_exact():
    rng = random.Random(5)
    for _ in range(25):
        spec = random_composite(rng)
        point = points_loguniform(spec.n, 1, rng)[0]
        h = jet_multivariate(spec, point).hessian
        assert (h == h.T).all()


def test_point_arity_checked():
    spec = make_cobb_douglas(1.0, (1.0, 2.0))
    with pytest.raises(ValidationError):
        jet_multivariate(spec, (1.0, 2.0, 3.0))


def test_fd_jet_constant():
    jet = fd_jet(lambda p: 5.0, (1.3, 0.7))
    assert np.max(np.abs(jet.gradient)) <= 1e-8
    assert np.max(np.abs(jet.hessian)) <= 1e-8


def test_fd_jet_matches_monomial():
    spec = make_cobb_douglas(1.0, (2.0, 3.0))
    exact = jet_multivariate(spec, (1.0, 1.0))
    approx = fd_jet(lambda p: evaluate(spec, p), (1.0, 1.0))
    assert np.max(np.abs(approx.hessian - exact.hessian)) <= 1e-4 * np.max(np.abs(exact.hessian))


def test_fd_jet_matches_sqrt_gradient_away_from_one():
    spec = make_cobb_douglas(1.0, (0.5, 0.5))
    exact = jet_multivariate(spec, (4.0, 9.0))
    approx = fd_jet(lambda p: evaluate(spec, p), (4.0, 9.0))
    assert exact.gradient.tolist() == [0.75, 1.0 / 3.0]
    assert np.max(np.abs(approx.gradient - exact.gradient)) <= 1e-6 * np.max(np.abs(exact.gradient))


def test_fd_jet_stencil_leaving_domain():
    def half_line(p):
        if p[0] < 1.0:
            raise DomainError("x must stay >= 1")
        return p[0] ** 2

    with pytest.raises(NumericalError):
        fd_jet(half_line, (1.0,))


def test_fd_agreement_property():
    # norm-relative agreement over randomised specs and points in [0.5, 2]^n
    rng = random.Random(42)
    for k in range(60):
        spec = (random_homothetical(rng, n_range=(2, 5)) if k % 2
                else random_composite(rng))
        point = points_loguniform(spec.n, 1, rng)[0]
        exact = jet_multivariate(spec, point)
        approx = fd_jet(lambda p: evaluate(spec, p), point)
        g_scale = max(1.0, float(np.max(np.abs(exact.gradient))))
        h_scale = max(1.0, float(np.max(np.abs(exact.hessian))))
        assert np.max(np.abs(approx.gradient - exact.gradient)) <= 1e-6 * g_scale
        assert np.max(np.abs(approx.hessian - exact.hessian)) <= 1e-4 * h_scale


# near the domain edge (1e-5) the point is inside but part of its stencil
# is not
_FD_COORDS = _EXTREME_COORDS + (-0.0, 1e-5)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       n=st.integers(1, 6), m=st.integers(1, 8))
def test_fd_columns_bitwise_equal_fd_jet(seed, kind, n, m):
    # every row has the bits of fd_jet on evaluate at its point (value,
    # gradient and Hessian), and is flagged exactly where that call raises
    rng = random.Random(seed)
    if kind == "homothetical":
        spec = random_homothetical(rng, n=n)
    elif kind == "composite":
        spec = random_composite(rng, n=n)
    else:
        spec = make_acms(rng.uniform(0.5, 2.0), [rng.uniform(0.5, 2.0) for _ in range(n)],
                         rng.choice((-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0)),
                         rng.uniform(0.5, 2.0), random_outer(rng), relax_rho=True)
    points = [[rng.choice(_FD_COORDS) if rng.random() < 0.2 else rng.uniform(0.3, 3.0)
               for _ in range(n)] for _ in range(m)]
    value, gradient, hessian, failed = _fd_columns(spec, np.array(points))
    for i, p in enumerate(points):
        try:
            jet = fd_jet(lambda q: evaluate(spec, q), p)
        except NumericalError as e:
            assert failed[i], f"row {i}: fd_jet raises {e!r}"
            continue
        assert not failed[i]
        assert [float(v).hex() for v in (value[i], *gradient[i], *np.ravel(hessian[i]))] == \
            [float(v).hex() for v in (jet.value, *jet.gradient, *np.ravel(jet.hessian))]
