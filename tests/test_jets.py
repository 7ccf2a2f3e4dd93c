"""Tests for closed-form jets and the finite-difference oracle."""

import hashlib
import math
import random
import tracemalloc

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
    hessian_det_closed,
    jet1d,
    jet_multivariate,
    make_acms,
    make_cobb_douglas,
)
from prodgeom import cli, funcspec, jets
from prodgeom.funcspec import _values
from prodgeom.jets import FD_REL_FIRST, FD_REL_SECOND, _fd_columns, _fd_gaps, _fd_point, _jet_columns
from prodgeom.sampling import (
    points_loguniform,
    random_composite,
    random_homothetical,
    random_outer,
)
from test_funcspec import _EDGE_OUTERS, _edge_spec

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


@pytest.mark.parametrize("call, message", [
    # ln(x): the chain rule's F'' = -1/u^2 divides by u * u = 0
    (lambda: jet_multivariate(Composite(Log(), (PowFn(1, 0, 1),)), (1e-200,)),
     "jet assembly underflowed at (1e-200,)"),
    # x * x underflows to 0 in f'' = ... - m u^(m-1) b / x^2
    (lambda: jet1d(LogPowFn(1, 1, 1), 1e-300), "1-D jet underflowed at x = 1e-300"),
    # 0.4 * 5e-324 underflows to 0, and rho = -1 divides by it
    (lambda: evaluate(make_acms(1, (0.4, 1), -1, 1), (5e-324, 1)),
     "function value underflowed at (5e-324, 1.0)"),
], ids=["jet_multivariate", "jet1d", "evaluate"])
def test_a_denominator_that_underflows_is_named_an_underflow(call, message):
    with pytest.raises(NumericalError) as raised:
        call()
    assert str(raised.value) == message


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
    # factor 1's f'' = -x^-1.5 / 4 overflows at the smallest subnormal before
    # factor 2's guard (x2 > 0)
    (Homothetical((PowFn(1.0, 0.0, 0.5), LogPowFn(0.0, 1.0, 1.0))), (5e-324, -1.0)),
])
def test_domain_error_outranks_derivative_overflow(spec, point):
    with pytest.raises(NumericalError):
        jet1d(spec.components[0], point[0])
    with pytest.raises(DomainError):
        jet_multivariate(spec, point)
    if isinstance(spec, Homothetical):  # the closed form reads the same value pass
        with pytest.raises(DomainError):
            hessian_det_closed(spec, point)


@pytest.mark.parametrize("spec, points", [
    # CES with rho = 0.5 under a power 0.5 outer at negative coordinates: the
    # CES base b x is negative, and its fractional powers would be complex
    (make_acms(1.0, (1.0, 2.0), 0.5, 1.0, Power(0.5)), [(-1.0, 2.0), (-0.5, -3.0)]),
    # a pow factor with alpha = 0.5 at x + beta < 0
    (Homothetical((PowFn(1.0, 0.0, 0.5), PowFn(1.0, 0.0, 1.0))), [(-1.0, 2.0), (-4.0, 0.5)]),
    # u = -x1 x2 is finite, but the power 0.5 outer rejects it, and its
    # derivatives would be fractional powers of a negative u
    (Composite(Power(0.5), (PowFn(-1.0, 0.0, 1.0), PowFn(1.0, 0.0, 1.0))),
     [(1.0, 2.0), (3.0, 0.5)]),
])
def test_jet_columns_full_length_when_every_row_is_flagged(spec, points):
    value, gradient, hessian, factors, ok = _jet_columns(spec, np.array(points))
    m, n = len(points), spec.n
    assert value.shape == ok.shape == (m,)
    assert gradient.shape == (m, n) and hessian.shape == (m, n, n)
    assert np.isnan(value).all() and np.isnan(gradient).all() and np.isnan(hessian).all()
    assert not ok.any()
    for jet, index in factors or ():
        assert jet.value.shape == jet.d1.shape == jet.d2.shape == (index.max() + 1,)
        assert index.shape == (m,)
    for point in points:
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


@pytest.mark.parametrize("spec, point, float_offs", [
    (make_cobb_douglas(1.0, (0.3, 0.7, 0.5)), (1.0, 1.5, 2.0), [(0, 1), (0, 2), (1, 2)]),
    (Composite(Power(2.0), (PowFn(1.0, 0.0, 0.5), ExpFn(1.0, 0.3), PowFn(1.0, 0.0, 2.0))),
     (1.0, 1.5, 2.0), [(0, 1), (0, 2), (1, 2)]),
    (make_acms(1.0, (1.0, 2.0, 0.5), 0.5, 1.0), (1.0, 1.5, 2.0), [(0, 1), (0, 2), (1, 2)]),
    # at n = 4 column order is not row order: (1, 2) comes before (0, 3)
    (Composite(Log(), (PowFn(1.0, 0.0, 0.5), ExpFn(1.0, 0.3), PowFn(2.0, 1.0, 2.0),
                       LogPowFn(1.0, 0.5, 1.5))),
     (1.0, 1.5, 2.0, 0.5), [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]),
], ids=["homothetical", "composite", "acms", "composite-n4"])
def test_one_hessian_fill_per_jet(monkeypatch, spec, point, float_offs):
    # one fill per jet, in one order: Hessian columns j = 1..n-1 in turn,
    # each with its rows i < j; on columns the off rule runs once per Hessian
    # column with every i < j at once (n - 1 calls), on floats once per entry
    fills, offs = [], []
    fill = jets._fill

    def counted(n, shape, rules):
        diag, off = rules
        fills.append((n, shape))
        return fill(n, shape, (diag, lambda i, j: offs.append((i, j)) or off(i, j)))

    monkeypatch.setattr(jets, "_fill", counted)
    jet_multivariate(spec, point)
    assert offs == float_offs
    offs.clear()
    n = spec.n
    _jet_columns(spec, np.array([point, [2.0 * x for x in point]]))
    assert fills == [(n, ()), (n, (2,))]
    assert offs == [(slice(j), j) for j in range(1, n)]


def _prod_except(vals, skip):
    # the product rule's reference: 1.0 times every value not skipped, in index order
    p = 1.0
    for k, v in enumerate(vals):
        if k not in skip:
            p = p * v
    return p


# signed zeros, subnormals, nan, the infinities, and values whose products overflow
_PRODUCT_FLOATS = [0.0, -0.0, 5e-324, -2.5e-308, math.nan, math.inf, -math.inf, 1.7e308,
                   -1e154, 1e-160]
_product_float = st.one_of(st.sampled_from(_PRODUCT_FLOATS), st.floats())


def _hexes(x):
    # a nan's sign and payload are not compared: they can depend on the
    # operand order that the interpreter's float multiply happens to use
    return [v.hex() for v in np.ravel(np.asarray(x, dtype=float)).tolist()]


@pytest.mark.fuzz
@given(data=st.data(), n=st.integers(1, 12), m=st.one_of(st.none(), st.integers(0, 4)))
def test_product_parts_bitwise_equal_prod_except(data, n, m):
    # the gradient and every Hessian entry rule of _product_parts have the
    # bits of the reference product skipping one or two indices, with the
    # off rule called in _fill's order, Hessian column j = 1..n-1 in turn:
    # on floats (m None) one entry (i, j) at a time for i < j; on (m,)
    # columns the whole diagonal at once and then every i < j of a column as
    # the index vector slice(j). No factor column is written into, though
    # the column route forms its products in place. The callers run it under
    # np.errstate, as here
    def draw():
        if m is None:
            return data.draw(_product_float)
        return np.array(data.draw(st.lists(_product_float, min_size=m, max_size=m)))

    factors = [jets.Jet1(draw(), draw(), draw()) for _ in range(n)]
    vals = [f.value for f in factors]
    before = [_hexes(x) for f in factors for x in (f.value, f.d1, f.d2)]

    def expected(i, j):
        return factors[i].d1 * factors[j].d1 * _prod_except(vals, (i, j))

    with np.errstate(all="ignore"):
        du, (diag, off) = jets._product_parts(factors, vals)
        for i in range(n):
            assert _hexes(du[i]) == _hexes(factors[i].d1 * _prod_except(vals, (i,)))
            assert _hexes(diag(i)) == _hexes(factors[i].d2 * _prod_except(vals, (i,)))
        if m is not None:
            assert _hexes(diag(slice(n))) == _hexes([diag(i) for i in range(n)])
        for j in range(1, n):
            column = [off(i, j) for i in range(j)] if m is None else off(slice(j), j)
            assert np.shape(column) == ((j,) if m is None else (j, m))
            for i in range(j):
                assert _hexes(column[i]) == _hexes(expected(i, j)), (i, j)
    assert [_hexes(x) for f in factors for x in (f.value, f.d1, f.d2)] == before


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


@pytest.mark.parametrize("blow_up, message", [
    (lambda: math.exp(1e6), "evaluator overflowed at"),
    (lambda: math.inf, "evaluator returned non-finite value at"),
], ids=["overflow-error", "inf"])
def test_fd_jet_evaluator_blowing_up_is_numerical_error(blow_up, message):
    # the first stencil point, x + 6e-6, is already past the edge
    def edge(p):
        return blow_up() if p[0] > 1.0 + 1e-6 else p[0]

    with pytest.raises(NumericalError, match=message):
        fd_jet(edge, (1.0,))


def test_fd_jet_non_finite_stencil_sum_is_numerical_error():
    # 1e300 * x at 1.5e8: every stencil value is finite, but the diagonal
    # stencil's 2 f0 overflows; the column oracle flags the same row
    spec = Homothetical((PowFn(1e300, 0.0, 1.0),))
    with pytest.raises(NumericalError, match="non-finite finite-difference jet"):
        fd_jet(lambda q: evaluate(spec, q), (1.5e8,))
    _, _, _, failed = _fd_columns(spec, np.array([[1.5e8], [2.0]]))
    assert failed.tolist() == [True, False]
    assert _fd_point(spec, [1.5e8]) is None and _fd_point(spec, [2.0]) is not None


def test_fd_paths_flag_a_ces_stencil_point_outside_the_domain_where_d_over_rho_underflows():
    # x1 - h < 0 for the second-derivative step at x1 = 1e-5; with d / rho
    # = 0.0 the core there would read s^0 = 1.0 although the guard failed
    spec = make_acms(1.0, (1.0,), 2.5, 5e-324, relax_rho=True)
    with pytest.raises(NumericalError, match="left the domain"):
        fd_jet(lambda q: _values(spec, q)[2], [1e-5])
    assert _fd_point(spec, [1e-5]) is None and _fd_point(spec, [2.0]) is not None
    assert _fd_columns(spec, np.array([[1e-5], [2.0]]))[3].tolist() == [True, False]


def test_fd_jet_rejects_a_point_with_no_coordinate():
    with pytest.raises(ValidationError, match="needs a point with a coordinate"):
        fd_jet(lambda q: 1.0, ())


def test_fd_jet_evaluator_dividing_by_zero_is_numerical_error():
    # the stencil point is named, as for an overflow
    with pytest.raises(NumericalError, match=r"evaluator divided by zero at \(2\.0,\)"):
        fd_jet(lambda q: 1.0 / (q[0] - 2.0), (2.0,))


def test_fd_columns_makes_no_scalar_call(scalar_value_calls):
    # x1 = 1e-5 is inside the domain, but its stencil's x1 - h is not
    spec = make_cobb_douglas(1.0, (0.5, 0.5))
    _, _, _, failed = _fd_columns(spec, np.array([[1.0, 1.0], [1e-5, 1.0]]))
    assert failed.tolist() == [False, True]
    assert scalar_value_calls == []


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


def _fd_spec(rng, kind, n):
    if kind == "homothetical":
        return random_homothetical(rng, n=n)
    if kind == "composite":
        return random_composite(rng, n=n)
    return make_acms(rng.uniform(0.5, 2.0), [rng.uniform(0.5, 2.0) for _ in range(n)],
                     rng.choice((-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0)),
                     rng.uniform(0.5, 2.0), random_outer(rng), relax_rho=True)


# at least 150 examples, and the loaded profile's count where it is larger
# (the CI fuzz step's 10,000)
@pytest.mark.fuzz
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       n=st.integers(1, 10), m=st.integers(1, 40))
def test_fd_columns_bitwise_equal_fd_jet(seed, kind, n, m):
    # every row has the bits of fd_jet on evaluate at its point (value,
    # gradient and Hessian), and is flagged exactly where that call raises;
    # rows and axes differ in their steps, so a term column cached under the
    # wrong row, axis or step shows up here
    rng = random.Random(seed)
    spec = _fd_spec(rng, kind, n)
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


# at least 300 examples, and the loaded profile's count where it is larger
# (the CI fuzz step's 10,000)
@pytest.mark.fuzz
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       outer=st.sampled_from(sorted(_EDGE_OUTERS)), n=st.integers(1, 10))
def test_fd_point_bitwise_equal_fd_jet(seed, kind, outer, n):
    # the stencil on one point's floats has the bits of fd_jet on the value
    # pass (value, gradient and Hessian), and gives None exactly where that
    # call raises; both share _fd_parts, so fd_jet is also held to the
    # stencil written out here. Axes differ in their steps, so a term cached
    # under the wrong axis or step shows up
    rng = random.Random(seed)
    spec = _edge_spec(rng, kind, outer, n)
    pt = [rng.choice(_FD_COORDS) if rng.random() < 0.2 else rng.uniform(0.3, 3.0)
          for _ in range(n)]
    got = _fd_point(spec, pt)
    try:
        jet = fd_jet(lambda q: _values(spec, q)[2], pt)
    except NumericalError as e:
        assert got is None, f"fd_jet raises {e!r}"
        return
    assert got is not None
    bits = [float(v).hex() for v in (jet.value, *jet.gradient, *np.ravel(jet.hessian))]
    assert [float(v).hex() for v in (got.value, *got.gradient, *np.ravel(got.hessian))] == bits
    assert [v.hex() for v in _fd_stencil_written_out(lambda q: _values(spec, q)[2], pt)] == bits


def _fd_stencil_written_out(f, pt) -> list:
    # fd_jet's value, gradient and Hessian (row-major) at a list of floats,
    # each stencil point's coordinates moved in place
    n = len(pt)
    h1 = [FD_REL_FIRST * max(1.0, abs(x)) for x in pt]
    h2 = [FD_REL_SECOND * max(1.0, abs(x)) for x in pt]

    def at(*moves):
        q = list(pt)
        for i, dh in moves:
            q[i] += dh
        return f(q)

    f0 = at()
    hess = [[0.0] * n for _ in range(n)]
    for i in range(n):
        up, down = (i, h2[i]), (i, -h2[i])
        hess[i][i] = (at(up) - 2.0 * f0 + at(down)) / (h2[i] * h2[i])
        for j in range(i + 1, n):
            up_j, down_j = (j, h2[j]), (j, -h2[j])
            hess[i][j] = hess[j][i] = (at(up, up_j) - at(up, down_j) - at(down, up_j)
                                       + at(down, down_j)) / (4.0 * h2[i] * h2[j])
    grad = [(at((i, h1[i])) - at((i, -h1[i]))) / (2.0 * h1[i]) for i in range(n)]
    return [f0, *grad, *(v for row in hess for v in row)]


def test_fd_gaps_keeps_the_result_of_a_flagged_row(monkeypatch):
    # a row the FD columns flag goes through fd_jet, and where that returns,
    # its gap is written back and its error is None: flagging every row (nan,
    # as a failed stencil leaves it) changes no bit
    spec = _fd_spec(random.Random(2), "composite", 3)
    points = np.array(points_loguniform(3, 6, 4))
    _, gradient, hessian, _, _ = _jet_columns(spec, points)
    expected, errors = _fd_gaps(spec, points, gradient, hessian)
    assert errors == [None] * len(points)
    columns = jets._fd_columns

    def flag_every_row(spec, x):
        value, fd_gradient, fd_hessian, _ = columns(spec, x)
        return (value, np.full_like(fd_gradient, math.nan), np.full_like(fd_hessian, math.nan),
                np.ones(len(x), dtype=bool))

    monkeypatch.setattr(jets, "_fd_columns", flag_every_row)
    got, errors = _fd_gaps(spec, points, gradient, hessian)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected.tolist()]
    assert errors == [None] * len(points)


@pytest.mark.parametrize("n", [1, 5, 10])
@pytest.mark.parametrize("kind", ["composite", "acms"])
def test_fd_columns_forms_five_term_columns_per_axis(monkeypatch, kind, n):
    # one block: each axis's terms at the points and at x_i +- h for the
    # first and the second derivatives, whatever the number of stencils
    spec = _fd_spec(random.Random(n), kind, n)
    calls = []
    real = funcspec._term_column

    def counted(spec, k, col):
        calls.append(k)
        return real(spec, k, col)

    for module in (funcspec, jets):
        monkeypatch.setattr(module, "_term_column", counted)
    _fd_columns(spec, np.array(points_loguniform(n, 7, 3)))
    assert sorted(calls) == sorted(list(range(n)) * 5)


@pytest.mark.parametrize("kind", ["composite", "acms"])
def test_fd_columns_memory_stays_per_stencil(kind):
    # n = 10 and one CLI block of rows: the block's columns and Hessian
    # (3.5 MB traced), not one row-map pass over every stencil at once (37 MB)
    spec = _fd_spec(random.Random(1), kind, 10)
    points = np.array(points_loguniform(10, cli.BLOCK_ROWS, 5))
    tracemalloc.start()
    try:
        _fd_columns(spec, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
