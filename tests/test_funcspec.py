"""Tests for the function model, constructors, JSON round-trip and homogeneity."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeom import (
    Acms,
    Composite,
    DomainError,
    ExpFn,
    Homothetical,
    Identity,
    Log,
    LogPowFn,
    ParseError,
    PowFn,
    Power,
    ProdgeomError,
    Scale,
    ValidationError,
    evaluate,
    homogeneity_degree,
    jet1d,
    make_acms,
    make_cobb_douglas,
    parse_spec,
    serialize_spec,
)
from prodgeom.funcspec import _value_columns, _values
from prodgeom.sampling import points_loguniform, random_homothetical


def test_parse_homothetical_monomial():
    text = ('{"kind":"homothetical","components":['
            '{"type":"pow","gamma":1,"beta":0,"alpha":2},'
            '{"type":"pow","gamma":1,"beta":0,"alpha":3}]}')
    spec = parse_spec(text)
    assert spec == Homothetical((PowFn(1.0, 0.0, 2.0), PowFn(1.0, 0.0, 3.0)))


def test_parse_acms():
    text = '{"kind":"acms","gamma":1,"betas":[1,1],"rho":0.5,"d":1,"outer":{"type":"identity"}}'
    spec = parse_spec(text)
    assert spec == Acms(1.0, (1.0, 1.0), 0.5, 1.0, Identity())


def test_parse_zero_gamma_names_component():
    text = ('{"kind":"homothetical","components":['
            '{"type":"pow","gamma":0,"beta":0,"alpha":2}]}')
    with pytest.raises(ValidationError, match=r"components\[0\]"):
        parse_spec(text)


def test_parse_bad_json_reports_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_spec('{"kind": "homothetical",')


def test_parse_unknown_field_is_strict():
    text = ('{"kind":"homothetical","components":['
            '{"type":"exp","gamma":1,"lambda":1,"extra":2}]}')
    with pytest.raises(ParseError, match="extra"):
        parse_spec(text)


def test_parse_missing_field():
    with pytest.raises(ParseError, match="missing"):
        parse_spec('{"kind":"homothetical","components":[{"type":"pow","gamma":1}]}')


@pytest.mark.parametrize("text, message", [
    ('{"kind":"homothetical","components":[{"type":"sqrt","gamma":1}]}',
     "components[0].type: expected one of pow, exp, logpow; got 'sqrt'"),
    ('{"kind":"composite","outer":{"type":"exp"},'
     '"components":[{"type":"exp","gamma":1,"lambda":1}]}',
     "outer.type: expected one of identity, power, scale, log; got 'exp'"),
    ('{"kind":"homothetical","components":[{"type":"pow","gamma":1}]}',
     "components[0]: missing field(s) alpha, beta"),
    ('{"kind":"acms","gamma":1,"betas":[1],"rho":0.5,"d":1,"outer":{"type":"power"}}',
     "outer: missing field(s) d"),
    # a type that is not a string (here unhashable) is an unknown type too
    ('{"kind":"homothetical","components":[{"type":["pow"]}]}',
     "components[0].type: expected one of pow, exp, logpow; got ['pow']"),
], ids=["component-type", "outer-type", "component-field", "outer-field", "unhashable-type"])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_spec(text)
    assert str(info.value) == message


def test_parse_rejects_bool_as_number():
    text = ('{"kind":"homothetical","components":['
            '{"type":"exp","gamma":true,"lambda":1}]}')
    with pytest.raises(ParseError):
        parse_spec(text)


def test_parse_unknown_kind():
    with pytest.raises(ParseError, match="kind"):
        parse_spec('{"kind":"mystery"}')


def test_serialize_field_order():
    spec = Acms(1.0, (1.0, 2.0), 0.5, 1.0, Power(2.0))
    assert serialize_spec(spec) == (
        '{"kind":"acms","gamma":1.0,"betas":[1.0,2.0],"rho":0.5,"d":1.0,'
        '"outer":{"type":"power","d":2.0}}')
    spec = Composite(Scale(2.0), (PowFn(1.0, 0.5, 2.0), ExpFn(3.0, -1.0), LogPowFn(1.0, 2.0, 0.5)))
    assert serialize_spec(spec) == (
        '{"kind":"composite","outer":{"type":"scale","gamma":2.0},"components":['
        '{"type":"pow","gamma":1.0,"beta":0.5,"alpha":2.0},'
        '{"type":"exp","gamma":3.0,"lambda":-1.0},'
        '{"type":"logpow","a":1.0,"b":2.0,"m":0.5}]}')


_components = st.one_of(
    st.builds(PowFn,
              gamma=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
              beta=st.floats(-1.0, 2.0),
              alpha=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3)),
    st.builds(ExpFn,
              gamma=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
              lam=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3)),
    st.builds(LogPowFn,
              a=st.floats(-2.0, 2.0),
              b=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
              m=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3)),
)
_outers = st.one_of(
    st.just(Identity()), st.just(Log()),
    st.builds(Power, d=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3)),
    st.builds(Scale, gamma=st.floats(0.1, 3.0)),
)
_specs = st.one_of(
    st.builds(Homothetical, components=st.lists(_components, min_size=1, max_size=4).map(tuple)),
    st.builds(Composite, outer=_outers,
              components=st.lists(_components, min_size=1, max_size=4).map(tuple)),
    st.builds(Acms,
              gamma=st.floats(0.1, 3.0),
              betas=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=4).map(tuple),
              rho=st.floats(-2.0, 0.9).filter(lambda v: abs(v) > 1e-3),
              d=st.floats(0.1, 3.0),
              outer=_outers),
)


@settings(max_examples=200, deadline=None)
@given(spec=_specs)
def test_parse_serialize_round_trip(spec):
    assert parse_spec(serialize_spec(spec)) == spec


def test_make_cobb_douglas_components():
    spec = make_cobb_douglas(1.0, (0.5, 0.5))
    assert spec == Homothetical((PowFn(1.0, 0.0, 0.5), PowFn(1.0, 0.0, 0.5)))


def test_make_cobb_douglas_values():
    assert evaluate(make_cobb_douglas(2.0, (1 / 3, 2 / 3)), (1.0, 1.0)) == 2.0
    assert evaluate(make_cobb_douglas(1.0, (2.0, 3.0)), (2.0, 1.0)) == 4.0


def test_make_cobb_douglas_validation():
    with pytest.raises(ValidationError):
        make_cobb_douglas(1.0, (0.0, 1.0))
    with pytest.raises(ValidationError):
        make_cobb_douglas(-1.0, (1.0,))


def test_make_acms_values():
    assert evaluate(make_acms(1.0, (1.0, 1.0), 0.5, 1.0), (1.0, 1.0)) == 4.0
    assert evaluate(make_acms(1.0, (1.0, 1.0), 0.5, 0.5), (1.0, 1.0)) == 2.0
    assert evaluate(make_acms(3.0, (1.0, 2.0), 1.0, 1.0, relax_rho=True), (1.0, 1.0)) == 9.0


def test_make_acms_rho_gate():
    with pytest.raises(ValidationError, match="rho"):
        make_acms(1.0, (1.0, 1.0), 1.5, 1.0)
    spec = make_acms(1.0, (1.0, 1.0), 1.5, 1.0, relax_rho=True)
    assert spec.rho == 1.5
    with pytest.raises(ValidationError):
        make_acms(1.0, (1.0, 1.0), 0.0, 1.0)
    with pytest.raises(ValidationError, match=r"betas\[1\]"):
        make_acms(1.0, (1.0, -1.0), 0.5, 1.0)


def test_acms_domain_error_outside_positive_orthant():
    spec = make_acms(1.0, (1.0, 1.0), 0.5, 1.0)
    with pytest.raises(DomainError, match="x2"):
        evaluate(spec, (1.0, -1.0))


def test_evaluate_examples():
    assert evaluate(make_cobb_douglas(1.0, (2.0, 3.0)), (2.0, 1.0)) == 4.0
    spec = Composite(Log(), (ExpFn(1.0, 1.0), ExpFn(1.0, 1.0)))
    assert evaluate(spec, (1.0, 2.0)) == pytest.approx(3.0, rel=1e-14)
    assert evaluate(make_acms(1.0, (1.0, 1.0), 0.5, 1.0), (4.0, 4.0)) == pytest.approx(16.0, rel=1e-14)


def test_composite_identity_matches_homothetical_bitwise():
    rng = random.Random(3)
    for _ in range(20):
        inner = random_homothetical(rng)
        wrapped = Composite(Identity(), inner.components)
        point = points_loguniform(inner.n, 1, rng)[0]
        assert evaluate(wrapped, point) == evaluate(inner, point)


def test_eval_equals_product_of_jets():
    rng = random.Random(9)
    for _ in range(20):
        spec = random_homothetical(rng)
        point = points_loguniform(spec.n, 1, rng)[0]
        product = 1.0
        for c, x in zip(spec.components, point):
            product *= jet1d(c, x).value
        value = evaluate(spec, point)
        assert abs(value - product) <= 1e-15 * max(abs(value), abs(product))


def test_homogeneity_cobb_douglas_degree_one():
    report = homogeneity_degree(make_cobb_douglas(1.0, (1 / 3, 2 / 3)), tol=1e-9)
    assert report.is_homogeneous
    assert report.degree == pytest.approx(1.0, abs=1e-10)


def test_homogeneity_acms_degree_d():
    report = homogeneity_degree(make_acms(1.0, (1.0, 2.0), 0.5, 2.0), tol=1e-9)
    assert report.is_homogeneous
    assert report.degree == pytest.approx(2.0, abs=1e-9)


def test_homogeneity_random_cobb_douglas_matches_alpha_sum():
    rng = random.Random(17)
    for _ in range(10):
        alphas = [rng.choice((-1, 1)) * rng.uniform(0.3, 1.5) for _ in range(rng.randint(2, 4))]
        report = homogeneity_degree(make_cobb_douglas(rng.uniform(0.5, 2.0), alphas), tol=1e-9)
        assert report.is_homogeneous
        assert report.degree == pytest.approx(math.fsum(alphas), abs=1e-9)


def test_homogeneity_rejects_exp_component():
    spec = Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0)))
    report = homogeneity_degree(spec, t_values=(2.0, 3.0), tol=1e-9)
    assert not report.is_homogeneous
    assert report.max_deviation > 1e-3


def test_homogeneity_domain_error_when_scaling_exits():
    spec = Homothetical((LogPowFn(a=0.5, b=1.0, m=0.5),))
    # admissible at 0.7 but 0.5 * 0.7 drops a + ln x below zero
    with pytest.raises(DomainError):
        homogeneity_degree(spec, probe_points=[(0.7,)], t_values=(0.5,))


def test_spec_equality_is_structural():
    a = make_cobb_douglas(1.0, (0.5, 0.5))
    b = make_cobb_douglas(1.0, (0.5, 0.5))
    c = make_cobb_douglas(2.0, (0.5, 0.5))
    assert a == b
    assert a != c


def _edge_component(rng):
    # integer, negative and fractional exponents, and rates that overflow
    kind = rng.randrange(3)
    if kind == 0:
        return PowFn(rng.choice([1.0, -1.0, rng.uniform(0.1, 3.0)]),
                     rng.choice([0.0, -1.0, 1.0, rng.uniform(0.0, 1.0)]),
                     rng.choice([1.0, 2.0, 3.0, -1.0, 0.5, rng.uniform(-3.0, 3.0) or 1.0]))
    if kind == 1:
        return ExpFn(rng.choice([1.0, -2.0, rng.uniform(0.1, 3.0)]),
                     rng.choice([1.0, -1.0, 400.0, rng.uniform(-3.0, 3.0) or 1.0]))
    return LogPowFn(rng.choice([0.0, 1.0, rng.uniform(0.0, 2.0)]),
                    rng.choice([1.0, -1.0, rng.uniform(0.2, 2.0)]),
                    rng.choice([1.0, 2.0, 0.5, -1.0, rng.uniform(-2.0, 2.0) or 1.0]))


_EDGE_OUTERS = {
    "identity": lambda rng: Identity(),
    "power": lambda rng: Power(rng.choice([2.0, -1.0, 0.5, rng.uniform(-2.0, 3.0) or 1.0])),
    "scale": lambda rng: Scale(rng.uniform(0.5, 2.0)),
    "log": lambda rng: Log(),
}

# the domain edge, signed zero, negatives, subnormal and tiny values whose
# powers underflow, and huge ones whose powers overflow
_EDGE_COORDS = (0.0, -0.0, -0.5, -2.0, 5e-324, 1e-300, 1e200)


def _bits(floats) -> list:
    return [float(v).hex() for v in floats]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       outer=st.sampled_from(sorted(_EDGE_OUTERS)),
       n=st.integers(1, 6), m=st.integers(1, 20))
def test_value_columns_bitwise_equal_values(seed, kind, outer, n, m):
    # every row has the bits of the scalar value pass (sign of zero
    # included), and a row is flagged exactly where that pass raises
    rng = random.Random(seed)
    if kind == "homothetical":
        spec = Homothetical([_edge_component(rng) for _ in range(n)])
    elif kind == "composite":
        spec = Composite(_EDGE_OUTERS[outer](rng), [_edge_component(rng) for _ in range(n)])
    else:
        spec = make_acms(rng.uniform(0.5, 2.0), [rng.uniform(0.5, 2.0) for _ in range(n)],
                         rng.choice((-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0)),
                         rng.uniform(0.5, 2.0), _EDGE_OUTERS[outer](rng), relax_rho=True)
    points = np.array([[rng.choice(_EDGE_COORDS) if rng.random() < 0.2 else rng.uniform(0.3, 3.0)
                        for _ in range(n)] for _ in range(m)])
    parts, u, value, failed = _value_columns(spec, points)
    assert parts.shape == ((m,) if kind == "acms" else (m, n))
    for i, row in enumerate(points.tolist()):
        try:
            expected = _values(spec, row)
        except ProdgeomError as e:
            assert failed[i], f"row {i}: _values raises {e!r}"
            continue
        assert not failed[i]
        assert _bits([*np.ravel(parts[i]), u[i], value[i]]) == \
            _bits([*np.ravel(expected[0]), *expected[1:]])
