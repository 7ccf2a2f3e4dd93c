"""Tests for the function model, constructors and JSON round-trip."""

import math
import random
import re
from fractions import Fraction

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
    NumericalError,
    ParseError,
    PowFn,
    Power,
    ProdgeomError,
    Scale,
    ValidationError,
    elasticity_report,
    evaluate,
    gauss_kronecker,
    jet1d,
    make_acms,
    make_cobb_douglas,
    make_thm31_family,
    make_thm41_family,
    make_thm51_family,
    parse_spec,
    serialize_spec,
)
from prodgeom.funcspec import _core_value, _term_column, _term_core, _values
from prodgeom.jets import _fd_columns, _jet_columns, jet_multivariate
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


@pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e400", "9" * 401],
                         ids=["nan", "minus-infinity", "1e400", "long-integer"])
@pytest.mark.parametrize("template, field", [
    ('{"kind":"homothetical","components":[{"type":"pow","gamma":1,"beta":0,"alpha":@}]}',
     "components[0].alpha"),
    ('{"kind":"acms","gamma":1,"betas":[1,@],"rho":0.5,"d":1,"outer":{"type":"identity"}}',
     "betas[1]"),
    ('{"kind":"acms","gamma":1,"betas":[1,1],"rho":@,"d":1,"outer":{"type":"identity"}}',
     "rho"),
    ('{"kind":"composite","outer":{"type":"power","d":@},'
     '"components":[{"type":"exp","gamma":1,"lambda":1}]}', "outer.d"),
], ids=["component", "betas", "rho", "outer"])
def test_parse_rejects_non_finite_number(template, field, number):
    with pytest.raises(ParseError) as info:
        parse_spec(template.replace("@", number))
    assert str(info.value).startswith(f"{field}: expected a finite number, got ")


@pytest.mark.parametrize("text", ['{"kind":' + "1" * 5000 + "}", "[" * 100_000],
                         ids=["integer-digit-limit", "nesting-depth"])
def test_parse_undecodable_json_is_parse_error(text):
    with pytest.raises(ParseError, match="cannot decode the spec"):
        parse_spec(text)


def test_parse_unknown_kind():
    with pytest.raises(ParseError, match="kind"):
        parse_spec('{"kind":"mystery"}')


@pytest.mark.parametrize("obj", [PowFn(1.0, 0.0, 2.0), Power(2.0), "pow"])
def test_serialize_rejects_what_is_not_a_spec(obj):
    # a component, an outer map or any other object has no spec kind to write
    with pytest.raises(ValidationError, match=re.escape(f"unknown spec kind {obj!r}")):
        serialize_spec(obj)


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


# a field's value as a float in range or as an int, ints above 2**53 included
_INTS = st.integers(-2 ** 64, 2 ** 64)
_NONZERO = st.one_of(st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3), _INTS.filter(bool))
_POSITIVE = st.one_of(st.floats(0.1, 3.0), st.integers(1, 2 ** 64))
_components = st.one_of(
    st.builds(PowFn, gamma=_NONZERO, beta=st.one_of(st.floats(-1.0, 2.0), _INTS),
              alpha=_NONZERO),
    st.builds(ExpFn, gamma=_NONZERO, lam=_NONZERO),
    st.builds(LogPowFn, a=st.one_of(st.floats(-2.0, 2.0), _INTS), b=_NONZERO, m=_NONZERO),
)
_outers = st.one_of(
    st.just(Identity()), st.just(Log()),
    st.builds(Power, d=_NONZERO),
    st.builds(Scale, gamma=_POSITIVE),
)
_specs = st.one_of(
    st.builds(Homothetical, components=st.lists(_components, min_size=1, max_size=4).map(tuple)),
    st.builds(Composite, outer=_outers,
              components=st.lists(_components, min_size=1, max_size=4).map(tuple)),
    st.builds(Acms,
              gamma=_POSITIVE,
              betas=st.lists(_POSITIVE, min_size=1, max_size=4).map(tuple),
              rho=st.one_of(st.floats(-2.0, 0.9).filter(lambda v: abs(v) > 1e-3),
                            st.integers(-2 ** 64, -1)),
              d=_POSITIVE,
              outer=_outers),
)


# at least 200 examples, and the loaded profile's count where it is larger
# (the CI fuzz step's 10,000)
@pytest.mark.fuzz
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(spec=_specs)
def test_parse_serialize_round_trip(spec):
    assert parse_spec(serialize_spec(spec)) == spec


def _numbers(obj) -> list:
    """Every number field of a model object, its slots' fields included."""
    found = []
    for name in obj.__match_args__:
        value = getattr(obj, name)
        for v in value if isinstance(value, tuple) else (value,):
            found += _numbers(v) if hasattr(v, "WIRE") else [v]
    return found


# numpy scalars and Fractions, which every field converts to a Python float
_SCALARS = st.one_of(
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.fractions(),
)
# a value no field accepts, or one only some do: non-finite and huge numbers,
# bools, text, None, lists and tuples, and model objects of every kind
_ANY = st.one_of(
    st.floats(), st.integers(), _SCALARS,
    st.sampled_from([10 ** 400, -10 ** 400, True, False, None, "x", "1.5"]),
    st.text(max_size=3), st.lists(st.floats(), max_size=2),
    st.tuples(st.floats()), _components, _outers,
)
_NUMBER = st.one_of(st.floats(0.1, 3.0), st.sampled_from([-1.0, 0.5, 2.0]),
                    st.floats(0.1, 3.0).map(np.float32), st.fractions(1, 3).filter(bool), _ANY)
_NUMBERS = st.one_of(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3),
                     st.lists(_NUMBER, max_size=3), _ANY)
_COMPONENTS = st.one_of(st.lists(_components, min_size=1, max_size=3),
                        st.lists(st.one_of(_components, _ANY), max_size=3), _ANY)
_OUTER = st.one_of(_outers, _ANY)
_CASE = st.one_of(st.sampled_from("abc"), _ANY)
_CONSTRUCTORS = [
    (PowFn, (_NUMBER,) * 3), (ExpFn, (_NUMBER,) * 2), (LogPowFn, (_NUMBER,) * 3),
    (Power, (_NUMBER,)), (Scale, (_NUMBER,)), (Identity, ()), (Log, ()),
    (Homothetical, (_COMPONENTS,)), (Composite, (_OUTER, _COMPONENTS)),
    (Acms, (_NUMBER, _NUMBERS, _NUMBER, _NUMBER, _OUTER)),
    (make_acms, (_NUMBER, _NUMBERS, _NUMBER, _NUMBER, _OUTER)),
    (make_cobb_douglas, (_NUMBER, _NUMBERS)),
    (make_thm31_family, (_CASE, _COMPONENTS, _NUMBERS, _NUMBERS, _NUMBER)),
    (make_thm41_family, (_CASE, _COMPONENTS, _OUTER, _NUMBERS, _NUMBERS, _NUMBER)),
    (lambda case, alphas, gamma, outer, sigma, betas, d, mu: make_thm51_family(
        case, alphas=alphas, gamma=gamma, outer=outer, sigma=sigma, betas=betas, d=d, mu=mu),
     (_CASE, _NUMBERS, _NUMBER, _OUTER, _NUMBER, _NUMBERS, _NUMBER, _NUMBERS)),
]


@pytest.mark.fuzz
@settings(deadline=None)
@given(data=st.data())
def test_constructors_return_or_raise_a_validation_error(data):
    # every model constructor and spec builder applies the number and slot
    # rules: whatever its arguments, it returns or raises a ValidationError,
    # what it returns stores every number as a Python float, and, in a spec
    # of its own, evaluates to a float or a ProdgeomError
    build, fields = data.draw(st.sampled_from(_CONSTRUCTORS))
    try:
        built = build(*[data.draw(field) for field in fields])
    except ValidationError:
        return
    assert all(type(v) is float for v in _numbers(built))
    if isinstance(built, (PowFn, ExpFn, LogPowFn)):
        built = Homothetical((built,))
    elif not hasattr(built, "kind"):  # an outer map
        built = Composite(built, (PowFn(1.0, 0.0, 1.0),))
    try:
        assert isinstance(evaluate(built, [1.5] * built.n), float)
    except ProdgeomError:
        pass


@pytest.mark.parametrize("cast", [int, np.int64, np.float64, np.float32, Fraction],
                         ids=["int", "int64", "float64", "float32", "fraction"])
@pytest.mark.parametrize("build, args", [
    (PowFn, (2, 1, 3)), (ExpFn, (2, -1)), (LogPowFn, (1, 2, 3)), (Power, (2,)), (Scale, (3,)),
    (Acms, (2, (1, 3), -1, 2)), (make_acms, (2, (1, 3), -1, 2)),
], ids=["pow", "exp", "logpow", "power", "scale", "acms", "make-acms"])
def test_number_fields_are_stored_as_python_floats(cast, build, args):
    given = [tuple(map(cast, a)) if isinstance(a, tuple) else cast(a) for a in args]
    stored = _numbers(build(*given))
    assert [type(v) for v in stored] == [float] * len(stored)
    assert stored == [float(v) for a in given for v in (a if isinstance(a, tuple) else (a,))]


def _float32_cobb_douglas(alpha):
    return Homothetical((PowFn(1.0, 0.0, alpha), PowFn(1.0, 0.0, 0.7)))


@pytest.mark.parametrize("point", [(1.7, 2.3), (0.5, 4.0), (3.0, 0.25)])
def test_a_float32_field_gives_its_float_twin_bit_for_bit(point):
    spec = _float32_cobb_douglas(np.float32(0.3))
    twin = _float32_cobb_douglas(float(np.float32(0.3)))
    assert spec == twin
    jet, twin_jet = jet_multivariate(spec, point), jet_multivariate(twin, point)
    curvature, twin_curvature = gauss_kronecker(spec, point), gauss_kronecker(twin, point)
    report, twin_report = elasticity_report(spec, point), elasticity_report(twin, point)
    assert _bits([evaluate(spec, point)]) == _bits([evaluate(twin, point)])
    assert _bits([jet.value, *jet.gradient, *np.ravel(jet.hessian)]) == \
        _bits([twin_jet.value, *twin_jet.gradient, *np.ravel(twin_jet.hessian)])
    assert _bits([curvature.omega, curvature.hessian_det, curvature.gk_curvature]) == \
        _bits([twin_curvature.omega, twin_curvature.hessian_det, twin_curvature.gk_curvature])
    assert _bits([report.bordered_det, *np.ravel(report.hicks), *np.ravel(report.allen)]) == \
        _bits([twin_report.bordered_det, *np.ravel(twin_report.hicks),
               *np.ravel(twin_report.allen)])


@pytest.mark.parametrize("spec", [
    Homothetical((PowFn(2 ** 53 + 1, 0, 1),)), Homothetical((PowFn(10 ** 300, 0, 1),)),
    _float32_cobb_douglas(np.float32(0.3)),
], ids=["int-above-2**53", "int-10**300", "float32"])
def test_round_trip_of_non_float_fields(spec):
    assert parse_spec(serialize_spec(spec)) == spec


def test_numpy_field_overflow_is_a_numerical_error():
    # a numpy float64 field is stored as a Python float, so its power
    # overflows as Python's does, not as a numpy RuntimeWarning
    with pytest.raises(NumericalError):
        evaluate(Homothetical((PowFn(np.float64(1e300), 0.0, 2.0),)), (1e10,))


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


_NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                                      ids=["nan", "inf", "-inf"])


@_NON_FINITE
@pytest.mark.parametrize("cls, args, label, k", [
    pytest.param(cls, args, label, k, id=f"{cls.TAG}.{cls.WIRE[k]}")
    for cls, args, label in [(PowFn, (1.0, 0.0, 0.5), "pow component"),
                             (ExpFn, (1.0, 0.5), "exp component"),
                             (LogPowFn, (1.0, 1.0, 0.5), "logpow component"),
                             (Power, (2.0,), "power outer"),
                             (Scale, (2.0,), "scale outer")]
    for k in range(len(args))
])
def test_components_and_outers_reject_non_finite_parameters(cls, args, label, k, bad):
    with pytest.raises(ValidationError) as e:
        cls(*args[:k], bad, *args[k + 1:])
    assert str(e.value) == f"{label}: {cls.WIRE[k]} must be finite, got {bad!r}"


@_NON_FINITE
@pytest.mark.parametrize("field", ["gamma", "betas[1]", "rho", "d"])
def test_acms_rejects_non_finite_parameters(field, bad):
    kwargs = {"gamma": 1.0, "betas": [1.0, 2.0], "rho": 0.5, "d": 1.0}
    if field == "betas[1]":
        kwargs["betas"] = [1.0, bad]
    else:
        kwargs[field] = bad
    # before make_acms's own rho < 1 gate, which nan would pass
    for build in (Acms, make_acms):
        with pytest.raises(ValidationError) as e:
            build(**kwargs)
        assert str(e.value) == f"acms: {field} must be finite, got {bad!r}"


def test_cobb_douglas_rejects_non_finite_exponent():
    with pytest.raises(ValidationError, match="pow component: alpha must be finite, got nan"):
        make_cobb_douglas(1.0, [math.nan, 0.5])
    with pytest.raises(ValidationError, match="pow component: gamma must be finite, got inf"):
        make_cobb_douglas(math.inf, [0.5, 0.5])


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


def _edge_spec(rng, kind, outer, n):
    if kind == "homothetical":
        return Homothetical([_edge_component(rng) for _ in range(n)])
    if kind == "composite":
        return Composite(_EDGE_OUTERS[outer](rng), [_edge_component(rng) for _ in range(n)])
    return make_acms(rng.uniform(0.5, 2.0), [rng.uniform(0.5, 2.0) for _ in range(n)],
                     rng.choice((-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0)),
                     rng.uniform(0.5, 2.0), _EDGE_OUTERS[outer](rng), relax_rho=True)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       outer=st.sampled_from(sorted(_EDGE_OUTERS)),
       n=st.integers(1, 6), m=st.integers(1, 20))
def test_value_columns_bitwise_equal_values(seed, kind, outer, n, m):
    # the value pass in columns (term columns, their product or CES sum, the
    # row maps): every row has the bits of the scalar value pass (sign of
    # zero included), and its value is not finite exactly where that pass raises
    rng = random.Random(seed)
    spec = _edge_spec(rng, kind, outer, n)
    points = np.array([[rng.choice(_EDGE_COORDS) if rng.random() < 0.2 else rng.uniform(0.3, 3.0)
                        for _ in range(n)] for _ in range(m)])
    with np.errstate(all="ignore"):  # a flagged row's numbers are discarded
        terms = [_term_column(spec, k, col) for k, col in enumerate(points.T)]
        core = _term_core(spec, terms)
        u, value = _core_value(spec, core)
    parts = core if kind == "acms" else np.stack(terms, axis=1)
    failed = ~np.isfinite(value)
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


# coordinates whose powers stay finite in the value but underflow or
# overflow in a derivative (1e-160 squared, 1e77 cubed), and 1e150
_JET_COORDS = _EDGE_COORDS + (1e-160, 1e77, 1e150)


# at least 300 examples, and the loaded profile's count where it is larger
# (the CI fuzz step's 10,000)
@pytest.mark.fuzz
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       outer=st.sampled_from(sorted(_EDGE_OUTERS)),
       n=st.integers(1, 10), m=st.integers(1, 12))
def test_jet_columns_bitwise_equal_jet_multivariate(seed, kind, outer, n, m):
    # a row is flagged exactly where jet_multivariate raises, and every other
    # row has its bits (value, gradient, Hessian, factor jets; sign of zero
    # included): the contract the CLI's block routes read rows under
    rng = random.Random(seed)
    spec = _edge_spec(rng, kind, outer, n)
    points = np.array([[rng.choice(_JET_COORDS) if rng.random() < 0.2 else rng.uniform(0.3, 3.0)
                        for _ in range(n)] for _ in range(m)])
    _assert_jet_columns_match(spec, points)


# a small pool, so that rows repeat coordinates: signed zeros, the smallest
# subnormal, the domain edges x + beta = 0 (beta = -1 and 1), the logpow
# holes a + b ln x = 0 (x = 1 at a = 0, x = 1/e and e at a = 1, b = +-1),
# and values whose powers underflow or overflow
_REPEAT_COORDS = (0.0, -0.0, 5e-324, 1.0, -1.0, math.exp(-1.0), math.e, 0.5, 2.0, 1e-160,
                  1e77, 1e150, 1e200)


@pytest.mark.fuzz
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("homothetical", "composite", "acms")),
       outer=st.sampled_from(sorted(_EDGE_OUTERS)),
       n=st.integers(1, 6), m=st.integers(2, 40))
def test_jet_columns_on_repeated_coordinates_bitwise_equal_jet_multivariate(seed, kind, outer,
                                                                            n, m):
    # an axis whose rows repeat a coordinate runs its term and derivatives
    # once per distinct coordinate: the same contract as on distinct rows
    rng = random.Random(seed)
    spec = _edge_spec(rng, kind, outer, n)
    pool = rng.sample(_REPEAT_COORDS, rng.randint(1, 5))
    points = np.array([[rng.choice(pool) if rng.random() < 0.8 else rng.uniform(0.3, 3.0)
                        for _ in range(n)] for _ in range(m)])
    _assert_jet_columns_match(spec, points)


def _assert_jet_columns_match(spec, points):
    with np.errstate(all="ignore"):  # a flagged row's numbers are discarded
        value, gradient, hessian, factors, ok = _jet_columns(spec, points)
    for i, row in enumerate(points.tolist()):
        try:
            jet = jet_multivariate(spec, row)
        except ProdgeomError as e:
            assert not ok[i], f"row {i}: jet_multivariate raises {e!r}"
            continue
        assert ok[i]
        assert _bits([value[i], *gradient[i], *np.ravel(hessian[i])]) == \
            _bits([jet.value, *jet.gradient, *np.ravel(jet.hessian)])
        assert (factors is None) == (jet.factors is None)
        assert [_bits([f.value[i], f.d1[i], f.d2[i]]) for f in factors or ()] == \
            [_bits([f.value, f.d1, f.d2]) for f in jet.factors or ()]


@pytest.mark.parametrize("outer", [Identity(), Scale(2.5)], ids=["identity", "scale"])
def test_linear_outer_runs_on_columns(monkeypatch, outer):
    # u itself and gamma * u run once on the whole column, the constant
    # derivative pair is read once, and no row goes through either one alone
    calls = []
    for name in ("value", "derivs"):
        def spy(self, u, _method=getattr(type(outer), name), _name=name):
            calls.append((_name, type(u)))
            return _method(self, u)
        monkeypatch.setattr(type(outer), name, spy)
    spec = Composite(outer, [PowFn(1.0, 0.0, 0.5), ExpFn(1.0, 0.5)])
    points = np.array([[1.0, 1.0], [0.5, 2.0], [-1.0, 1.0], [2.0, 0.25]])
    with np.errstate(all="ignore"):
        _jet_columns(spec, points)
        assert calls == [("value", np.ndarray), ("derivs", float)]
        calls.clear()
        _fd_columns(spec, points)
    assert calls and set(calls) == {("value", np.ndarray)}


def test_value_columns_flag_a_ces_guard_where_d_over_rho_underflows():
    # d / rho = 5e-324 / 2.5 is 0.0 and pow(nan, 0.0) is 1.0, so the nan of
    # the failed guard at x1 = -1 vanished from the core: that row read 1.0
    # where evaluate raises, and its jet columns took a complex power
    spec = make_acms(1.0, (1.0,), 2.5, 5e-324, relax_rho=True)
    value, _, _, _, ok = _jet_columns(spec, np.array([[-1.0], [2.0]]))
    assert ok.tolist() == [False, True] and math.isnan(value[0])
    assert value[1] == evaluate(spec, (2.0,)) == 1.0
    with pytest.raises(DomainError):
        evaluate(spec, (-1.0,))


def test_value_columns_makes_no_scalar_call(scalar_value_calls):
    # flagged rows are left to the caller's own per-point function
    spec = make_cobb_douglas(1.0, (0.3, 0.7))
    value, _, _, _, ok = _jet_columns(spec, np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -2.0]]))
    assert ok.tolist() == [True, False, False]
    assert value[0] == 1.0
    assert scalar_value_calls == []
