"""The error of every single-fault input to the spec reader and constructors.

Each case breaks one thing in an otherwise valid input to ``parse_spec``, a
component, outer-map or spec-kind constructor, ``make_cobb_douglas``,
``make_acms`` or a ``make_thm*_family`` constructor. ``_MESSAGES`` holds the
exact exception type and message each one raised when the table was
recorded, so a rewrite of how fields are read or families are tested keeps
every message to the letter.
"""

import json
import math

import pytest

from prodgeom import (
    Acms,
    Composite,
    ExpFn,
    Homothetical,
    Identity,
    Log,
    LogPowFn,
    PowFn,
    Power,
    Scale,
    make_acms,
    make_cobb_douglas,
    make_thm31_family,
    make_thm41_family,
    make_thm51_family,
    parse_spec,
)

NAN, INF = math.nan, math.inf

_POW = {"type": "pow", "gamma": 1, "beta": 0, "alpha": 0.5}
_EXP = {"type": "exp", "gamma": 2, "lambda": 1}
_LOGPOW = {"type": "logpow", "a": 1, "b": 1, "m": 2}
_SPECS = {
    "homothetical": {"kind": "homothetical", "components": [_POW, _EXP, _LOGPOW]},
    "composite": {"kind": "composite", "outer": {"type": "power", "d": 2},
                  "components": [_POW, _EXP]},
    "acms": {"kind": "acms", "gamma": 1, "betas": [1, 2], "rho": 0.5, "d": 1,
             "outer": {"type": "scale", "gamma": 2}},
}


def _text(kind, edit):
    # a valid spec of ``kind`` with ``edit`` applied to a copy of its object
    obj = json.loads(json.dumps(_SPECS[kind]))
    edit(obj)
    return json.dumps(obj)


def _set(*path_and_value):
    # an edit that sets the field at a path of keys and indices
    *path, key, value = path_and_value

    def edit(obj):
        for step in path:
            obj = obj[step]
        obj[key] = value
    return edit


def _drop(*path_and_key):
    *path, key = path_and_key

    def edit(obj):
        for step in path:
            obj = obj[step]
        del obj[key]
    return edit


_PARSE = {
    "json-garbage": "not json",
    "json-truncated": '{"kind":',
    "json-digit-limit": '{"kind":' + "1" * 5000 + "}",
    "json-nesting": "[" * 100_000,
    "top-level-list": "[1]",
    "kind-missing": "{}",
    "kind-unknown": '{"kind":"cobb"}',
    "kind-number": '{"kind":1}',
    "kind-list": '{"kind":["acms"]}',
    "h-extra-field": _text("homothetical", _set("outer", {"type": "identity"})),
    "h-missing-components": _text("homothetical", _drop("components")),
    "h-components-text": _text("homothetical", _set("components", "x")),
    "h-components-object": _text("homothetical", _set("components", {"a": 1})),
    "h-components-empty": _text("homothetical", _set("components", [])),
    "h-component-number": _text("homothetical", _set("components", 1, 3)),
    "h-component-type-unknown": _text("homothetical", _set("components", 0, "type", "sin")),
    "h-component-type-missing": _text("homothetical", _drop("components", 0, "type")),
    "h-component-type-list": _text("homothetical", _set("components", 0, "type", ["pow"])),
    "h-component-extra-field": _text("homothetical", _set("components", 1, "beta", 0)),
    "h-component-missing-field": _text("homothetical", _drop("components", 2, "m")),
    "h-component-bool": _text("homothetical", _set("components", 0, "alpha", True)),
    "h-component-text": _text("homothetical", _set("components", 0, "alpha", "1")),
    "h-component-null": _text("homothetical", _set("components", 1, "lambda", None)),
    "h-component-nan": _text("homothetical", _set("components", 0, "beta", NAN)),
    "h-component-inf": _text("homothetical", _set("components", 2, "a", -INF)),
    "h-component-1e400": _text("homothetical", _set("components", 0, "gamma", 12345.5))
    .replace("12345.5", "1e400"),
    "h-component-huge-int": _text("homothetical", _set("components", 1, "gamma", 10 ** 400)),
    "h-pow-gamma-zero": _text("homothetical", _set("components", 0, "gamma", 0)),
    "h-pow-alpha-zero": _text("homothetical", _set("components", 0, "alpha", 0.0)),
    "h-exp-gamma-zero": _text("homothetical", _set("components", 1, "gamma", 0)),
    "h-exp-lambda-zero": _text("homothetical", _set("components", 1, "lambda", 0)),
    "h-logpow-b-zero": _text("homothetical", _set("components", 2, "b", 0)),
    "h-logpow-m-zero": _text("homothetical", _set("components", 2, "m", 0)),
    "c-missing-outer": _text("composite", _drop("outer")),
    "c-missing-components": _text("composite", _drop("components")),
    "c-extra-field": _text("composite", _set("gamma", 1)),
    "c-outer-text": _text("composite", _set("outer", "log")),
    "c-outer-type-unknown": _text("composite", _set("outer", "type", "sqrt")),
    "c-outer-type-missing": _text("composite", _drop("outer", "type")),
    "c-power-d-zero": _text("composite", _set("outer", "d", 0)),
    "c-power-d-missing": _text("composite", _drop("outer", "d")),
    "c-power-d-nan": _text("composite", _set("outer", "d", NAN)),
    "c-power-extra-field": _text("composite", _set("outer", "gamma", 1)),
    "c-scale-gamma-zero": _text("composite", _set("outer", {"type": "scale", "gamma": 0})),
    "c-scale-gamma-negative": _text("composite", _set("outer", {"type": "scale", "gamma": -1})),
    "c-identity-extra-field": _text("composite", _set("outer", {"type": "identity", "d": 1})),
    "c-log-extra-field": _text("composite", _set("outer", {"type": "log", "d": 1})),
    "c-components-empty": _text("composite", _set("components", [])),
    "c-component-gamma-zero": _text("composite", _set("components", 1, "gamma", 0)),
    "a-extra-field": _text("acms", _set("components", [])),
    "a-missing-gamma": _text("acms", _drop("gamma")),
    "a-missing-betas": _text("acms", _drop("betas")),
    "a-missing-rho": _text("acms", _drop("rho")),
    "a-missing-d": _text("acms", _drop("d")),
    "a-missing-outer": _text("acms", _drop("outer")),
    "a-gamma-text": _text("acms", _set("gamma", "1")),
    "a-gamma-zero": _text("acms", _set("gamma", 0)),
    "a-gamma-negative": _text("acms", _set("gamma", -1.5)),
    "a-gamma-nan": _text("acms", _set("gamma", NAN)),
    "a-betas-number": _text("acms", _set("betas", 1)),
    "a-betas-empty": _text("acms", _set("betas", [])),
    "a-betas-text": _text("acms", _set("betas", 1, "2")),
    "a-betas-bool": _text("acms", _set("betas", 0, False)),
    "a-betas-inf": _text("acms", _set("betas", 1, INF)),
    "a-betas-zero": _text("acms", _set("betas", 1, 0)),
    "a-betas-negative": _text("acms", _set("betas", 0, -1)),
    "a-rho-zero": _text("acms", _set("rho", 0)),
    "a-rho-one": _text("acms", _set("rho", 1)),
    "a-rho-above-one": _text("acms", _set("rho", 1.5)),
    "a-rho-null": _text("acms", _set("rho", None)),
    "a-d-zero": _text("acms", _set("d", 0)),
    "a-d-negative": _text("acms", _set("d", -2)),
    "a-outer-list": _text("acms", _set("outer", [])),
    "a-outer-power-d-zero": _text("acms", _set("outer", {"type": "power", "d": 0})),
    "a-outer-scale-missing-gamma": _text("acms", _drop("outer", "gamma")),
}

_CALLS = {
    "pow-gamma-zero": lambda: PowFn(0.0, 0.0, 1.0),
    "pow-alpha-zero": lambda: PowFn(1.0, 0.0, 0.0),
    "pow-gamma-nan": lambda: PowFn(NAN, 0.0, 1.0),
    "pow-beta-inf": lambda: PowFn(1.0, INF, 1.0),
    "pow-alpha-minus-inf": lambda: PowFn(1.0, 0.0, -INF),
    "exp-gamma-zero": lambda: ExpFn(0.0, 1.0),
    "exp-lambda-zero": lambda: ExpFn(1.0, 0.0),
    "exp-lambda-nan": lambda: ExpFn(1.0, NAN),
    "logpow-a-nan": lambda: LogPowFn(NAN, 1.0, 1.0),
    "logpow-b-zero": lambda: LogPowFn(1.0, 0.0, 1.0),
    "logpow-m-zero": lambda: LogPowFn(1.0, 1.0, 0.0),
    "power-d-zero": lambda: Power(0.0),
    "power-d-inf": lambda: Power(INF),
    "scale-gamma-zero": lambda: Scale(0.0),
    "scale-gamma-negative": lambda: Scale(-1.0),
    "scale-gamma-nan": lambda: Scale(NAN),
    "homothetical-empty": lambda: Homothetical(()),
    "composite-empty": lambda: Composite(Identity(), []),
    "acms-gamma-zero": lambda: Acms(0.0, (1.0, 1.0), 0.5, 1.0),
    "acms-gamma-nan": lambda: Acms(NAN, (1.0, 1.0), 0.5, 1.0),
    "acms-betas-empty": lambda: Acms(1.0, (), 0.5, 1.0),
    "acms-betas-negative": lambda: Acms(1.0, (1.0, -1.0), 0.5, 1.0),
    "acms-betas-nan": lambda: Acms(1.0, (1.0, NAN), 0.5, 1.0),
    "acms-betas-text": lambda: Acms(1.0, (1.0, "x"), 0.5, 1.0),
    "acms-rho-zero": lambda: Acms(1.0, (1.0, 1.0), 0.0, 1.0),
    "acms-rho-inf": lambda: Acms(1.0, (1.0, 1.0), INF, 1.0),
    "acms-d-zero": lambda: Acms(1.0, (1.0, 1.0), 0.5, 0.0),
    "acms-d-nan": lambda: Acms(1.0, (1.0, 1.0), 0.5, NAN),
    "cobb-douglas-gamma-zero": lambda: make_cobb_douglas(0.0, (0.5, 0.5)),
    "cobb-douglas-gamma-negative": lambda: make_cobb_douglas(-1.0, (0.5, 0.5)),
    "cobb-douglas-gamma-inf": lambda: make_cobb_douglas(INF, (0.5, 0.5)),
    "cobb-douglas-empty": lambda: make_cobb_douglas(1.0, ()),
    "cobb-douglas-alpha-zero": lambda: make_cobb_douglas(1.0, (0.5, 0.0)),
    "cobb-douglas-alpha-nan": lambda: make_cobb_douglas(1.0, (NAN, 0.5)),
    "make-acms-rho-one": lambda: make_acms(1.0, (1.0, 1.0), 1.0, 1.0),
    "make-acms-rho-two": lambda: make_acms(1.0, (1.0, 1.0), 2.0, 1.0),
    "make-acms-gamma-zero": lambda: make_acms(0.0, (1.0, 1.0), 0.5, 1.0),
    "make-acms-betas-empty": lambda: make_acms(1.0, (), 0.5, 1.0),
    "make-acms-betas-negative": lambda: make_acms(1.0, (-1.0,), 0.5, 1.0),
    "make-acms-rho-zero": lambda: make_acms(1.0, (1.0, 1.0), 0.0, 1.0, relax_rho=True),
    "make-acms-d-zero": lambda: make_acms(1.0, (1.0, 1.0), 0.5, 0.0),
    "thm31-case-unknown": lambda: make_thm31_family("c"),
    "thm31-a-none": lambda: make_thm31_family("a"),
    "thm31-a-empty": lambda: make_thm31_family("a", components=[]),
    "thm31-a-one-exp": lambda: make_thm31_family(
        "a", components=[ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 2.0)]),
    "thm31-a-no-exp": lambda: make_thm31_family(
        "a", components=[PowFn(1.0, 0.0, 0.5), PowFn(1.0, 0.0, 0.5)]),
    "thm31-b-none": lambda: make_thm31_family("b"),
    "thm31-b-empty": lambda: make_thm31_family("b", alphas=[]),
    "thm31-b-zero": lambda: make_thm31_family("b", alphas=[1.0, 0.0]),
    "thm31-b-sum": lambda: make_thm31_family("b", alphas=[0.5, 0.6]),
    "thm31-b-gamma-zero": lambda: make_thm31_family("b", alphas=[0.5, 0.5], gamma=0.0),
    "thm31-b-gamma-nan": lambda: make_thm31_family("b", alphas=[0.5, 0.5], gamma=NAN),
    "thm31-b-lengths": lambda: make_thm31_family("b", alphas=[0.5, 0.5], betas=[0.0]),
    "thm31-b-beta-nan": lambda: make_thm31_family("b", alphas=[0.5, 0.5], betas=[0.0, NAN]),
    "thm31-b-alpha-nan": lambda: make_thm31_family("b", alphas=[1.0, NAN]),
    "thm41-case-unknown": lambda: make_thm41_family("x"),
    "thm41-a-none": lambda: make_thm41_family("a", outer=Log()),
    "thm41-a-empty": lambda: make_thm41_family("a", components=()),
    "thm41-a-one-exp": lambda: make_thm41_family(
        "a", components=(PowFn(1.0, 0.0, 2.0), ExpFn(1.0, 1.0)), outer=Power(2.0)),
    "thm41-b-none": lambda: make_thm41_family("b"),
    "thm41-b-empty": lambda: make_thm41_family("b", alphas=()),
    "thm41-b-zero": lambda: make_thm41_family("b", alphas=(0.0, 1.0)),
    "thm41-b-sum": lambda: make_thm41_family("b", alphas=(0.5, 0.6), outer=Log()),
    "thm41-b-gamma-zero": lambda: make_thm41_family("b", alphas=(1.0, -1.0), gamma=0.0),
    "thm41-b-lengths": lambda: make_thm41_family("b", alphas=(1.0, -1.0), betas=(0.0, 0.0, 1.0)),
    "thm41-b-beta-inf": lambda: make_thm41_family("b", alphas=(1.0, -1.0), betas=(INF, 0.0)),
    "thm51-case-unknown": lambda: make_thm51_family("d"),
    "thm51-a-none": lambda: make_thm51_family("a"),
    "thm51-a-empty": lambda: make_thm51_family("a", alphas=()),
    "thm51-a-gamma-zero": lambda: make_thm51_family("a", alphas=(0.5, 0.5), gamma=0.0),
    "thm51-a-alpha-zero": lambda: make_thm51_family("a", alphas=(0.5, 0.0)),
    "thm51-b-sigma-none": lambda: make_thm51_family("b", betas=(1.0, 1.0)),
    "thm51-b-sigma-one": lambda: make_thm51_family("b", sigma=1.0, betas=(1.0, 1.0)),
    "thm51-b-sigma-zero": lambda: make_thm51_family("b", sigma=0.0, betas=(1.0, 1.0)),
    "thm51-b-sigma-negative": lambda: make_thm51_family("b", sigma=-2.0, betas=(1.0, 1.0)),
    "thm51-b-betas-none": lambda: make_thm51_family("b", sigma=2.0),
    "thm51-b-betas-empty": lambda: make_thm51_family("b", sigma=2.0, betas=()),
    "thm51-b-d-zero": lambda: make_thm51_family("b", sigma=2.0, betas=(1.0, 1.0), d=0.0),
    "thm51-b-gamma-zero": lambda: make_thm51_family("b", sigma=2.0, betas=(1.0,), gamma=0.0),
    "thm51-c-none": lambda: make_thm51_family("c"),
    "thm51-c-one": lambda: make_thm51_family("c", mu=(1.0,)),
    "thm51-c-three": lambda: make_thm51_family("c", mu=(1.0, -1.0, 1.0)),
    "thm51-c-zero": lambda: make_thm51_family("c", mu=(1.0, 0.0)),
    "thm51-c-reciprocal-sum": lambda: make_thm51_family("c", mu=(1.0, 1.0)),
    "thm51-c-nan": lambda: make_thm51_family("c", mu=(1.0, NAN)),
    "pow-gamma-text": lambda: PowFn("x", 0.0, 1.0),
    "pow-gamma-huge-int": lambda: PowFn(10 ** 400, 0.0, 1.0),
    "pow-alpha-bool": lambda: PowFn(1.0, 0.0, True),
    "exp-lambda-none": lambda: ExpFn(1.0, None),
    "logpow-m-list": lambda: LogPowFn(1.0, 1.0, [2.0]),
    "power-d-text": lambda: Power("2"),
    "scale-gamma-tuple": lambda: Scale((2.0,)),
    "homothetical-components-none": lambda: Homothetical(None),
    "homothetical-component-text": lambda: Homothetical((PowFn(1.0, 0.0, 1.0), "x")),
    "composite-outer-text": lambda: Composite("x", (PowFn(1.0, 0.0, 1.0),)),
    "composite-component-outer": lambda: Composite(Identity(), (Log(),)),
    "acms-gamma-list": lambda: Acms([1.0], (1.0, 1.0), 0.5, 1.0),
    "acms-betas-none": lambda: Acms(1.0, None, 0.5, 1.0),
    "acms-betas-huge-int": lambda: Acms(1.0, (1.0, 10 ** 400), 0.5, 1.0),
    "acms-outer-component": lambda: Acms(1.0, (1.0, 1.0), 0.5, 1.0, PowFn(1.0, 0.0, 1.0)),
    "cobb-douglas-gamma-text": lambda: make_cobb_douglas("1", (0.5, 0.5)),
    "cobb-douglas-alpha-text": lambda: make_cobb_douglas(1.0, ("x", 1.0)),
    "cobb-douglas-alphas-number": lambda: make_cobb_douglas(1.0, 0.5),
    "make-acms-gamma-none": lambda: make_acms(None, (1.0, 1.0), 0.5, 1.0),
    "make-acms-betas-text": lambda: make_acms(1.0, (1.0, "x"), 0.5, 1.0),
    "make-acms-rho-text": lambda: make_acms(1.0, (1.0, 1.0), "x", 1.0),
    "make-acms-d-bool": lambda: make_acms(1.0, (1.0, 1.0), 0.5, True),
    "make-acms-outer-text": lambda: make_acms(1.0, (1.0, 1.0), 0.5, 1.0, "log"),
    "thm31-a-components-number": lambda: make_thm31_family("a", components=1.0),
    "thm31-a-component-text": lambda: make_thm31_family(
        "a", components=[ExpFn(1.0, 1.0), ExpFn(1.0, 1.0), "x"]),
    "thm31-b-alpha-text": lambda: make_thm31_family("b", alphas=["x", 1.0]),
    "thm31-b-gamma-text": lambda: make_thm31_family("b", alphas=[0.5, 0.5], gamma="x"),
    "thm41-b-beta-none": lambda: make_thm41_family("b", alphas=(1.0, -1.0), betas=(None, 0.0)),
    "thm41-b-outer-text": lambda: make_thm41_family("b", alphas=(1.0, -1.0), outer="x"),
    "thm51-a-outer-text": lambda: make_thm51_family("a", alphas=(0.5, 0.5), outer="x"),
    "thm51-b-sigma-text": lambda: make_thm51_family("b", sigma="x", betas=(1.0, 1.0)),
    "thm51-b-sigma-huge": lambda: make_thm51_family("b", sigma=1e16, betas=(1.0, 1.0)),
    "thm51-b-sigma-inf": lambda: make_thm51_family("b", sigma=INF, betas=(1.0, 1.0)),
    "thm51-b-d-text": lambda: make_thm51_family("b", sigma=2.0, betas=(1.0, 1.0), d="x"),
    "thm51-b-beta-text": lambda: make_thm51_family("b", sigma=2.0, betas=(1.0, "x")),
    "thm51-c-mu-text": lambda: make_thm51_family("c", mu=(1.0, "x")),
}

_MESSAGES = {
    "parse-json-garbage": ("ParseError", "line 1, column 1: Expecting value"),
    "parse-json-truncated": ("ParseError", "line 1, column 9: Expecting value"),
    "parse-json-digit-limit":
        ("ParseError", "cannot decode the spec: Exceeds the limit (4300 digits) for integer "
                       "string conversion: value has 5000 digits; use "
                       "sys.set_int_max_str_digits() to increase the limit"),
    "parse-json-nesting":
        ("ParseError", "cannot decode the spec: maximum recursion depth exceeded while "
                       "decoding a JSON array from a unicode string"),
    "parse-top-level-list": ("ParseError", "top level: expected an object"),
    "parse-kind-missing":
        ("ParseError", "kind: expected one of homothetical, composite, acms; got None"),
    "parse-kind-unknown":
        ("ParseError", "kind: expected one of homothetical, composite, acms; got 'cobb'"),
    "parse-kind-number":
        ("ParseError", "kind: expected one of homothetical, composite, acms; got 1"),
    "parse-kind-list":
        ("ParseError", "kind: expected one of homothetical, composite, acms; got ['acms']"),
    "parse-h-extra-field": ("ParseError", "top level: unknown field(s) outer"),
    "parse-h-missing-components": ("ParseError", "top level: missing field(s) components"),
    "parse-h-components-text": ("ParseError", "components: expected a list of components"),
    "parse-h-components-object": ("ParseError", "components: expected a list of components"),
    "parse-h-components-empty": ("ValidationError", "components: needs at least one component"),
    "parse-h-component-number": ("ParseError", "components[1]: expected an object, got 3"),
    "parse-h-component-type-unknown":
        ("ParseError", "components[0].type: expected one of pow, exp, logpow; got 'sin'"),
    "parse-h-component-type-missing":
        ("ParseError", "components[0].type: expected one of pow, exp, logpow; got None"),
    "parse-h-component-type-list":
        ("ParseError", "components[0].type: expected one of pow, exp, logpow; got ['pow']"),
    "parse-h-component-extra-field": ("ParseError", "components[1]: unknown field(s) beta"),
    "parse-h-component-missing-field": ("ParseError", "components[2]: missing field(s) m"),
    "parse-h-component-bool": ("ParseError", "components[0].alpha: expected a number, got True"),
    "parse-h-component-text": ("ParseError", "components[0].alpha: expected a number, got '1'"),
    "parse-h-component-null": ("ParseError", "components[1].lambda: expected a number, got None"),
    "parse-h-component-nan":
        ("ParseError", "components[0].beta: expected a finite number, got nan"),
    "parse-h-component-inf": ("ParseError", "components[2].a: expected a finite number, got -inf"),
    "parse-h-component-1e400":
        ("ParseError", "components[0].gamma: expected a finite number, got inf"),
    "parse-h-component-huge-int":
        ("ParseError", "components[1].gamma: expected a finite number, got inf"),
    "parse-h-pow-gamma-zero":
        ("ValidationError", "components[0]: pow component: gamma must be nonzero"),
    "parse-h-pow-alpha-zero":
        ("ValidationError", "components[0]: pow component: alpha must be nonzero"),
    "parse-h-exp-gamma-zero":
        ("ValidationError", "components[1]: exp component: gamma must be nonzero"),
    "parse-h-exp-lambda-zero":
        ("ValidationError", "components[1]: exp component: lambda must be nonzero"),
    "parse-h-logpow-b-zero":
        ("ValidationError", "components[2]: logpow component: b must be nonzero"),
    "parse-h-logpow-m-zero":
        ("ValidationError", "components[2]: logpow component: m must be nonzero"),
    "parse-c-missing-outer": ("ParseError", "top level: missing field(s) outer"),
    "parse-c-missing-components": ("ParseError", "top level: missing field(s) components"),
    "parse-c-extra-field": ("ParseError", "top level: unknown field(s) gamma"),
    "parse-c-outer-text": ("ParseError", "outer: expected an object, got 'log'"),
    "parse-c-outer-type-unknown":
        ("ParseError", "outer.type: expected one of identity, power, scale, log; got 'sqrt'"),
    "parse-c-outer-type-missing":
        ("ParseError", "outer.type: expected one of identity, power, scale, log; got None"),
    "parse-c-power-d-zero": ("ValidationError", "outer: power outer: d must be nonzero"),
    "parse-c-power-d-missing": ("ParseError", "outer: missing field(s) d"),
    "parse-c-power-d-nan": ("ParseError", "outer.d: expected a finite number, got nan"),
    "parse-c-power-extra-field": ("ParseError", "outer: unknown field(s) gamma"),
    "parse-c-scale-gamma-zero": ("ValidationError", "outer: scale outer: gamma must be positive"),
    "parse-c-scale-gamma-negative":
        ("ValidationError", "outer: scale outer: gamma must be positive"),
    "parse-c-identity-extra-field": ("ParseError", "outer: unknown field(s) d"),
    "parse-c-log-extra-field": ("ParseError", "outer: unknown field(s) d"),
    "parse-c-components-empty": ("ValidationError", "components: needs at least one component"),
    "parse-c-component-gamma-zero":
        ("ValidationError", "components[1]: exp component: gamma must be nonzero"),
    "parse-a-extra-field": ("ParseError", "top level: unknown field(s) components"),
    "parse-a-missing-gamma": ("ParseError", "top level: missing field(s) gamma"),
    "parse-a-missing-betas": ("ParseError", "top level: missing field(s) betas"),
    "parse-a-missing-rho": ("ParseError", "top level: missing field(s) rho"),
    "parse-a-missing-d": ("ParseError", "top level: missing field(s) d"),
    "parse-a-missing-outer": ("ParseError", "top level: missing field(s) outer"),
    "parse-a-gamma-text": ("ParseError", "gamma: expected a number, got '1'"),
    "parse-a-gamma-zero": ("ValidationError", "acms: gamma must be positive"),
    "parse-a-gamma-negative": ("ValidationError", "acms: gamma must be positive"),
    "parse-a-gamma-nan": ("ParseError", "gamma: expected a finite number, got nan"),
    "parse-a-betas-number": ("ParseError", "betas: expected a non-empty list of numbers"),
    "parse-a-betas-empty": ("ParseError", "betas: expected a non-empty list of numbers"),
    "parse-a-betas-text": ("ParseError", "betas[1]: expected a number, got '2'"),
    "parse-a-betas-bool": ("ParseError", "betas[0]: expected a number, got False"),
    "parse-a-betas-inf": ("ParseError", "betas[1]: expected a finite number, got inf"),
    "parse-a-betas-zero": ("ValidationError", "acms: betas[1] must be positive, got 0.0"),
    "parse-a-betas-negative": ("ValidationError", "acms: betas[0] must be positive, got -1.0"),
    "parse-a-rho-zero": ("ValidationError", "acms: rho must be nonzero"),
    "parse-a-rho-one":
        ("ValidationError", "acms: rho must be < 1 (got 1.0); use relax_rho to permit"),
    "parse-a-rho-above-one":
        ("ValidationError", "acms: rho must be < 1 (got 1.5); use relax_rho to permit"),
    "parse-a-rho-null": ("ParseError", "rho: expected a number, got None"),
    "parse-a-d-zero": ("ValidationError", "acms: d must be positive"),
    "parse-a-d-negative": ("ValidationError", "acms: d must be positive"),
    "parse-a-outer-list": ("ParseError", "outer: expected an object, got []"),
    "parse-a-outer-power-d-zero": ("ValidationError", "outer: power outer: d must be nonzero"),
    "parse-a-outer-scale-missing-gamma": ("ParseError", "outer: missing field(s) gamma"),
    "pow-gamma-zero": ("ValidationError", "pow component: gamma must be nonzero"),
    "pow-alpha-zero": ("ValidationError", "pow component: alpha must be nonzero"),
    "pow-gamma-nan": ("ValidationError", "pow component: gamma must be finite, got nan"),
    "pow-beta-inf": ("ValidationError", "pow component: beta must be finite, got inf"),
    "pow-alpha-minus-inf": ("ValidationError", "pow component: alpha must be finite, got -inf"),
    "exp-gamma-zero": ("ValidationError", "exp component: gamma must be nonzero"),
    "exp-lambda-zero": ("ValidationError", "exp component: lambda must be nonzero"),
    "exp-lambda-nan": ("ValidationError", "exp component: lambda must be finite, got nan"),
    "logpow-a-nan": ("ValidationError", "logpow component: a must be finite, got nan"),
    "logpow-b-zero": ("ValidationError", "logpow component: b must be nonzero"),
    "logpow-m-zero": ("ValidationError", "logpow component: m must be nonzero"),
    "power-d-zero": ("ValidationError", "power outer: d must be nonzero"),
    "power-d-inf": ("ValidationError", "power outer: d must be finite, got inf"),
    "scale-gamma-zero": ("ValidationError", "scale outer: gamma must be positive"),
    "scale-gamma-negative": ("ValidationError", "scale outer: gamma must be positive"),
    "scale-gamma-nan": ("ValidationError", "scale outer: gamma must be finite, got nan"),
    "homothetical-empty": ("ValidationError", "a spec needs at least one component"),
    "composite-empty": ("ValidationError", "a spec needs at least one component"),
    "acms-gamma-zero": ("ValidationError", "acms: gamma must be positive"),
    "acms-gamma-nan": ("ValidationError", "acms: gamma must be finite, got nan"),
    "acms-betas-empty": ("ValidationError", "acms: needs at least one beta"),
    "acms-betas-negative": ("ValidationError", "acms: betas[1] must be positive, got -1.0"),
    "acms-betas-nan": ("ValidationError", "acms: betas[1] must be finite, got nan"),
    "acms-betas-text": ("ValidationError", "acms: betas[1] must be a number, got 'x'"),
    "acms-rho-zero": ("ValidationError", "acms: rho must be nonzero"),
    "acms-rho-inf": ("ValidationError", "acms: rho must be finite, got inf"),
    "acms-d-zero": ("ValidationError", "acms: d must be positive"),
    "acms-d-nan": ("ValidationError", "acms: d must be finite, got nan"),
    "cobb-douglas-gamma-zero": ("ValidationError", "cobb-douglas: gamma must be positive"),
    "cobb-douglas-gamma-negative": ("ValidationError", "cobb-douglas: gamma must be positive"),
    "cobb-douglas-gamma-inf": ("ValidationError", "pow component: gamma must be finite, got inf"),
    "cobb-douglas-empty": ("ValidationError", "cobb-douglas: needs at least one exponent"),
    "cobb-douglas-alpha-zero": ("ValidationError", "cobb-douglas: alphas[1] must be nonzero"),
    "cobb-douglas-alpha-nan": ("ValidationError", "pow component: alpha must be finite, got nan"),
    "make-acms-rho-one":
        ("ValidationError", "acms: rho must be < 1 (got 1.0); use relax_rho to permit"),
    "make-acms-rho-two":
        ("ValidationError", "acms: rho must be < 1 (got 2.0); use relax_rho to permit"),
    "make-acms-gamma-zero": ("ValidationError", "acms: gamma must be positive"),
    "make-acms-betas-empty": ("ValidationError", "acms: needs at least one beta"),
    "make-acms-betas-negative": ("ValidationError", "acms: betas[0] must be positive, got -1.0"),
    "make-acms-rho-zero": ("ValidationError", "acms: rho must be nonzero"),
    "make-acms-d-zero": ("ValidationError", "acms: d must be positive"),
    "thm31-case-unknown": ("ValidationError", "unknown case 'c', expected 'a' or 'b'"),
    "thm31-a-none": ("ValidationError", "case a needs an explicit component list"),
    "thm31-a-empty": ("ValidationError", "a spec needs at least one component"),
    "thm31-a-one-exp": ("ValidationError", "case a needs at least two exponential components"),
    "thm31-a-no-exp": ("ValidationError", "case a needs at least two exponential components"),
    "thm31-b-none": ("ValidationError", "case b needs the exponent list"),
    "thm31-b-empty": ("ValidationError", "case b needs at least one exponent"),
    "thm31-b-zero": ("ValidationError", "case b exponents must all be nonzero"),
    "thm31-b-sum": ("ValidationError", "case b exponents must sum to 1, got 1.1"),
    "thm31-b-gamma-zero": ("ValidationError", "gamma must be nonzero"),
    "thm31-b-gamma-nan": ("ValidationError", "pow component: gamma must be finite, got nan"),
    "thm31-b-lengths": ("ValidationError", "betas and alphas must have the same length"),
    "thm31-b-beta-nan": ("ValidationError", "pow component: beta must be finite, got nan"),
    "thm31-b-alpha-nan": ("ValidationError", "pow component: alpha must be finite, got nan"),
    "thm41-case-unknown": ("ValidationError", "unknown case 'x', expected 'a' or 'b'"),
    "thm41-a-none": ("ValidationError", "case a needs an explicit component list"),
    "thm41-a-empty": ("ValidationError", "a spec needs at least one component"),
    "thm41-a-one-exp": ("ValidationError", "case a needs at least two exponential components"),
    "thm41-b-none": ("ValidationError", "case b needs the exponent list"),
    "thm41-b-empty": ("ValidationError", "case b needs at least one exponent"),
    "thm41-b-zero": ("ValidationError", "case b exponents must all be nonzero"),
    "thm41-b-sum": ("ValidationError", "case b exponents must sum to 0, got 1.1"),
    "thm41-b-gamma-zero": ("ValidationError", "gamma must be nonzero"),
    "thm41-b-lengths": ("ValidationError", "betas and alphas must have the same length"),
    "thm41-b-beta-inf": ("ValidationError", "pow component: beta must be finite, got inf"),
    "thm51-case-unknown": ("ValidationError", "unknown case 'd', expected 'a', 'b' or 'c'"),
    "thm51-a-none": ("ValidationError", "case a needs the exponent list"),
    "thm51-a-empty": ("ValidationError", "cobb-douglas: needs at least one exponent"),
    "thm51-a-gamma-zero": ("ValidationError", "cobb-douglas: gamma must be positive"),
    "thm51-a-alpha-zero": ("ValidationError", "cobb-douglas: alphas[1] must be nonzero"),
    "thm51-b-sigma-none": ("ValidationError", "case b needs sigma"),
    "thm51-b-sigma-one": ("ValidationError", "case b needs sigma != 1 (sigma = 1 is case a)"),
    "thm51-b-sigma-zero": ("ValidationError", "case b needs sigma > 0 so that rho < 1"),
    "thm51-b-sigma-negative": ("ValidationError", "case b needs sigma > 0 so that rho < 1"),
    "thm51-b-betas-none": ("ValidationError", "case b needs the beta weights"),
    "thm51-b-betas-empty": ("ValidationError", "acms: needs at least one beta"),
    "thm51-b-d-zero": ("ValidationError", "acms: d must be positive"),
    "thm51-b-gamma-zero": ("ValidationError", "acms: gamma must be positive"),
    "thm51-c-none": ("ValidationError", "case c needs the mu pair"),
    "thm51-c-one": ("ValidationError", "case c is a two-variable family"),
    "thm51-c-three": ("ValidationError", "case c is a two-variable family"),
    "thm51-c-zero": ("ValidationError", "case c exponents must be nonzero"),
    "thm51-c-reciprocal-sum":
        ("ValidationError", "case c needs 1/mu_1 + 1/mu_2 = 0, got mu = (1.0, 1.0)"),
    "thm51-c-nan": ("ValidationError", "logpow component: m must be finite, got nan"),
    "pow-gamma-text": ("ValidationError", "pow component: gamma must be a number, got 'x'"),
    "pow-gamma-huge-int": ("ValidationError", "pow component: gamma must be finite, got inf"),
    "pow-alpha-bool": ("ValidationError", "pow component: alpha must be a number, got True"),
    "exp-lambda-none": ("ValidationError", "exp component: lambda must be a number, got None"),
    "logpow-m-list": ("ValidationError", "logpow component: m must be a number, got [2.0]"),
    "power-d-text": ("ValidationError", "power outer: d must be a number, got '2'"),
    "scale-gamma-tuple": ("ValidationError", "scale outer: gamma must be a number, got (2.0,)"),
    "homothetical-components-none":
        ("ValidationError", "homothetical: components must be a sequence of components, got None"),
    "homothetical-component-text":
        ("ValidationError", "homothetical: components[1] must be one of PowFn, ExpFn, "
                            "LogPowFn; got 'x'"),
    "composite-outer-text":
        ("ValidationError", "composite: outer must be one of Identity, Power, Scale, "
                            "Log; got 'x'"),
    "composite-component-outer":
        ("ValidationError", "composite: components[0] must be one of PowFn, ExpFn, "
                            "LogPowFn; got Log()"),
    "acms-gamma-list": ("ValidationError", "acms: gamma must be a number, got [1.0]"),
    "acms-betas-none": ("ValidationError", "acms: betas must be a sequence of numbers, got None"),
    "acms-betas-huge-int": ("ValidationError", "acms: betas[1] must be finite, got inf"),
    "acms-outer-component":
        ("ValidationError", "acms: outer must be one of Identity, Power, Scale, Log; got "
                            "PowFn(gamma=1.0, beta=0.0, alpha=1.0)"),
    "cobb-douglas-gamma-text":
        ("ValidationError", "cobb-douglas: gamma must be a number, got '1'"),
    "cobb-douglas-alpha-text":
        ("ValidationError", "cobb-douglas: alphas[0] must be a number, got 'x'"),
    "cobb-douglas-alphas-number":
        ("ValidationError", "cobb-douglas: alphas must be a sequence of numbers, got 0.5"),
    "make-acms-gamma-none": ("ValidationError", "acms: gamma must be a number, got None"),
    "make-acms-betas-text": ("ValidationError", "acms: betas[1] must be a number, got 'x'"),
    "make-acms-rho-text": ("ValidationError", "acms: rho must be a number, got 'x'"),
    "make-acms-d-bool": ("ValidationError", "acms: d must be a number, got True"),
    "make-acms-outer-text":
        ("ValidationError", "acms: outer must be one of Identity, Power, Scale, Log; got 'log'"),
    "thm31-a-components-number":
        ("ValidationError", "homothetical: components must be a sequence of components, got 1.0"),
    "thm31-a-component-text":
        ("ValidationError", "homothetical: components[2] must be one of PowFn, ExpFn, "
                            "LogPowFn; got 'x'"),
    "thm31-b-alpha-text": ("ValidationError", "alphas[0] must be a number, got 'x'"),
    "thm31-b-gamma-text": ("ValidationError", "gamma must be a number, got 'x'"),
    "thm41-b-beta-none": ("ValidationError", "betas[0] must be a number, got None"),
    "thm41-b-outer-text":
        ("ValidationError", "composite: outer must be one of Identity, Power, Scale, "
                            "Log; got 'x'"),
    "thm51-a-outer-text":
        ("ValidationError", "composite: outer must be one of Identity, Power, Scale, "
                            "Log; got 'x'"),
    "thm51-b-sigma-text": ("ValidationError", "sigma must be a number, got 'x'"),
    "thm51-b-sigma-huge":
        ("ValidationError", "case b needs a sigma whose rho = (sigma - 1)/sigma rounds "
                            "below 1; got sigma = 1e+16"),
    "thm51-b-sigma-inf":
        ("ValidationError", "case b needs a sigma whose rho = (sigma - 1)/sigma rounds "
                            "below 1; got sigma = inf"),
    "thm51-b-d-text": ("ValidationError", "acms: d must be a number, got 'x'"),
    "thm51-b-beta-text": ("ValidationError", "acms: betas[1] must be a number, got 'x'"),
    "thm51-c-mu-text": ("ValidationError", "mu[1] must be a number, got 'x'"),
}


def _cases():
    for name, text in _PARSE.items():
        yield pytest.param(lambda text=text: parse_spec(text), id=f"parse-{name}")
    for name, call in _CALLS.items():
        yield pytest.param(call, id=name)


@pytest.mark.parametrize("call", _cases())
def test_single_fault_raises_the_recorded_error(request, call):
    with pytest.raises(Exception) as info:
        call()
    name = request.node.callspec.id
    assert (type(info.value).__name__, str(info.value)) == _MESSAGES[name]
