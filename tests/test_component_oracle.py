"""An oracle for the 1-D calculus that shares no derivative formula with the code.

Each component's value, f' and f'', and each outer map's F, F' and F'', come
from ``sympy.diff`` of the formula its class docstring states, parsed as
written there with the parameters as symbols. Each kind is derived once and
lambdified to mpmath, then evaluated at 50 digits with the parameters and
the point read as the exact rationals of their stored doubles. ``value``
and ``derivs`` must match it to within ``TOL`` of the sum of the absolute
terms of the expanded expression, so a cancellation between terms counts at
its size and a wrong coefficient or exponent does not pass.
"""

import dataclasses
import functools

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import (convert_xor, implicit_application, parse_expr,
                                        standard_transformations)

from prodgeom import ExpFn, Identity, Log, LogPowFn, Power, PowFn, Scale
from prodgeom.funcspec import OuterFn

#: Largest |code - oracle| / sum(|terms|) allowed, about 18 units in the last
#: place. 10,000 draws per kind (the fuzz profile) measured at most 1.2e-15,
#: and draws at the corner alpha near -3, x + beta near 5 at most 1.5e-15:
#: there the roundings of x + beta and of alpha - 2, raised to alpha - 2, and
#: those of the products have a first-order bound of about 1.9e-15.
#: ``Log``'s F'' scaled by (1 + 1e-7) reads 1.0e-7.
TOL = 4e-15


def _signed(lo, hi):
    return st.builds(lambda sign, x: sign * x, st.sampled_from((-1.0, 1.0)), st.floats(lo, hi))


# exponents: the integers and the halves that take the code's exact-zero and
# integer branches, and any float in [-3, 3] of size at least 1e-300. A
# smaller one makes f' and f'' subnormal, where a double holds fewer digits
# than TOL asks for (alpha = 2.2e-311 reads 4.2e-14)
_EXPONENT = st.one_of(st.sampled_from((-2.0, -1.0, 0.5, 1.0, 2.0, 3.0)),
                      st.floats(-3.0, 3.0).filter(lambda e: abs(e) >= 1e-300))
_U = st.floats(0.1, 10.0)

# per class: the formula as its docstring writes it, in x (a component) or u
# (an outer map), the strategy of its parameters, and that of the point. The
# draws keep x + beta and a + b ln x at least a third of the sum of their
# parts' sizes, and |lam x| <= 3, so a rounded inner sum or product moves
# the result by a few units in the last place; the term sum does not see
# inside exp, ln or a power
_KINDS = {
    PowFn: ("gamma * (x + beta)^alpha",
            st.fixed_dictionaries({"gamma": _signed(0.1, 5.0), "beta": st.floats(0.0, 2.0),
                                   "alpha": _EXPONENT}), st.floats(0.5, 3.0)),
    ExpFn: ("gamma * e^(lam * x)",
            st.fixed_dictionaries({"gamma": _signed(0.1, 5.0), "lam": _signed(0.1, 2.0)}),
            st.floats(-1.5, 1.5)),
    LogPowFn: ("(a + b * ln x)^m",
               st.fixed_dictionaries({"a": st.floats(1.0, 3.0), "b": _signed(0.05, 0.45),
                                      "m": _EXPONENT}), st.floats(0.5, 3.0)),
    Identity: ("F(u) = u", st.fixed_dictionaries({}), _U),
    Power: ("F(u) = u^d", st.fixed_dictionaries({"d": _EXPONENT}), _U),
    Scale: ("F(u) = gamma * u", st.fixed_dictionaries({"gamma": st.floats(0.1, 5.0)}), _U),
    Log: ("F(u) = ln u", st.fixed_dictionaries({}), _U),
}


@functools.cache
def _oracle(cls):
    """The terms of the expanded value, first and second derivative of
    ``cls``'s docstring formula, each as one mpmath function of (point,
    *parameters), the parameters in field order."""
    formula = _KINDS[cls][0]
    assert formula in cls.__doc__
    var = "u" if formula.startswith("F(u) = ") else "x"
    names = [var] + [field.name for field in dataclasses.fields(cls)]
    symbols = {name: sympy.Symbol(name) for name in names}
    expr = parse_expr(formula.removeprefix("F(u) = "),
                      local_dict={**symbols, "e": sympy.E, "ln": sympy.log},
                      transformations=standard_transformations + (convert_xor, implicit_application))
    derived = [expr, sympy.diff(expr, symbols[var]), sympy.diff(expr, symbols[var], 2)]
    return [sympy.lambdify([symbols[n] for n in names], list(sympy.Add.make_args(sympy.expand(d))),
                           modules="mpmath") for d in derived]


def _relative_errors(obj, z) -> list:
    # |code - oracle| / sum(|terms|) of the value, f' and f'' of obj at z (0 where both are 0)
    value = obj.value(z)
    code = [value, *(obj.derivs(z) if isinstance(obj, OuterFn.__args__) else obj.derivs(z, value))]
    args = [z] + [getattr(obj, field.name) for field in dataclasses.fields(obj)]
    errors = []
    with mpmath.workdps(50):
        for c, terms in zip(code, _oracle(type(obj))):
            parts = terms(*map(mpmath.mpf, args))  # mpf of a double is its exact rational
            gap, size = abs(mpmath.mpf(c) - mpmath.fsum(parts)), mpmath.fsum(map(abs, parts))
            errors.append(float(gap / size) if size else float(gap))
    return errors


@pytest.mark.fuzz
@pytest.mark.parametrize("cls", list(_KINDS), ids=lambda cls: cls.__name__)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(data=st.data())
def test_value_and_derivs_match_the_docstring_formula(cls, data):
    _, params, point = _KINDS[cls]
    obj = cls(**data.draw(params, label="parameters"))
    errors = _relative_errors(obj, data.draw(point, label="point"))
    assert max(errors) <= TOL, errors
