"""Tests for the shared jets of ``prodgeom verify``'s checks.

``hicks_outer_invariance`` chains each outer map's jet from one inner jet
per point (``verify._outer_jet``), ``det_closed_vs_lu`` takes both
determinant routes from one jet (``verify._det_routes``), and
``jets_vs_finite_difference`` runs the stencil on one point's floats
(``jets._fd_point``); each falls back to the public call where that raises.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeom import (
    Composite,
    ExpFn,
    Homothetical,
    Log,
    PowFn,
    Power,
    ProdgeomError,
    hessian_det_closed,
    hessian_det_direct,
    jet_multivariate,
    make_cobb_douglas,
)
from prodgeom import jets, verify
from prodgeom.elasticity import Corollary42Report
from prodgeom.jets import Jet2N, _factor_jet, _fill, _product_parts
from test_funcspec import _EDGE_OUTERS, _edge_component
from test_jets import _FD_COORDS


def _product_jet(comps, pt):
    """The product rule's jet of the components at pt, assembled as
    ``jet_multivariate`` does but without its value checks, so u may be
    infinite; None where a component's value or 1-D jet fails."""
    try:
        parts = [c.value(x) for c, x in zip(comps, pt)]
        factors = [_factor_jet(c, x, v) for c, x, v in zip(comps, pt, parts)]
    except (ProdgeomError, OverflowError, ZeroDivisionError):
        return None
    u = 1.0
    for v in parts:
        u *= v
    grad, rules = _product_parts(factors, parts)
    return Jet2N(u, np.array(grad, dtype=float), _fill(len(comps), (), rules))


def _bits(jet) -> list:
    return [float(v).hex() for v in (jet.value, *jet.gradient, *np.ravel(jet.hessian))]


def _outcome(fn, *args):
    # a jet's bits, or the error it raised
    try:
        return _bits(fn(*args))
    except ProdgeomError as e:
        return type(e).__name__, str(e)


def _check_outer_jet(monkeypatch, outer, comps, pt):
    # the chained jet has the bits of jet_multivariate on the composite, and
    # of the chain rule written out here; it runs that call (and raises its
    # error) exactly where the call raises
    spec = Composite(outer, comps)
    expected = _outcome(jet_multivariate, spec, pt)
    inner = _product_jet(comps, pt)
    if inner is None:  # a component fails, so the composite does too
        assert isinstance(expected, tuple)
        return expected
    fallbacks = []

    def counted(spec, point):
        fallbacks.append(point)
        return jet_multivariate(spec, point)

    monkeypatch.setattr(verify, "jet_multivariate", counted)
    assert _outcome(verify._outer_jet, spec, pt, inner) == expected
    monkeypatch.undo()
    assert bool(fallbacks) == isinstance(expected, tuple)
    if not fallbacks:
        f1, f2 = outer.derivs(inner.value)
        g, h = inner.gradient.tolist(), inner.hessian.tolist()
        # entry (i, j) with i <= j, stored at (j, i) too
        hess = [[f2 * g[min(i, j)] * g[max(i, j)] + f1 * h[i][j] for j in range(len(g))]
                for i in range(len(g))]
        reference = Jet2N(outer.value(inner.value), np.array([f1 * v for v in g]), np.array(hess))
        assert expected == _bits(reference)
    return expected


@pytest.mark.fuzz
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), outer=st.sampled_from(sorted(_EDGE_OUTERS)),
       n=st.integers(1, 10))
def test_outer_jet_bitwise_equal_jet_multivariate(seed, outer, n):
    rng = random.Random(seed)
    monkeypatch = pytest.MonkeyPatch()
    try:
        _check_outer_jet(monkeypatch, _EDGE_OUTERS[outer](rng),
                         [_edge_component(rng) for _ in range(n)],
                         [rng.choice(_FD_COORDS) if rng.random() < 0.2 else rng.uniform(0.3, 3.0)
                          for _ in range(n)])
    finally:
        monkeypatch.undo()


_UNIT = PowFn(1.0, 0.0, 1.0)  # x
# ~1e200, with f' ~ 1 and f'' ~ 0: two of them overflow u, and nothing else
_HUGE = ExpFn(1e200, 1e-200)


@pytest.mark.parametrize("outer, comps, pt, outcome", [
    # u = -2 and u = 0: the log outer's guard
    (Log(), (_UNIT, PowFn(-1.0, 0.0, 1.0)), (1.0, 2.0), "DomainError"),
    (Log(), (_UNIT, _UNIT), (0.0, 2.0), "DomainError"),
    # u^3 at u = 1e150 overflows
    (Power(3.0), (_UNIT, _UNIT), (1e150, 1.0), "NumericalError"),
    # u = inf: u^-1 is 0.0 and F' = -0.0, F'' = 0.0, so the composite's jet
    # is finite where the inner spec's is not
    (Power(-1.0), (_HUGE, _HUGE), (1.0, 1.0), "returns"),
    # ... and with a gradient entry that overflows, F' * inf is nan
    (Power(-1.0), (_HUGE, PowFn(1e200, 0.0, 1.0)), (1.0, 1.0), "NumericalError"),
], ids=["log-negative-u", "log-zero-u", "power-overflow", "power-negative-d-inf-u",
        "power-negative-d-nan-entry"])
def test_outer_jet_edge_cases(monkeypatch, outer, comps, pt, outcome):
    got = _check_outer_jet(monkeypatch, outer, comps, pt)
    assert (got[0] if isinstance(got, tuple) else "returns") == outcome


def test_det_routes_fall_back_to_the_public_calls():
    # the closed form divides by a square that underflows: hessian_det_closed's
    # NumericalError; a zero factor: its DomainError; both after the LU route,
    # whose determinant overflows to -inf at e^360 x2 (hessian_det_direct's
    # NumericalError); and a point where both routes return
    cases = [(make_cobb_douglas(1.0, (1.0, 1.0)), (1e-200, 1.0)),
             (Homothetical((PowFn(1.0, 0.0, 1.0), PowFn(1.0, -1.0, 2.0))), (2.0, 1.0)),
             (Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0))), (360.0, 1e-5)),
             (make_cobb_douglas(1.0, (0.5, 1.5, 2.0)), (0.7, 1.3, 2.2))]
    outcomes = []
    for spec, pt in cases:
        try:
            expected = (hessian_det_direct(spec, pt).hex(), hessian_det_closed(spec, pt).hex())
        except ProdgeomError as e:
            expected = type(e).__name__, str(e)
        try:
            got = tuple(v.hex() for v in verify._det_routes(spec, pt))
        except ProdgeomError as e:
            got = type(e).__name__, str(e)
        assert got == expected
        outcomes.append(expected[0] if expected[0].endswith("Error") else "returns")
    assert outcomes == ["NumericalError", "DomainError", "NumericalError", "returns"]


def test_hicks_outer_invariance_forms_one_jet_per_point(monkeypatch):
    # 113 inner jets at seed 42 (rejected specs included); the 300 jets under
    # the outer maps are chained from them
    calls = []
    real = jets.jet_multivariate

    def counted(spec, point):
        calls.append(type(spec).__name__)
        return real(spec, point)

    monkeypatch.setattr(verify, "jet_multivariate", counted)
    assert verify.check_hicks_outer_invariance(seed=42).passed
    assert calls == ["Homothetical"] * 113


@pytest.mark.parametrize("check", [verify.check_det_closed_vs_lu,
                                   verify.check_jets_vs_finite_difference])
def test_determinant_and_fd_checks_run_one_value_pass_per_spec(scalar_value_calls, check):
    # one jet's value pass for each of the 200 specs: the closed form reads
    # the jet's factors, and the stencil runs on the point's terms
    assert check(seed=42).passed
    assert len(scalar_value_calls) == 200
    assert all(math.isfinite(x) for p in scalar_value_calls for x in p)


def test_curvature_allen_equivalence_counts_a_disagreement(monkeypatch):
    # a report whose two zero tests disagree fails the check, and each one counts
    calls = []

    def first_disagrees(spec, points, tol):
        calls.append(spec)
        return Corollary42Report(gk_all_zero=False, equivalent=len(calls) > 1, max_abs_gk=1.0)

    monkeypatch.setattr(verify, "check_corollary42", first_disagrees)
    result = verify.check_curvature_allen_equivalence()
    assert len(calls) == 100 and not result.passed
    assert result.detail.startswith("1 disagreements over 100 specs")
