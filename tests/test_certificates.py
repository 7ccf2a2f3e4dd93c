"""The certificate loops of ``prodgeom verify`` run as one block per spec.

``check_corollary42``, ``verify._flatness_evidence``, ``is_developable`` and
``verify._singular_evidence`` each take a spec's sample points as one block
through the batch kernels. The per-point loops they replaced are kept here as
the references, with the one scale-relative determinant rule spelled out
(``_scale_relative``): every returned number must have their bits, and every
raised error their type and message. Like the block routes, the loops check
every point (``funcspec._point_rows``) before they evaluate any.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeom import geometry, jets, verify
from prodgeom.classify import _exp_indices
from prodgeom.elasticity import (Corollary42Report, _bordered, _positive_point, bordered_hessian,
                                 check_corollary42)
from prodgeom.errors import DomainError, NumericalError, ProdgeomError, SpecError, ValidationError
from prodgeom.funcspec import Composite, ExpFn, Homothetical, Identity, PowFn, Power, _point_rows
from prodgeom.geometry import det_scale, gauss_kronecker, is_developable, plu_det
from prodgeom.sampling import points_loguniform
from test_cli import _count_calls
from test_funcspec import _EDGE_OUTERS, _JET_COORDS, _edge_component


def _scale_relative(det, matrix):
    # |det| / det_scale(matrix): 0.0 for an exact-zero det, inf for a zero
    # scale, and inf in place of nan (det and scale both overflowed)
    if det == 0.0:
        return 0.0
    scale = det_scale(matrix)
    if scale == 0.0:
        return math.inf
    rel = abs(det) / scale
    return math.inf if math.isnan(rel) else rel


def _max(values):
    # np.max(values, initial=0.0): the largest, or nan where one is nan
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def _loop_corollary42(spec, sample_points, tol):
    # check_corollary42 before it ran its samples as a block
    if not isinstance(spec, Homothetical):
        raise SpecError(f"this check needs a homothetical spec, got {spec.kind}")
    if not _exp_indices(spec.components):
        raise SpecError("this check needs at least one exponential component")
    sample_points = list(sample_points)
    if not sample_points:
        raise ValidationError("needs at least one sample point")
    _point_rows(spec, sample_points)
    gks, rels = [], []
    for p in sample_points:
        rec = gauss_kronecker(spec, p)
        _positive_point(spec, p)
        gks.append(abs(rec.gk_curvature))
        border = _bordered(rec.jet.gradient, rec.jet.hessian)
        rels.append(_scale_relative(plu_det(border), border))
    max_gk = _max(gks)
    gk_zero = max_gk <= tol
    return Corollary42Report(gk_all_zero=gk_zero, equivalent=gk_zero == (_max(rels) <= tol),
                             max_abs_gk=max_gk)


def _loop_flatness(spec, points):
    # verify._flatness_evidence before it ran its points as a block; the LU
    # determinant is divided by the curvature's own omega^(n+2)
    _point_rows(spec, points)
    gs, rels = [], []
    for p in points:
        rec = gauss_kronecker(spec, p)
        jet = rec.jet
        det_lu = plu_det(jet.hessian)
        gs.append(max(abs(rec.gk_curvature), abs(det_lu) / rec.omega ** (jet.n + 2))
                  if det_lu == det_lu else math.nan)
        rels.append(_scale_relative(det_lu, jet.hessian))
    return _max(gs), _max(rels)


def _loop_developable(spec, sample_points, tol):
    # is_developable before it ran its samples as a block
    sample_points = list(sample_points)
    if not sample_points:
        raise ValidationError("developability test needs at least one sample point")
    _point_rows(spec, sample_points)
    max_g = max(abs(gauss_kronecker(spec, p).gk_curvature) for p in sample_points)
    return max_g <= tol, max_g


def _loop_singular(spec, points):
    # check_allen_singular_certificates' loop over one spec's points
    _point_rows(spec, points)
    return _max(_scale_relative(det, border)
                for border, det in (bordered_hessian(spec, p) for p in points))


def _outcome(fn, *args):
    # float.hex of every number a call returns (bools as themselves), or its
    # error; a bare Python exception is not caught, so it fails the test
    try:
        result = fn(*args)
    except ProdgeomError as e:
        return type(e), str(e)
    if isinstance(result, Corollary42Report):
        result = (result.gk_all_zero, result.equivalent, result.max_abs_gk)
    if isinstance(result, float):
        result = (result,)
    return tuple(v if isinstance(v, bool) else v.hex() for v in result)


def _certificate_spec(rng, kind, n, exps):
    # exps of the n components exponential, at random slots; the rest any kind
    comps = [_edge_component(rng) for _ in range(n)]
    for slot in rng.sample(range(n), exps):
        comps[slot] = ExpFn(rng.choice([1.0, -2.0, rng.uniform(0.1, 3.0)]),
                            rng.choice([1.0, -1.0, 400.0, rng.uniform(-3.0, 3.0) or 1.0]))
    if kind == "homothetical":
        return Homothetical(comps)
    return Composite(_EDGE_OUTERS[rng.choice(sorted(_EDGE_OUTERS))](rng), comps)


def _certificate_points(rng, n, m):
    # log-uniform in [1e-3, 1e3] and the samples' own range, with the domain
    # edges, non-positive and overflowing coordinates at one of three rates,
    # and now and then a point of the wrong arity
    edge = rng.choice((0.0, 0.02, 0.2))

    def coordinate():
        roll = rng.random()
        if roll < edge:  # e^x overflows near 710: a bordered det and scale go inf
            return rng.choice(_JET_COORDS + (rng.uniform(300.0, 710.0),))
        return 10.0 ** rng.uniform(-3.0, 3.0) if roll < 0.5 else rng.uniform(0.5, 2.0)

    return [[coordinate() for _ in range(n + (rng.choice((-1, 1)) if rng.random() < 0.03
                                              else 0))]
            for _ in range(m)]


@pytest.mark.fuzz
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("homothetical", "composite")),
       n=st.integers(1, 5), exps=st.integers(0, 3), m=st.integers(0, 12),
       tol=st.sampled_from((1e-15, 1e-8, 1e-2)))
def test_certificate_loops_bitwise_equal_per_point_loops(seed, kind, n, exps, m, tol):
    rng = random.Random(seed)
    spec = _certificate_spec(rng, kind, n, min(exps, n))
    points = _certificate_points(rng, n, m)
    with np.errstate(all="ignore"):  # plu_det warns on overflow
        expected = [_outcome(_loop_corollary42, spec, points, tol),
                    _outcome(_loop_flatness, spec, points),
                    _outcome(_loop_developable, spec, points, tol),
                    _outcome(_loop_singular, spec, points)]
    # the block routes run under the suite's error::RuntimeWarning filter
    assert [_outcome(check_corollary42, spec, points, tol),
            _outcome(verify._flatness_evidence, spec, points),
            _outcome(is_developable, spec, points, tol),
            _outcome(verify._singular_evidence, spec, points)] == expected


@pytest.mark.parametrize("points, error", [
    ([(1.0, 1.0), (-1e200, 1.0), (1.0, -1.0)], NumericalError),
    ([(1.0, 1.0), (-1.0, 1.0), (-1e200, 1.0)], DomainError),
    ([(1.0, 1.0), (1.0, 1.0, 1.0), (-1e200, 1.0)], ValidationError),
    ([], ValidationError),
], ids=["curvature-error", "positivity", "arity", "empty"])
def test_certificate_loops_raise_the_first_error_in_input_order(points, error):
    # e^-x1 * e^(2 x2): at x1 = -1e200 the value overflows, an error that
    # comes before the point's own positivity error; of well-formed points,
    # the first to fail is the one whose error is raised
    spec = Homothetical((ExpFn(1.0, -1.0), ExpFn(1.0, 2.0)))
    expected = _outcome(_loop_corollary42, spec, points, 1e-8)
    assert expected[0] is error
    assert _outcome(check_corollary42, spec, points, 1e-8) == expected
    assert _outcome(is_developable, spec, points, 1e-8) == \
        _outcome(_loop_developable, spec, points, 1e-8)


@pytest.mark.parametrize("points", [
    [(1.0, 1.0), (-1e200, 1.0), (1.0,)],
    [(1.0, 1.0), (-1.0, 1.0), (1.0,)],
    [(1.0, 1.0), (1.0, 1.0, 1.0), (-1e200, 1.0)],
    [],
], ids=["curvature-error", "positivity", "arity", "empty"])
def test_certificate_loops_check_every_point_first(points):
    # e^-x1 * e^(2 x2): at x1 = -1e200 the value overflows, an error that
    # comes before the point's own positivity error; but a point of the
    # wrong arity, wherever it stands, raises before any point is evaluated
    spec = Homothetical((ExpFn(1.0, -1.0), ExpFn(1.0, 2.0)))
    expected = _outcome(_loop_corollary42, spec, points, 1e-8)
    assert expected[0] is ValidationError
    assert _outcome(check_corollary42, spec, points, 1e-8) == expected
    assert _outcome(is_developable, spec, points, 1e-8) == \
        _outcome(_loop_developable, spec, points, 1e-8)


def test_flatness_evidence_checks_arity_before_any_point():
    # c x1 x2 x3: at (0.25, 1, 1) omega^5 stays finite, so gauss_kronecker
    # returns, and both routes divide by that omega^5 (on Python floats,
    # (1 + g.g)^2.5 would overflow there); at (-1, 1, 1) omega^5 overflows,
    # which is gauss_kronecker's own error, raised at that row's place
    spec = Homothetical((PowFn(4.220528630999172e+61, 0.0, 1.0), PowFn(1.0, 0.0, 1.0),
                         PowFn(1.0, 0.0, 1.0)))
    points = [(0.25, 1.0, 1.0)]
    expected = _outcome(_loop_flatness, spec, points)
    assert all(isinstance(v, str) for v in expected)
    assert _outcome(verify._flatness_evidence, spec, points) == expected
    points = [(1e-3, 1.0, 1.0), (0.25, 1.0, 1.0), (-1.0, 1.0, 1.0)]
    expected = _outcome(_loop_flatness, spec, points)
    assert expected == (NumericalError, "omega^5 overflowed at (-1.0, 1.0, 1.0)")
    assert _outcome(verify._flatness_evidence, spec, points) == expected
    # a point of the wrong arity is a ValidationError before any point is evaluated
    points = [(1e-3, 1.0, 1.0), (0.25, 1.0, 1.0), (-1.0, 1.0)]
    expected = _outcome(_loop_flatness, spec, points)
    assert expected[0] is ValidationError
    assert _outcome(verify._flatness_evidence, spec, points) == expected


def test_singular_evidence_reads_a_nan_ratio_as_inf():
    # e^x1 * x2 at (360, 1e-5): the bordered det and its scale overflow to
    # inf, so |det| / scale is nan, which does not show a zero: it reads inf
    spec = Composite(_EDGE_OUTERS["identity"](None), (ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 1.0)))
    border, det = bordered_hessian(spec, (360.0, 1e-5))
    assert det == det_scale(border) == math.inf
    for points in ([(360.0, 1e-5)], [(2.0, 3.0), (360.0, 1e-5)], [(360.0, 1e-5), (2.0, 3.0)]):
        assert verify._singular_evidence(spec, points) == _loop_singular(spec, points) == math.inf


def test_zero_gradient_reads_as_singular():
    # at a zero gradient the bordered matrix has a zero row and column, so its
    # det is exactly 0 and so is its scale: the ratio reads 0.0
    for spec in (Composite(Identity(), (PowFn(1.0, -1.0, 2.0), PowFn(1.0, -1.0, 2.0))),
                 Homothetical((ExpFn(1.0, 1.0), PowFn(1.0, -1.0, 2.0)))):
        border, det = bordered_hessian(spec, (1.0, 1.0))
        assert det == det_scale(border) == 0.0
        assert verify._singular_evidence(spec, [(1.0, 1.0)]) == 0.0
    report = check_corollary42(spec, [(1.0, 1.0)])
    assert report.max_abs_gk == 0.0 and report.gk_all_zero and report.equivalent


def test_singular_evidence_keeps_the_result_of_a_flagged_row(monkeypatch):
    # a row the columns flag goes through bordered_hessian, and where that
    # returns, its numbers count: flagging every row changes no bit
    spec = Composite(Power(2.0), (ExpFn(1.0, 1.0), PowFn(1.0, 0.0, 0.5), ExpFn(2.0, -1.0)))
    points = points_loguniform(3, 20, 7)
    expected = verify._singular_evidence(spec, points)
    columns = verify._jet_columns

    def flag_every_row(spec, x):  # as the columns leave a flagged row: nan
        value, gradient, hessian, factors, ok = columns(spec, x)
        return (value, np.full_like(gradient, math.nan), np.full_like(hessian, math.nan),
                factors, np.zeros_like(ok))

    monkeypatch.setattr(verify, "_jet_columns", flag_every_row)
    bordered = _count_calls(monkeypatch, bordered_hessian)
    assert verify._singular_evidence(spec, points).hex() == expected.hex()
    assert [args[1] for args in bordered] == points


def test_certificate_checks_run_one_block_per_spec(monkeypatch):
    # at the contract seed the kernels flag no row, so the only per-point
    # calls left are the worked controls'
    batches = _count_calls(monkeypatch, geometry.gauss_kronecker_batch)
    columns = _count_calls(monkeypatch, jets._jet_columns)
    curvatures = _count_calls(monkeypatch, gauss_kronecker)
    dets = _count_calls(monkeypatch, plu_det)
    bordered = _count_calls(monkeypatch, bordered_hessian)
    control = (1.0, 1.0)

    assert verify.check_curvature_allen_equivalence(seed=42).passed
    assert [len(args[1]) for args in batches] == [20] * 100
    assert len(columns) == 100 and curvatures == dets == bordered == []

    batches.clear(), columns.clear()
    assert verify.check_developable_certificates(seed=42).passed
    assert [len(args[1]) for args in batches] == [50] * 20 and len(columns) == 20
    assert [args[1] for args in curvatures] == [control] and dets == bordered == []

    batches.clear(), columns.clear(), curvatures.clear()
    assert verify.check_allen_singular_certificates(seed=42).passed
    assert batches == [] and [len(args[1]) for args in columns] == [20] * 10
    # the control's bordered_hessian is the one plu_det call
    assert [args[1] for args in bordered] == [control] and len(dets) == 1
    assert curvatures == []
