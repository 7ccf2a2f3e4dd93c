"""Named verification checks aggregating the package's numeric guarantees.

Every check is seeded and deterministic: the seed changes which specs and
points are sampled, never the expected outcome. ``tol`` feeds the zero tests
(family certificates use tol/10, matching the calibrated defaults of 1e-8
and 1e-9); noise-floor thresholds on the genuinely-nonzero sides stay fixed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .classify import make_thm31_family, make_thm41_family, make_thm51_family
from .elasticity import (_bordered_ratios, _hicks_from_jet, _positive_rows, bordered_hessian,
                         ces_probe, check_corollary42, elasticity_report, hicks)
from .errors import DomainError, HicksUndefined, ZeroGradientError
from .funcspec import (Acms, Composite, Homothetical, Identity, Log, LogPowFn, PowFn, Power,
                       _column_pow, _point_rows, _values, make_acms, make_cobb_douglas)
from .geometry import (_closed_form, _det_ratios, gauss_kronecker, gauss_kronecker_batch,
                       hessian_det_closed, hessian_det_direct, is_developable, plu_det, plu_dets)
from .jets import (Jet2N, _chain, _fd_point, _fill, _jet_columns, fd_jet, jet_multivariate,
                   norm_rel_gaps)
from .sampling import points_loguniform, random_component, random_composite, random_homothetical, random_outer


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_acms(rng: random.Random, n: int = 2) -> Acms:
    rho = rng.choice((-1.0, -0.5, 0.25, 0.5, 0.75)) + rng.uniform(-0.05, 0.05)
    return make_acms(gamma=rng.uniform(0.5, 2.0),
                     betas=tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
                     rho=rho, d=rng.uniform(0.5, 2.0), outer=random_outer(rng))


def _det_routes(spec, point) -> tuple:
    """(``hessian_det_direct``, ``hessian_det_closed``) of a homothetical spec
    at a point, bit for bit, from one jet's Hessian and factors. Where a
    route is not finite, or the closed form overflows or meets a zero factor
    value, that route's own call runs and raises its error, LU's first."""
    jet = jet_multivariate(spec, point)
    direct = plu_det(jet.hessian)
    try:
        closed = _closed_form(jet.factors)
    except (OverflowError, ZeroDivisionError):
        closed = math.nan
    return (direct if math.isfinite(direct) else hessian_det_direct(spec, point),
            closed if math.isfinite(closed) else hessian_det_closed(spec, point))


def check_det_closed_vs_lu(seed: int = 42, tol: float = 1e-8) -> CheckResult:
    """Closed-form product-Hessian determinant against the LU oracle."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(200):
        spec = random_homothetical(rng, n_range=(2, 5))
        point = points_loguniform(spec.n, 1, rng)[0]
        direct, closed = _det_routes(spec, point)
        gap = abs(closed - direct) / max(1.0, abs(direct))
        worst = max(worst, gap)
    return CheckResult("det_closed_vs_lu", worst <= tol,
                       f"max scaled gap {worst:.3e} over 200 specs (limit {tol:.1e})")


def _random_case_a_components(rng: random.Random, positive: bool = False):
    n = rng.randint(2, 4)
    comps = [random_component(rng, positive=positive) for _ in range(n)]
    slots = list(range(n))
    rng.shuffle(slots)
    for s in slots[:2]:
        comps[s] = random_component(rng, kind="exp", positive=positive)
    return tuple(comps)


def _random_unit_sum_alphas(rng: random.Random, n: int, target: float = 1.0):
    while True:
        head = [rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5) for _ in range(n - 1)]
        last = target - math.fsum(head)
        if 0.05 <= abs(last) <= 2.5:
            return head + [last]


@np.errstate(all="ignore")  # a determinant that overflows comes out inf
def _flatness_evidence(spec, points):
    """(max |G| via both determinant routes, max scale-relative LU residual).

    A flat certificate must hold three ways: the closed-form curvature, the
    LU-oracle curvature, and the LU determinant read as numerically zero at
    the scale of the Hessian itself (``geometry._det_ratios``), which carries
    the elimination noise floor that a sub-float tolerance trips over. The
    points run as one block (``gauss_kronecker_batch``, ``plu_dets``), bit
    for bit as ``gauss_kronecker`` and ``plu_det`` point by point, the LU
    curvature dividing by the block's own omega^(n+2); the block's first row
    error is raised once every point is checked.
    """
    block = gauss_kronecker_batch(spec, points)
    for error in block.errors:
        if error is not None:
            raise error
    abs_dets = np.abs(plu_dets(block.hessian))
    lu_g = abs_dets / _column_pow(block.omega, spec.n + 2)
    worst_g = np.max(np.maximum(np.abs(block.gk_curvature), lu_g), initial=0.0)
    return float(worst_g), float(np.max(_det_ratios(abs_dets, block.hessian), initial=0.0))


@np.errstate(all="ignore")  # as _flatness_evidence; a flagged row's numbers are not read
def _singular_evidence(spec, points) -> float:
    """Max scale-relative |det H^B| (``geometry._det_ratios``) over the
    points, bit for bit as ``bordered_hessian`` point by point, with its
    first row error once every point is checked (``_point_rows``): one
    ``_jet_columns`` pass and one ``plu_dets`` call on the bordered stack; a
    row the columns or the positivity guard flag is redone by ``bordered_hessian``."""
    points = list(points)
    x = _point_rows(spec, points)
    _, gradient, hessian, _, ok = _jet_columns(spec, x)
    ok &= _positive_rows(x)  # the positivity guard outranks any jet error
    ratios = _bordered_ratios(gradient, hessian)
    for i in np.flatnonzero(~ok).tolist():
        border, det = bordered_hessian(spec, points[i])
        ratios[i] = _det_ratios(det, border)
    return float(np.max(ratios, initial=0.0))


def check_developable_certificates(seed: int = 42, tol: float = 1e-8) -> CheckResult:
    """Constructed developable families are numerically flat; worked control."""
    cert_tol = tol / 10.0
    rng = random.Random(seed)
    worst_g = 0.0
    worst_rel = 0.0
    for case in range(20):
        if case < 10:
            spec = make_thm31_family("a", components=_random_case_a_components(rng))
        else:
            n = rng.randint(2, 4)
            spec = make_thm31_family("b", alphas=_random_unit_sum_alphas(rng, n),
                                     betas=[rng.uniform(0.0, 1.0) for _ in range(n)],
                                     gamma=rng.uniform(0.5, 2.0))
        g, rel = _flatness_evidence(spec, points_loguniform(spec.n, 50, rng))
        worst_g = max(worst_g, g)
        worst_rel = max(worst_rel, rel)
    control = Homothetical((PowFn(1.0, 0.0, 2.0), PowFn(1.0, 0.0, 3.0)))
    rec = gauss_kronecker(control, (1.0, 1.0))
    control_ok = (abs(rec.hessian_det - (-24.0)) <= 1e-12 * 24.0
                  and abs(rec.omega ** 2 - 14.0) <= 1e-12 * 14.0
                  and abs(rec.gk_curvature - (-24.0 / 196.0)) <= 1e-12 * (24.0 / 196.0))
    passed = worst_g <= cert_tol and worst_rel <= cert_tol and control_ok
    return CheckResult("developable_certificates", passed,
                       f"max |G| {worst_g:.3e}, max det residual {worst_rel:.3e} over 20 "
                       f"constructed specs (limit {cert_tol:.1e}); worked control "
                       f"{'ok' if control_ok else 'FAILED'}")


def check_cobb_douglas_curvature_control(seed: int = 42, tol: float = 1e-8) -> CheckResult:
    """Unit exponent sum is flat, sums 0.8 and 1.2 are visibly curved."""
    cert_tol = tol / 10.0
    rng = random.Random(seed)
    details = []
    passed = True
    for total in (0.8, 1.2):
        spec = make_cobb_douglas(1.0, (total / 2.0, total / 2.0))
        _, max_g = is_developable(spec, points_loguniform(2, 50, rng))
        details.append(f"sum {total}: max|G| {max_g:.3e}")
        passed = passed and max_g > 1e-6
    spec = make_cobb_douglas(1.0, (0.5, 0.5))
    max_g, max_rel = _flatness_evidence(spec, points_loguniform(2, 50, rng))
    details.append(f"sum 1.0: max|G| {max_g:.3e}, det residual {max_rel:.3e}")
    passed = passed and max_g <= cert_tol and max_rel <= cert_tol
    return CheckResult("cobb_douglas_curvature_control", passed, "; ".join(details))


def check_ces_constant_sigma(seed: int = 42, tol: float = 1e-8) -> CheckResult:
    """Cobb-Douglas probes to sigma 1; CES probes to sigma = 1/(1-rho)."""
    rng = random.Random(seed)
    details = []
    passed = True
    for _ in range(3):
        n = rng.randint(2, 3)
        alphas = [rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5) for _ in range(n)]
        spec = make_cobb_douglas(rng.uniform(0.5, 3.0), alphas)
        verdict = ces_probe(spec, points_loguniform(n, 20, rng), tol=tol)
        passed = passed and verdict.is_constant and abs(verdict.sigma - 1.0) <= tol
        details.append(f"cd sigma {verdict.sigma:.9f} spread {verdict.spread:.2e}")
    for rho, expected in ((-1.0, 0.5), (0.5, 2.0), (0.75, 4.0)):
        spec = make_acms(1.0, (1.0, 1.0), rho, rng.uniform(0.5, 2.0))
        verdict = ces_probe(spec, points_loguniform(2, 20, rng), tol=tol)
        passed = (passed and verdict.is_constant
                  and abs(verdict.sigma - expected) <= tol)
        details.append(f"ces rho {rho}: sigma {verdict.sigma:.9f}")
    return CheckResult("ces_constant_sigma", passed, "; ".join(details))


def _hicks_pairs(jet, p) -> dict:
    # H_ij of every pair i < j at point p, keyed (p, i, j), read from its jet
    grad, hess = jet.gradient.tolist(), jet.hessian.tolist()
    return {(p, i, j): _hicks_from_jet(grad, hess, p, i - 1, j - 1)
            for i in range(1, jet.n + 1) for j in range(i + 1, jet.n + 1)}


def _outer_jet(spec: Composite, point, inner: Jet2N) -> Jet2N:
    """``jet_multivariate(spec, point)`` for a composite spec, bit for bit, from
    ``inner``, the jet of ``Homothetical(spec.components)`` there (value u), by
    ``jets._chain`` on its gradient and Hessian entries. Where the outer map fails
    its guard, overflows, divides by zero or is not finite, that call runs and raises."""
    u, grad, hess = inner.value, inner.gradient.tolist(), inner.hessian.tolist()
    try:
        value = spec.outer.value(u)
        grad, rules = _chain(*spec.outer.derivs(u), grad,
                             (lambda i: hess[i][i], lambda i, j: hess[i][j]))
        hess = _fill(len(grad), (), rules)
    except (DomainError, OverflowError, ZeroDivisionError):
        return jet_multivariate(spec, point)
    if not all(map(math.isfinite, [value, *grad, *hess.ravel().tolist()])):
        return jet_multivariate(spec, point)
    return Jet2N(value, np.array(grad, dtype=float), hess)


def check_hicks_outer_invariance(seed: int = 42, tol: float = 1e-8) -> CheckResult:
    """H_ij is unchanged by smooth monotone outer transforms."""
    cases = 50
    rng = random.Random(seed)
    outers = (Power(3.0), Power(0.5), Log())
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < cases and attempts < cases * 40:
        attempts += 1
        inner = random_homothetical(rng, n_range=(2, 3), positive=True)
        points = points_loguniform(inner.n, 2, rng)
        jets, base = [], {}
        try:
            for p in points:
                jets.append(jet_multivariate(inner, p))
                base.update(_hicks_pairs(jets[-1], p))
        except (HicksUndefined, ZeroGradientError):
            continue
        if any(abs(v) > 50.0 for v in base.values()):
            continue
        accepted += 1
        for outer in outers:
            spec = Composite(outer, inner.components)
            for p, jet in zip(points, jets):
                for key, h in _hicks_pairs(_outer_jet(spec, p, jet), p).items():
                    worst = max(worst, abs(h - base[key]))
    passed = accepted == cases and worst <= tol
    return CheckResult("hicks_outer_invariance", passed,
                       f"max |H(F.g) - H(g)| {worst:.3e} over {accepted} specs x 3 outers "
                       f"(limit {tol:.1e})")


def _random_two_var_spec(rng: random.Random, kind_roll: int):
    if kind_roll == 0:
        return random_homothetical(rng, n=2)
    if kind_roll == 1:
        return random_composite(rng, n=2)
    return _random_acms(rng, n=2)


def check_hicks_allen_two_var(seed: int = 42, tol: float = 1e-8) -> CheckResult:
    """Two-variable Hicks and Allen elasticities coincide wherever defined."""
    cases = 100
    rng = random.Random(seed)
    worst = 0.0
    compared = 0
    for k in range(cases):
        spec = _random_two_var_spec(rng, k % 3)
        point = points_loguniform(2, 1, rng)[0]
        report = elasticity_report(spec, point)
        h = float(report.hicks[0, 1])
        if h != h or report.allen is None:  # nan marks an undefined Hicks entry
            continue
        a = float(report.allen[0, 1])
        compared += 1
        worst = max(worst, abs(h - a) / max(1.0, abs(h)))
    passed = compared >= cases // 2 and worst <= tol
    return CheckResult("hicks_allen_two_var", passed,
                       f"max scaled |H - A| {worst:.3e} over {compared}/{cases} defined "
                       f"cases (limit {tol:.1e})")


def check_allen_singular_certificates(seed: int = 42, tol: float = 1e-8) -> CheckResult:
    """Constructed singular-bordered families are numerically singular; control."""
    rng = random.Random(seed)
    worst = 0.0
    for case in range(10):
        if case < 5:
            spec = make_thm41_family(
                "a", components=_random_case_a_components(rng, positive=True),
                outer=random_outer(rng))
        else:
            n = rng.randint(2, 4)
            spec = make_thm41_family("b", alphas=_random_unit_sum_alphas(rng, n, target=0.0),
                                     betas=[rng.uniform(0.0, 1.0) for _ in range(n)],
                                     gamma=rng.uniform(0.5, 2.0), outer=random_outer(rng))
        worst = max(worst, _singular_evidence(spec, points_loguniform(spec.n, 20, rng)))
    control = Composite(Identity(), (PowFn(1.0, 0.0, 1.0), PowFn(1.0, 0.0, 1.0)))
    _, det = bordered_hessian(control, (1.0, 1.0))
    control_ok = abs(det - 2.0) <= 1e-12 * 2.0
    passed = worst <= tol and control_ok
    return CheckResult("allen_singular_certificates", passed,
                       f"max scale-relative |det| {worst:.3e} over 10 constructed specs "
                       f"(limit {tol:.1e}); control det {det!r}")


def check_curvature_allen_equivalence(seed: int = 42, tol: float = 1e-8) -> CheckResult:
    """With an exponential component, zero curvature and singular bordered
    matrix occur for exactly the same specs."""
    rng = random.Random(seed)
    disagreements = 0
    margin = math.inf
    for _ in range(100):
        spec = random_homothetical(rng, n_range=(2, 3), min_exp=rng.choice((1, 1, 2)))
        report = check_corollary42(spec, points_loguniform(spec.n, 20, rng), tol=tol)
        if not report.equivalent:
            disagreements += 1
        if report.gk_all_zero:
            margin = min(margin, tol / max(report.max_abs_gk, 1e-300))
        else:
            margin = min(margin, report.max_abs_gk / tol)
    return CheckResult("curvature_allen_equivalence", disagreements == 0,
                       f"{disagreements} disagreements over 100 specs; "
                       f"min threshold margin {margin:.1e}x")


def check_log_component_ces(seed: int = 42, tol: float = 1e-8) -> CheckResult:
    """The constrained log-power pair has sigma 1; the unconstrained shape
    is rejected with the frozen witness values."""
    rng = random.Random(seed)
    good = make_thm51_family("c", mu=(1.0, -1.0))
    e = math.e
    pts = points_loguniform(2, 18, rng, lo=1.5, hi=3.0) + [(e, e * e), (e * e, e)]
    verdict = ces_probe(good, pts, tol=tol)
    good_ok = verdict.is_constant and abs(verdict.sigma - 1.0) <= tol
    worst = max(abs(hicks(good, p, 1, 2) - 1.0) for p in pts)
    bad = Homothetical((LogPowFn(0.0, 1.0, 1.0), LogPowFn(0.0, 1.0, 1.0)))
    bad_pts = points_loguniform(2, 18, rng, lo=1.5, hi=3.0) + [(e, e), (e * e, e)]
    bad_verdict = ces_probe(bad, bad_pts, tol=tol)
    w1 = hicks(bad, (e, e), 1, 2)
    w2 = hicks(bad, (e * e, e), 1, 2)
    witness_ok = abs(w1 - 0.5) <= 1e-9 and abs(w2 - 0.6) <= 1e-9
    bad_ok = (not bad_verdict.is_constant) and bad_verdict.spread >= 0.1
    passed = good_ok and worst <= tol and bad_ok and witness_ok
    return CheckResult("log_component_ces", passed,
                       f"constrained: max |H-1| {worst:.3e}; unconstrained spread "
                       f"{bad_verdict.spread:.3f}, witnesses {w1!r}, {w2!r}")


def check_jets_vs_finite_difference(seed: int = 42, tol: float = 1e-8) -> CheckResult:
    """Structured jets against the central-difference oracle."""
    del tol  # accuracy floors are intrinsic to the stencils, not zero tests
    rng = random.Random(seed)
    worst_g = 0.0
    worst_h = 0.0
    for k in range(200):
        roll = k % 3
        if roll == 0:
            spec = random_homothetical(rng, n_range=(2, 5))
        elif roll == 1:
            spec = random_composite(rng)
        else:
            spec = _random_acms(rng, n=rng.randint(2, 3))
        point = points_loguniform(spec.n, 1, rng)[0]
        # the stencil on the point's floats, or fd_jet on the value pass, which raises
        approx = _fd_point(spec, list(point)) or fd_jet(lambda q: _values(spec, q)[2], point)
        g_gap, h_gap = norm_rel_gaps(approx, jet_multivariate(spec, point))
        worst_g = max(worst_g, g_gap)
        worst_h = max(worst_h, h_gap)
    passed = worst_g <= 1e-6 and worst_h <= 1e-4
    return CheckResult("jets_vs_finite_difference", passed,
                       f"max gradient gap {worst_g:.3e} (limit 1e-06), "
                       f"max Hessian gap {worst_h:.3e} (limit 1e-04) over 200 cases")


ALL_CHECKS = (
    check_det_closed_vs_lu,
    check_developable_certificates,
    check_cobb_douglas_curvature_control,
    check_ces_constant_sigma,
    check_hicks_outer_invariance,
    check_hicks_allen_two_var,
    check_allen_singular_certificates,
    check_curvature_allen_equivalence,
    check_log_component_ces,
    check_jets_vs_finite_difference,
)


def run_checks(seed: int = 42, tol: float = 1e-8) -> list:
    """Run every named check with one seed and tolerance."""
    return [check(seed=seed, tol=tol) for check in ALL_CHECKS]
