"""Symbolic family deciders and constructors for the classified spec families.

Verdicts use fixed family tags:

* ``thm31_a`` / ``thm31_b`` / ``none_developable``: product specs whose graph
  is developable. Case a holds exactly when at least two components are
  exponential (any positions); case b when every component is a shifted
  power gamma_i (x_i + beta_i)^alpha_i with exponent sum 1.
* ``thm41_a`` / ``thm41_b`` / ``none_allen_singular``: outer-composed product
  specs whose bordered (Allen) matrix is singular. Case a needs two or more
  exponential inner components; case b all shifted-power inner components
  with exponent sum 0.
* ``thm51_a`` / ``thm51_b`` / ``thm51_c`` / ``none_ces``: specs with one
  constant substitution elasticity everywhere. Case a is an outer-composed
  Cobb-Douglas (sigma = 1), case b an outer-composed CES sum with exponent
  (sigma-1)/sigma (sigma != 1), case c the two-variable product of
  ln(x_i)^mu_i with 1/mu_1 + 1/mu_2 = 0 (sigma = 1). The printed case-c
  shape without the reciprocal-sum constraint does NOT have constant
  elasticity and is rejected with an explanatory note.

Classification is purely symbolic: this module imports no numeric code.
The numeric confirmations live in `geometry.is_developable`, and in
`elasticity.ces_probe` and `elasticity.check_corollary42` (Corollary 4.2).
Symbolic sum constraints are tested to 1e-12 absolute, tight enough to
separate user intent from float noise in exact decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import SpecError, ValidationError
from .funcspec import (
    Acms,
    Composite,
    ExpFn,
    FunctionSpec,
    Homothetical,
    Identity,
    LogPowFn,
    OuterFn,
    PowFn,
    _pow_product,
    _real,
    _reals,
    make_acms,
    make_cobb_douglas,
)

#: Absolute tolerance for symbolic parameter constraints (sum of exponents).
PARAM_TOL = 1e-12


@dataclass(frozen=True)
class ClassificationVerdict:
    """Family decision plus the machine-checkable certificate behind it."""

    family: str
    certificate: dict = field(default_factory=dict)
    notes: str = ""


def _exp_indices(components) -> list:
    return [k + 1 for k, c in enumerate(components) if isinstance(c, ExpFn)]


def _all_pow(components) -> bool:
    return all(isinstance(c, PowFn) for c in components)


def _classify_exp_or_pow(components, target: float, tag: str, none_tag: str,
                         inner: str) -> ClassificationVerdict:
    # Thm 3.1 and Thm 4.1 share one shape: case a is two or more exponential
    # components, case b all shifted powers with exponent sum ``target``.
    exp_idx = _exp_indices(components)
    if len(exp_idx) >= 2:
        return ClassificationVerdict(f"{tag}_a", {"exp_indices": exp_idx})
    if _all_pow(components):
        alphas = [c.alpha for c in components]
        total = math.fsum(alphas)
        cert = {"alphas": alphas, "alpha_sum": total}
        if abs(total - target) <= PARAM_TOL:
            return ClassificationVerdict(f"{tag}_b", cert)
        return ClassificationVerdict(none_tag, cert,
                                     notes=f"power exponents sum to {total!r}, not {target:g}")
    return ClassificationVerdict(
        none_tag, {"exp_indices": exp_idx},
        notes=f"fewer than two exponential {inner}components and not all {inner}"
              f"components are shifted powers")


def classify_developable(spec: FunctionSpec) -> ClassificationVerdict:
    """Decide symbolically whether a product spec's graph is developable.

    Case a: two or more exponential components at any indices. Case b: all
    components shifted powers with sum of exponents equal to 1 (to 1e-12).
    Anything else is ``none_developable``. No sampling is involved.
    """
    if not isinstance(spec, Homothetical):
        raise SpecError(f"developability classification needs a homothetical spec, "
                        f"got {spec.kind}")
    return _classify_exp_or_pow(spec.components, 1.0, "thm31", "none_developable", "")


def classify_allen_singular(spec: FunctionSpec) -> ClassificationVerdict:
    """Decide symbolically whether a composite spec's bordered matrix is singular.

    Case a: two or more exponential inner components. Case b: all inner
    components shifted powers with exponent sum 0 (to 1e-12). Anything else
    is ``none_allen_singular``.
    """
    if not isinstance(spec, Composite):
        raise SpecError(f"Allen-singularity classification needs a composite spec, "
                        f"got {spec.kind}")
    return _classify_exp_or_pow(spec.components, 0.0, "thm41", "none_allen_singular",
                                "inner ")


def _is_cobb_douglas(components) -> bool:
    return _all_pow(components) and all(c.beta == 0.0 for c in components)


def _is_pure_log(components) -> bool:
    return all(isinstance(c, LogPowFn) and c.a == 0.0 and c.b == 1.0
               for c in components)


def classify_ces(spec: FunctionSpec) -> ClassificationVerdict:
    """Decide symbolically whether a spec has one constant elasticity everywhere.

    Product specs are treated as identity-outer composites. CES (acms) specs
    report sigma = 1/(1 - rho).
    """
    if isinstance(spec, Acms):
        if spec.rho == 1.0:
            return ClassificationVerdict(
                "none_ces", {"rho": spec.rho},
                notes="rho = 1 makes the substitution measure singular "
                      "(perfect substitutes)")
        sigma = 1.0 / (1.0 - spec.rho)
        return ClassificationVerdict("thm51_b", {"rho": spec.rho, "sigma": sigma})
    if isinstance(spec, (Homothetical, Composite)):
        comps = spec.components
        if _is_cobb_douglas(comps):
            return ClassificationVerdict(
                "thm51_a", {"alphas": [c.alpha for c in comps], "sigma": 1.0})
        if _is_pure_log(comps):
            mus = [c.m for c in comps]
            if len(mus) == 2 and abs(1.0 / mus[0] + 1.0 / mus[1]) <= PARAM_TOL:
                return ClassificationVerdict("thm51_c", {"mus": mus, "sigma": 1.0})
            return ClassificationVerdict(
                "none_ces", {"mus": mus},
                notes="matches the log-power shape but violates the derived "
                      "constraint (two variables with 1/mu_1 + 1/mu_2 = 0); "
                      "such specs do not have constant elasticity")
        return ClassificationVerdict("none_ces", notes="components match no "
                                     "constant-elasticity family")
    raise SpecError(f"constant-elasticity classification got unknown kind {spec!r}")


def _make_exp_or_pow_family(case: str, build, classify, target: float, components, alphas,
                            betas, gamma: float):
    # case a and b constructors of Thm 3.1 and Thm 4.1: ``build`` makes the
    # family's spec kind, and its decider ``classify`` must put it in ``case``
    if case == "a":
        if components is None:
            raise ValidationError("case a needs an explicit component list")
        spec = build(components)
    elif case == "b":
        if alphas is None:
            raise ValidationError("case b needs the exponent list")
        alphas = _reals(alphas, "alphas")
        if not alphas:
            raise ValidationError("case b needs at least one exponent")
        if any(a == 0.0 for a in alphas):
            raise ValidationError("case b exponents must all be nonzero")
        gamma = _real(gamma, "gamma")
        if gamma == 0.0:
            raise ValidationError("gamma must be nonzero")
        betas = [0.0] * len(alphas) if betas is None else _reals(betas, "betas")
        if len(betas) != len(alphas):
            raise ValidationError("betas and alphas must have the same length")
        spec = build(_pow_product(gamma, alphas, betas))
    else:
        raise ValidationError(f"unknown case {case!r}, expected 'a' or 'b'")
    verdict = classify(spec)
    if not verdict.family.endswith(f"_{case}"):
        raise ValidationError("case a needs at least two exponential components" if case == "a"
                              else f"case b exponents must sum to {target:g}, "
                                   f"got {verdict.certificate['alpha_sum']!r}")
    return spec


def make_thm31_family(case: str, components: Sequence | None = None,
                      alphas: Sequence[float] | None = None,
                      betas: Sequence[float] | None = None,
                      gamma: float = 1.0) -> Homothetical:
    """Construct a member of a developable product family.

    Case "a" takes a component list with two or more exponential components,
    case "b" nonzero exponents, optional shifts (default 0) and a nonzero
    gamma on the first component. ``classify_developable`` must find the spec
    in that case (for b, exponents summing to 1 to 1e-12): else ValidationError.
    """
    return _make_exp_or_pow_family(case, Homothetical, classify_developable, 1.0, components,
                                   alphas, betas, gamma)


def make_thm41_family(case: str, components: Sequence | None = None,
                      outer: OuterFn = Identity(),
                      alphas: Sequence[float] | None = None,
                      betas: Sequence[float] | None = None,
                      gamma: float = 1.0) -> Composite:
    """Construct a composite spec whose bordered (Allen) matrix is singular.

    Case "a" wraps a component list, case "b" builds shifted-power inner
    components, as in ``make_thm31_family``; ``classify_allen_singular`` must
    find the spec in that case (for b, exponent sum 0 to 1e-12).
    """
    return _make_exp_or_pow_family(case, lambda comps: Composite(outer, comps),
                                   classify_allen_singular, 0.0, components, alphas, betas, gamma)


def make_thm51_family(case: str, *, alphas: Sequence[float] | None = None,
                      gamma: float = 1.0, outer: OuterFn = Identity(),
                      sigma: float | None = None,
                      betas: Sequence[float] | None = None, d: float = 1.0,
                      mu: Sequence[float] | None = None) -> FunctionSpec:
    """Construct a constant-elasticity family member.

    Case "a": outer-composed Cobb-Douglas (sigma = 1), whose components
    ``make_cobb_douglas`` builds from the exponents and gamma. Case "b":
    outer-composed CES with exponent rho = (sigma-1)/sigma for sigma > 0,
    sigma != 1. Case "c": two log-power components ln(x_i)^mu_i with
    mu_2 = -mu_1 (sigma = 1); ``classify_ces`` must find the pair in case c,
    since the shape without that constraint is not constant-elasticity.
    """
    if case == "a":
        if alphas is None:
            raise ValidationError("case a needs the exponent list")
        return Composite(outer, make_cobb_douglas(gamma, alphas).components)
    if case == "b":
        if sigma is None:
            raise ValidationError("case b needs sigma")
        sigma = _real(sigma, "sigma")
        if sigma == 1.0:
            raise ValidationError("case b needs sigma != 1 (sigma = 1 is case a)")
        if sigma <= 0.0:
            raise ValidationError("case b needs sigma > 0 so that rho < 1")
        rho = (sigma - 1.0) / sigma
        if not rho < 1.0:  # a huge sigma rounds rho to 1, an infinite one makes it nan
            raise ValidationError(f"case b needs a sigma whose rho = (sigma - 1)/sigma "
                                  f"rounds below 1; got sigma = {sigma!r}")
        if betas is None:
            raise ValidationError("case b needs the beta weights")
        return make_acms(gamma, betas, rho, d, outer)
    if case == "c":
        if mu is None:
            raise ValidationError("case c needs the mu pair")
        mus = _reals(mu, "mu")
        if len(mus) != 2:
            raise ValidationError("case c is a two-variable family")
        if any(m == 0.0 for m in mus):
            raise ValidationError("case c exponents must be nonzero")
        spec = Composite(outer, tuple(LogPowFn(a=0.0, b=1.0, m=m) for m in mus))
        if classify_ces(spec).family != "thm51_c":
            raise ValidationError(f"case c needs 1/mu_1 + 1/mu_2 = 0, got mu = {mus!r}")
        return spec
    raise ValidationError(f"unknown case {case!r}, expected 'a', 'b' or 'c'")
