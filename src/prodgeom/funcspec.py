"""Function model: parametric 1-D components, multivariate spec kinds, JSON I/O.

Three multivariate shapes are supported, all built from parametric
single-variable components:

* ``homothetical``: f(x) = f1(x1) * ... * fn(xn)
* ``composite``:    f(x) = F(h1(x1) * ... * hn(xn)) for an outer map F
* ``acms``:         f(x) = F(gamma * (sum_i (beta_i x_i)^rho)^(d/rho)),
  the CES family with substitution elasticity 1 / (1 - rho)

Component families:

* ``pow``:    gamma * (x + beta)^alpha    (gamma != 0, alpha != 0)
* ``exp``:    gamma * e^(lambda x)        (gamma != 0, lambda != 0)
* ``logpow``: (a + b ln x)^m              (b != 0, m != 0)

Specs are immutable after construction and compare structurally (kind plus
bit-equal parameters); no "up to constants" normalisation is applied.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DomainError, NumericalError, ParseError, ValidationError


def _is_nonneg_int(a: float) -> bool:
    return a >= 0.0 and float(a).is_integer()


# ---------------------------------------------------------------------------
# 1-D component families


@dataclass(frozen=True)
class PowFn:
    """Shifted power component gamma * (x + beta)^alpha."""

    gamma: float
    beta: float
    alpha: float

    def __post_init__(self):
        if self.gamma == 0.0:
            raise ValidationError("pow component: gamma must be nonzero")
        if self.alpha == 0.0:
            raise ValidationError("pow component: alpha must be nonzero")

    def guard(self, x: float) -> None:
        # x + beta > 0 unless alpha is a non-negative integer.
        if not _is_nonneg_int(self.alpha) and x + self.beta <= 0.0:
            raise DomainError(
                f"pow component needs x + beta > 0 (alpha={self.alpha!r} is not a "
                f"non-negative integer); got x + beta = {x + self.beta!r}")

    def value(self, x: float) -> float:
        self.guard(x)
        return self.gamma * (x + self.beta) ** self.alpha


@dataclass(frozen=True)
class ExpFn:
    """Exponential component gamma * e^(lam * x).

    The rate parameter is named ``lam`` in code and ``"lambda"`` in the JSON
    wire format.
    """

    gamma: float
    lam: float

    def __post_init__(self):
        if self.gamma == 0.0:
            raise ValidationError("exp component: gamma must be nonzero")
        if self.lam == 0.0:
            raise ValidationError("exp component: lambda must be nonzero")

    def guard(self, x: float) -> None:
        return None

    def value(self, x: float) -> float:
        return self.gamma * math.exp(self.lam * x)


@dataclass(frozen=True)
class LogPowFn:
    """Log-power component (a + b * ln x)^m."""

    a: float
    b: float
    m: float

    def __post_init__(self):
        if self.b == 0.0:
            raise ValidationError("logpow component: b must be nonzero")
        if self.m == 0.0:
            raise ValidationError("logpow component: m must be nonzero")

    def guard(self, x: float) -> None:
        if x <= 0.0:
            raise DomainError(f"logpow component needs x > 0; got x = {x!r}")
        u = self.a + self.b * math.log(x)
        if not _is_nonneg_int(self.m) and u <= 0.0:
            raise DomainError(
                f"logpow component needs a + b ln x > 0 (m={self.m!r} is not a "
                f"non-negative integer); got {u!r}")

    def value(self, x: float) -> float:
        self.guard(x)
        return (self.a + self.b * math.log(x)) ** self.m


ComponentFn = Union[PowFn, ExpFn, LogPowFn]


# ---------------------------------------------------------------------------
# Outer maps for composite specs


@dataclass(frozen=True)
class Identity:
    """F(u) = u."""


@dataclass(frozen=True)
class Power:
    """F(u) = u^d with d != 0."""

    d: float

    def __post_init__(self):
        if self.d == 0.0:
            raise ValidationError("power outer: d must be nonzero")


@dataclass(frozen=True)
class Scale:
    """F(u) = gamma * u with gamma > 0."""

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValidationError("scale outer: gamma must be positive")


@dataclass(frozen=True)
class Log:
    """F(u) = ln u, defined for u > 0."""


OuterFn = Union[Identity, Power, Scale, Log]


def outer_value(outer: OuterFn, u: float) -> float:
    """Apply an outer map, enforcing its domain guard (the outer jet's value slot)."""
    if isinstance(outer, Identity):
        return u
    if isinstance(outer, Scale):
        return outer.gamma * u
    if isinstance(outer, Power):
        if not float(outer.d).is_integer() and u <= 0.0:
            raise DomainError(f"power outer needs u > 0 for non-integer d; got u = {u!r}")
        if outer.d < 0.0 and u == 0.0:
            raise DomainError("power outer with negative d needs u != 0")
        return u ** outer.d
    if isinstance(outer, Log):
        if u <= 0.0:
            raise DomainError(f"log outer needs u > 0; got u = {u!r}")
        return math.log(u)
    raise ValidationError(f"unknown outer map {outer!r}")


# ---------------------------------------------------------------------------
# Multivariate spec kinds


def _as_components(components) -> tuple:
    comps = tuple(components)
    if len(comps) < 1:
        raise ValidationError("a spec needs at least one component")
    return comps


@dataclass(frozen=True)
class Homothetical:
    """Product form f(x) = f1(x1) * ... * fn(xn)."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", _as_components(self.components))

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def kind(self) -> str:
        return "homothetical"


@dataclass(frozen=True)
class Composite:
    """Outer-composed product f(x) = F(h1(x1) * ... * hn(xn))."""

    outer: OuterFn
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", _as_components(self.components))

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def kind(self) -> str:
        return "composite"


@dataclass(frozen=True)
class Acms:
    """CES form f(x) = F(gamma * (sum_i (beta_i x_i)^rho)^(d/rho)).

    Constructor-level validation (``make_acms``, ``parse_spec``) additionally
    enforces rho < 1 unless relaxed; the dataclass itself only requires the
    always-mandatory constraints so that relaxed specs stay representable.
    """

    gamma: float
    betas: tuple
    rho: float
    d: float
    outer: OuterFn = Identity()

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if self.gamma <= 0.0:
            raise ValidationError("acms: gamma must be positive")
        if len(self.betas) < 1:
            raise ValidationError("acms: needs at least one beta")
        for k, b in enumerate(self.betas):
            if b <= 0.0:
                raise ValidationError(f"acms: betas[{k}] must be positive, got {b!r}")
        if self.rho == 0.0:
            raise ValidationError("acms: rho must be nonzero")
        if self.d <= 0.0:
            raise ValidationError("acms: d must be positive")

    @property
    def n(self) -> int:
        return len(self.betas)

    @property
    def kind(self) -> str:
        return "acms"


FunctionSpec = Union[Homothetical, Composite, Acms]


# ---------------------------------------------------------------------------
# Constructors


def make_cobb_douglas(gamma: float, alphas: Sequence[float]) -> Homothetical:
    """Cobb-Douglas spec gamma * x1^a1 * ... * xn^an on the positive orthant.

    Realised as a product of ``pow`` components with beta = 0; gamma is
    absorbed into the first component.
    """
    if gamma <= 0.0:
        raise ValidationError("cobb-douglas: gamma must be positive")
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) < 1:
        raise ValidationError("cobb-douglas: needs at least one exponent")
    for k, a in enumerate(alphas):
        if a == 0.0:
            raise ValidationError(f"cobb-douglas: alphas[{k}] must be nonzero")
    comps = [PowFn(gamma=float(gamma), beta=0.0, alpha=alphas[0])]
    comps.extend(PowFn(gamma=1.0, beta=0.0, alpha=a) for a in alphas[1:])
    return Homothetical(tuple(comps))


def make_acms(gamma: float, betas: Sequence[float], rho: float, d: float,
              outer: OuterFn = Identity(), *, relax_rho: bool = False) -> Acms:
    """CES spec gamma * (sum (beta_i x_i)^rho)^(d/rho), optionally outer-composed.

    rho < 1 is enforced by default; ``relax_rho=True`` permits any nonzero rho
    (the formulas stay well defined, the substitution elasticity becomes
    1/(1-rho) <= 0 for rho > 1).
    """
    spec = Acms(gamma=float(gamma), betas=tuple(float(b) for b in betas),
                rho=float(rho), d=float(d), outer=outer)
    if not relax_rho and spec.rho >= 1.0:
        raise ValidationError(
            f"acms: rho must be < 1 (got {spec.rho!r}); use relax_rho to permit")
    return spec


# ---------------------------------------------------------------------------
# Evaluation


def _point(spec: FunctionSpec, point: Sequence[float]) -> list:
    # the package's one point-arity check
    pt = [float(x) for x in point]
    if len(pt) != spec.n:
        raise ValidationError(
            f"point has {len(pt)} coordinates but the spec has {spec.n} variables")
    return pt


def _product_value(components, pt) -> float:
    u = 1.0
    for c, x in zip(components, pt):
        u *= c.value(x)
    return u


def _acms_inner_value(spec: Acms, pt) -> float:
    for k, x in enumerate(pt):
        if x <= 0.0:
            raise DomainError(f"acms needs strictly positive inputs; x{k + 1} = {x!r}")
    s = 0.0
    for b, x in zip(spec.betas, pt):
        s += (b * x) ** spec.rho
    return spec.gamma * s ** (spec.d / spec.rho)


def evaluate(spec: FunctionSpec, point: Sequence[float]) -> float:
    """Function value at a point; raises DomainError outside the domain and
    NumericalError where the value overflows or is not finite."""
    pt = _point(spec, point)
    try:
        if isinstance(spec, Homothetical):
            value = _product_value(spec.components, pt)
        elif isinstance(spec, Composite):
            value = outer_value(spec.outer, _product_value(spec.components, pt))
        elif isinstance(spec, Acms):
            value = outer_value(spec.outer, _acms_inner_value(spec, pt))
        else:
            raise ValidationError(f"unknown spec kind {spec!r}")
    except OverflowError:
        raise NumericalError(f"function value overflowed at {tuple(pt)!r}") from None
    if not math.isfinite(value):
        raise NumericalError(f"non-finite function value at {tuple(pt)!r}")
    return value


# ---------------------------------------------------------------------------
# Homogeneity probing


@dataclass(frozen=True)
class HomogeneityReport:
    """Result of the scaling probe f(t x) =? t^p f(x).

    ``degree`` is the mean of the per-probe exponent estimates
    log(f(t x)/f(x)) / log(t) and is meaningful only when homogeneous;
    ``max_deviation`` is the largest absolute deviation of the estimates
    from that mean.
    """

    is_homogeneous: bool
    degree: float
    max_deviation: float


def homogeneity_degree(spec: FunctionSpec, probe_points=None,
                       t_values: Sequence[float] = (2.0, 3.0),
                       tol: float = 1e-9, seed: int = 42) -> HomogeneityReport:
    """Estimate the homogeneity degree by scaling probe points.

    Default probes are 5 seeded log-uniform points in [0.5, 2]^n. Raises
    DomainError when scaling pushes a probe out of the spec's domain.
    """
    if probe_points is None:
        from .sampling import points_loguniform  # sampling imports this module

        probe_points = points_loguniform(spec.n, 5, seed)
    estimates = []
    for x in probe_points:
        pt = _point(spec, x)
        f0 = evaluate(spec, pt)
        for t in t_values:
            t = float(t)
            if t <= 0.0 or t == 1.0:
                raise ValidationError(f"homogeneity probe needs t > 0, t != 1; got {t!r}")
            ft = evaluate(spec, [t * xi for xi in pt])
            if f0 == 0.0 or ft / f0 <= 0.0:
                return HomogeneityReport(False, math.nan, math.inf)
            estimates.append(math.log(ft / f0) / math.log(t))
    degree = math.fsum(estimates) / len(estimates)
    max_dev = max(abs(e - degree) for e in estimates)
    return HomogeneityReport(max_dev <= tol, degree, max_dev)


# ---------------------------------------------------------------------------
# JSON wire format


_COMPONENT_FIELDS = {
    "pow": ("gamma", "beta", "alpha"),
    "exp": ("gamma", "lambda"),
    "logpow": ("a", "b", "m"),
}
_OUTER_FIELDS = {
    "identity": (),
    "power": ("d",),
    "scale": ("gamma",),
    "log": (),
}


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _check_fields(obj: dict, allowed, path: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParseError(f"{path}: unknown field(s) {', '.join(unknown)}")
    missing = sorted(set(allowed) - set(obj))
    if missing:
        raise ParseError(f"{path}: missing field(s) {', '.join(missing)}")


def _parse_component(obj, path: str) -> ComponentFn:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object, got {obj!r}")
    kind = obj.get("type")
    if kind not in _COMPONENT_FIELDS:
        raise ParseError(f"{path}.type: expected one of pow, exp, logpow; got {kind!r}")
    _check_fields(obj, ("type",) + _COMPONENT_FIELDS[kind], path)
    try:
        if kind == "pow":
            return PowFn(gamma=_num(obj["gamma"], f"{path}.gamma"),
                         beta=_num(obj["beta"], f"{path}.beta"),
                         alpha=_num(obj["alpha"], f"{path}.alpha"))
        if kind == "exp":
            return ExpFn(gamma=_num(obj["gamma"], f"{path}.gamma"),
                         lam=_num(obj["lambda"], f"{path}.lambda"))
        return LogPowFn(a=_num(obj["a"], f"{path}.a"),
                        b=_num(obj["b"], f"{path}.b"),
                        m=_num(obj["m"], f"{path}.m"))
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def _parse_outer(obj, path: str) -> OuterFn:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object, got {obj!r}")
    kind = obj.get("type")
    if kind not in _OUTER_FIELDS:
        raise ParseError(
            f"{path}.type: expected one of identity, power, scale, log; got {kind!r}")
    _check_fields(obj, ("type",) + _OUTER_FIELDS[kind], path)
    try:
        if kind == "identity":
            return Identity()
        if kind == "power":
            return Power(d=_num(obj["d"], f"{path}.d"))
        if kind == "scale":
            return Scale(gamma=_num(obj["gamma"], f"{path}.gamma"))
        return Log()
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def _parse_components(obj, path: str) -> tuple:
    if not isinstance(obj, list):
        raise ParseError(f"{path}: expected a list of components")
    if not obj:
        raise ValidationError(f"{path}: needs at least one component")
    return tuple(_parse_component(c, f"{path}[{k}]") for k, c in enumerate(obj))


def parse_spec(text: str, *, relax_rho: bool = False) -> FunctionSpec:
    """Parse the JSON spec format (strict: unknown fields are an error).

    Raises ParseError with field diagnostics for malformed text and
    ValidationError for parameter-constraint violations.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level: expected an object")
    kind = obj.get("kind")
    if kind == "homothetical":
        _check_fields(obj, ("kind", "components"), "top level")
        return Homothetical(_parse_components(obj["components"], "components"))
    if kind == "composite":
        _check_fields(obj, ("kind", "outer", "components"), "top level")
        return Composite(_parse_outer(obj["outer"], "outer"),
                         _parse_components(obj["components"], "components"))
    if kind == "acms":
        _check_fields(obj, ("kind", "gamma", "betas", "rho", "d", "outer"), "top level")
        betas = obj["betas"]
        if not isinstance(betas, list) or not betas:
            raise ParseError("betas: expected a non-empty list of numbers")
        return make_acms(gamma=_num(obj["gamma"], "gamma"),
                         betas=[_num(b, f"betas[{k}]") for k, b in enumerate(betas)],
                         rho=_num(obj["rho"], "rho"),
                         d=_num(obj["d"], "d"),
                         outer=_parse_outer(obj["outer"], "outer"),
                         relax_rho=relax_rho)
    raise ParseError(f"kind: expected one of homothetical, composite, acms; got {kind!r}")


def _component_obj(c: ComponentFn) -> dict:
    if isinstance(c, PowFn):
        return {"type": "pow", "gamma": c.gamma, "beta": c.beta, "alpha": c.alpha}
    if isinstance(c, ExpFn):
        return {"type": "exp", "gamma": c.gamma, "lambda": c.lam}
    return {"type": "logpow", "a": c.a, "b": c.b, "m": c.m}


def _outer_obj(o: OuterFn) -> dict:
    if isinstance(o, Identity):
        return {"type": "identity"}
    if isinstance(o, Power):
        return {"type": "power", "d": o.d}
    if isinstance(o, Scale):
        return {"type": "scale", "gamma": o.gamma}
    return {"type": "log"}


def serialize_spec(spec: FunctionSpec) -> str:
    """Serialize to the JSON wire format; round-trips through parse_spec.

    Fields are emitted in a fixed order and numbers in Python's shortest
    round-trip decimal form.
    """
    if isinstance(spec, Homothetical):
        obj = {"kind": "homothetical",
               "components": [_component_obj(c) for c in spec.components]}
    elif isinstance(spec, Composite):
        obj = {"kind": "composite", "outer": _outer_obj(spec.outer),
               "components": [_component_obj(c) for c in spec.components]}
    elif isinstance(spec, Acms):
        obj = {"kind": "acms", "gamma": spec.gamma, "betas": list(spec.betas),
               "rho": spec.rho, "d": spec.d, "outer": _outer_obj(spec.outer)}
    else:
        raise ValidationError(f"unknown spec kind {spec!r}")
    return json.dumps(obj, separators=(",", ":"))
