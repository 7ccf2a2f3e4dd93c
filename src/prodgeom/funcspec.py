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

Each component class defines its kind once: a guarded ``value(x)``, its
derivatives ``derivs(x, value)``, and its wire-format ``TAG`` and ``WIRE``
field names (in dataclass field order). Each outer map likewise has a guarded
``value(u)``, ``derivs(u)``, ``TAG`` and ``WIRE``. ``evaluate`` and the jets
share one value pass, so every domain guard runs before any derivative;
``_value_columns`` runs that pass over many points at once, bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, NumericalError, ParseError, ProdgeomError, ValidationError


def _is_nonneg_int(a: float) -> bool:
    return a >= 0.0 and float(a).is_integer()


# ---------------------------------------------------------------------------
# 1-D component families


@dataclass(frozen=True)
class PowFn:
    """Shifted power component gamma * (x + beta)^alpha."""

    TAG = "pow"
    WIRE = ("gamma", "beta", "alpha")

    gamma: float
    beta: float
    alpha: float

    def __post_init__(self):
        if self.gamma == 0.0:
            raise ValidationError("pow component: gamma must be nonzero")
        if self.alpha == 0.0:
            raise ValidationError("pow component: alpha must be nonzero")

    def value(self, x: float) -> float:
        b = x + self.beta
        # x + beta > 0 unless alpha is a non-negative integer.
        if b <= 0.0 and not _is_nonneg_int(self.alpha):
            raise DomainError(
                f"pow component needs x + beta > 0 (alpha={self.alpha!r} is not a "
                f"non-negative integer); got x + beta = {b!r}")
        return self.gamma * b ** self.alpha

    def derivs(self, x: float, v: float) -> tuple:
        """(f', f'') = (g a (x+b)^(a-1), g a (a-1) (x+b)^(a-2)); a zero
        coefficient skips its power, so alpha = 1 at x + beta = 0 stays exact."""
        b = x + self.beta
        coeff = self.alpha * (self.alpha - 1.0)
        return (self.gamma * self.alpha * b ** (self.alpha - 1.0),
                self.gamma * coeff * b ** (self.alpha - 2.0) if coeff != 0.0 else 0.0)


@dataclass(frozen=True)
class ExpFn:
    """Exponential component gamma * e^(lam * x).

    The rate parameter is named ``lam`` in code and ``"lambda"`` in the JSON
    wire format.
    """

    TAG = "exp"
    WIRE = ("gamma", "lambda")

    gamma: float
    lam: float

    def __post_init__(self):
        if self.gamma == 0.0:
            raise ValidationError("exp component: gamma must be nonzero")
        if self.lam == 0.0:
            raise ValidationError("exp component: lambda must be nonzero")

    def value(self, x: float) -> float:
        return self.gamma * math.exp(self.lam * x)

    def derivs(self, x: float, v: float) -> tuple:
        """(f', f'') = (L f, L^2 f)."""
        return self.lam * v, self.lam * self.lam * v


@dataclass(frozen=True)
class LogPowFn:
    """Log-power component (a + b * ln x)^m."""

    TAG = "logpow"
    WIRE = ("a", "b", "m")

    a: float
    b: float
    m: float

    def __post_init__(self):
        if self.b == 0.0:
            raise ValidationError("logpow component: b must be nonzero")
        if self.m == 0.0:
            raise ValidationError("logpow component: m must be nonzero")

    def value(self, x: float) -> float:
        if x <= 0.0:
            raise DomainError(f"logpow component needs x > 0; got x = {x!r}")
        u = self.a + self.b * math.log(x)
        if u <= 0.0 and not _is_nonneg_int(self.m):
            raise DomainError(
                f"logpow component needs a + b ln x > 0 (m={self.m!r} is not a "
                f"non-negative integer); got {u!r}")
        return u ** self.m

    def derivs(self, x: float, v: float) -> tuple:
        """With u = a + b ln x: f' = m u^(m-1) b/x and
        f'' = m (m-1) u^(m-2) (b/x)^2 - m u^(m-1) b/x^2 (a zero m (m-1)
        skips its power)."""
        u = self.a + self.b * math.log(x)
        w = self.b / x
        t1 = self.m * u ** (self.m - 1.0)
        coeff = self.m * (self.m - 1.0)
        return t1 * w, ((coeff * u ** (self.m - 2.0) * w * w if coeff != 0.0 else 0.0)
                        - t1 * self.b / (x * x))


ComponentFn = Union[PowFn, ExpFn, LogPowFn]


# ---------------------------------------------------------------------------
# Outer maps for composite specs


@dataclass(frozen=True)
class Identity:
    """F(u) = u."""

    TAG = "identity"
    WIRE = ()

    def value(self, u: float) -> float:
        return u

    def derivs(self, u: float) -> tuple:
        return 1.0, 0.0


@dataclass(frozen=True)
class Power:
    """F(u) = u^d with d != 0."""

    TAG = "power"
    WIRE = ("d",)

    d: float

    def __post_init__(self):
        if self.d == 0.0:
            raise ValidationError("power outer: d must be nonzero")

    def value(self, u: float) -> float:
        if u <= 0.0 and not float(self.d).is_integer():
            raise DomainError(f"power outer needs u > 0 for non-integer d; got u = {u!r}")
        if self.d < 0.0 and u == 0.0:
            raise DomainError("power outer with negative d needs u != 0")
        return u ** self.d

    def derivs(self, u: float) -> tuple:
        d = self.d
        coeff = d * (d - 1.0)
        return d * u ** (d - 1.0), coeff * u ** (d - 2.0) if coeff != 0.0 else 0.0


@dataclass(frozen=True)
class Scale:
    """F(u) = gamma * u with gamma > 0."""

    TAG = "scale"
    WIRE = ("gamma",)

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValidationError("scale outer: gamma must be positive")

    def value(self, u: float) -> float:
        return self.gamma * u

    def derivs(self, u: float) -> tuple:
        return self.gamma, 0.0


@dataclass(frozen=True)
class Log:
    """F(u) = ln u, defined for u > 0."""

    TAG = "log"
    WIRE = ()

    def value(self, u: float) -> float:
        if u <= 0.0:
            raise DomainError(f"log outer needs u > 0; got u = {u!r}")
        return math.log(u)

    def derivs(self, u: float) -> tuple:
        return 1.0 / u, -1.0 / (u * u)


OuterFn = Union[Identity, Power, Scale, Log]


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


def _values(spec: FunctionSpec, pt: list):
    """The value pass shared by ``evaluate`` and the jets: (parts, u, value).

    ``parts`` are the component values of a product kind, or the CES sum
    s = sum_i (beta_i x_i)^rho; u is their product, or the CES core
    gamma * s^(d/rho); ``value`` is F(u) (u itself for homothetical specs).
    Every domain guard runs here, in that order. Raises DomainError outside
    the domain and NumericalError where a value overflows, divides by an
    underflowed zero or is not finite.
    """
    try:
        if isinstance(spec, Acms):
            for k, x in enumerate(pt):
                if x <= 0.0:
                    raise DomainError(f"acms needs strictly positive inputs; x{k + 1} = {x!r}")
            parts = 0.0
            for b, x in zip(spec.betas, pt):
                parts += (b * x) ** spec.rho
            u = spec.gamma * parts ** (spec.d / spec.rho)
        elif isinstance(spec, (Homothetical, Composite)):
            parts = [c.value(x) for c, x in zip(spec.components, pt)]
            u = 1.0
            for v in parts:
                u *= v
        else:
            raise ValidationError(f"unknown spec kind {spec!r}")
        value = u if isinstance(spec, Homothetical) else spec.outer.value(u)
    except (OverflowError, ZeroDivisionError):
        raise NumericalError(f"function value overflowed at {tuple(pt)!r}") from None
    if not math.isfinite(value):
        raise NumericalError(f"non-finite function value at {tuple(pt)!r}")
    return parts, u, value


def evaluate(spec: FunctionSpec, point: Sequence[float]) -> float:
    """Function value at a point; raises DomainError outside the domain and
    NumericalError where the value overflows or is not finite."""
    return _values(spec, _point(spec, point))[2]


def _map_rows(fn, *args, failed=math.nan) -> np.ndarray:
    """``fn`` applied row by row to columns of Python floats (an array argument
    gives one element per row, any other argument is passed to every row).

    Rows where ``fn`` raises OverflowError, ZeroDivisionError or DomainError
    get ``failed`` (nan, or a tuple of nans for a tuple-valued ``fn``), so
    they fail the caller's finite check and go back through the scalar path,
    which reports the error.
    """
    def columns():
        return [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a) for a in args]

    try:
        out = list(map(fn, *columns()))
    except (OverflowError, ZeroDivisionError, DomainError):
        out = []
        for row in zip(*columns()):
            try:
                out.append(fn(*row))
            except (OverflowError, ZeroDivisionError, DomainError):
                out.append(failed)
    return np.array(out, dtype=float)


def _column_pow(base: np.ndarray, e) -> np.ndarray:
    # ``**`` on each row's Python float: numpy's power is not libm's pow bit for bit
    return _map_rows(pow, base, e)


def _term_column(spec: FunctionSpec, k: int, col: np.ndarray) -> np.ndarray:
    """Axis k's term of the value pass at a column of x_k: component k's value
    or the CES term (beta_k x_k)^rho, nan where a guard fails or a power overflows."""
    if isinstance(spec, Acms):
        return _column_pow(spec.betas[k] * np.where(col <= 0.0, math.nan, col), spec.rho)
    return _map_rows(spec.components[k].value, col)


def _value_columns(spec: FunctionSpec, points: np.ndarray, terms=None):
    """``_values`` at every row of an (m, n) point array, as columns.

    Returns ``(parts, u, value, failed)``: ``parts`` is (m, n) for a product
    kind and the (m,) CES sum otherwise, u and value are (m,), and ``failed``
    (m,) marks the rows where ``_values`` raises. Every other row has the
    bits of ``_values`` at its point. ``terms`` may pass in each axis's
    ``_term_column`` at ``points``, for axes a caller has already evaluated.

    Each component's and outer map's own ``value`` runs row by row on Python
    floats; the product and the CES sum run on whole columns, with the
    operations of ``_values`` in its order. A guard that fails or a ``value``
    that raises leaves nan, which every later step keeps, so a row where one
    did or whose value is not finite goes back through ``_values`` itself:
    the error class, message and guard order stay exact.
    """
    if not isinstance(spec, (Homothetical, Composite, Acms)):
        raise ValidationError(f"unknown spec kind {spec!r}")
    with np.errstate(all="ignore"):
        if terms is None:
            terms = [_term_column(spec, k, col) for k, col in enumerate(points.T)]
        if isinstance(spec, Acms):
            parts = 0.0
            for t in terms:
                parts = parts + t
            u = spec.gamma * _column_pow(parts, spec.d / spec.rho)
        else:
            u = 1.0
            for v in terms:
                u = u * v
            parts = np.stack(terms, axis=1)
        value = u if isinstance(spec, Homothetical) else _map_rows(spec.outer.value, u)
    failed = ~np.isfinite(value)
    for i in np.flatnonzero(failed).tolist():
        try:
            parts[i], u[i], value[i] = _values(spec, points[i].tolist())
        except ProdgeomError:
            continue
        failed[i] = False
    return parts, u, value, failed


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


_COMPONENTS = {c.TAG: c for c in (PowFn, ExpFn, LogPowFn)}
_OUTERS = {o.TAG: o for o in (Identity, Power, Scale, Log)}


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


def _parse_kind(obj, path: str, table: dict):
    """A component or outer map: the class ``table`` names under ``obj["type"]``,
    built from its ``WIRE`` fields in order."""
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object, got {obj!r}")
    kind = obj.get("type")
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"{path}.type: expected one of {', '.join(table)}; got {kind!r}")
    _check_fields(obj, ("type",) + cls.WIRE, path)
    try:
        return cls(*[_num(obj[w], f"{path}.{w}") for w in cls.WIRE])
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def _parse_components(obj, path: str) -> tuple:
    if not isinstance(obj, list):
        raise ParseError(f"{path}: expected a list of components")
    if not obj:
        raise ValidationError(f"{path}: needs at least one component")
    return tuple(_parse_kind(c, f"{path}[{k}]", _COMPONENTS) for k, c in enumerate(obj))


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
        return Composite(_parse_kind(obj["outer"], "outer", _OUTERS),
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
                         outer=_parse_kind(obj["outer"], "outer", _OUTERS),
                         relax_rho=relax_rho)
    raise ParseError(f"kind: expected one of homothetical, composite, acms; got {kind!r}")


def _kind_obj(c) -> dict:
    # WIRE names the dataclass fields in order
    return {"type": c.TAG, **{w: getattr(c, f.name) for w, f in zip(c.WIRE, fields(c))}}


def serialize_spec(spec: FunctionSpec) -> str:
    """Serialize to the JSON wire format; round-trips through parse_spec.

    Fields are emitted in a fixed order and numbers in Python's shortest
    round-trip decimal form.
    """
    if isinstance(spec, Homothetical):
        obj = {"kind": "homothetical",
               "components": [_kind_obj(c) for c in spec.components]}
    elif isinstance(spec, Composite):
        obj = {"kind": "composite", "outer": _kind_obj(spec.outer),
               "components": [_kind_obj(c) for c in spec.components]}
    elif isinstance(spec, Acms):
        obj = {"kind": "acms", "gamma": spec.gamma, "betas": list(spec.betas),
               "rho": spec.rho, "d": spec.d, "outer": _kind_obj(spec.outer)}
    else:
        raise ValidationError(f"unknown spec kind {spec!r}")
    return json.dumps(obj, separators=(",", ":"))
