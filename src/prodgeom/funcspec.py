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

Every model class (component, outer map, spec kind) is built by
``_Model``'s one construction rule, from the ``CHECKS`` it declares beside
its ``TAG`` and ``WIRE``.

Each component class defines its kind once: a guarded ``value(x)``, its
derivatives ``derivs(x, value)``, and its wire-format ``TAG`` and ``WIRE``
field names (in dataclass field order). Each outer map likewise has a guarded
``value(u)``, ``derivs(u)``, ``TAG`` and ``WIRE``, and each spec kind a
``TAG`` (its ``kind``) and ``WIRE``. ``evaluate`` and the jets share one
value pass, so every domain guard runs before any derivative; ``_term_column``,
``_term_core`` and ``_core_value`` run that pass over many points at once,
bit for bit, and ``_value_pass`` runs the whole pass on a block with each
axis's term once per distinct coordinate (``_axis_groups``).
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, NumericalError, ParseError, ProdgeomError, ValidationError


def _is_nonneg_int(a: float) -> bool:
    return a >= 0.0 and float(a).is_integer()


def _wire_values(obj) -> list:
    """A model object's values in ``WIRE`` order: its dataclass fields, in order."""
    return [getattr(obj, name) for name in obj.__match_args__]


class _Model:
    """The one construction rule of every model class (component, outer map
    and spec kind), run when an object is built.

    Each ``WIRE`` field is read in order, ``betas`` and ``components`` entry
    by entry and stored as tuples: an ``outer`` field must be one of the
    ``OuterFn`` classes and a ``components`` entry one of the ``ComponentFn``
    classes; any other value must be a finite real number by ``_real``'s
    rule (an int too large for a float counting as infinite) and is stored
    as a Python float, so specs that compare equal evaluate and serialize
    alike. Then each ``(attribute, "nonzero" | "positive")`` pair of the
    class's ``CHECKS`` must hold. An error names the class's ``LABEL`` and
    the field by its wire name.
    """

    CHECKS = ()

    def __post_init__(self):
        for name, attr in zip(self.WIRE, self.__match_args__):
            value = getattr(self, attr)
            seq = name in ("betas", "components")
            kinds = (OuterFn.__args__ if name == "outer"
                     else ComponentFn.__args__ if name == "components" else ())
            if not (seq or kinds) and type(value) is float and math.isfinite(value):
                continue  # the common case: a number field that holds a finite float
            try:
                entries = tuple(value) if seq else (value,)
            except TypeError:
                raise ValidationError(f"{self.LABEL}: {name} must be a sequence of "
                                      f"{'components' if kinds else 'numbers'}, "
                                      f"got {value!r}") from None
            for k, v in enumerate(entries):
                if isinstance(v, kinds) if kinds else type(v) is float and math.isfinite(v):
                    continue
                where = f"{self.LABEL}: {name}[{k}]" if seq else f"{self.LABEL}: {name}"
                if kinds:
                    names = ", ".join(c.__name__ for c in kinds)
                    raise ValidationError(f"{where} must be one of {names}; got {v!r}")
                number = _real(v, where)
                if not math.isfinite(number):
                    raise ValidationError(f"{where} must be finite, got {number!r}")
                entries = entries[:k] + (number,) + entries[k + 1:]
            stored = entries if seq else entries[0]
            if stored is not value:
                object.__setattr__(self, attr, stored)
        for attr, rule in self.CHECKS:
            if getattr(self, attr) <= 0.0 if rule == "positive" else getattr(self, attr) == 0.0:
                name = self.WIRE[self.__match_args__.index(attr)]
                raise ValidationError(f"{self.LABEL}: {name} must be {rule}")


# ---------------------------------------------------------------------------
# 1-D component families


@dataclass(frozen=True)
class PowFn(_Model):
    """Shifted power component gamma * (x + beta)^alpha."""

    TAG = "pow"
    WIRE = ("gamma", "beta", "alpha")
    LABEL = "pow component"
    CHECKS = (("gamma", "nonzero"), ("alpha", "nonzero"))

    gamma: float
    beta: float
    alpha: float

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
class ExpFn(_Model):
    """Exponential component gamma * e^(lam * x).

    The rate parameter is named ``lam`` in code and ``"lambda"`` in the JSON
    wire format.
    """

    TAG = "exp"
    WIRE = ("gamma", "lambda")
    LABEL = "exp component"
    CHECKS = (("gamma", "nonzero"), ("lam", "nonzero"))

    gamma: float
    lam: float

    def value(self, x: float) -> float:
        return self.gamma * math.exp(self.lam * x)

    def derivs(self, x: float, v: float) -> tuple:
        """(f', f'') = (L f, L^2 f)."""
        return self.lam * v, self.lam * self.lam * v


@dataclass(frozen=True)
class LogPowFn(_Model):
    """Log-power component (a + b * ln x)^m."""

    TAG = "logpow"
    WIRE = ("a", "b", "m")
    LABEL = "logpow component"
    CHECKS = (("b", "nonzero"), ("m", "nonzero"))

    a: float
    b: float
    m: float

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
class Identity(_Model):
    """F(u) = u."""

    TAG = "identity"
    WIRE = ()

    def value(self, u: float) -> float:
        return u

    def derivs(self, u: float) -> tuple:
        return 1.0, 0.0


@dataclass(frozen=True)
class Power(_Model):
    """F(u) = u^d."""

    TAG = "power"
    WIRE = ("d",)
    LABEL = "power outer"
    CHECKS = (("d", "nonzero"),)

    d: float

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
class Scale(_Model):
    """F(u) = gamma * u."""

    TAG = "scale"
    WIRE = ("gamma",)
    LABEL = "scale outer"
    CHECKS = (("gamma", "positive"),)

    gamma: float

    def value(self, u: float) -> float:
        return self.gamma * u

    def derivs(self, u: float) -> tuple:
        return self.gamma, 0.0


@dataclass(frozen=True)
class Log(_Model):
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


class _Kind(_Model):
    """What every spec kind shares: ``kind`` is its wire ``TAG``."""

    @property
    def kind(self) -> str:
        return self.TAG


class _Product(_Kind):
    """A product kind: a non-empty tuple of components, one per variable."""

    def __post_init__(self):
        super().__post_init__()
        if not self.components:
            raise ValidationError("a spec needs at least one component")

    @property
    def n(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Homothetical(_Product):
    """Product form f(x) = f1(x1) * ... * fn(xn)."""

    TAG = LABEL = "homothetical"
    WIRE = ("components",)

    components: tuple


@dataclass(frozen=True)
class Composite(_Product):
    """Outer-composed product f(x) = F(h1(x1) * ... * hn(xn))."""

    TAG = LABEL = "composite"
    WIRE = ("outer", "components")

    outer: OuterFn
    components: tuple


@dataclass(frozen=True)
class Acms(_Kind):
    """CES form f(x) = F(gamma * (sum_i (beta_i x_i)^rho)^(d/rho)).

    ``make_acms``, the package's one builder of CES specs (``parse_spec``,
    ``make_thm51_family`` and verify call it), is the one rho < 1 gate, so
    that relaxed specs stay representable.
    """

    TAG = LABEL = "acms"
    WIRE = ("gamma", "betas", "rho", "d", "outer")
    CHECKS = (("gamma", "positive"), ("rho", "nonzero"), ("d", "positive"))

    gamma: float
    betas: tuple
    rho: float
    d: float
    outer: OuterFn = Identity()

    def __post_init__(self):
        super().__post_init__()
        if not self.betas:
            raise ValidationError("acms: needs at least one beta")
        for k, b in enumerate(self.betas):
            if b <= 0.0:
                raise ValidationError(f"acms: betas[{k}] must be positive, got {b!r}")

    @property
    def n(self) -> int:
        return len(self.betas)


FunctionSpec = Union[Homothetical, Composite, Acms]


# ---------------------------------------------------------------------------
# Constructors


def _pow_product(gamma: float, alphas, betas) -> tuple:
    """Shifted powers (x_k + betas[k])^alphas[k], gamma times the first one."""
    return tuple(PowFn(gamma=gamma if k == 0 else 1.0, beta=b, alpha=a)
                 for k, (a, b) in enumerate(zip(alphas, betas)))


def make_cobb_douglas(gamma: float, alphas: Sequence[float]) -> Homothetical:
    """Cobb-Douglas spec gamma * x1^a1 * ... * xn^an on the positive orthant.

    Realised as a product of ``pow`` components with beta = 0; gamma is
    absorbed into the first component.
    """
    gamma = _real(gamma, "cobb-douglas: gamma")
    if gamma <= 0.0:
        raise ValidationError("cobb-douglas: gamma must be positive")
    alphas = _reals(alphas, "cobb-douglas: alphas")
    if len(alphas) < 1:
        raise ValidationError("cobb-douglas: needs at least one exponent")
    for k, a in enumerate(alphas):
        if a == 0.0:
            raise ValidationError(f"cobb-douglas: alphas[{k}] must be nonzero")
    return Homothetical(_pow_product(gamma, alphas, [0.0] * len(alphas)))


def make_acms(gamma: float, betas: Sequence[float], rho: float, d: float,
              outer: OuterFn = Identity(), *, relax_rho: bool = False) -> Acms:
    """CES spec gamma * (sum (beta_i x_i)^rho)^(d/rho), optionally outer-composed.

    rho < 1 is enforced by default; ``relax_rho=True`` permits any nonzero rho
    (the formulas stay well defined, the substitution elasticity becomes
    1/(1-rho) <= 0 for rho > 1).
    """
    spec = Acms(gamma, betas, rho, d, outer)
    if not relax_rho and spec.rho >= 1.0:
        raise ValidationError(
            f"acms: rho must be < 1 (got {spec.rho!r}); use relax_rho to permit")
    return spec


# ---------------------------------------------------------------------------
# Evaluation


def _coords(point: Sequence[float]) -> list:
    # a point's coordinates as Python floats: None, text that is not a
    # number, a complex or a huge int is a ValidationError
    try:
        return [float(x) for x in point]
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"point {point!r} is not a sequence of numbers") from None


def _point(spec: FunctionSpec, point: Sequence[float]) -> list:
    # the package's one point-arity check, with _coords written inline: it
    # runs at each of fd_jet's stencil points, where one more call shows
    try:
        pt = [float(x) for x in point]
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"point {point!r} is not a sequence of numbers") from None
    if len(pt) != spec.n:
        raise ValidationError(
            f"point has {len(pt)} coordinates but the spec has {spec.n} variables")
    return pt


def _point_rows(spec: FunctionSpec, points) -> np.ndarray:
    # the check before any point is evaluated: points as an (m, n) float array
    try:  # an empty list is a block of no rows
        x = np.array(points, dtype=float)
        x = x.reshape(0, spec.n) if x.shape == (0,) else x
    except (TypeError, ValueError, OverflowError):  # ragged rows, or not a number
        x = None
    if x is None or x.ndim != 2 or x.shape[1] != spec.n:
        got = "ragged rows or a non-number" if x is None else f"shape {x.shape}"
        raise ValidationError(f"points must form an (m, {spec.n}) array for a spec with "
                              f"{spec.n} variables, got {got}")
    if np.isnan(x).any():  # numpy reads None as nan, where float() fails
        for point in points:
            _coords(point)
    return x


def _per_point(fn, spec: FunctionSpec, points, rows) -> tuple:
    """The redo of flagged rows used by the block kernels
    (``gauss_kronecker_batch``, ``elasticity_report_batch``), by the CLI's
    ``eval`` and by its finite-difference oracle (``jets._fd_gaps``):
    ``fn(spec, points[i])`` at each row i where the boolean array
    ``rows`` holds, in input order, as ({i: its result}, errors), errors[i]
    the ProdgeomError it raised without its frames (None elsewhere)."""
    done, errors = {}, [None] * len(rows)
    for i in np.flatnonzero(rows).tolist():
        try:
            done[i] = fn(spec, points[i])
        except ProdgeomError as e:
            errors[i] = e.with_traceback(None)
    return done, errors


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
    except OverflowError:
        raise NumericalError(f"function value overflowed at {tuple(pt)!r}") from None
    except ZeroDivisionError:  # a denominator that underflowed to 0
        raise NumericalError(f"function value underflowed at {tuple(pt)!r}") from None
    if not math.isfinite(value):
        raise NumericalError(f"non-finite function value at {tuple(pt)!r}")
    return parts, u, value


def evaluate(spec: FunctionSpec, point: Sequence[float]) -> float:
    """Function value at a point; raises DomainError outside the domain and
    NumericalError where the value overflows, divides by an underflowed zero
    or is not finite."""
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


def _axis_groups(points: np.ndarray) -> list:
    """Each axis of an (m, n) point array as (its distinct coordinates, the
    row-to-coordinate index), from one sort of the whole block. Coordinates
    are told apart by bit pattern, so -0.0 and 0.0, or two nan payloads,
    stay distinct."""
    bits = points.view(np.int64)
    ranked = np.sort(bits, axis=0)
    first = np.ones(ranked.shape, dtype=bool)  # each distinct coordinate's first row
    first[1:] = ranked[1:] != ranked[:-1]
    groups = []
    for k in range(points.shape[1]):
        distinct = ranked[first[:, k], k]
        groups.append((distinct.view(np.float64), distinct.searchsorted(bits[:, k])))
    return groups


def _term_core(spec: FunctionSpec, terms) -> np.ndarray:
    """The column part of the value pass: the product of the axes' term
    columns for a product kind (u), their CES sum s otherwise, in the order
    of ``_values``."""
    if isinstance(spec, Acms):
        parts = 0.0
        for t in terms:
            parts = parts + t
        return parts
    u = 1.0
    for v in terms:
        u = u * v
    return u


#: Outer maps whose ``value`` (u, gamma * u) is exact on a whole column and
#: whose ``derivs`` are constants; the other outer maps run row by row.
_LINEAR_OUTER = (Identity, Scale)


def _core_value(spec: FunctionSpec, core: np.ndarray) -> tuple:
    """The row-map part of the value pass: (u, value) from ``_term_core``'s
    column, the CES core gamma * s^(d/rho) and the outer map's ``value``, run
    row by row on Python floats unless the map is linear."""
    u = spec.gamma * _column_pow(core, spec.d / spec.rho) if isinstance(spec, Acms) else core
    if isinstance(spec, Acms) and spec.d / spec.rho == 0.0:  # s^0.0 is 1.0 even at a
        u = np.where(np.isnan(core), math.nan, u)  # failed guard's nan s: keep the row failed
    if isinstance(spec, Homothetical):
        return u, u
    outer = spec.outer
    return u, outer.value(u) if isinstance(outer, _LINEAR_OUTER) else _map_rows(outer.value, u)


def _value_pass(spec: FunctionSpec, points: np.ndarray) -> tuple:
    """The value pass at the rows of an (m, n) point array, bit for bit as
    ``_values``: (groups, distinct, terms, core, u, value). Each axis's term
    (``_term_column``) runs once per distinct coordinate of ``groups``
    (``_axis_groups``), giving ``distinct``, and is gathered back to the
    rows as ``terms``; ``_term_core`` and ``_core_value`` follow. A term is
    one scalar call per coordinate, so each row gets its own call's bits.
    Where ``_values`` raises, value is not finite."""
    groups = _axis_groups(points)
    with np.errstate(all="ignore"):
        distinct = [_term_column(spec, k, x) for k, (x, _) in enumerate(groups)]
        terms = [t[index] for t, (_, index) in zip(distinct, groups)]
        core = _term_core(spec, terms)
        u, value = _core_value(spec, core)
    return groups, distinct, terms, core, u, value


# ---------------------------------------------------------------------------
# JSON wire format


_KINDS = {k.TAG: k for k in (Homothetical, Composite, Acms)}
_COMPONENTS = {c.TAG: c for c in (PowFn, ExpFn, LogPowFn)}
_OUTERS = {o.TAG: o for o in (Identity, Power, Scale, Log)}


def _real(value, where: str) -> float:
    """A library argument as a float by ``_num``'s number rule: a real number
    that is not a bool, an int too large for a float reading inf; anything
    else is a ValidationError naming ``where``."""
    if type(value) is float:  # the common case, before the slower abstract check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _reals(values, where: str) -> tuple:
    """A sequence argument as a tuple of floats by ``_real``, entry k named
    ``where[k]``; a value that is not iterable is a ValidationError."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValidationError(f"{where} must be a sequence of numbers, got {values!r}") from None
    return tuple(_real(v, f"{where}[{k}]") for k, v in enumerate(values))


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # JSON text can spell NaN, Infinity and 1e400
        raise ParseError(f"{path}: expected a finite number, got {number!r}")
    return number


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


def _parse_field(name: str, value):
    """A spec kind's wire field by its name's one rule: the component list,
    the outer map, the beta list, or else a number."""
    if name == "components":
        if not isinstance(value, list):
            raise ParseError(f"{name}: expected a list of components")
        if not value:
            raise ValidationError(f"{name}: needs at least one component")
        return tuple(_parse_kind(c, f"{name}[{k}]", _COMPONENTS) for k, c in enumerate(value))
    if name == "outer":
        return _parse_kind(value, name, _OUTERS)
    if name == "betas":
        if not isinstance(value, list) or not value:
            raise ParseError(f"{name}: expected a non-empty list of numbers")
        return [_num(b, f"{name}[{k}]") for k, b in enumerate(value)]
    return _num(value, name)


def parse_spec(text: str, *, relax_rho: bool = False) -> FunctionSpec:
    """Parse the JSON spec format (strict: unknown fields are an error).

    ``kind`` picks the class, whose ``WIRE`` fields ``_parse_field`` reads in
    order; ``make_acms`` builds a CES spec. Raises ParseError with field
    diagnostics for malformed text and ValidationError for parameter-constraint
    violations.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # too many digits, or nested too deep
        raise ParseError(f"cannot decode the spec: {e}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level: expected an object")
    kind = obj.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"kind: expected one of {', '.join(_KINDS)}; got {kind!r}")
    _check_fields(obj, ("kind",) + cls.WIRE, "top level")
    values = [_parse_field(w, obj[w]) for w in cls.WIRE]
    return make_acms(*values, relax_rho=relax_rho) if cls is Acms else cls(*values)


def _wire(obj, key: str = "type"):
    """The wire form of a spec kind, component or outer map (a dict: ``key``
    naming its ``TAG``, then its ``WIRE`` fields in order), a tuple (a list)
    or a number (itself)."""
    if isinstance(obj, tuple):
        return [_wire(v) for v in obj]
    if not hasattr(obj, "WIRE"):
        return obj
    return {key: obj.TAG, **{w: _wire(v) for w, v in zip(obj.WIRE, _wire_values(obj))}}


def serialize_spec(spec: FunctionSpec) -> str:
    """Serialize to the JSON wire format; round-trips through parse_spec.

    Fields are emitted in ``WIRE`` order after ``kind``, and numbers in
    Python's shortest round-trip decimal form.
    """
    if not isinstance(spec, _Kind):
        raise ValidationError(f"unknown spec kind {spec!r}")
    return json.dumps(_wire(spec, "kind"), separators=(",", ":"))
