"""Order-3 forward-mode jets.

A :class:`Jet3` bundles a value with its first three derivatives with
respect to one designated coordinate.  All derivative-hungry quantities in
this package (conformal factors, stress components, Ricci scalars,
conservation residuals) are evaluated through jet arithmetic, so every
derivative is an exact chain-rule evaluation rather than a finite
difference.

Coefficients of a jet may themselves be jets.  Nesting a jet in one null
direction inside a jet in the other is how mixed partial derivatives such
as d2(ln C)/du dv are taken; no two-dimensional jet type is needed.

The innermost coefficients (the leaves) are floats or numpy arrays.  With
array leaves one jet carries a whole grid of points through the same
arithmetic (Taylor-mode arithmetic over arrays), and the elementary
functions dispatch to ``numpy`` instead of ``math``.  Domain guards raise
only for scalar leaves; an array leaf outside a function's domain yields
the IEEE value (nan or inf), and callers mask such points.

A plain float or int mixes with a jet as a constant: a product multiplies
it into every coefficient, a sum adds it to the value.  The stress engine
holds a float coordinate that way, as a plain coefficient rather than a
constant jet.  Jets and arrays stay wrapped: a Jet3 refuses to mix with a
Jet1 (they differentiate in different senses) and with a bare ndarray
(jets set ``__array_ufunc__ = None``).

:class:`Jet1` and :class:`Jet3` share division and integer powers through
a private base class; each keeps its own ring operations and reciprocal.
The elementary functions are exp, log, sqrt, sinh, cosh and asinh.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Jet3",
    "Jet1",
    "JetDomainError",
    "seed",
    "constant",
    "compose",
    "jexp",
    "jlog",
    "jsinh",
    "jcosh",
    "jasinh",
    "jsqrt",
    "lead_value",
]

_SCALARS = (int, float)
_ndarray = np.ndarray


class JetDomainError(ValueError):
    """Raised when an operation leaves the real domain of a function."""

    def __init__(self, fn: str, value: float):
        self.fn = fn
        self.value = value
        super().__init__(f"{fn} undefined at value {value!r}")


def lead_value(x):
    """Innermost coefficient of a possibly nested jet (the evaluation
    point): a float, or an array of points."""
    while isinstance(x, _Jet):
        x = x.value
    return x


class _Jet:
    """Division and integer powers, written once over each subclass's
    ring operations and ``_reciprocal``."""

    __slots__ = ()
    # ``ndarray op jet`` defers to the jet, which rejects a bare array
    # (a TypeError) instead of numpy building an object array of jets
    __array_ufunc__ = None

    def __truediv__(self, other):
        # a Jet1 and a Jet3 differentiate in different senses: no mixing
        if other.__class__ is self.__class__:
            return self * other._reciprocal()
        if isinstance(other, _SCALARS):
            if other == 0:
                raise JetDomainError("div", 0.0)
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return other * self._reciprocal()
        return NotImplemented

    def __pow__(self, p):
        if not isinstance(p, int):
            return NotImplemented
        if p == 0:
            return 0.0 * self + 1.0
        if p < 0:
            return (self ** (-p))._reciprocal()
        out = self
        for _ in range(p - 1):
            out = out * self
        return out


class Jet1(_Jet):
    """First-order jet: value and one derivative.

    Used for the outer levels of nested differentiation where only a
    single derivative per direction is needed (conservation residuals,
    mixed log-derivatives); four times leaner than nesting full Jet3s.
    """

    __slots__ = ("value", "d1")

    def __init__(self, value, d1=0.0):
        self.value = value
        self.d1 = d1

    def __repr__(self):
        return f"Jet1({self.value!r}, {self.d1!r})"

    def __add__(self, other):
        if isinstance(other, Jet1):
            return Jet1(self.value + other.value, self.d1 + other.d1)
        if isinstance(other, _SCALARS):
            return Jet1(self.value + other, self.d1)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet1):
            return Jet1(self.value - other.value, self.d1 - other.d1)
        if isinstance(other, _SCALARS):
            return Jet1(self.value - other, self.d1)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return Jet1(other - self.value, -self.d1)
        return NotImplemented

    def __neg__(self):
        return Jet1(-self.value, -self.d1)

    def __mul__(self, other):
        if isinstance(other, Jet1):
            return Jet1(self.value * other.value,
                        self.d1 * other.value + self.value * other.d1)
        if isinstance(other, _SCALARS):
            return Jet1(self.value * other, self.d1 * other)
        return NotImplemented

    __rmul__ = __mul__

    def _reciprocal(self):
        v = lead_value(self.value)
        if v.__class__ is not _ndarray and v == 0.0:
            raise JetDomainError("div", v)
        r = 1.0 / self.value
        return Jet1(r, -(self.d1 * (r * r)))


class Jet3(_Jet):
    """Value plus derivatives d1, d2, d3 with respect to one coordinate.

    Arithmetic follows the exact Leibniz/chain rules to order 3.  Mixing
    with plain numbers treats them as constants; mixing with jets whose
    coefficients are themselves jets realizes nested differentiation.
    """

    __slots__ = ("value", "d1", "d2", "d3")

    def __init__(self, value, d1=0.0, d2=0.0, d3=0.0):
        self.value = value
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3

    def as_tuple(self):
        return (self.value, self.d1, self.d2, self.d3)

    def __repr__(self):
        return f"Jet3({self.value!r}, {self.d1!r}, {self.d2!r}, {self.d3!r})"

    # ---------- ring operations ----------

    def __add__(self, other):
        if isinstance(other, Jet3):
            return Jet3(self.value + other.value, self.d1 + other.d1,
                        self.d2 + other.d2, self.d3 + other.d3)
        if isinstance(other, _SCALARS):
            return Jet3(self.value + other, self.d1, self.d2, self.d3)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet3):
            return Jet3(self.value - other.value, self.d1 - other.d1,
                        self.d2 - other.d2, self.d3 - other.d3)
        if isinstance(other, _SCALARS):
            return Jet3(self.value - other, self.d1, self.d2, self.d3)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return Jet3(other - self.value, -self.d1, -self.d2, -self.d3)
        return NotImplemented

    def __neg__(self):
        return Jet3(-self.value, -self.d1, -self.d2, -self.d3)

    def __mul__(self, other):
        if isinstance(other, Jet3):
            return Jet3(
                self.value * other.value,
                self.d1 * other.value + self.value * other.d1,
                self.d2 * other.value + 2.0 * (self.d1 * other.d1)
                + self.value * other.d2,
                self.d3 * other.value + 3.0 * (self.d2 * other.d1)
                + 3.0 * (self.d1 * other.d2) + self.value * other.d3,
            )
        if isinstance(other, _SCALARS):
            return Jet3(self.value * other, self.d1 * other,
                        self.d2 * other, self.d3 * other)
        return NotImplemented

    __rmul__ = __mul__

    def _reciprocal(self):
        v = lead_value(self.value)
        if v.__class__ is not _ndarray and v == 0.0:
            raise JetDomainError("div", v)
        r = 1.0 / self.value  # a nested value recurses through _Jet
        r2 = r * r
        return compose((r, -r2, 2.0 * (r2 * r), -6.0 * (r2 * r2)), self)


def seed(x) -> Jet3:
    """Jet of the identity coordinate at x: (x, 1, 0, 0)."""
    return Jet3(x, 1.0, 0.0, 0.0)


def constant(x) -> Jet3:
    """Jet of a constant: all derivatives zero."""
    return Jet3(x, 0.0, 0.0, 0.0)


def compose(outer_tower, inner: Jet3) -> Jet3:
    """Faa di Bruno to order 3.

    ``outer_tower`` holds (f, f', f'', f''') evaluated at ``inner.value``;
    the result is the jet of the composition f(inner).
    """
    t0, t1, t2, t3 = outer_tower
    g1, g2, g3 = inner.d1, inner.d2, inner.d3
    g1sq = g1 * g1
    return Jet3(
        t0,
        t1 * g1,
        t1 * g2 + t2 * g1sq,
        t1 * g3 + 3.0 * (t2 * (g1 * g2)) + t3 * (g1sq * g1),
    )


# ---------- elementary functions ----------
# Each accepts a float, an array or a (possibly nested) jet.  Towers are
# computed recursively on the jet's value, so nesting costs nothing extra
# in code.  A float is tested first: point evaluation through numeric
# inversion calls these leaves about a hundred times per point.

def jexp(x):
    if x.__class__ is float:
        return math.exp(x)
    if isinstance(x, Jet3):
        e = jexp(x.value)
        return compose((e, e, e, e), x)
    if isinstance(x, Jet1):
        e = jexp(x.value)
        return Jet1(e, e * x.d1)
    if x.__class__ is _ndarray:
        return np.exp(x)
    return math.exp(x)


def jlog(x):
    if x.__class__ is float and x > 0.0:
        return math.log(x)
    if isinstance(x, Jet3):
        v = lead_value(x.value)
        if v.__class__ is not _ndarray and v <= 0.0:
            raise JetDomainError("log", v)
        r = 1.0 / x.value
        return compose((jlog(x.value), r, -(r * r), 2.0 * (r * r * r)), x)
    if isinstance(x, Jet1):
        v = lead_value(x.value)
        if v.__class__ is not _ndarray and v <= 0.0:
            raise JetDomainError("log", v)
        return Jet1(jlog(x.value), x.d1 / x.value)
    if x.__class__ is _ndarray:
        return np.log(x)
    if x <= 0.0:
        raise JetDomainError("log", x)
    return math.log(x)


def jsqrt(x):
    if x.__class__ is float and x > 0.0:
        return math.sqrt(x)
    if isinstance(x, Jet3):
        v = lead_value(x.value)
        if v.__class__ is not _ndarray and v <= 0.0:
            raise JetDomainError("sqrt", v)
        s = jsqrt(x.value)
        inv = 1.0 / s
        inv3 = inv * inv * inv
        return compose((s, 0.5 * inv, -0.25 * inv3,
                        0.375 * (inv3 * (inv * inv))), x)
    if isinstance(x, Jet1):
        v = lead_value(x.value)
        if v.__class__ is not _ndarray and v <= 0.0:
            raise JetDomainError("sqrt", v)
        s = jsqrt(x.value)
        return Jet1(s, 0.5 * (x.d1 / s))
    if x.__class__ is _ndarray:
        return np.sqrt(x)
    if x <= 0.0:
        raise JetDomainError("sqrt", x)
    return math.sqrt(x)


def jsinh(x):
    if x.__class__ is float:
        return math.sinh(x)
    if isinstance(x, Jet3):
        s = jsinh(x.value)
        c = jcosh(x.value)
        return compose((s, c, s, c), x)
    if isinstance(x, Jet1):
        return Jet1(jsinh(x.value), jcosh(x.value) * x.d1)
    if x.__class__ is _ndarray:
        return np.sinh(x)
    return math.sinh(x)


def jcosh(x):
    if x.__class__ is float:
        return math.cosh(x)
    if isinstance(x, Jet3):
        s = jsinh(x.value)
        c = jcosh(x.value)
        return compose((c, s, c, s), x)
    if isinstance(x, Jet1):
        return Jet1(jcosh(x.value), jsinh(x.value) * x.d1)
    if x.__class__ is _ndarray:
        return np.cosh(x)
    return math.cosh(x)


def jasinh(x):
    if x.__class__ is float:
        return math.asinh(x)
    if isinstance(x, Jet3):
        y = x.value
        r = 1.0 / jsqrt(1.0 + y * y)
        r2 = r * r
        return compose((jasinh(y), r, -(y * (r2 * r)),
                        (2.0 * (y * y) - 1.0) * (r2 * (r2 * r))), x)
    if isinstance(x, Jet1):
        return Jet1(jasinh(x.value), x.d1 / jsqrt(1.0 + x.value * x.value))
    if x.__class__ is _ndarray:
        return np.arcsinh(x)
    return math.asinh(x)

