"""Conformally flat charts of the 1+1 Minkowski plane.

A chart is a pair of monotone relabelings of the global inertial null
coordinates u = t - x and v = t + x (one map per null direction), plus an
optional explicit factor multiplying the base line element for synthetic
curved test metrics.  The induced conformal factor and Ricci scalar are
evaluated through order-3 jets, so chart derivatives are exact wherever
the maps are exact.  Maps without a closed-form inverse invert by regula
falsi on a bracket; composing with an identity map adds no work.

Charts are immutable after construction and safe to share across threads;
two pieces are filled in lazily, each whole in one assignment: a map's
range, which ``ChartMap.range`` probes when none was declared, and the
last root a numeric inverse found.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .jets import (Jet1, Jet3, JetDomainError, compose, constant, jexp, jlog,
                   lead_value, seed)

__all__ = [
    "Interval",
    "CoverageError",
    "NoRootError",
    "MonotonicityError",
    "ChartMap",
    "ConformalChart",
    "Point",
    "identity_map",
    "compose_maps",
    "compose_charts",
    "minkowski_chart",
    "rindler_chart",
    "synthetic_curved_chart",
    "convert_point",
    "point_from_timespace",
    "timespace",
    "register_chart",
    "get_chart",
    "registered_charts",
]


class CoverageError(ValueError):
    """A point lies outside the region a chart covers."""


class NoRootError(RuntimeError):
    """Inversion target is outside the map's range."""


class MonotonicityError(RuntimeError):
    """A map assumed monotone changes direction on the probed interval."""


@dataclass(frozen=True)
class Interval:
    """Open real interval; endpoints may be infinite."""

    lo: float = -math.inf
    hi: float = math.inf

    def contains(self, x):
        """Open-interval membership of a float, or of each entry of an
        array."""
        return (self.lo < x) & (x < self.hi)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi

    def __str__(self):
        return f"({self.lo}, {self.hi})"


FULL_LINE = Interval()


# what an elementary function raises where its value, or one on the way to
# it, leaves the double-precision range (say, a log of an underflowed 0)
RANGE_ERRORS = (ArithmeticError, JetDomainError)


def _try_float(fn, *args):
    """fn(*args) as a finite float, or None where fn raises one of the
    RANGE_ERRORS or gives a value that is not finite."""
    try:
        y = lead_value(fn(*args))
    except RANGE_ERRORS:
        return None
    return y if abs(y) < math.inf else None


def _root_or_nan(m, target):
    try:
        return m.invert(target)
    except (NoRootError, CoverageError):
        return math.nan


def _probe_limit(fn, interval: Interval, end: float, from_inside: float,
                 trend: int):
    """Limiting value of fn approaching ``end`` from inside the interval,
    toward which fn rises (``trend`` +1) or falls (-1).  A probe that
    overflows once one has been finite puts the limit at that infinity."""
    if math.isinf(end):
        xs = [math.copysign(10.0 ** k, end) for k in range(0, 16)]
        xs = [x for x in xs if interval.contains(x)]
    else:
        width = interval.hi - interval.lo
        scale = min(1.0, width / 4.0) if math.isfinite(width) else 1.0
        sign = 1.0 if from_inside > end else -1.0
        xs = [end + sign * scale * 10.0 ** (-k) for k in range(1, 13)]
    vals = []
    for x in xs:
        v = _try_float(fn, x)
        if v is not None:
            vals.append(v)
        elif vals:
            return math.copysign(math.inf, trend)
    if not vals:
        return math.copysign(math.inf, trend)
    last, prev = vals[-1], vals[-2] if len(vals) > 1 else vals[-1]
    if abs(last) > 1e15:
        return math.copysign(math.inf, last)
    if abs(last - prev) > 1e-9 * max(1.0, abs(last)) and abs(last) > abs(prev):
        return math.copysign(math.inf, last)
    return last


class ChartMap:
    """A strictly monotone, thrice-differentiable scalar map.

    ``fn`` and ``dfn`` evaluate the map and its first derivative on floats,
    numpy arrays or (possibly nested) jets; keeping the derivative as a
    first-class evaluator is what makes order-3 jets of composites and
    inverses exact.  Built from the jet elementary functions, the same
    callables serve grid evaluation and the mode-function machinery.
    """

    __slots__ = ("fn", "dfn", "domain", "monotone_sign", "inverse_fn",
                 "label", "_range")

    def __init__(self, fn, dfn=None, domain: Interval = FULL_LINE,
                 inverse_fn=None, monotone_sign: int = 0,
                 label: str = "map", range_hint: Optional[Interval] = None):
        self.fn = fn
        self.dfn = dfn if dfn is not None else self._auto_dfn
        self.domain = domain
        self.inverse_fn = inverse_fn
        self.label = label
        self._range = range_hint
        if monotone_sign == 0:
            x0 = self._interior_point()
            monotone_sign = 1 if lead_value(self.dfn(x0)) > 0.0 else -1
        self.monotone_sign = monotone_sign

    def _auto_dfn(self, x):
        # f' needs one tangent: the d1 slot of fn on a first-order seed
        # over x carries f' with all of x's own jet structure, so this is
        # exact to whatever order x is
        return self.fn(Jet1(x, 1.0)).d1

    def _interior_point(self) -> float:
        lo, hi = self.domain.lo, self.domain.hi
        if math.isfinite(lo) and math.isfinite(hi):
            return 0.5 * (lo + hi)
        if math.isfinite(lo):
            return lo + 1.0
        if math.isfinite(hi):
            return hi - 1.0
        return 0.0

    def __call__(self, x):
        """fn with a domain check, and on a float a finite value or a
        CoverageError; array arguments are not checked (grid evaluation
        masks points outside the domain itself)."""
        self._check_domain(x)
        try:  # _try_float inline on a float: the scalar points' hot path
            y = self.fn(x)
        except RANGE_ERRORS:
            if not isinstance(x, float):
                raise
            y = math.nan
        if isinstance(x, float) and not abs(y) < math.inf:
            raise CoverageError(f"{self.label}: value at {x} leaves the "
                                f"double-precision range")
        return y

    def _check_domain(self, x):
        v = lead_value(x)
        if v.__class__ is not np.ndarray and not self.domain.contains(v):
            raise CoverageError(
                f"{self.label}: argument {v} outside domain {self.domain}")

    def deriv(self, x: float) -> float:
        """fn' at a float, finite; CoverageError outside the domain, as
        for ``__call__``, or where it leaves the double-precision range."""
        self._check_domain(x)
        d = _try_float(self.dfn, x)
        if d is None:
            raise CoverageError(f"{self.label}: derivative at {x} leaves "
                                f"the double-precision range")
        return d

    @property
    def range(self) -> Interval:
        """The declared range, or for a map built without one, the limits
        of fn probed toward the domain ends."""
        if self._range is None:
            mid = self._interior_point()
            sign = self.monotone_sign
            a = _probe_limit(self.fn, self.domain, self.domain.lo, mid, -sign)
            b = _probe_limit(self.fn, self.domain, self.domain.hi, mid, sign)
            lo, hi = (a, b) if self.monotone_sign > 0 else (b, a)
            self._range = Interval(lo, hi)
        return self._range

    def image(self, interval: Interval) -> Interval:
        """fn over ``interval``, an interval inside the domain: fn at each
        end strictly inside the domain, the range's own end at each end
        the interval shares with the domain (swapped when decreasing)."""
        up = self.monotone_sign > 0
        ends = []
        for x, edge, low in ((interval.lo, self.domain.lo, True),
                             (interval.hi, self.domain.hi, False)):
            if (x <= edge) if low else (x >= edge):
                ends.append(self.range.lo if low == up else self.range.hi)
            else:
                ends.append(lead_value(self.fn(x)))
        return Interval(min(ends), max(ends))

    # ---------- inversion ----------

    def invert(self, target: float) -> float:
        """x with |fn(x) - target| <= 1e-12 max(1, |target|), in closed form
        when the map carries one, else on a bracket by regula falsi that
        halves the value of an end kept twice running (Illinois), bisecting
        while an end value is infinite or an end is kept a third time.
        Where fn is so steep that no double meets the bound, the bracket
        closes on two neighbouring doubles, and of those the one nearer
        the target in value is the root.  NoRootError for a target outside
        the range; CoverageError where the root leaves the double-precision
        range: a closed form's on the way or in its value, or a root past
        the last double before a domain end."""
        rng = self.range
        if not rng.contains(target):
            raise NoRootError(
                f"{self.label}: target {target} outside range {rng}")
        if self.inverse_fn is not None:
            # a closed form can overflow where its argument is in range
            x = _try_float(self.inverse_fn, target)
            if x is None:
                raise CoverageError(f"{self.label}: root of {target} "
                                    f"leaves the double-precision range")
            return x
        x0 = self._interior_point()
        a, fa, b, fb = self._bracket(target, x0)
        # an end that is the root is checked too, as the float next to a
        # domain end can be
        if (fb - fa) * self.monotone_sign < 0.0:
            raise MonotonicityError(
                f"{self.label}: bracket values contradict monotone sign")
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        tol = 1e-12 * max(1.0, abs(target))
        kept = 0  # times running a (> 0) or b (< 0) was kept
        while True:
            # an infinite end value puts x at an end or makes it NaN
            x = a - fa * ((b - a) / (fb - fa))
            if abs(kept) > 2 or not a < x < b:
                x = 0.5 * (a + b)
                if not a < x < b:
                    return min((a, b), key=lambda e: abs(
                        self._value(e, x0) - target))
            fx = self._value(x, x0) - target
            if abs(fx) <= tol:
                # one Newton step takes the root from the tolerance to
                # rounding, kept in the bracket if still within tolerance
                d = _try_float(self.dfn, x)
                xn = x - fx / d if d else x
                if xn != x and a <= xn <= b \
                        and abs(self._value(xn, x0) - target) <= tol:
                    return xn
                return x
            if (fx < 0.0) == (fa < 0.0):
                a, fa, kept = x, fx, min(kept, 0) - 1
            else:
                b, fb, kept = x, fx, max(kept, 0) + 1
            fa *= 0.5 if kept == 2 else 1.0
            fb *= 0.5 if kept == -2 else 1.0

    def _value(self, x: float, x0: float) -> float:
        """fn(x) as a float, one outside the double-precision range as fn's
        infinity on x's side."""
        v = _try_float(self.fn, x)
        if v is None:
            v = math.inf * self.monotone_sign * math.copysign(1.0, x - x0)
        return v

    def _bracket(self, target: float, x0: float):
        """(a, fa, b, fb): a bracket grown from x0, and fn - target there.
        The growth keeps a gap of up to 1e-12 to a finite domain end; once
        an end stops there, the float next to that domain end is tried,
        for a root inside the gap, and CoverageError where fn approaches
        the target past it, between the last double and the domain end."""
        lo, hi = self.domain.lo, self.domain.hi
        step = 1.0

        def clamp(x):
            if math.isfinite(lo):
                x = max(x, lo + min(1e-12, (x0 - lo) * 1e-9) + 0.0)
            if math.isfinite(hi):
                x = min(x, hi - min(1e-12, (hi - x0) * 1e-9))
            return x

        a = b = x0
        fa = fb = self._value(x0, x0) - target
        a_stopped = b_stopped = False
        message = f"{self.label}: bracketing failed for {target}"

        def past(end):
            return CoverageError(
                f"{self.label}: root of {target} lies past the last double "
                f"before the domain end {end}, outside the double-precision "
                f"range")

        for _ in range(300):
            if fa == 0.0 or fb == 0.0 or fa * fb < 0.0:
                return a, fa, b, fb
            na, nb = clamp(a - step), clamp(b + step)
            if na < a:
                a, fa = na, self._value(na, x0) - target
            elif not a_stopped:
                a_stopped = True
                x = math.nextafter(lo, math.inf)
                fx = self._value(x, x0) - target
                if x < a and (fx == 0.0 or fx * fa < 0.0):
                    return x, fx, a, fa
                if fx * fa > 0.0 and abs(fx) < abs(fa):
                    raise past(lo)
            if nb > b:
                b, fb = nb, self._value(nb, x0) - target
            elif not b_stopped:
                b_stopped = True
                x = math.nextafter(hi, -math.inf)
                fx = self._value(x, x0) - target
                if x > b and (fx == 0.0 or fx * fb < 0.0):
                    return b, fb, x, fx
                if fx * fb > 0.0 and abs(fx) < abs(fb):
                    raise past(hi)
            step *= 2.0
            if a_stopped and b_stopped and fa * fb > 0.0:
                message = f"{self.label}: could not bracket target {target}"
                break
        raise NoRootError(message)

    def inverse_map(self) -> "ChartMap":
        """The inverse as a first-class ChartMap, exact on jets, nested
        jets included.  A numeric inverse recurses to the float at the
        core of its argument and inverts that float once: the map keeps
        the last (target, root) pair, so repeated evaluations at one
        target, jet or float, share one root bit for bit.  An array is
        inverted element by element and kept as a float is; an entry with
        no root in the domain is NaN, as out-of-domain array entries are
        everywhere (callers mask them), where a float or jet raises."""
        if self.inverse_fn is not None:
            inv_fn = self.inverse_fn
        else:
            # the (target, root) cell, shared by inv_fn and inv_dfn: a
            # stress point evaluates a transition and its derivative at
            # one float, a grid at one array.  Replaced by a single tuple
            # assignment, a thread reads a consistent pair or misses.
            cell = [(None, None)]

            def inv_fn(y, _self=self):
                if isinstance(y, Jet3):
                    x0 = inv_fn(y.value)
                    m = _self.fn(seed(x0))
                    g1 = 1.0 / m.d1
                    g1sq = g1 * g1
                    g2 = -m.d2 * (g1sq * g1)
                    g3 = (3.0 * (m.d2 * m.d2) - m.d1 * m.d3) * (g1sq * g1sq * g1)
                    return compose((x0, g1, g2, g3), y)
                if isinstance(y, Jet1):
                    x0 = inv_fn(y.value)
                    return Jet1(x0, y.d1 / _self.dfn(x0))
                if y.__class__ is float:
                    key = y
                elif y.__class__ is np.ndarray:
                    # keyed by value: a grid passes an axis through a
                    # transition and its derivative as two equal arrays
                    key = (y.shape, y.tobytes())
                else:
                    return _self.invert(y)
                target, root = cell[0]
                if target != key:
                    root = _self.invert(y) if key is y else np.array(
                        [_root_or_nan(_self, t) for t in y.ravel().tolist()]
                    ).reshape(y.shape)
                    cell[0] = (key, root)
                return root

        def inv_dfn(y, _self=self, _inv=inv_fn):
            return 1.0 / _self.dfn(_inv(y))

        return ChartMap(
            inv_fn, inv_dfn, domain=self.range,
            inverse_fn=self.fn, monotone_sign=self.monotone_sign,
            label=f"{self.label}^-1", range_hint=self.domain,
        )


def _identity(x):
    return x


def identity_map(label: str = "id") -> ChartMap:
    """The identity, whose ``fn`` and ``inverse_fn`` are one function:
    ``m.fn is m.inverse_fn`` tells an identity map apart."""
    return ChartMap(
        fn=_identity,
        dfn=lambda x: 0.0 * x + 1.0,
        inverse_fn=_identity,
        monotone_sign=1,
        label=label,
        range_hint=FULL_LINE,
    )


def compose_maps(outer: ChartMap, inner: ChartMap,
                 label: Optional[str] = None) -> ChartMap:
    """outer(inner(x)) with exact derivatives, chained inverses and the
    exact range: outer's image of the part of inner's range it covers.
    With an identity on either side (``fn is inverse_fn``) it calls the
    other side's own fn, dfn and inverse_fn; otherwise the derivative
    evaluates inner once: a forward-only inner's value is the value slot
    of the tangent pass that gives its derivative, inner(x) to the bit
    unless inner divides: a jet quotient multiplies by the reciprocal,
    which can put the slot 1 ulp from inner(x)."""
    covered = inner.range.intersect(outer.domain)
    if covered.empty:
        raise CoverageError(
            f"composition {outer.label}({inner.label}) has empty domain")

    if inner.fn is inner.inverse_fn or outer.fn is outer.inverse_fn:
        other = outer if inner.fn is inner.inverse_fn else inner
        fn, dfn, inverse_fn = other.fn, other.dfn, other.inverse_fn
    else:
        def fn(x):
            return outer.fn(inner.fn(x))

        if inner.dfn == inner._auto_dfn:
            # a stress point takes this derivative twice at the root its
            # numeric inverse found, in the Jacobian of the transition out
            # of that inverse and in the factor at the held coordinate;
            # the inverse's cell hands out that root as one float object.
            # The last (float, derivative) pair is kept, matched by
            # identity, and replaced whole, as that cell is.
            last = [(None, None)]

            def dfn(x):
                if x.__class__ is float:
                    arg, d = last[0]
                    if arg is x:
                        return d
                j = inner.fn(Jet1(x, 1.0))
                d = outer.dfn(j.value) * j.d1
                if x.__class__ is float:
                    last[0] = (x, d)
                return d
        else:
            def dfn(x):
                return outer.dfn(inner.fn(x)) * inner.dfn(x)

        inverse_fn = None
        if outer.inverse_fn is not None and inner.inverse_fn is not None:
            def inverse_fn(z, _o=outer.inverse_fn, _i=inner.inverse_fn):
                return _i(_o(z))

    return ChartMap(
        fn, dfn, domain=inner.inverse_map().image(covered),
        inverse_fn=inverse_fn,
        monotone_sign=outer.monotone_sign * inner.monotone_sign,
        label=label or f"{outer.label}*{inner.label}",
        range_hint=outer.image(covered),
    )


# ---------- points ----------

@dataclass(frozen=True, slots=True)
class Point:
    """Null coordinates of an event in a named chart."""

    c1: float
    c2: float
    chart: str = "minkowski"


def point_from_timespace(chart: "ConformalChart", t: float, x: float) -> Point:
    """Point from the chart's own time/space pair (t* , x*)."""
    return Point(t - x, t + x, chart.name)


def timespace(p: Point):
    """(t*, x*) of a point in its own chart."""
    return 0.5 * (p.c1 + p.c2), 0.5 * (p.c2 - p.c1)


# ---------- conformal charts ----------

class ConformalChart:
    """A chart of the plane given by null relabelings of the base chart.

    ``base_factor``, when present, multiplies the flat base line element
    and turns the chart into a synthetic curved test metric; its domain
    predicate guards evaluation.
    """

    __slots__ = ("name", "u_map", "v_map", "base_factor", "base_domain",
                 "global_class", "__weakref__")

    def __init__(self, name: str, u_map: ChartMap, v_map: ChartMap,
                 base_factor=None, base_domain=None,
                 global_class: str = "full_plane"):
        self.name = name
        self.u_map = u_map
        self.v_map = v_map
        self.base_factor = base_factor
        self.base_domain = base_domain
        self.global_class = global_class

    # -- conformal factor and curvature --

    def factor(self, cu, cv):
        """Conformal factor at chart coords; floats, arrays or jets in each
        slot.  The domain and positivity checks apply to scalar points;
        grid evaluation masks array points itself.  The maps themselves
        are evaluated only for ``base_factor``, at the base point."""
        if self.base_factor is None:
            self.u_map._check_domain(cu)
            self.v_map._check_domain(cv)
            c = self.u_map.dfn(cu) * self.v_map.dfn(cv)
        else:
            bu, bv = self.u_map(cu), self.v_map(cv)
            c = self.u_map.dfn(cu) * self.v_map.dfn(cv)
            lu, lv = lead_value(bu), lead_value(bv)
            if self.base_domain is not None \
                    and lu.__class__ is not np.ndarray \
                    and lv.__class__ is not np.ndarray \
                    and not self.base_domain(lu, lv):
                raise CoverageError(
                    f"chart '{self.name}': base point ({lu}, {lv}) outside "
                    f"the factor's domain")
            c = c * self.base_factor(bu, bv)
        lead = lead_value(c)
        if lead.__class__ is not np.ndarray and lead <= 0.0:
            raise CoverageError(
                f"chart '{self.name}': conformal factor "
                f"{lead} not positive at "
                f"({lead_value(cu)}, {lead_value(cv)})")
        return c

    def conformal_factor(self, c1: float, c2: float) -> float:
        """The factor at a float point, finite and positive; CoverageError
        outside the chart's domain or the double-precision range."""
        return self._float(self.factor, c1, c2, "conformal factor")

    def factor_jet_u(self, c1: float, c2) -> Jet3:
        """Factor as a jet in the first null direction."""
        return self.factor(seed(c1), c2)

    def ricci_scalar(self, c1: float, c2: float) -> float:
        """R = -(4/C) d^2(ln C)/dc1 dc2 at a float point, finite, via one
        jet nested in the other; CoverageError outside the chart's domain
        or the double-precision range."""
        return self._float(self._ricci, c1, c2, "Ricci scalar")

    def _ricci(self, c1: float, c2: float):
        c = self.factor(Jet3(seed(c1), 0.0, 0.0, 0.0),
                        Jet3(constant(c2), 1.0, 0.0, 0.0))
        return -4.0 * jlog(c).d1.d1 / lead_value(c)

    def _float(self, fn, c1: float, c2: float, what: str) -> float:
        y = _try_float(fn, c1, c2)
        if y is None:
            raise CoverageError(f"chart '{self.name}': {what} at ({c1}, "
                                f"{c2}) leaves the double-precision range")
        return y

    # -- coordinate conversion --

    def to_base(self, c1: float, c2: float):
        return lead_value(self.u_map(c1)), lead_value(self.v_map(c2))

    def from_base(self, u: float, v: float):
        for coord, m, tag in ((u, self.u_map, "u"), (v, self.v_map, "v")):
            if not m.range.contains(coord):
                raise CoverageError(
                    f"base {tag}={coord} outside chart '{self.name}' "
                    f"coverage: requires {tag} in {m.range} "
                    f"(horizon at the boundary)")
        return self.u_map.invert(u), self.v_map.invert(v)

    def convert(self, c1: float, c2: float, to: "ConformalChart") -> Point:
        """The point (c1, c2) of this chart in chart ``to``, passing
        through base coordinates.  CoverageError where the point lies
        outside either chart's coverage or its coordinates leave the
        double-precision range on the way; a point kept in its own chart
        must lie in that chart's domain."""
        if self.name == to.name:
            self.u_map._check_domain(c1)
            self.v_map._check_domain(c2)
            return Point(c1, c2, to.name)
        return Point(*to.from_base(*self.to_base(c1, c2)), to.name)

    def __repr__(self):
        return f"ConformalChart({self.name!r})"


def compose_charts(outer: ConformalChart, relabel_u: ChartMap,
                   relabel_v: ChartMap, name: str,
                   global_class: Optional[str] = None) -> ConformalChart:
    """Relabel each null direction of ``outer`` by a monotone map."""
    return ConformalChart(
        name,
        compose_maps(outer.u_map, relabel_u),
        compose_maps(outer.v_map, relabel_v),
        base_factor=outer.base_factor,
        base_domain=outer.base_domain,
        global_class=global_class or outer.global_class,
    )


# ---------- the built-in charts ----------

def minkowski_chart() -> ConformalChart:
    """Global inertial chart; conformal factor identically 1."""
    return ConformalChart("minkowski", identity_map("u"), identity_map("v"))


def rindler_chart() -> ConformalChart:
    """Chart adapted to uniformly accelerated observers in the right wedge.

    Base coordinates: u = -exp(-u*), v = exp(v*); the chart coordinates
    range over the whole plane but cover only the wedge z > |t|, whose
    boundary null rays u = 0 and v = 0 are the horizons.
    """
    u_map = ChartMap(
        fn=lambda x: -jexp(-x),
        dfn=lambda x: jexp(-x),
        inverse_fn=lambda y: -jlog(-y),
        monotone_sign=1,
        label="rindler-u",
        range_hint=Interval(-math.inf, 0.0),
    )
    v_map = ChartMap(
        fn=jexp,
        dfn=jexp,
        inverse_fn=jlog,
        monotone_sign=1,
        label="rindler-v",
        range_hint=Interval(0.0, math.inf),
    )
    return ConformalChart("rindler", u_map, v_map)


def synthetic_curved_chart() -> ConformalChart:
    """Identity chart carrying the curved test factor C = (u+v)^2, u+v > 0."""
    return ConformalChart(
        "curved-test",
        identity_map("u"),
        identity_map("v"),
        base_factor=lambda ju, jv: (ju + jv) ** 2,
        base_domain=lambda u, v: u + v > 0.0,
    )


# ---------- registry ----------

# Names resolve while something holds the chart: the built-ins below, or
# the scenario a mirror-adapted chart was built for, whose state holds its
# own transitions.  Weak entries keep dropped scenarios' charts out.
_REGISTRY = weakref.WeakValueDictionary()


def register_chart(chart: ConformalChart) -> ConformalChart:
    """Make ``chart`` resolvable by name for as long as it is in use."""
    _REGISTRY[chart.name] = chart
    return chart


def get_chart(name: str) -> ConformalChart:
    """The registered chart of this name; ValueError if there is none."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown chart {name!r}; registered: {known}") \
            from None


def registered_charts():
    return sorted(_REGISTRY)


_BUILTINS = tuple(register_chart(c) for c in (
    minkowski_chart(), rindler_chart(), synthetic_curved_chart()))


def convert_point(p: Point, to: ConformalChart) -> Point:
    """``convert`` of p from the registered chart that ``p.chart`` names."""
    return get_chart(p.chart).convert(p.c1, p.c2, to)
