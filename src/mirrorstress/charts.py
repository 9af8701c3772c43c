"""Conformally flat charts of the 1+1 Minkowski plane.

A chart is a pair of monotone relabelings of the global inertial null
coordinates u = t - x and v = t + x (one map per null direction), plus an
optional explicit factor multiplying the base line element for synthetic
curved test metrics.  The induced conformal factor, metric components and
Ricci scalar are all evaluated through order-3 jets, so chart derivatives
are exact wherever the maps are exact.

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

from .jets import Jet1, Jet3, compose, constant, jexp, jlog, lead_value, seed

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

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi

    def __str__(self):
        return f"({self.lo}, {self.hi})"


FULL_LINE = Interval()


def _try_float(fn, x):
    try:
        return lead_value(fn(x))
    except OverflowError:
        return None


def _probe_limit(fn, interval: Interval, end: float, from_inside: float):
    """Limiting value of fn approaching ``end`` from inside the interval."""
    if math.isinf(end):
        xs = [math.copysign(10.0 ** k, end) for k in range(0, 16)]
        xs = [x for x in xs if interval.contains(x)]
    else:
        width = interval.hi - interval.lo
        scale = min(1.0, width / 4.0) if math.isfinite(width) else 1.0
        sign = 1.0 if from_inside > end else -1.0
        xs = [end + sign * scale * 10.0 ** (-k) for k in range(1, 13)]
    vals = [_try_float(fn, x) for x in xs]
    vals = [v for v in vals if v is not None and math.isfinite(v)]
    if not vals:
        return math.copysign(math.inf, from_inside)  # direction fixed later
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
        """fn with a domain check; array arguments are not checked (grid
        evaluation masks points outside the domain itself)."""
        v = lead_value(x)
        if v.__class__ is not np.ndarray and not self.domain.contains(v):
            raise CoverageError(
                f"{self.label}: argument {v} outside domain {self.domain}")
        return self.fn(x)

    def deriv(self, x: float) -> float:
        return lead_value(self.dfn(x))

    @property
    def range(self) -> Interval:
        """The declared range, or for a map built without one, the limits
        of fn probed toward the domain ends."""
        if self._range is None:
            mid = self._interior_point()
            a = _probe_limit(self.fn, self.domain, self.domain.lo, mid)
            b = _probe_limit(self.fn, self.domain, self.domain.hi, mid)
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
        when the map carries one, else by bisection polished by Newton."""
        rng = self.range
        if not rng.contains(target):
            raise NoRootError(
                f"{self.label}: target {target} outside range {rng}")
        if self.inverse_fn is not None:
            return lead_value(self.inverse_fn(target))
        a, b = self._bracket(target)
        fa = lead_value(self.fn(a)) - target
        fb = lead_value(self.fn(b)) - target
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if fa * fb > 0.0:
            raise NoRootError(
                f"{self.label}: no sign change on bracket [{a}, {b}]")
        if (fb - fa) * self.monotone_sign < 0.0:
            raise MonotonicityError(
                f"{self.label}: bracket values contradict monotone sign")
        # bisect to a narrow bracket, then polish with Newton
        while b - a > 1e-3 * max(1.0, abs(a), abs(b)):
            m = 0.5 * (a + b)
            fm = lead_value(self.fn(m)) - target
            if fm == 0.0:
                return m
            if fa * fm < 0.0:
                b, fb = m, fm
            else:
                a, fa = m, fm
        x = 0.5 * (a + b)
        tol = 1e-12 * max(1.0, abs(target))
        for _ in range(100):
            fx = lead_value(self.fn(x)) - target
            d = lead_value(self.dfn(x))
            step = fx / d if d != 0.0 else 0.0
            xn = x - step
            if abs(fx) <= tol:
                # one last step takes the root from the tolerance to
                # rounding; it is kept only inside the bracket
                return xn if a <= xn <= b else x
            if not (a <= xn <= b) or step == 0.0:
                # fall back to a bisection step, keeping the bracket valid
                if fa * fx < 0.0:
                    b, fb = x, fx
                else:
                    a, fa = x, fx
                xn = 0.5 * (a + b)
            x = xn
        raise NoRootError(f"{self.label}: inversion did not converge "
                          f"for target {target}")

    def _bracket(self, target: float):
        lo, hi = self.domain.lo, self.domain.hi
        x0 = self._interior_point()
        step = 1.0

        def clamp(x):
            if math.isfinite(lo):
                x = max(x, lo + min(1e-12, (x0 - lo) * 1e-9) + 0.0)
            if math.isfinite(hi):
                x = min(x, hi - min(1e-12, (hi - x0) * 1e-9))
            return x

        def val(x):
            v = _try_float(self.fn, x)
            if v is None:
                v = math.inf * self.monotone_sign * math.copysign(1.0, x - x0)
            return v

        a = b = x0
        fa = fb = val(x0) - target
        for _ in range(300):
            if fa == 0.0 or fb == 0.0 or fa * fb < 0.0:
                return (a, b) if a <= b else (b, a)
            moved = False
            na, nb = clamp(a - step), clamp(b + step)
            if na < a:
                a, fa, moved = na, val(na) - target, True
            if nb > b:
                b, fb, moved = nb, val(nb) - target, True
            step *= 2.0
            if not moved and fa * fb > 0.0:
                raise NoRootError(
                    f"{self.label}: could not bracket target {target}")
        raise NoRootError(f"{self.label}: bracketing failed for {target}")

    def inverse_map(self) -> "ChartMap":
        """The inverse as a first-class ChartMap, exact on jets, nested
        jets included.  A numeric inverse recurses to the float at the
        core of its argument and inverts that float once: the map keeps
        the last (target, root) pair, so repeated evaluations at one
        target, jet or float, share one root bit for bit.  An array is
        inverted element by element."""
        if self.inverse_fn is not None:
            inv_fn = self.inverse_fn
        else:
            # the (target, root) cell, shared by inv_fn and inv_dfn: the
            # components of one stress point evaluate a transition five
            # times at one float.  It is replaced by a single tuple
            # assignment, so a thread reads a consistent pair or misses.
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
                    target, root = cell[0]
                    if target == y:
                        return root
                    root = _self.invert(y)
                    cell[0] = (y, root)
                    return root
                if y.__class__ is np.ndarray:
                    return np.array([_self.invert(t)
                                     for t in y.ravel().tolist()],
                                    dtype=float).reshape(y.shape)
                return _self.invert(y)

        def inv_dfn(y, _self=self, _inv=inv_fn):
            return 1.0 / _self.dfn(_inv(y))

        return ChartMap(
            inv_fn, inv_dfn, domain=self.range,
            inverse_fn=self.fn, monotone_sign=self.monotone_sign,
            label=f"{self.label}^-1", range_hint=self.domain,
        )


def identity_map(label: str = "id") -> ChartMap:
    return ChartMap(
        fn=lambda x: x,
        dfn=lambda x: 0.0 * x + 1.0,
        inverse_fn=lambda y: y,
        monotone_sign=1,
        label=label,
        range_hint=FULL_LINE,
    )


def compose_maps(outer: ChartMap, inner: ChartMap,
                 label: Optional[str] = None) -> ChartMap:
    """outer(inner(x)) with exact derivatives, chained inverses and the
    exact range: outer's image of the part of inner's range it covers."""
    covered = inner.range.intersect(outer.domain)
    if covered.empty:
        raise CoverageError(
            f"composition {outer.label}({inner.label}) has empty domain")

    def fn(x):
        return outer.fn(inner.fn(x))

    def dfn(x):
        y = inner.fn(x)
        return outer.dfn(y) * inner.dfn(x)

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

    @property
    def u_range(self) -> Interval:
        return self.u_map.range

    @property
    def v_range(self) -> Interval:
        return self.v_map.range

    # -- conformal factor and curvature --

    def factor(self, cu, cv):
        """Conformal factor at chart coords; floats, arrays or jets in each
        slot.  The domain and positivity checks apply to scalar points;
        grid evaluation masks array points itself."""
        bu = self.u_map(cu)
        bv = self.v_map(cv)
        c = self.u_map.dfn(cu) * self.v_map.dfn(cv)
        if self.base_factor is not None:
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
        return lead_value(self.factor(c1, c2))

    def factor_jet_u(self, c1: float, c2) -> Jet3:
        """Factor as a jet in the first null direction."""
        return self.factor(seed(c1), c2)

    def factor_jet_v(self, c1, c2: float) -> Jet3:
        return self.factor(c1, seed(c2))

    def metric_uv(self, c1: float, c2: float) -> float:
        """Covariant null metric component g_{uv} = C/2."""
        return 0.5 * self.conformal_factor(c1, c2)

    def metric_uv_inverse(self, c1: float, c2: float) -> float:
        """Contravariant null component g^{uv} = 2/C."""
        return 2.0 / self.conformal_factor(c1, c2)

    def ricci_scalar(self, c1: float, c2: float) -> float:
        """R = -(4/C) d^2(ln C)/dc1 dc2, via one jet nested in the other."""
        ju = Jet3(seed(c1), 0.0, 0.0, 0.0)
        jv = Jet3(constant(c2), 1.0, 0.0, 0.0)
        c = self.factor(ju, jv)
        mixed = jlog(c).d1.d1
        return -4.0 * mixed / lead_value(c)

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
# the scenario a mirror-adapted chart was built for.  Holding entries
# weakly keeps one chart per scenario ever built from accumulating.
_REGISTRY = weakref.WeakValueDictionary()


def register_chart(chart: ConformalChart) -> ConformalChart:
    """Make ``chart`` resolvable by name for as long as it is in use."""
    _REGISTRY[chart.name] = chart
    return chart


def get_chart(name) -> ConformalChart:
    if isinstance(name, ConformalChart):
        return name
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
    """Express a point in another chart, passing through base coordinates."""
    to = get_chart(to)
    src = get_chart(p.chart)
    if src.name == to.name:
        return Point(p.c1, p.c2, to.name)
    u, v = src.to_base(p.c1, p.c2)
    c1, c2 = to.from_base(u, v)
    return Point(c1, c2, to.name)
