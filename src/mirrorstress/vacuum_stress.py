"""Renormalized stress-energy of chart vacua.

For the vacuum built on a conformally flat chart with factor C, the null
components are

    T_11 = (1/24 pi) F_1(C),   T_22 = (1/24 pi) F_2(C),
    T_12 = -(1/48 pi) R g_12 = (1/24 pi) d2(ln C)/dc1 dc2,

with F_x(f) = f''/f - (3/2)(f'/f)^2, all derivatives taken along one null
direction at a time.  Everything is evaluated through jets, and every
evaluator accepts jet-valued coordinates, which is how the conservation
residuals differentiate straight through the full pipeline (including
chart transforms and numeric inversions).

Half-line (Dirichlet) vacua describe a state prepared as some ambient
chart vacuum and then stirred by a perfectly reflecting mirror: right-
movers that have bounced off the mirror are governed by the mirror-adapted
chart, right-movers that never meet it keep the ambient value, and the
boundary ray between the sectors is excluded.

A point where a state has no stress value gets a status code (region,
sector ray, coverage, float range).  The point entry points raise the
matching documented error; :func:`expectation_stress_grid` evaluates a
whole grid in one pass of array-valued jets and returns the codes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .charts import (
    ChartMap,
    ConformalChart,
    CoverageError,
    Interval,
    Point,
    compose_maps,
    convert_point,
    get_chart,
    identity_map,
)
from .jets import Jet1, Jet3, JetDomainError, constant, jlog, lead_value, seed

__all__ = [
    "INV_24PI",
    "INV_48PI",
    "StateError",
    "StateRegionError",
    "SingularRayError",
    "MarginError",
    "VacuumSpec",
    "StressSample",
    "StressGrid",
    "OrthonormalStress",
    "STATUS_NAMES",
    "ConservationReport",
    "F_functional",
    "F_of_jet",
    "schwarzian_derivative",
    "F_composition",
    "theta_components",
    "transform_stress",
    "expectation_stress",
    "expectation_stress_grid",
    "to_orthonormal_frame",
    "orthonormal_grid",
    "check_conservation",
    "anomaly_check",
]

# single shared source for all physical constants
_PI = math.pi
INV_24PI = 1.0 / (24.0 * _PI)
INV_48PI = 1.0 / (48.0 * _PI)

_QUANTIZABLE = ("full_plane", "half_line")

# clearance a conservation region or a CLI grid keeps from singular rays
MARGIN = 1e-3

# per-point status codes, in the order the point checks apply
OK, REGION, SECTOR_RAY, COVERAGE, FLOAT_RANGE = range(5)
STATUS_NAMES = ("ok", "region", "sector_ray", "coverage", "float_range")


class StateError(ValueError):
    """The chart does not support the requested vacuum construction."""


class StateRegionError(ValueError):
    """The point is outside the region where the state is defined."""


class SingularRayError(ValueError):
    """Evaluation on a ray where the state's stress is singular."""


class MarginError(ValueError):
    """A grid region comes too close to a singular ray."""


@dataclass(frozen=True, eq=False)
class VacuumSpec:
    """A vacuum state tied to a chart.

    ``boundary`` is 'full_line' for an unbounded chart vacuum or
    'dirichlet_half_line' for a mirror state; the latter carries the
    ambient vacuum used for never-reflected right-movers and the
    predicate selecting the mirror's side, applied to base (u, v) as
    floats or as arrays.  ``reflected_u_range``, when given, narrows the
    base-u interval the mirror chart governs.

    ``sectors`` is the state's table of (governing chart, base-u
    ``Interval``) pairs, derived once from the fields above.  The first
    is the state's chart over its u coverage, narrowed to
    ``reflected_u_range`` if one is declared; for a full-line state it is
    the only one.  A mirror state then has the ambient chart over each
    non-empty piece of its u range outside that interval.  The intervals
    are open and disjoint, so the rays between them lie in none.
    """

    chart: ConformalChart
    boundary: str = "full_line"
    label: str = "vacuum"
    ambient_chart: Optional[ConformalChart] = None
    reflected_u_range: Optional[Interval] = None
    region_predicate: Optional[Callable[[float, float], bool]] = None

    def __post_init__(self):
        if self.boundary not in ("full_line", "dirichlet_half_line"):
            raise StateError(f"unknown boundary kind {self.boundary!r}")
        if self.chart.global_class not in _QUANTIZABLE:
            raise StateError(
                f"chart '{self.chart.name}' (class {self.chart.global_class}) "
                f"does not admit the standard vacuum construction")
        if self.boundary == "dirichlet_half_line" \
                and self.chart.global_class != "half_line":
            raise StateError(
                "half-line vacua require a mirror-adapted (half_line) chart")

    @functools.cached_property
    def sectors(self) -> list:
        own = self.chart.u_map.range
        if self.reflected_u_range is not None:
            own = own.intersect(self.reflected_u_range)
        table, amb = [(self.chart, own)], self.ambient_chart
        if amb is not None:
            rng = amb.u_map.range
            table += [(amb, Interval(rng.lo, min(rng.hi, own.lo))),
                      (amb, Interval(max(rng.lo, own.hi), rng.hi))]
        return [(gov, rng) for gov, rng in table if not rng.empty]


@dataclass(frozen=True, slots=True)
class StressSample:
    """Null stress components at a point, in a chart, for a state."""

    t_uu: float
    t_vv: float
    t_uv: float
    chart: str
    state: str
    point: Point


@dataclass(frozen=True, eq=False)
class StressGrid:
    """Null stress components on the grid ``c1`` x ``c2`` of a chart.

    Components and ``status`` have shape (len(c1), len(c2)), row-major in
    c1; ``status`` holds one code of :data:`STATUS_NAMES` per point, and
    the components are NaN wherever it is not ok.
    """

    t_uu: np.ndarray
    t_vv: np.ndarray
    t_uv: np.ndarray
    status: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    chart: ConformalChart
    state: str


@dataclass(frozen=True, slots=True)
class OrthonormalStress:
    energy_density: float
    pressure: float
    flux: float


@dataclass(frozen=True, slots=True)
class ConservationReport:
    max_residual: float
    max_residual_u_equation: float
    max_residual_v_equation: float
    n: int
    region: tuple


# ---------- the F functional ----------

def F_of_jet(j: Jet3):
    """F of the function whose jet this is: f''/f - (3/2)(f'/f)^2."""
    lead = lead_value(j.value)
    if lead.__class__ is not np.ndarray and lead == 0.0:
        raise SingularRayError("F functional: zero denominator")
    r1 = j.d1 / j.value
    return j.d2 / j.value - 1.5 * (r1 * r1)


def F_functional(f, x: float) -> float:
    """F_x(f) for a jet-evaluable function f."""
    j = f(seed(x))
    if lead_value(j.value) == 0.0:
        raise SingularRayError(f"F functional: f({x}) = 0")
    return lead_value(F_of_jet(j))


def schwarzian_derivative(m, x: float) -> float:
    """F applied to the derivative of m: m'''/m' - (3/2)(m''/m')^2.

    Vanishes identically for Moebius maps.
    """
    j = m(seed(x))
    if lead_value(j.d1) == 0.0:
        raise SingularRayError(f"schwarzian: m'({x}) = 0")
    return _schwarzian_of_jet(j)


def _schwarzian_of_jet(j: Jet3) -> float:
    r = j.d2 / j.d1
    return lead_value(j.d3 / j.d1 - 1.5 * (r * r))


def F_composition(p_map: ChartMap, base_F: float, x_bar: float) -> float:
    """F in the relabeled chart from F in the original one:
    (1/p'(x)^2) [base_F - F_x(p')], the subtracted term being the
    Schwarzian derivative of p."""
    j = p_map(seed(x_bar))
    pprime = lead_value(j.d1)
    if pprime == 0.0:
        raise SingularRayError(f"F composition: p'({x_bar}) = 0")
    return (base_F - _schwarzian_of_jet(j)) / (pprime * pprime)


# ---------- stress of a chart vacuum, jet-generic ----------

def _theta_F(chart: ConformalChart, cu, cv, direction: str):
    """F of the conformal factor along one null direction; the other
    coordinate (and any jet structure both carry) rides along as
    coefficients."""
    if direction == "u":
        a1, a2 = seed(cu), constant(cv)
    else:
        a1, a2 = constant(cu), seed(cv)
    return F_of_jet(chart.factor(a1, a2))


def _mixed_log_derivative(chart: ConformalChart, cu, cv):
    """d2(ln C)/dc1 dc2 with two nested first-order seeds."""
    a1 = Jet1(Jet1(cu, 1.0), 0.0)
    a2 = Jet1(Jet1(cv, 0.0), 1.0)
    return jlog(chart.factor(a1, a2)).d1.d1


@functools.lru_cache(maxsize=64)
def _transition_map(state_chart: ConformalChart, observe: ConformalChart,
                    side: str) -> ChartMap:
    """State-chart null coordinate as a function of the observe one."""
    s_map = state_chart.u_map if side == "u" else state_chart.v_map
    o_map = observe.u_map if side == "u" else observe.v_map
    if state_chart.name == observe.name:
        return identity_map(f"{side}-id")
    return compose_maps(s_map.inverse_map(), o_map,
                        label=f"{state_chart.name}.{side}({observe.name})")


def _gov_components(gov: ConformalChart, observe: ConformalChart):
    """(t11, t22, t12) of the ``gov``-chart vacuum, expressed in observe
    coordinates, as one jet-generic function of (c1, c2) returning all
    three.  It evaluates the transitions into ``gov`` coordinates and
    their Jacobians once for the three components."""
    m_u = _transition_map(gov, observe, "u")
    m_v = _transition_map(gov, observe, "v")

    def evaluate(c1, c2):
        xi, eta, ju, jv = m_u(c1), m_v(c2), m_u.dfn(c1), m_v.dfn(c2)
        return (INV_24PI * ((ju * ju) * _theta_F(gov, xi, eta, "u")),
                INV_24PI * ((jv * jv) * _theta_F(gov, xi, eta, "v")),
                INV_24PI * ((ju * jv) * _mixed_log_derivative(gov, xi, eta)))

    return evaluate


# ---------- mirror sectors ----------

def _sectors(state: VacuumSpec, u):
    """(governing chart, selector) pairs for base u, one per entry of
    ``state.sectors``.

    A selector is a bool for a float u, or a bool array for an array u,
    and is true exactly where its sector holds u.  Every component, T_22
    too, comes from the u-sector's chart: left-movers keep their labels,
    so both charts of a mirror state give the same T_22, and this keeps
    every evaluation inside chart coverage.
    """
    return [(gov, rng.contains(u)) for gov, rng in state.sectors]


# ---------- per-point status ----------

def _finite(x):
    return abs(x) < math.inf  # False for inf and NaN alike


def _transitions_ok(gov: ConformalChart, observe: ConformalChart,
                    c1, c2, u, v):
    """Points inside the domains of the maps from observe to ``gov``
    coordinates and of ``gov``'s factor."""
    ok = (_transition_map(gov, observe, "u").domain.contains(c1)
          & _transition_map(gov, observe, "v").domain.contains(c2))
    if gov.base_domain is not None:
        ok = ok & gov.base_domain(u, v)
    return ok


def _point_checks(state: VacuumSpec, observe: ConformalChart, c1, c2):
    """Yield (status, ok) in the order the point checks apply.

    ``ok`` is a bool for float coordinates, or a bool array broadcasting
    over the grid for array ones, and is False where a point fails with
    ``status``.  A scalar caller stops at the first failure, so each
    check may assume the earlier ones passed.
    """
    yield COVERAGE, (observe.u_map.domain.contains(c1)
                     & observe.v_map.domain.contains(c2))
    u, v = observe.u_map.fn(c1), observe.v_map.fn(c2)
    yield FLOAT_RANGE, _finite(u) & _finite(v)
    if state.region_predicate is not None:
        yield REGION, state.region_predicate(u, v)
    yield COVERAGE, state.chart.v_map.range.contains(v)
    # the sectors are open: the ray between two of them lies in neither
    ends = {rng.hi for _, rng in state.sectors}
    for _, rng in state.sectors:
        if rng.lo in ends:
            yield SECTOR_RAY, u != rng.lo
    ok = False
    for gov, sel in _sectors(state, u):
        ok = ok | (sel & _transitions_ok(gov, observe, c1, c2, u, v))
    yield COVERAGE, ok


def _point_status(state: VacuumSpec, observe: ConformalChart,
                  c1: float, c2: float) -> int:
    """Status of the first check a float point fails, FLOAT_RANGE where a
    check overflows, else OK."""
    try:
        for status, ok in _point_checks(state, observe, c1, c2):
            if not ok:
                return status
    except (ArithmeticError, JetDomainError):
        return FLOAT_RANGE
    return OK


def _grid_status(state: VacuumSpec, observe: ConformalChart, c1, c2):
    """Status code of every point of the grid c1 x c2 (1-d arrays), shape
    (len(c1), len(c2)).  Call it under ``np.errstate(all="ignore")``: a
    check that overflows yields inf or NaN, which fails it."""
    status = np.zeros((len(c1), len(c2)), dtype=np.int8)
    for code, ok in _point_checks(state, observe, c1[:, None], c2[None, :]):
        status[(status == OK) & np.logical_not(ok)] = code
    return status


def _point_error(status: int, state: str, observe: ConformalChart,
                 q: Point) -> Exception:
    """The documented error for a point of ``state`` that is not ok."""
    where = f"point ({q.c1}, {q.c2}) of chart '{observe.name}'"
    if status == REGION:
        return StateRegionError(
            f"{where} lies on the wrong side of the mirror for state "
            f"'{state}'")
    if status == SECTOR_RAY:
        return SingularRayError(
            f"{where} lies on the sector boundary ray, which is excluded "
            f"(half-open sectors)")
    if status == COVERAGE:
        return CoverageError(
            f"{where} lies outside the coverage of state '{state}'")
    return CoverageError(
        f"{where}: the stress of state '{state}' is outside the "
        f"double-precision range there")


# ---------- public operations ----------

def _own_point(state: VacuumSpec, p: Point):
    """(state chart, p in it); CoverageError at a non-finite coordinate."""
    chart = state.chart
    q = p if p.chart == chart.name else convert_point(p, chart)
    if not (_finite(q.c1) and _finite(q.c2)):
        raise _point_error(COVERAGE, state.label, chart, q)
    return chart, q


def theta_components(state: VacuumSpec, p: Point) -> StressSample:
    """Null stress of the state's own chart vacuum at a point of that
    chart (no sector logic, no transform)."""
    chart, q = _own_point(state, p)
    t11, t22, t12 = _gov_components(chart, chart)(q.c1, q.c2)
    return StressSample(t11, t22, t12, chart.name, state.label, q)


def transform_stress(s: StressSample, to_chart) -> StressSample:
    """Rank-2 tensor transformation of the null components."""
    target = get_chart(to_chart)
    if target.name == s.chart:
        return s
    src = get_chart(s.chart)
    q = convert_point(s.point, target)
    du_s = src.u_map.deriv(s.point.c1)
    dv_s = src.v_map.deriv(s.point.c2)
    du_t = target.u_map.deriv(q.c1)
    dv_t = target.v_map.deriv(q.c2)
    ru, rv = du_t / du_s, dv_t / dv_s
    return StressSample(s.t_uu * ru * ru, s.t_vv * rv * rv,
                        s.t_uv * ru * rv, target.name, s.state, q)


def expectation_stress(state: VacuumSpec, observe_chart, p: Point
                       ) -> StressSample:
    """Renormalized stress of the state, expressed in the observation
    chart, with mirror-sector stitching where applicable."""
    observe = get_chart(observe_chart)
    q = p if p.chart == observe.name else convert_point(p, observe)
    status = _point_status(state, observe, q.c1, q.c2)
    if status == OK:
        # the point checks found exactly one sector's selector true
        gov = next(gov for gov, sel in
                   _sectors(state, observe.u_map.fn(q.c1)) if sel)
        try:
            t11, t22, t12 = (lead_value(t) for t in
                             _gov_components(gov, observe)(q.c1, q.c2))
        except (ArithmeticError, JetDomainError):
            status = FLOAT_RANGE
        else:
            if not (_finite(t11) and _finite(t22) and _finite(t12)):
                status = FLOAT_RANGE
    if status != OK:
        raise _point_error(status, state.label, observe, q)
    return StressSample(t11, t22, t12, observe.name, state.label, q)


def expectation_stress_grid(state: VacuumSpec, observe_chart, c1, c2
                            ) -> StressGrid:
    """:func:`expectation_stress` on every point of the grid c1 x c2.

    ``c1`` and ``c2`` are 1-d arrays of observe-chart coordinates.  The
    grid goes through the jets as one column of c1 values against one
    row of c2 values, so work on a single coordinate is done once per
    grid line, once per mirror sector (a sector is a set of c1 rows).
    Points that :func:`expectation_stress` rejects get their status code
    instead of an error.  The transition maps between observe and state
    charts must have closed-form inverses.
    """
    observe = get_chart(observe_chart)
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    col, row = c1[:, None], c2[None, :]
    with np.errstate(all="ignore"):
        # the governing chart of a point depends on its c1 alone
        sectors = _sectors(state, observe.u_map.fn(c1))
        for gov, _ in sectors:
            if gov.name != observe.name and (
                    gov.u_map.inverse_fn is None
                    or gov.v_map.inverse_fn is None):
                raise StateError(
                    f"grid evaluation needs closed-form inverse maps; "
                    f"chart '{gov.name}' inverts numerically")
        status = _grid_status(state, observe, c1, c2)
        values = np.full((3, len(c1), len(c2)), np.nan)
        for gov, rows in sectors:
            if rows.any():
                comps = _gov_components(gov, observe)(col[rows], row)
                for k, t in enumerate(comps):
                    values[k, rows] = t
        status[(status == OK) & ~_finite(values).all(axis=0)] = FLOAT_RANGE
        values[:, status != OK] = np.nan
    return StressGrid(values[0], values[1], values[2], status, c1, c2,
                      observe, state.label)


def _orthonormal(t_uu, t_vv, t_uv, c):
    """(energy density, pressure, flux) from null components and C."""
    return ((t_uu + 2.0 * t_uv + t_vv) / c,
            -(t_uu - 2.0 * t_uv + t_vv) / c,
            (t_vv - t_uu) / c)


def to_orthonormal_frame(s: StressSample) -> OrthonormalStress:
    """Mixed components in the frame aligned with the sample's chart:
    energy density T^t_t, pressure T^x_x, flux T^t_x.  Raises
    CoverageError where they leave the double-precision range."""
    chart = get_chart(s.chart)
    c = chart.conformal_factor(s.point.c1, s.point.c2)
    o = _orthonormal(s.t_uu, s.t_vv, s.t_uv, c)
    if not (_finite(o[0]) and _finite(o[1]) and _finite(o[2])):
        raise _point_error(FLOAT_RANGE, s.state, chart, s.point)
    return OrthonormalStress(*o)


def orthonormal_grid(g: StressGrid):
    """:func:`to_orthonormal_frame` on a stress grid: (status, an
    OrthonormalStress of arrays).  Points where the frame components do
    not exist get a status code and NaN components."""
    chart = g.chart
    col, row = g.c1[:, None], g.c2[None, :]
    with np.errstate(all="ignore"):
        c = lead_value(chart.factor(col, row))
        o = np.array(np.broadcast_arrays(
            *_orthonormal(g.t_uu, g.t_vv, g.t_uv, c)))
        status = g.status.copy()
        if chart.base_domain is not None:
            in_domain = chart.base_domain(chart.u_map.fn(col),
                                          chart.v_map.fn(row))
            status[(status == OK) & np.logical_not(in_domain)] = COVERAGE
        ok = (c > 0.0) & _finite(o).all(axis=0)
        status[(status == OK) & ~ok] = FLOAT_RANGE
        o[:, status != OK] = np.nan
    return status, OrthonormalStress(o[0], o[1], o[2])


def anomaly_check(state: VacuumSpec, p: Point) -> float:
    """|(4/C) T_12 + R/(24 pi)| at a point of the state's chart."""
    chart, q = _own_point(state, p)
    t12 = INV_24PI * _mixed_log_derivative(chart, q.c1, q.c2)
    c = chart.conformal_factor(q.c1, q.c2)
    r = chart.ricci_scalar(q.c1, q.c2)
    return abs(4.0 / c * t12 + r / (24.0 * _PI))


# ---------- conservation ----------

def _singular_rays(state: VacuumSpec, observe: ConformalChart):
    """Observe-chart coordinate values of rays where the state's stress
    (or the chart itself) is singular: the finite ends of the state's
    sectors in u, of its chart's coverage in v, and of the observe
    chart's domains."""
    def rays(o_map, base_ends):
        return ([o_map.invert(e) for e in base_ends
                 if math.isfinite(e) and o_map.range.contains(e)]
                + [e for e in (o_map.domain.lo, o_map.domain.hi)
                   if math.isfinite(e)])

    v_range = state.chart.v_map.range
    return (rays(observe.u_map, [e for _, rng in state.sectors
                                 for e in (rng.lo, rng.hi)]),
            rays(observe.v_map, (v_range.lo, v_range.hi)))


def check_conservation(state: VacuumSpec, observe_chart, region,
                       n: int) -> ConservationReport:
    """Max residual of the null conservation equations on an n-by-n grid.

    Residuals are |d1 T_22 + d2 T_12 + (d2 C / C) T_12| and the mirror
    image with 1 <-> 2, every derivative taken by nesting jets through the
    full evaluation pipeline.  ``region`` is (c1_lo, c1_hi, c2_lo, c2_hi)
    and n >= 1 (n = 1 takes the centre point).  Errors, in the order they
    are checked:

    - ValueError unless n >= 1 and each axis has finite lo < hi;
    - MarginError for a region within ``MARGIN`` of a singular ray;
    - for a grid point where the state has no stress value, the error
      :func:`expectation_stress` raises there (StateRegionError,
      SingularRayError or CoverageError), for the first such point in
      row-major order.
    """
    observe = get_chart(observe_chart)
    c1_lo, c1_hi, c2_lo, c2_hi = region
    if not (n >= 1 and -math.inf < c1_lo < c1_hi < math.inf
            and -math.inf < c2_lo < c2_hi < math.inf):
        raise ValueError(
            f"conservation needs n >= 1 and finite lo < hi on each axis of "
            f"the region, got n={n}, region={region}")
    for axis, rays, lo, hi in zip(("c1", "c2"),
                                  _singular_rays(state, observe),
                                  (c1_lo, c2_lo), (c1_hi, c2_hi)):
        for ray in rays:
            if lo - MARGIN < ray < hi + MARGIN:
                raise MarginError(f"region touches singular ray "
                                  f"{axis}={ray} (margin {MARGIN})")

    def axis(lo, hi):
        return [lo + (hi - lo) * (i / (n - 1) if n > 1 else 0.5)
                for i in range(n)]

    xs, ys = axis(c1_lo, c1_hi), axis(c2_lo, c2_hi)
    with np.errstate(all="ignore"):
        status = _grid_status(state, observe, np.array(xs), np.array(ys))
        # the governing chart of a point depends on its c1 alone
        sectors = _sectors(state, observe.u_map.fn(np.array(xs)))
    bad = np.flatnonzero(status)
    if bad.size:
        i, j = divmod(int(bad[0]), n)
        raise _point_error(int(status[i, j]), state.label, observe,
                           Point(xs[i], ys[j], observe.name))
    max_u = max_v = 0.0
    for gov, rows in sectors:
        components = _gov_components(gov, observe)
        for i in np.flatnonzero(rows).tolist():
            a1 = Jet1(Jet1(xs[i], 1.0), 0.0)   # inner jet in c1
            for y in ys:
                a2 = Jet1(Jet1(y, 0.0), 1.0)   # outer jet in c2
                t11, t22, t12 = components(a1, a2)
                c = observe.factor(a1, a2)
                c00 = c.value.value
                t12_00 = t12.value.value
                res_v = abs(t22.value.d1 + t12.d1.value
                            + c.d1.value / c00 * t12_00)
                res_u = abs(t11.d1.value + t12.value.d1
                            + c.value.d1 / c00 * t12_00)
                max_v = max(max_v, res_v)
                max_u = max(max_u, res_u)
    return ConservationReport(max(max_u, max_v), max_u, max_v, n, tuple(region))
