"""Named, reproducible physical setups with closed-form references.

Each scenario is a vacuum state and the closed forms of its stress,
built from the scenario's name and its single physical parameter a > 0.
A mirror state's region is read off the mirror's trajectory: it is the
mirror's side v > p(u) of the reflection map p = V o U^-1, for u in p's
domain.  Its mirror-adapted chart relabels right-movers only, so it takes
the ambient chart's own v map.  The closed forms registered here are
regression oracles for the engine, never part of the evaluation pipeline
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .charts import (
    RANGE_ERRORS,
    ChartMap,
    ConformalChart,
    Interval,
    Point,
    get_chart,
    register_chart,
)
from .jets import jexp, jlog
from .trajectories import (
    Trajectory,
    hyperbola_constant,
    reflection_map,
    stationary_mirror,
    uniformly_accelerated_mirror,
)
from .vacuum_stress import INV_48PI, StressSample, VacuumSpec

__all__ = [
    "OracleUnavailableError",
    "Scenario",
    "SCENARIO_NAMES",
    "scenario_parameter_schema",
    "build_scenario",
    "closed_form_reference",
    "hatted_chart_for_stationary_mirror",
    "hatted_chart_for_accelerated_mirror",
]


class OracleUnavailableError(LookupError):
    """No closed form is registered for this scenario and chart."""


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    state: VacuumSpec
    forms: dict = field(repr=False)


# ---------- mirror-adapted charts ----------

def hatted_chart_for_stationary_mirror(a: float) -> ConformalChart:
    """Chart in which the mirror at z = 1/a sits at constant position.

    Base coordinates: u = exp(u*) - 2/a, v = exp(v*), the wedge chart's v
    map; the mirror worldline is u* = v*.  Restricted to the wedge this
    chart is the reflection-map relabeling of the wedge chart; as
    registered here it extends over the full strip u > -2/a, v > 0.
    """
    shift = 2.0 / a
    u_map = ChartMap(
        fn=lambda x: jexp(x) - shift,
        dfn=jexp,
        inverse_fn=lambda y: jlog(y + shift),
        monotone_sign=1,
        label=f"hatted-u[a={a!r}]",
        range_hint=Interval(-shift, math.inf),
    )
    return ConformalChart(f"hatted:mirror_in_rindler_vacuum:a={a!r}",
                          u_map, get_chart("rindler").v_map,
                          global_class="half_line")


def hatted_chart_for_accelerated_mirror(a: float) -> ConformalChart:
    """Chart adapted to the hyperbolic mirror in flat base coordinates:
    u = -1/(a^2 u*), v = v*, the inertial chart's v map; the reflection
    relabeling is a Moebius map."""
    c = hyperbola_constant(a)
    u_map = ChartMap(
        fn=lambda x: -c / x,
        dfn=lambda x: c / (x * x),
        domain=Interval(0.0, math.inf),
        inverse_fn=lambda y: -c / y,
        monotone_sign=1,
        label=f"hatted-hyperbola-u[a={a!r}]",
        range_hint=Interval(-math.inf, 0.0),
    )
    return ConformalChart(f"hatted:accelerated_mirror_minkowski:a={a!r}",
                          u_map, get_chart("minkowski").v_map,
                          global_class="half_line")


# ---------- scenario builders ----------

def _mirror_region(trajectory: Trajectory):
    """The mirror's side of the reflection map p = V o U^-1, as a region
    predicate on base (u, v), floats or arrays: u in p's domain and
    v > p(u).  p is evaluated only on its domain; where it overflows,
    v > p(u) is false."""
    p = reflection_map(trajectory).p
    inside = p.domain.contains

    def region(u, v):
        if u.__class__ is np.ndarray:
            ok = inside(u)
            return ok & (v > p.fn(np.where(ok, u, np.nan)))
        try:
            return inside(u) and v > p.fn(u)
        except RANGE_ERRORS:
            return False

    return region


def _mirror_state(label: str, hatted: ConformalChart, trajectory: Trajectory,
                  ambient_chart: Optional[ConformalChart] = None):
    """The Dirichlet state of a mirror on its hatted chart, registered
    while the state holds it, on the mirror's side of the trajectory."""
    return VacuumSpec(register_chart(hatted), "dirichlet_half_line",
                      label=label, ambient_chart=ambient_chart,
                      region_predicate=_mirror_region(trajectory))


def _zero(c1, c2):
    return 0.0, 0.0, 0.0


def _rindler_vacuum(a: float):
    return VacuumSpec(get_chart("rindler"), label="rindler_vacuum"), {
        "rindler": lambda c1, c2: (-INV_48PI, -INV_48PI, 0.0),
        "minkowski": lambda u, v: (-INV_48PI / (u * u),
                                   -INV_48PI / (v * v), 0.0),
    }


def _minkowski_vacuum(a: float):
    return (VacuumSpec(get_chart("minkowski"), label="minkowski_vacuum"),
            {"rindler": _zero, "minkowski": _zero})


def _mirror_in_rindler_vacuum(a: float):
    state = _mirror_state("mirror_in_rindler_vacuum",
                          hatted_chart_for_stationary_mirror(a),
                          stationary_mirror(1.0 / a), get_chart("rindler"))
    shift = 2.0 / a
    log_edge = math.log(a / 2.0)

    def t11_rindler(c1, c2):
        if c1 > log_edge:
            w = a * math.exp(-c1)
            return -INV_48PI * w * w / (2.0 - w) ** 2
        return -INV_48PI

    def t11_minkowski(u, v):
        if u > -shift:
            return -INV_48PI * a * a / (2.0 + a * u) ** 2
        return -INV_48PI / (u * u)

    return state, {
        "rindler": lambda c1, c2: (t11_rindler(c1, c2), -INV_48PI, 0.0),
        "minkowski": lambda u, v: (t11_minkowski(u, v),
                                   -INV_48PI / (v * v), 0.0),
    }


def _accelerated_mirror_minkowski(a: float):
    return _mirror_state("accelerated_mirror_minkowski",
                         hatted_chart_for_accelerated_mirror(a),
                         uniformly_accelerated_mirror(a)), {"minkowski": _zero}


# every scenario once, in listing order: the builder of its state and
# closed forms from the validated a, and its documented parameters
_SCENARIOS = {
    "rindler_vacuum": (_rindler_vacuum, {}),
    "mirror_in_rindler_vacuum": (_mirror_in_rindler_vacuum, {
        "a": "positive acceleration scale (mirror at z = 1/a); default 1"}),
    "accelerated_mirror_minkowski": (_accelerated_mirror_minkowski, {
        "a": "positive proper acceleration of the mirror; default 1"}),
    "minkowski_vacuum_rindler_observer": (_minkowski_vacuum, {}),
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def scenario_parameter_schema() -> dict:
    """Parameter schema per scenario, for the CLI listing."""
    return {name: dict(doc) for name, (_, doc) in _SCENARIOS.items()}


def build_scenario(name: str, params: Optional[dict] = None) -> Scenario:
    """The named scenario; ValueError for an unknown name, an unknown
    parameter, or an a that is not positive and finite."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; available: "
                         f"{', '.join(SCENARIO_NAMES)}")
    params = dict(params or {})
    a = params.pop("a", 1.0)
    if params:
        raise ValueError(f"unknown scenario parameters: {sorted(params)}")
    a = float(a)
    if not 0.0 < a < math.inf:
        raise ValueError(f"parameter a must be positive and finite, "
                         f"got {a}")
    state, forms = _SCENARIOS[name][0](a)
    return Scenario(name, state, forms)


def closed_form_reference(s: Scenario, p: Point) -> StressSample:
    """The registered analytic value at a point, as a regression oracle."""
    form = s.forms.get(p.chart)
    if form is None:
        raise OracleUnavailableError(
            f"scenario '{s.name}' has no closed form in chart '{p.chart}'")
    t11, t22, t12 = form(p.c1, p.c2)
    return StressSample(t11, t22, t12, get_chart(p.chart), s.state.label, p)
