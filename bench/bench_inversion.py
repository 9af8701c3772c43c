"""Per-layer timings of numerically inverted charts, on pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_inversion.py \
        [--benchmark-json FILE]

The subject is the a = 1 mirror state on a chart derived from the wedge
chart by a forward-only relabeling (no derivative, no inverse given), so
that every transition into it inverts numerically and differentiates
through ``ChartMap._auto_dfn``.  The layers, from the bottom: one numeric
``invert``, ``_auto_dfn`` on a float, an order-3 seed and a nested
first-order seed, ``expectation_stress`` on a sequence of distinct points,
a 40 x 40 ``expectation_stress_grid`` on a sequence of distinct windows
(one inversion per c1 entry), and one 10 x 10 ``check_conservation``
(whose rows of ten points share a c1 value); then ``ConformalChart.factor`` of the derived chart on nested
first-order seeds, and a 10 x 10 ``check_conservation`` of each built-in
scenario on its invariant-suite region.  Two point cases invert nothing
numerically: ``expectation_stress`` of the built-in a = 1 mirror state on
the wedge chart, and ``theta_components`` of the Rindler vacuum.  Compare
commits by running this file against each commit's source.
"""

import itertools
import math

import numpy as np
import pytest

from mirrorstress.charts import (
    ChartMap,
    Interval,
    Point,
    compose_charts,
    get_chart,
    identity_map,
)
from mirrorstress.jets import Jet1, jexp, jlog, seed
from mirrorstress.scenarios import build_scenario
from mirrorstress.vacuum_stress import (
    VacuumSpec,
    check_conservation,
    expectation_stress,
    expectation_stress_grid,
    theta_components,
)

RIND = get_chart("rindler")
LOG_HALF = math.log(0.5)
# the conservation region of the CLI's invariant suite for this state
REGION = (LOG_HALF + 0.05, LOG_HALF + 4.0, 1.0, 3.0)
# the suite's (observe chart, region) of each built-in scenario at a = 1
SCENARIO_REGIONS = {
    "rindler_vacuum": ("rindler", (-2.0, 2.0, -2.0, 2.0)),
    "mirror_in_rindler_vacuum": ("rindler", REGION),
    "accelerated_mirror_minkowski": ("minkowski", (-4.0, -0.5, 2.5, 5.0)),
    "minkowski_vacuum_rindler_observer": ("rindler", (-2.0, 2.0, -2.0, 2.0)),
}


def derived_relabel():
    return ChartMap(fn=lambda x: -jlog(2.0 - jexp(x)),
                    domain=Interval(-math.inf, math.log(2.0)),
                    label="derived-u")


def derived_state():
    chart = compose_charts(RIND, derived_relabel(), identity_map(),
                           "derived:mirror_in_rindler_vacuum:a=1",
                           global_class="half_line")
    return VacuumSpec(chart, "dirichlet_half_line",
                      label="mirror_in_rindler_vacuum", ambient_chart=RIND,
                      region_predicate=lambda u, v: v - u > 2.0)


def test_invert_numeric(benchmark):
    u_map = derived_state().chart.u_map
    benchmark(u_map.invert, -0.8)


@pytest.mark.parametrize("kind", ["float", "jet3", "nested_jet1"])
def test_auto_dfn(benchmark, kind):
    x = 0.2
    arg = {"float": x, "jet3": seed(x),
           "nested_jet1": Jet1(Jet1(x, 1.0), 0.0)}[kind]
    benchmark(derived_relabel()._auto_dfn, arg)


def test_expectation_stress(benchmark):
    # consecutive points differ in c1, so every call inverts its own
    # target, as the random points of a workload do
    state = derived_state()
    points = _distinct_points()
    expectation_stress(state, RIND, next(points))
    benchmark(lambda: expectation_stress(state, RIND, next(points)))


def _distinct_points():
    """Points of the mirror state's sampling box, each with its own c1."""
    return itertools.cycle(
        Point(LOG_HALF + 0.05 + 0.04 * k, 1.0 + 0.02 * k, "rindler")
        for k in range(97))


def test_expectation_stress_grid(benchmark):
    # consecutive windows differ in every c1 entry, so every call inverts
    # its own column, as a point inverts its own target
    state = derived_state()
    lo1, hi1, lo2, hi2 = REGION
    windows = itertools.cycle(
        (np.linspace(lo1 + 0.001 * k, hi1, 40), np.linspace(lo2, hi2, 40))
        for k in range(97))
    expectation_stress_grid(state, RIND, *next(windows))
    benchmark(lambda: expectation_stress_grid(state, RIND, *next(windows)))


def test_expectation_stress_closed_form(benchmark):
    # the built-in mirror state: every transition inverts in closed form
    state = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0}).state
    points = _distinct_points()
    expectation_stress(state, RIND, next(points))
    benchmark(lambda: expectation_stress(state, RIND, next(points)))


def test_theta_components(benchmark):
    state = build_scenario("rindler_vacuum").state
    points = _distinct_points()
    theta_components(state, next(points))
    benchmark(lambda: theta_components(state, next(points)))


def test_check_conservation(benchmark):
    state = derived_state()
    check_conservation(state, RIND, REGION, 1)
    benchmark.pedantic(check_conservation, args=(state, RIND, REGION, 10),
                       rounds=10, warmup_rounds=1)


def test_factor_nested_jet1(benchmark):
    chart = derived_state().chart
    a1, a2 = Jet1(Jet1(0.2, 1.0), 0.0), Jet1(Jet1(1.5, 0.0), 1.0)
    benchmark(chart.factor, a1, a2)


@pytest.mark.parametrize("name", sorted(SCENARIO_REGIONS))
def test_check_conservation_scenario(benchmark, name):
    chart_name, region = SCENARIO_REGIONS[name]
    state = build_scenario(name, {"a": 1.0}).state
    chart = get_chart(chart_name)
    check_conservation(state, chart, region, 1)
    benchmark.pedantic(check_conservation, args=(state, chart, region, 10),
                       rounds=10, warmup_rounds=1)
