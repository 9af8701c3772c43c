"""Per-layer timings of numerically inverted charts, on pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_inversion.py \
        [--benchmark-json FILE]

The subject is the a = 1 mirror state on a chart derived from the wedge
chart by a forward-only relabeling (no derivative, no inverse given), so
that every transition into it inverts numerically and differentiates
through ``ChartMap._auto_dfn``.  The layers, from the bottom: one numeric
``invert``, ``_auto_dfn`` on a float, an order-3 seed and a nested
first-order seed, ``expectation_stress`` on a sequence of distinct points,
and one 10 x 10 ``check_conservation`` (whose rows of ten points share a
c1 value).  Compare commits by running this file against each commit's
source.
"""

import itertools
import math

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
from mirrorstress.vacuum_stress import (
    VacuumSpec,
    check_conservation,
    expectation_stress,
)

RIND = get_chart("rindler")
LOG_HALF = math.log(0.5)
# the conservation region of the CLI's invariant suite for this state
REGION = (LOG_HALF + 0.05, LOG_HALF + 4.0, 1.0, 3.0)


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
                      reflected_u_range=Interval(-2.0, math.inf),
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
    points = itertools.cycle(
        Point(LOG_HALF + 0.05 + 0.04 * k, 1.0 + 0.02 * k, "rindler")
        for k in range(97))
    expectation_stress(state, RIND, next(points))
    benchmark(lambda: expectation_stress(state, RIND, next(points)))


def test_check_conservation(benchmark):
    state = derived_state()
    check_conservation(state, RIND, REGION, 1)
    benchmark.pedantic(check_conservation, args=(state, RIND, REGION, 10),
                       rounds=10, warmup_rounds=1)
