"""Named scenarios against their registered closed forms."""

import gc
import math

import pytest

from mirrorstress.charts import (
    Point,
    convert_point,
    get_chart,
    registered_charts,
)
from mirrorstress.scenarios import (
    SCENARIO_NAMES,
    OracleUnavailableError,
    build_scenario,
    closed_form_reference,
    scenario_parameter_schema,
)
from mirrorstress.vacuum_stress import (
    INV_24PI,
    INV_48PI,
    expectation_stress,
    theta_components,
    to_orthonormal_frame,
)

RIND = get_chart("rindler")
MINK = get_chart("minkowski")


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def grid(lo1, hi1, lo2, hi2, n=50):
    for i in range(n):
        c1 = lo1 + (hi1 - lo1) * i / (n - 1)
        for j in range(n):
            c2 = lo2 + (hi2 - lo2) * j / (n - 1)
            yield c1, c2


def assert_engine_matches_oracle(sc, chart, region, n=50, tol=1e-10):
    # relative to the component, floored at the natural stress scale so
    # that identically-zero components compare against roundoff sensibly
    worst = 0.0
    for c1, c2 in grid(*region, n=n):
        p = Point(c1, c2, chart.name)
        s = expectation_stress(sc.state, chart, p)
        ref = closed_form_reference(sc, p)
        for got, want in ((s.t_uu, ref.t_uu), (s.t_vv, ref.t_vv),
                          (s.t_uv, ref.t_uv)):
            err = abs(got - want) / max(INV_48PI, abs(want), abs(got))
            worst = max(worst, err)
    assert worst < tol, f"worst relative error {worst:.3e}"


# ---------- construction ----------

def test_all_names_build():
    for name in SCENARIO_NAMES:
        sc = build_scenario(name)
        assert sc.name == name
        assert sc.state is not None


@pytest.mark.parametrize("name", ["mirror_in_rindler_vacuum",
                                  "accelerated_mirror_minkowski"])
def test_hatted_charts_of_close_parameters_stay_distinct(name):
    first = build_scenario(name, {"a": 1.0})
    p = Point(0.3, 1.1, first.state.chart.name)
    before = convert_point(p, MINK)
    second = build_scenario(name, {"a": 1.0000004})
    assert second.state.chart.name != first.state.chart.name
    after = convert_point(p, MINK)
    assert abs(after.c1 - before.c1) < 1e-10
    assert abs(after.c2 - before.c2) < 1e-10


def test_hatted_chart_of_a_dropped_scenario_stops_resolving():
    # the transitions an evaluation builds live on its state, so they do
    # not keep the scenario's mirror-adapted chart registered
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 3.7})
    name = sc.state.chart.name
    expectation_stress(sc.state, get_chart("rindler"),
                       Point(1.0, 2.0, "rindler"))
    assert name in registered_charts()
    del sc
    gc.collect()
    assert name not in registered_charts()
    with pytest.raises(ValueError, match="unknown chart"):
        get_chart(name)


def test_unknown_name():
    with pytest.raises(ValueError):
        build_scenario("black_hole_collapse")


def test_bad_params():
    with pytest.raises(ValueError):
        build_scenario("mirror_in_rindler_vacuum", {"a": -1.0})
    with pytest.raises(ValueError):
        build_scenario("mirror_in_rindler_vacuum", {"a": 1.0, "b": 2.0})


def test_parameter_schema_covers_all():
    schema = scenario_parameter_schema()
    assert set(schema) == set(SCENARIO_NAMES)


# ---------- closed-form spot values ----------

def test_mirror_minkowski_spot_values():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    ref = closed_form_reference(sc, Point(-1.0, 2.0, "minkowski"))
    assert close(ref.t_uu, -INV_48PI)
    assert close(ref.t_vv, -1.0 / (192.0 * math.pi))


def test_rindler_vacuum_orthonormal_at_unit_distance():
    sc = build_scenario("rindler_vacuum")
    s = theta_components(sc.state, Point(0.0, 0.0, "rindler"))
    o = to_orthonormal_frame(s)
    assert close(o.energy_density, -INV_24PI)


def test_oracle_unavailable():
    sc = build_scenario("accelerated_mirror_minkowski")
    with pytest.raises(OracleUnavailableError):
        closed_form_reference(sc, Point(0.0, 0.0, "rindler"))


def test_minkowski_vacuum_scenario_is_zero_everywhere():
    sc = build_scenario("minkowski_vacuum_rindler_observer")
    for c1, c2 in [(-2.0, 1.0), (0.0, 0.0), (3.0, -4.0)]:
        s = expectation_stress(sc.state, RIND, Point(c1, c2, "rindler"))
        assert s.t_uu == 0.0 and s.t_vv == 0.0 and s.t_uv == 0.0


# ---------- engine vs oracle on grids ----------

def test_rindler_vacuum_grid_rindler_chart():
    sc = build_scenario("rindler_vacuum")
    assert_engine_matches_oracle(sc, RIND, (-3.0, 3.0, -3.0, 3.0))


def test_rindler_vacuum_grid_minkowski_chart():
    sc = build_scenario("rindler_vacuum")
    assert_engine_matches_oracle(sc, MINK, (-5.0, -0.01, 0.01, 5.0))


def test_mirror_grid_rindler_chart():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    edge = math.log(0.5)
    assert_engine_matches_oracle(sc, RIND, (edge - 2.0, edge + 2.0, 1.0, 3.0))


def test_mirror_grid_minkowski_chart():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    assert_engine_matches_oracle(sc, MINK, (-1.95, 3.0, 5.5, 8.0))
    assert_engine_matches_oracle(sc, MINK, (-6.0, -2.1, 5.0, 8.0))


def test_accelerated_mirror_grid():
    sc = build_scenario("accelerated_mirror_minkowski", {"a": 1.0})
    assert_engine_matches_oracle(sc, MINK, (-4.0, -0.5, 2.5, 5.0))


def test_minkowski_vacuum_grid():
    sc = build_scenario("minkowski_vacuum_rindler_observer")
    assert_engine_matches_oracle(sc, RIND, (-2.0, 2.0, -2.0, 2.0), n=20)
