"""Grid evaluation against point evaluation: same flags, same values.

``expectation_stress_grid`` carries a whole grid through array-valued
jets; ``expectation_stress`` evaluates one point through float jets and
raises where the grid writes a status code.  Every window below but the
inertial one of the Minkowski vacuum, which has no such points, reaches
points where the state has no value: behind the mirror, on the sector
ray, past a coverage edge or outside the double-precision range.
"""

import math

import numpy as np
import pytest

from mirrorstress.charts import (
    CoverageError,
    Point,
    get_chart,
    synthetic_curved_chart,
)
from mirrorstress.scenarios import build_scenario
from mirrorstress.vacuum_stress import (
    INV_48PI,
    STATUS_NAMES,
    SingularRayError,
    StateRegionError,
    VacuumSpec,
    expectation_stress,
    expectation_stress_grid,
    orthonormal_grid,
    to_orthonormal_frame,
)

from test_vacuum_stress import _derived_mirror_state

_EDGE = math.log(0.5)  # sector boundary u = -2 of the a = 1 mirror

# (scenario, a, chart, c1 window, c2 window, has singular points)
WINDOWS = [
    ("rindler_vacuum", 1.0, "rindler", (-760.0, 4.0), (-2.0, 2.0), True),
    ("rindler_vacuum", 1.0, "minkowski", (-3.0, 1.0), (-1.0, 3.0), True),
    ("minkowski_vacuum_rindler_observer", 1.0, "rindler",
     (-533.8, -444.6), (582.4, 1337.8), True),
    ("minkowski_vacuum_rindler_observer", 1.0, "rindler",
     (-3.0, 3.0), (-3.0, 720.0), True),
    ("minkowski_vacuum_rindler_observer", 1.0, "minkowski",
     (-2.0, 2.0), (-2.0, 2.0), False),
    ("mirror_in_rindler_vacuum", 1.0, "rindler",
     (_EDGE - 1.0, _EDGE + 3.0), (-1.0, 3.0), True),
    ("mirror_in_rindler_vacuum", 1.0, "minkowski", (-3.0, -1.0), (0.0, 7.0),
     True),
    ("mirror_in_rindler_vacuum", 0.7, "minkowski", (-4.0, 2.0), (1.0, 6.0),
     True),
    ("mirror_in_rindler_vacuum", 1.0, "hatted", (-1.0, 1.0), (-0.5, 3.0),
     True),
    ("accelerated_mirror_minkowski", 1.0, "minkowski", (-4.0, 1.0),
     (-1.0, 5.0), True),
    ("accelerated_mirror_minkowski", 2.0, "hatted", (-1.0, 1.0), (-0.5, 3.0),
     True),
    ("accelerated_mirror_minkowski", 27.17659422642401, "rindler",
     (-383.72951261747767, -383.7071954937219),
     (1.6887598778581445, 1.6888341545734982), True),
]


# the error point evaluation raises for each status code of the grid
STATUS_ERRORS = {
    "region": StateRegionError,
    "sector_ray": SingularRayError,
    "coverage": CoverageError,
    "float_range": CoverageError,
}


def _point_values(state, chart, c1, c2, frame):
    """Point evaluation: its values, each exactly a float, or the class of
    the documented error it raises."""
    try:
        s = expectation_stress(state, chart, Point(c1, c2, chart.name))
        values = (s.t_uu, s.t_vv, s.t_uv)
        if frame == "orthonormal":
            o = to_orthonormal_frame(s)
            values = (o.energy_density, o.pressure, o.flux)
    except (StateRegionError, SingularRayError, CoverageError) as e:
        return type(e)
    assert all(type(x) is float for x in (s.t_uu, s.t_vv, s.t_uv, *values))
    return values


def _assert_grid_matches_points(state, chart, c1, c2, frame):
    """Flags name the point's error, values within 1e-13 (floor
    1/(48 pi)); returns the number of flagged points."""
    grid = expectation_stress_grid(state, chart, c1, c2)
    status, values = grid.status, (grid.t_uu, grid.t_vv, grid.t_uv)
    if frame == "orthonormal":
        status, o = orthonormal_grid(grid)
        values = (o.energy_density, o.pressure, o.flux)
    flagged = 0
    for i, x in enumerate(c1.tolist()):
        for j, y in enumerate(c2.tolist()):
            want = _point_values(state, chart, x, y, frame)
            if status[i, j] != 0:
                assert want is STATUS_ERRORS[STATUS_NAMES[status[i, j]]], \
                    (x, y, status[i, j], want)
                flagged += 1
                assert all(np.isnan(v[i, j]) for v in values)
                continue
            assert isinstance(want, tuple), (x, y, want)
            for got, w in zip(values, want):
                assert abs(got[i, j] - w) <= 1e-13 * max(abs(w), INV_48PI)
    return flagged


@pytest.mark.parametrize("frame", ["null", "orthonormal"])
@pytest.mark.parametrize("scenario,a,chart_name,w1,w2,singular", WINDOWS)
def test_grid_matches_point_evaluation(scenario, a, chart_name, w1, w2,
                                       singular, frame):
    sc = build_scenario(scenario, {"a": a})
    chart = sc.state.chart if chart_name == "hatted" else get_chart(chart_name)
    flagged = _assert_grid_matches_points(
        sc.state, chart, np.linspace(*w1, 9), np.linspace(*w2, 8), frame)
    assert (flagged > 0) == singular


# windows of the a = 1 mirror state on the derived chart, which inverts
# numerically: (observe chart, c1 window, c2 window), "own" being that
# chart.  Each reaches the mirror, the sector ray or a coverage edge
DERIVED_WINDOWS = [
    ("rindler", (_EDGE - 1.0, _EDGE + 3.0), (-1.0, 3.0)),
    ("minkowski", (-3.0, -1.0), (0.0, 7.0)),
    ("minkowski", (-4.0, 2.0), (1.0, 6.0)),
    ("own", (-1.0, 1.0), (-0.5, 3.0)),
]

@pytest.mark.parametrize("chart_name,w1,w2,frame", [
    (*w, frame) for w in DERIVED_WINDOWS for frame in ("null", "orthonormal")
])
def test_grid_of_numerically_inverted_chart_matches_points(
        chart_name, w1, w2, frame):
    state = _derived_mirror_state()
    chart = state.chart if chart_name == "own" else get_chart(chart_name)
    assert _assert_grid_matches_points(
        state, chart, np.linspace(*w1, 9), np.linspace(*w2, 8), frame) > 0


def test_grid_on_curved_chart_matches_points():
    # the inertial vacuum seen in the curved test chart: the null frame
    # has no singular point, the orthonormal one needs u + v > 0 for the
    # chart's factor
    state = VacuumSpec(get_chart("minkowski"), "full_line", label="mink")
    curved = synthetic_curved_chart()
    c1, c2 = np.linspace(-2.0, 2.0, 9), np.linspace(-1.0, 3.0, 8)
    assert _assert_grid_matches_points(state, curved, c1, c2, "null") == 0
    assert _assert_grid_matches_points(state, curved, c1, c2,
                                       "orthonormal") > 0


def test_grid_status_names_the_reason():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    mink = get_chart("minkowski")
    # v = 0 lies behind the mirror (v - u <= 2) for every c1 here, and the
    # region check comes first; with v = 3, c1 = -2 is the sector ray
    grid = expectation_stress_grid(sc.state, mink, [-2.0, -1.0, 0.5],
                                   [0.0, 3.0])
    assert grid.status.tolist() == [[1, 2], [1, 0], [1, 0]]
    rind = get_chart("rindler")
    grid = expectation_stress_grid(build_scenario("rindler_vacuum").state,
                                   rind, [-800.0, 0.0], [0.0])
    assert grid.status.tolist() == [[4], [0]]
