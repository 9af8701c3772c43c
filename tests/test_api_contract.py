"""The scalar stress entry points return finite values or raise one of the
documented errors, on every scenario x chart pair and on a mirror state
whose chart is in no registry.

The entry points are ``expectation_stress``, ``theta_components``,
``anomaly_check``, ``to_orthonormal_frame``, ``transform_stress`` and
``convert_point``.  So do ``Trajectory.position``, of both built-in
mirrors and of each carried into a chart by ``to_chart``, and
``ChartMap.invert`` on a float, which raises NoRootError outside the
map's range; the maps inverted are the mirrors' reflection maps and a
map that inverts numerically.  So does the chart layer on floats:
``ChartMap.__call__``, ``deriv`` and ``invert`` of each null map (the
first two raise CoverageError at a float outside the map's domain), and
``conformal_factor`` (positive too) and ``ricci_scalar``, of the
registered charts, both mirrors' hatted charts and the mirror state's
chart that no registry holds.  Coordinates are drawn from O(1) values, from
log-uniform magnitudes up to 1e+-300 of either sign, and from edge values
(signed zeros, subnormals, the largest double, infinities and NaN).  An
oracle ties the scalar path to the grid path: ``expectation_stress`` and
a 1 x 1 ``expectation_stress_grid`` agree in status and to 1e-13 relative
(to the larger value, or to the terms F cancels where they are larger),
on every scenario and on a mirror state whose chart inverts numerically.

The number of examples comes from the hypothesis profile: the default in
the test suite, and ``--hypothesis-profile=long`` (``conftest.py``) for a
longer run of this module.
"""

import math
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mirrorstress.charts import (
    CoverageError,
    NoRootError,
    Point,
    convert_point,
    get_chart,
)
from mirrorstress import vacuum_stress
from mirrorstress.scenarios import (
    SCENARIO_NAMES,
    build_scenario,
    hatted_chart_for_accelerated_mirror,
    hatted_chart_for_stationary_mirror,
)
from mirrorstress.trajectories import (
    reflection_map,
    stationary_mirror,
    to_chart,
    uniformly_accelerated_mirror,
)
from mirrorstress.vacuum_stress import (
    COVERAGE,
    FLOAT_RANGE,
    OK,
    REGION,
    SECTOR_RAY,
    STATUS_NAMES,
    SingularRayError,
    StateRegionError,
    anomaly_check,
    expectation_stress,
    expectation_stress_grid,
    theta_components,
    to_orthonormal_frame,
    transform_stress,
)

from test_vacuum_stress import _derived_mirror_state

# the errors a scalar entry point documents: a point outside the state's
# region, on a singular ray, or outside coverage or the double range
DOCUMENTED = (StateRegionError, SingularRayError, CoverageError)

# the state's own chart stands for the scenario's mirror-adapted chart
CHARTS = ("minkowski", "rindler", "curved-test", "own")

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         -2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, math.inf, -math.inf, math.nan)

coordinates = st.one_of(
    st.floats(-4.0, 4.0),
    st.builds(lambda sign, e: sign * 10.0 ** e,
              st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 300.0)),
    st.sampled_from(EDGES))

accelerations = st.one_of(
    st.just(1.0), st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))


def _finite(*xs):
    return all(math.isfinite(x) for x in xs)


# the a = 1 mirror state on a chart given forward only, and in no registry
DERIVED = _derived_mirror_state()


def _state(name, a):
    """The scenario's state at a, or a rejected draw where a is out of the
    range its trajectory allows (a ValueError the builder documents);
    "derived" is ``DERIVED``, whatever a."""
    if name == "derived":
        return DERIVED
    try:
        return build_scenario(name, {"a": a}).state
    except ValueError:
        assume(False)


def _chart(state, name):
    return state.chart if name == "own" else get_chart(name)


def _outcome(f, *args):
    """f(*args), or the documented error it raises (any other error
    propagates and fails the test)."""
    try:
        return f(*args)
    except DOCUMENTED as exc:
        return exc


def _sample_is_finite(s):
    return _finite(s.t_uu, s.t_vv, s.t_uv, s.point.c1, s.point.c2)


@given(name=st.sampled_from(SCENARIO_NAMES + ("derived",)), a=accelerations,
       where=st.sampled_from(CHARTS), observe=st.sampled_from(CHARTS),
       to=st.sampled_from(CHARTS), c1=coordinates, c2=coordinates)
def test_stress_entry_points_give_finite_values_or_documented_errors(
        name, a, where, observe, to, c1, c2):
    # a Point names its chart, so points of the derived state are drawn in
    # registered charts; samples hold their chart, so they are observed
    # and transformed in its own chart too
    assume(name != "derived" or where != "own")
    state = _state(name, a)
    p = Point(c1, c2, _chart(state, where).name)

    q = _outcome(convert_point, p, _chart(state, observe))
    if isinstance(q, Point):
        assert _finite(q.c1, q.c2)

    s = _outcome(expectation_stress, state, _chart(state, observe), p)
    if not isinstance(s, Exception):
        assert _sample_is_finite(s)
        o = _outcome(to_orthonormal_frame, s)
        if not isinstance(o, Exception):
            assert _finite(o.energy_density, o.pressure, o.flux)
        t = _outcome(transform_stress, s, _chart(state, to))
        if not isinstance(t, Exception):
            assert _sample_is_finite(t)

    own = _outcome(theta_components, state, p)
    if not isinstance(own, Exception):
        assert _sample_is_finite(own)
    r = _outcome(anomaly_check, state, p)
    if not isinstance(r, Exception):
        assert _finite(r)


def _status(s):
    """The grid status code of a point outcome: ok for a sample, else the
    code of the error it raised."""
    if not isinstance(s, Exception):
        return OK
    if isinstance(s, StateRegionError):
        return REGION
    if isinstance(s, SingularRayError):
        return SECTOR_RAY
    if "double-precision range" in str(s):
        return FLOAT_RANGE
    return COVERAGE


def _nudged(x, k):
    """x moved by k units in its last place."""
    return x + k * math.ulp(x) if math.isfinite(x) else x


@given(name=st.sampled_from(SCENARIO_NAMES), a=accelerations,
       observe=st.sampled_from(CHARTS), c1=coordinates, c2=coordinates)
def test_point_and_one_point_grid_agree(name, a, observe, c1, c2):
    state = _state(name, a)
    _assert_point_and_grid_agree(state, _chart(state, observe), c1, c2)


@given(observe=st.sampled_from(CHARTS[:3]), c1=coordinates, c2=coordinates)
def test_point_and_one_point_grid_agree_on_numerically_inverted_chart(
        observe, c1, c2):
    chart = get_chart(observe)
    # its relabel -log(2 - e^x) takes 2 - e^x = -u at base u in (-2, 0)
    # with relative error 2 eps/|u|, which the order-2 coefficients of
    # the stress square: near the horizon u = 0 both paths read rounding
    # of that size (a FOUND of CHANGES.md)
    try:
        u = chart.u_map.fn(c1)
    except OverflowError:
        u = -math.inf  # far outside that range
    k = 2.0 / u if -2.0 < u < 0.0 else 1.0
    cond = k * k  # inf where it overflows, as near u = -0
    _assert_point_and_grid_agree(DERIVED, chart, c1, c2, cond)


def _assert_point_and_grid_agree(state, chart, c1, c2, cond=1.0):
    def point(x, y):
        return _outcome(expectation_stress, state, chart,
                        Point(x, y, chart.name))

    s = point(c1, c2)
    g = expectation_stress_grid(state, chart, [c1], [c2])
    status = int(g.status[0, 0])
    if status != _status(s):
        # the grid decides with numpy's elementary functions, the point
        # with the math module's, and they may round a boundary (the
        # mirror, a sector ray, a coverage edge) apart.  Through exp and
        # asinh that rounding reaches about 700 units in the last place of
        # a coordinate near 1e-300, so a point within 4096 of a boundary
        # is on it to rounding
        near = {_status(point(_nudged(c1, k), c2)) for k in (-4096, 4096)} \
            | {_status(point(c1, _nudged(c2, k))) for k in (-4096, 4096)}
        assert status in near, (s, STATUS_NAMES[status])
        return
    if status != OK:
        return
    scale = _term_scale(state, chart, c1, c2)
    for got, want, size in ((g.t_uu, s.t_uu, scale[0]),
                            (g.t_vv, s.t_vv, scale[1]),
                            (g.t_uv, s.t_uv, 0.0)):
        got = float(got[0, 0])
        assert abs(got - want) \
            <= 1e-13 * cond * max(abs(got), abs(want), size), \
            (got, want, size, cond)


def _terms(j):
    """|f''/f| + (3/2)(f'/f)^2, the sizes of the two terms F subtracts."""
    r1 = j.d1 / j.value
    return abs(j.d2 / j.value) + 1.5 * (r1 * r1)


def _term_scale(state, chart, c1, c2):
    """T_11 and T_22 at the point with F's two terms added in size: the
    scale of what F cancels.  Where F is 0 by cancellation, as for the
    silent hyperbolic mirror, both paths read rounding of that scale."""
    with mock.patch.object(vacuum_stress, "F_of_jet", _terms):
        s = _outcome(expectation_stress, state, chart,
                     Point(c1, c2, chart.name))
    return (math.inf, math.inf) if isinstance(s, Exception) \
        else (s.t_uu, s.t_vv)


def _inverts_to_a_finite_root_or_raises(m, target):
    """m.invert(target): for a target inside m's range a finite root or
    the documented CoverageError, outside it NoRootError."""
    if not m.range.contains(target):
        with pytest.raises(NoRootError):
            m.invert(target)
        return
    x = _outcome(m.invert, target)
    if not isinstance(x, Exception):
        assert _finite(x)


@given(mirror=st.sampled_from((stationary_mirror,
                               uniformly_accelerated_mirror)),
       a=accelerations, chart=st.sampled_from(CHARTS[:3]),
       lam=coordinates, target=coordinates)
def test_trajectory_entry_points_give_finite_values_or_documented_errors(
        mirror, a, chart, lam, target):
    # a is the hyperbola's acceleration, or the stationary mirror's
    # distance; either builder refuses the values its docstring names
    try:
        traj = mirror(a)
    except ValueError:
        assume(False)
    for path in (traj, _outcome(to_chart, traj, get_chart(chart))):
        if isinstance(path, Exception):
            continue
        x = _outcome(path.position, lam)
        if not isinstance(x, Exception):
            assert _finite(*x)
        _inverts_to_a_finite_root_or_raises(reflection_map(path).p, target)
    # a map that inverts numerically
    _inverts_to_a_finite_root_or_raises(DERIVED.chart.u_map, target)


# the charts of the chart-layer property: the registered ones, the two
# mirrors' hatted charts at a, and the derived state's chart
LAYER_CHARTS = ("minkowski", "rindler", "curved-test", "hatted-stationary",
                "hatted-hyperbola", "derived")


def _layer_chart(name, a):
    if name == "derived":
        return DERIVED.chart
    if name.startswith("hatted-"):
        build = hatted_chart_for_stationary_mirror \
            if name == "hatted-stationary" else \
            hatted_chart_for_accelerated_mirror
        try:
            return build(a)
        except ValueError:
            assume(False)  # a out of the hyperbola's range, as documented
    return get_chart(name)


@given(name=st.sampled_from(LAYER_CHARTS), a=accelerations,
       c1=coordinates, c2=coordinates)
def test_chart_layer_gives_finite_floats_or_documented_errors(
        name, a, c1, c2):
    chart = _layer_chart(name, a)
    for m, x in ((chart.u_map, c1), (chart.v_map, c2)):
        outside = not m.domain.contains(x)
        for f in (m, m.deriv):
            y = _outcome(f, x)
            if outside:  # deriv checks the domain as __call__ does
                assert isinstance(y, CoverageError), (m.label, f, x, y)
            elif not isinstance(y, Exception):
                assert _finite(y), (m.label, f, x, y)
        _inverts_to_a_finite_root_or_raises(m, x)
    c = _outcome(chart.conformal_factor, c1, c2)
    if not isinstance(c, Exception):
        assert _finite(c) and c > 0.0, c
    r = _outcome(chart.ricci_scalar, c1, c2)
    if not isinstance(r, Exception):
        assert _finite(r), r
