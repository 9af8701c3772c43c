"""The stress engine: F functional, chart vacua, transforms, identities."""

import dataclasses
import math
import random
import re

import numpy as np
import pytest

from mirrorstress import charts
from mirrorstress import vacuum_stress as vs
from mirrorstress.charts import (
    ChartMap,
    ConformalChart,
    CoverageError,
    Interval,
    Point,
    compose_charts,
    compose_maps,
    get_chart,
    identity_map,
    synthetic_curved_chart,
)
from mirrorstress.jets import (
    Jet1,
    Jet3,
    constant,
    jasinh,
    jcosh,
    jexp,
    jlog,
    jsinh,
    lead_value,
    seed,
)
from mirrorstress.scenarios import (
    SCENARIO_NAMES,
    build_scenario,
    closed_form_reference,
)
from mirrorstress.trajectories import (
    reflection_map,
    stationary_mirror,
    to_chart,
    uniformly_accelerated_mirror,
)
from mirrorstress.vacuum_stress import (
    INV_24PI,
    INV_48PI,
    MARGIN,
    F_composition,
    F_functional,
    MarginError,
    SingularRayError,
    StateError,
    StateRegionError,
    VacuumSpec,
    anomaly_check,
    check_conservation,
    expectation_stress,
    expectation_stress_grid,
    orthonormal_grid,
    schwarzian_derivative,
    theta_components,
    to_orthonormal_frame,
    transform_stress,
)

from jet_leaves import leaves

RIND = get_chart("rindler")
MINK = get_chart("minkowski")


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def governing_chart(state, observe, c1):
    """The chart of the state's sector holding the base u of c1."""
    u = observe.u_map.fn(c1)
    return next(gov for gov, rng in state.sectors if rng.contains(u))


def rindler_state():
    return VacuumSpec(RIND, "full_line", label="rindler_vacuum")


def minkowski_state():
    return VacuumSpec(MINK, "full_line", label="minkowski_vacuum")


# ---------- F functional ----------

def test_F_of_constant_vanishes():
    assert F_functional(lambda j: 0.0 * j + 3.7, 1.2) == 0.0


def test_F_of_exponential():
    # F(e^{kx}) = k^2 - (3/2) k^2 = -k^2/2
    for k in (-1.0, 0.5, 2.0):
        got = F_functional(lambda j, k=k: jexp(k * j), 0.8)
        assert close(got, -0.5 * k * k)
    # k = -1 is the wedge factor in the outgoing direction: theta = -1/48pi
    assert close(INV_24PI * F_functional(lambda j: jexp(-j), 0.3), -INV_48PI)


def test_F_of_moebius_derivative_vanishes():
    m = ChartMap(fn=lambda x: (2.0 * x + 1.0) / (x + 3.0), label="moebius")
    for x in (-1.0, 0.0, 2.0, 10.0):
        assert abs(schwarzian_derivative(m, x)) < 1e-13


def test_F_zero_denominator():
    with pytest.raises(SingularRayError):
        F_functional(lambda j: j, 0.0)


def test_F_past_the_double_range_is_coverage_error():
    # e^800 overflows in the jet: a bare OverflowError
    with pytest.raises(CoverageError, match=r"F functional: value at "
                       r"800\.0 leaves the double-precision range"):
        F_functional(lambda j: jexp(j), 800.0)


def test_schwarzian_past_the_double_range_is_coverage_error():
    # p = -1/u has p' = 1/u^2 = inf at u = -1e-300, and the Schwarzian
    # took inf/inf: it returned NaN
    p = reflection_map(uniformly_accelerated_mirror(1.0)).p
    with pytest.raises(CoverageError, match=r"schwarzian: value at -1e-300 "
                       r"leaves the double-precision range"):
        schwarzian_derivative(p, -1e-300)


def test_schwarzian_random_maps_match_direct_formula():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(0.1, 1)
        fn = lambda x, a=a, b=b, c=c: jexp(a * x) + b * x + c * (x * x * x)
        m = ChartMap(fn=fn, label="rand")
        x = rng.uniform(-1.0, 1.0)
        j = m(seed(x))
        direct = j.d3 / j.d1 - 1.5 * (j.d2 / j.d1) ** 2
        assert close(schwarzian_derivative(m, x), direct, 1e-10)


# ---------- theta components ----------

def test_minkowski_vacuum_is_zero():
    s = theta_components(minkowski_state(), Point(0.3, -2.0, "minkowski"))
    assert s.t_uu == 0.0 and s.t_vv == 0.0 and s.t_uv == 0.0


def test_rindler_vacuum_constants():
    rng = random.Random(11)
    st = rindler_state()
    for _ in range(50):
        p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5), "rindler")
        s = theta_components(st, p)
        assert close(s.t_uu, -INV_48PI, 1e-13)
        assert close(s.t_vv, -INV_48PI, 1e-13)
        assert abs(s.t_uv) < 1e-15


def test_hatted_vacuum_constant_in_its_own_chart():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    p = Point(-0.4, 0.9, sc.state.chart.name)
    s = theta_components(sc.state, p)
    assert close(s.t_uu, -INV_48PI, 1e-13)
    assert close(s.t_vv, -INV_48PI, 1e-13)


def test_non_quantizable_chart_rejected():
    weird = compose_charts(MINK, identity_map(), identity_map(), "weird",
                           global_class="other")
    with pytest.raises(StateError):
        VacuumSpec(weird, "full_line", label="bad")


# ---------- F composition identity ----------

def test_F_composition_identity_map():
    ident = identity_map()
    for base in (-0.5, 0.0, 1.3):
        assert close(F_composition(ident, base, 0.7), base)


def test_F_composition_moebius_flat():
    m = ChartMap(fn=lambda x: (x + 1.0) / (2.0 - 0.5 * x),
                 domain=Interval(-math.inf, 4.0), label="moebius")
    assert abs(F_composition(m, 0.0, 1.0)) < 1e-13


def test_F_composition_matches_direct_hatted_evaluation():
    a = 1.0
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": a})
    hatted = sc.state.chart
    bar = to_chart(stationary_mirror(1.0 / a), RIND)
    p_map = reflection_map(bar).p
    base_F = -0.5  # F of the wedge factor in the outgoing direction
    for ub in (math.log(a / 2.0) + 0.05, 0.0, 1.0, 4.0):
        via_identity = F_composition(p_map, base_F, ub)
        uh = lead_value(p_map(ub))
        c_jet = hatted.factor_jet_u(uh, 0.3)
        direct = lead_value(c_jet.d2 / c_jet.value
                            - 1.5 * (c_jet.d1 / c_jet.value) ** 2)
        assert close(via_identity, direct, 1e-10)


@pytest.mark.parametrize("u", [-1e-160, -1e-300])
def test_F_composition_past_the_double_range_is_coverage_error(u):
    # p(u) = -1/u: p' = 1/u^2 overflows, and the Schwarzian took inf/inf,
    # so F read NaN
    p_map = reflection_map(uniformly_accelerated_mirror(1.0)).p
    with pytest.raises(CoverageError, match=f"F composition: value at {u!r} "
                       "leaves the double-precision range"):
        F_composition(p_map, -0.5, u)
    assert F_composition(p_map, -0.5, -0.5) == -0.5 * 0.5 ** 4


def test_F_composition_matches_composed_chart():
    # same identity, but the hatted chart built generically by relabeling
    a = 1.0
    bar = to_chart(stationary_mirror(1.0 / a), RIND)
    refl = reflection_map(bar)
    f = refl.p.inverse_map()
    hatted = compose_charts(RIND, f, identity_map(), "hatted-composed",
                            global_class="half_line")
    for ub in (-0.5, 0.0, 2.0):
        uh = lead_value(refl.p(ub))
        c_jet = hatted.factor_jet_u(uh, -0.2)
        direct = lead_value(c_jet.d2 / c_jet.value
                            - 1.5 * (c_jet.d1 / c_jet.value) ** 2)
        assert close(F_composition(refl.p, -0.5, ub), direct, 1e-10)


# ---------- transforms ----------

def test_transform_identity():
    s = theta_components(rindler_state(), Point(0.2, 0.4, "rindler"))
    assert transform_stress(s, RIND) is s


def test_transform_zero_stays_zero():
    s = theta_components(minkowski_state(), Point(-2.0, 3.0, "minkowski"))
    t = transform_stress(s, RIND)
    assert t.t_uu == 0.0 and t.t_vv == 0.0 and t.t_uv == 0.0


def test_rindler_vacuum_transformed_to_minkowski():
    st = rindler_state()
    for ub, vb in [(0.0, 0.0), (1.0, -0.5), (-2.0, 2.0)]:
        s = transform_stress(theta_components(st, Point(ub, vb, "rindler")),
                             MINK)
        u, v = -math.exp(-ub), math.exp(vb)
        assert close(s.t_uu, -INV_48PI / (u * u), 1e-12)
        assert close(s.t_vv, -INV_48PI / (v * v), 1e-12)


def test_transform_functorial():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    hatted = sc.state.chart
    st = rindler_state()
    s = theta_components(st, Point(0.3, 0.5, "rindler"))
    via = transform_stress(transform_stress(s, hatted), MINK)
    direct = transform_stress(s, MINK)
    for a_val, b_val in [(via.t_uu, direct.t_uu), (via.t_vv, direct.t_vv),
                         (via.t_uv, direct.t_uv)]:
        assert close(a_val, b_val, 1e-11)


def test_sample_of_an_unregistered_chart_transforms_like_any_other():
    # the derived chart is in no registry: the sample holds the chart, so
    # its transform to the wedge chart needs no lookup by name
    state = _derived_mirror_state()
    s = expectation_stress(state, state.chart,
                           Point(0.2, 1.5, state.chart.name))
    got = transform_stress(s, RIND)
    want = expectation_stress(state, RIND, got.point)
    assert got.chart is RIND and got.point == want.point
    for g, w in zip((got.t_uu, got.t_vv, got.t_uv),
                    (want.t_uu, want.t_vv, want.t_uv)):
        assert abs(g - w) <= 1e-13 * abs(w)


# ---------- expectation values with sector stitching ----------

def test_mirror_state_in_rindler_chart():
    a = 1.0
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": a})
    # reflected sector: the closed form -1/(48pi) a^2 e^{-2u}/(2 - a e^{-u})^2
    for ub in (math.log(a / 2.0) + 0.05, 0.0, 0.7, 3.0, 8.0):
        p = Point(ub, 2.0, "rindler")
        s = expectation_stress(sc.state, RIND, p)
        w = a * math.exp(-ub)
        assert close(s.t_uu, -INV_48PI * w * w / (2.0 - w) ** 2, 1e-11)
        assert close(s.t_vv, -INV_48PI, 1e-12)
        assert abs(s.t_uv) < 1e-14
    # at u* = 0 the value is exactly the wedge constant
    s = expectation_stress(sc.state, RIND, Point(0.0, 2.0, "rindler"))
    assert close(s.t_uu, -INV_48PI, 1e-12)
    assert close(s.t_uu, -0.006631455962162306, 1e-6)


def test_mirror_state_unreflected_sector_keeps_wedge_value():
    a = 1.0
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": a})
    for ub in (math.log(a / 2.0) - 0.05, -2.0, -6.0):
        s = expectation_stress(sc.state, RIND, Point(ub, 3.0, "rindler"))
        assert close(s.t_uu, -INV_48PI, 1e-12)


def test_mirror_state_in_minkowski_chart():
    a = 1.0
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": a})
    for u, v in [(-1.0, 2.0), (-1.5, 1.0), (0.5, 3.5), (30.0, 33.0)]:
        s = expectation_stress(sc.state, MINK, Point(u, v, "minkowski"))
        assert close(s.t_uu, -INV_48PI * a * a / (2.0 + a * u) ** 2, 1e-11)
        assert close(s.t_vv, -INV_48PI / (v * v), 1e-11)
    # outgoing component dies off at late retarded times
    far = expectation_stress(sc.state, MINK,
                             Point(1.0e6, 1.0e6 + 3.0, "minkowski"))
    assert abs(far.t_uu) < 1e-14


def test_mirror_state_sector_boundary_is_excluded():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    for v in (1.0, 3.0):
        with pytest.raises(SingularRayError):
            expectation_stress(sc.state, MINK, Point(-2.0, v, "minkowski"))


def test_mirror_state_wrong_side_rejected():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    # v - u < 2/a puts the point left of the mirror
    with pytest.raises(StateRegionError):
        expectation_stress(sc.state, MINK, Point(-0.5, 1.0, "minkowski"))


def test_float_range_points_raise_coverage_error():
    # the Rindler Jacobian exp(533.8)^2 overflows (it made NaN rows); the
    # hatted hyperbola's c / x^2 underflows at x = 1e-169 (it raised
    # ZeroDivisionError); neither has a double-precision stress value
    sc = build_scenario("minkowski_vacuum_rindler_observer")
    with pytest.raises(CoverageError, match="double-precision"):
        expectation_stress(sc.state, RIND, Point(-533.8, 582.4, "rindler"))
    sc = build_scenario("accelerated_mirror_minkowski",
                        {"a": 27.17659422642401})
    with pytest.raises(CoverageError, match="double-precision"):
        expectation_stress(sc.state, RIND,
                           Point(-383.72951261747767, 1.6887598778581445,
                                 "rindler"))
    # the wedge chart's factor e^(-c1) e^(c2) underflows to 0 at
    # c2 = log(5e-324): it raised "conformal factor 0.0 not positive"
    with pytest.raises(CoverageError, match="double-precision"):
        expectation_stress(rindler_state(), MINK,
                           Point(-0.5, 5e-324, "minkowski"))


def test_transform_out_of_float_range_is_coverage_error():
    # -1/(48 pi u^2) at u = -e^-595.5: its components were inf
    s = expectation_stress(rindler_state(), RIND,
                           Point(595.5, 1.0, "rindler"))
    with pytest.raises(CoverageError, match=r"of chart 'minkowski': the "
                       r"stress of state 'rindler_vacuum' is outside the "
                       r"double-precision range"):
        transform_stress(s, MINK)


def test_horizon_cancellation_at_u_zero():
    # the mirror removes the wedge divergence: finite a^2/(192 pi) at u = 0
    for a in (0.5, 1.0, 2.0):
        sc = build_scenario("mirror_in_rindler_vacuum", {"a": a})
        s = expectation_stress(sc.state, MINK,
                               Point(0.0, 2.0 / a + 1.0, "minkowski"))
        assert close(abs(s.t_uu), INV_48PI * a * a / 4.0, 1e-10)


def test_early_burst_blows_up_monotonically():
    a = 1.0
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": a})
    values = []
    for k in range(1, 8):
        u = -2.0 / a + 10.0 ** (-k)
        s = expectation_stress(sc.state, MINK, Point(u, 1.0, "minkowski"))
        values.append(abs(s.t_uu))
    assert all(b > 10.0 * a_ for a_, b in zip(values, values[1:]))


def test_accelerated_mirror_is_silent():
    sc = build_scenario("accelerated_mirror_minkowski", {"a": 1.0})
    for u, v in [(-3.0, 1.0), (-0.5, 4.0), (-10.0, 0.5)]:
        s = expectation_stress(sc.state, MINK, Point(u, v, "minkowski"))
        assert abs(s.t_uu) < 1e-13
        assert abs(s.t_vv) < 1e-13


def test_unruh_bath_difference():
    # inertial vacuum minus wedge vacuum, in wedge components: +1/(48 pi)
    rng = random.Random(5)
    st_m, st_r = minkowski_state(), rindler_state()
    for _ in range(20):
        p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3), "rindler")
        tm = expectation_stress(st_m, RIND, p)
        tr = expectation_stress(st_r, RIND, p)
        assert close(tm.t_uu - tr.t_uu, INV_48PI, 1e-12)


# ---------- orthonormal frame ----------

def test_orthonormal_rindler_values():
    st = rindler_state()
    # zeta = 0 -> energy density -1/(24 pi)
    s = theta_components(st, Point(0.0, 0.0, "rindler"))
    o = to_orthonormal_frame(s)
    assert close(o.energy_density, -INV_24PI)
    assert close(o.pressure, INV_24PI)
    assert abs(o.flux) < 1e-15
    # rho = 2 -> -1/(96 pi)
    zeta = math.log(2.0)
    s = theta_components(st, Point(-zeta, zeta, "rindler"))
    o = to_orthonormal_frame(s)
    assert close(o.energy_density, -1.0 / (96.0 * math.pi))
    assert close(o.pressure, 1.0 / (96.0 * math.pi))


def test_orthonormal_minkowski_zero():
    o = to_orthonormal_frame(
        theta_components(minkowski_state(), Point(1.0, 2.0, "minkowski")))
    assert o.energy_density == 0.0 and o.pressure == 0.0 and o.flux == 0.0


def test_orthonormal_mirror_state_has_flux():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    s = expectation_stress(sc.state, RIND, Point(1.0, 1.5, "rindler"))
    o = to_orthonormal_frame(s)
    assert o.flux != 0.0


def test_orthonormal_frame_out_of_float_range_is_coverage_error():
    # the curved chart's factor (u + v)^2 overflows at u = 1e300; the
    # chart says so
    st = build_scenario("minkowski_vacuum_rindler_observer").state
    s = expectation_stress(st, get_chart("curved-test"),
                           Point(1e300, 1286258.064567808, "curved-test"))
    with pytest.raises(CoverageError, match=r"chart 'curved-test': conformal "
                       r"factor at \(1e\+300, 1286258\.064567808\) leaves "
                       r"the double-precision range"):
        to_orthonormal_frame(s)


# ---------- conservation ----------

def test_conservation_rindler_vacuum():
    rep = check_conservation(rindler_state(), RIND, (-2.0, 2.0, -2.0, 2.0), 12)
    assert rep.max_residual < 1e-10


def test_conservation_mirror_state_minkowski():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    # v - u > 2 on the whole region: no point lies behind the mirror
    rep = check_conservation(sc.state, MINK, (-1.95, 3.0, 5.2, 9.0), 12)
    assert rep.max_residual < 1e-9


def test_conservation_mirror_state_rindler():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    lo = math.log(0.5) + 0.05
    rep = check_conservation(sc.state, RIND, (lo, lo + 4.0, 1.0, 3.0), 12)
    assert rep.max_residual < 1e-9
    # oracle: the closed forms depend on one coordinate each, so their
    # cross derivatives vanish identically
    eps = 1e-6
    w = lambda ub: -INV_48PI * math.exp(-2 * ub) / (2 - math.exp(-ub)) ** 2
    assert abs(w(1.0) - w(1.0)) == 0.0


def _relabeled_curved_chart():
    """The curved test chart relabeled by u = sinh(c1), v = c2/2 + 1/4."""
    sinh = ChartMap(fn=jsinh, dfn=jcosh, inverse_fn=jasinh, monotone_sign=1,
                    label="sinh", range_hint=Interval())
    affine = ChartMap(fn=lambda x: 0.5 * x + 0.25,
                      dfn=lambda x: 0.0 * x + 0.5,
                      inverse_fn=lambda y: 2.0 * (y - 0.25), monotone_sign=1,
                      label="affine", range_hint=Interval())
    return compose_charts(synthetic_curved_chart(), sinh, affine,
                          "curved-relabeled")


@pytest.mark.parametrize("state_chart,observe", [
    ("curved", "curved"), ("curved", "relabeled"), ("relabeled", "curved"),
])
def test_conservation_of_a_curved_vacuum(state_chart, observe):
    # the only vacua whose T_12 is not 0, so conservation does not hold
    # structurally: it read 0.106 while T_12 had the wrong sign and the
    # Christoffel term was added.  Seen from the relabeled chart, every
    # derivative passes through the transitions
    charts_ = {"curved": synthetic_curved_chart(),
               "relabeled": _relabeled_curved_chart()}
    st = VacuumSpec(charts_[state_chart], "full_line", label="curved_vacuum")
    rep = check_conservation(st, charts_[observe], (0.5, 2.0, 0.5, 2.0), 10)
    assert rep.max_residual < 1e-12


def test_conservation_margin_guard():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    with pytest.raises(MarginError):
        check_conservation(sc.state, MINK, (-2.0005, 1.0, 0.5, 2.0), 4)


def test_conservation_margin_is_the_module_constant():
    # the sector ray is c1 = -2: a region edge inside MARGIN of it is
    # refused, one just outside is evaluated
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    with pytest.raises(MarginError, match=f"margin {MARGIN}"):
        check_conservation(sc.state, MINK,
                           (-2.0 + 0.5 * MARGIN, 1.0, 0.5, 2.0), 4)
    rep = check_conservation(sc.state, MINK,
                             (-2.0 + 2.0 * MARGIN, 1.0, 3.5, 5.0), 4)
    assert rep.max_residual < 1e-9


@pytest.mark.parametrize("region,n", [
    # reversed c1 axis across the sector ray c1 = -2: it passed the margin
    # guard and returned a residual of 4.7e-17
    ((1.0, -2.0005, 0.5, 2.0), 4),
    ((-1.0, 1.0, 2.0, 0.5), 4),
    ((-1.0, -1.0, 0.5, 2.0), 4),
    ((-1.0, math.inf, 0.5, 2.0), 4),
    ((-1.0, 1.0, math.nan, 2.0), 4),
    # no points: the residual was a passing 0.0
    ((-1.0, 1.0, 0.5, 2.0), 0),
    ((-1.0, 1.0, 0.5, 2.0), -3),
])
def test_conservation_rejects_empty_or_reversed_grids(region, n):
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    with pytest.raises(ValueError, match="n >= 1 and finite lo < hi"):
        check_conservation(sc.state, MINK, region, n)


def test_conservation_single_point_takes_the_centre():
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    # the centre (0, 5) is also the middle point of the 3 x 3 grid
    one = check_conservation(sc.state, MINK, (-1.0, 1.0, 4.0, 6.0), 1)
    three = check_conservation(sc.state, MINK, (-1.0, 1.0, 4.0, 6.0), 3)
    assert one.n == 1
    assert one.max_residual <= three.max_residual < 1e-9


def test_component_functions_accept_jets():
    # derivatives of the observed field straight through the transforms
    # of the governing chart
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    u, v = -1.2, 2.5
    components = vs._gov_components(
        sc.state, governing_chart(sc.state, MINK, u), MINK)
    t11, _, _ = components(Jet1(Jet1(u, 1.0), 0.0), Jet1(Jet1(v, 0.0), 1.0))
    # value matches the closed form; du derivative matches its analytic
    # derivative; dv derivative vanishes (outgoing sector)
    want = -INV_48PI / (2.0 + u) ** 2
    dwant = 2.0 * INV_48PI / (2.0 + u) ** 3
    assert close(t11.value.value, want, 1e-11)
    assert close(t11.value.d1, dwant, 1e-10)
    assert abs(t11.d1.value) < 1e-16


@pytest.mark.parametrize("scenario,region,first", [
    # v - u <= 2 everywhere: the whole region lies behind the a = 1 mirror
    ("mirror_in_rindler_vacuum", (2.9, 3.0, 0.2, 0.3), (2.9, 0.2)),
    # u v >= -1 at the first point: outside the accelerated mirror's side
    ("accelerated_mirror_minkowski", (-4.0, -0.5, 0.1, 0.2), (-4.0, 0.1)),
])
def test_conservation_refuses_points_outside_the_state(scenario, region,
                                                       first):
    # the error of the first failing point in row-major order, class and
    # text as point evaluation raises it
    sc = build_scenario(scenario, {"a": 1.0})
    want = _outcome(expectation_stress, sc.state, MINK,
                    Point(*first, "minkowski"))
    assert want[0] is StateRegionError
    assert _outcome(check_conservation, sc.state, MINK, region, 3) == want


# ---------- the sector table ----------

def test_sector_table_of_each_built_in_state():
    inf = math.inf
    for a in (0.5, 1.0, 2.0):
        states = {name: build_scenario(name, {"a": a}).state
                  for name in SCENARIO_NAMES}
        want = {
            "rindler_vacuum": [("rindler", Interval(-inf, 0.0))],
            "minkowski_vacuum_rindler_observer": [("minkowski", Interval())],
            "mirror_in_rindler_vacuum": [
                (f"hatted:mirror_in_rindler_vacuum:a={a!r}",
                 Interval(-2.0 / a, inf)),
                ("rindler", Interval(-inf, -2.0 / a))],
            "accelerated_mirror_minkowski": [
                (f"hatted:accelerated_mirror_minkowski:a={a!r}",
                 Interval(-inf, 0.0))],
        }
        for name, state in states.items():
            assert [(gov.name, rng) for gov, rng in state.sectors] == \
                want[name]


def _reference_singular_rays(state, observe):
    """The rays as derived from the boundary kind before the sector
    table, kept as its reference."""
    rays_u, rays_v = [], []

    def add(rays, own_map, base_value):
        if math.isfinite(base_value) and own_map.range.contains(base_value):
            rays.append(own_map.invert(base_value))

    if state.boundary == "full_line":
        for end in (state.chart.u_map.range.lo, state.chart.u_map.range.hi):
            add(rays_u, observe.u_map, end)
        for end in (state.chart.v_map.range.lo, state.chart.v_map.range.hi):
            add(rays_v, observe.v_map, end)
    else:
        # the mirror sector: the mirror chart's u range, narrowed to a
        # declared reflected range
        own = state.chart.u_map.range
        if state.reflected_u_range is not None:
            own = own.intersect(state.reflected_u_range)
        for end in (own.lo, own.hi):
            add(rays_u, observe.u_map, end)
        for end in (state.chart.v_map.range.lo, state.chart.v_map.range.hi):
            add(rays_v, observe.v_map, end)
    for dom, rays in ((observe.u_map.domain, rays_u),
                      (observe.v_map.domain, rays_v)):
        rays.extend(e for e in (dom.lo, dom.hi) if math.isfinite(e))
    return rays_u, rays_v


def _reference_coverage_interval(state, observe, side):
    """The coverage interval as derived from the boundary kind before the
    sector table, kept as its reference."""
    o_map = observe.u_map if side == "u" else observe.v_map
    if state.boundary == "full_line":
        charts_ = [state.chart]
    else:
        charts_ = [c for c in (state.chart, state.ambient_chart)
                   if c is not None]
    base_lo = min((c.u_map if side == "u" else c.v_map).range.lo
                  for c in charts_)
    base_hi = max((c.u_map if side == "u" else c.v_map).range.hi
                  for c in charts_)
    rng = o_map.range
    lo_b, hi_b = max(base_lo, rng.lo), min(base_hi, rng.hi)
    lo = o_map.invert(lo_b) if lo_b > rng.lo else -math.inf
    hi = o_map.invert(hi_b) if hi_b < rng.hi else math.inf
    return lo, hi


def _table_cases():
    """(state, observe chart) for every built-in state at three
    accelerations and the derived-chart state, each observed in the
    inertial, the wedge and its own chart."""
    states = [build_scenario(name, {"a": a}).state
              for name in SCENARIO_NAMES for a in (0.5, 1.0, 2.0)]
    states.append(_derived_mirror_state())
    return [(state, observe) for state in states
            for observe in (MINK, RIND, state.chart)]


def test_rays_and_coverage_match_the_boundary_derivation():
    for state, observe in _table_cases():
        case = (state.label, state.chart.name, observe.name)
        axes = vs._axes(state, observe)
        assert [set(rays) for rays, _ in axes] == [
            set(rays) for rays in _reference_singular_rays(state, observe)], \
            case
        assert [coverage for _, coverage in axes] == [
            _reference_coverage_interval(state, observe, side)
            for side in ("u", "v")], case


def test_declared_reflected_range_only_narrows_the_mirror_sector():
    # the derived state's chart covers u in (-2, 0): declaring the wider
    # (-2, inf) changes neither the table, nor the rays, nor the coverage
    bare = _derived_mirror_state()
    declared = dataclasses.replace(bare,
                                   reflected_u_range=Interval(-2.0, math.inf))
    assert [(g.name, r) for g, r in declared.sectors] == \
        [(g.name, r) for g, r in bare.sectors] == \
        [(bare.chart.name, Interval(-2.0, 0.0)),
         ("rindler", Interval(-math.inf, -2.0))]
    for observe in (MINK, RIND, bare.chart):
        assert vs._axes(declared, observe) == vs._axes(bare, observe)


def test_conservation_keeps_the_margin_at_the_mirror_chart_edge():
    # u = 0 ends the derived chart's coverage, so it is a singular ray:
    # the region is refused before any point is evaluated
    with pytest.raises(MarginError, match=r"singular ray c1=0\.0 "):
        check_conservation(_derived_mirror_state(), MINK,
                           (-1.0, 1.0, 3.0, 4.0), 4)


@pytest.mark.parametrize("u", [0.0, 0.5, -4e-309])
def test_accelerated_mirror_refuses_u_outside_the_reflection_domain(u):
    # p(u) = -1/(a^2 u) is defined for u < 0 only: u = 0 is refused as
    # off the mirror's side, not through a division by zero; at
    # u = -4e-309, p(u) overflows, so v > p(u) fails there too
    sc = build_scenario("accelerated_mirror_minkowski", {"a": 1.0})
    with pytest.raises(StateRegionError):
        expectation_stress(sc.state, MINK, Point(u, 1.0, "minkowski"))
    grid = expectation_stress_grid(sc.state, MINK, [u], [1.0])
    assert grid.status.tolist() == [[vs.REGION]]


# ---------- trace anomaly ----------

def test_anomaly_flat_charts_both_terms_tiny():
    for st, chart in [(rindler_state(), RIND), (minkowski_state(), MINK)]:
        for c1, c2 in [(0.0, 0.0), (1.2, -0.7)]:
            p = Point(c1, c2, chart.name)
            assert anomaly_check(st, p) < 1e-12
            s = theta_components(st, p)
            c = chart.conformal_factor(c1, c2)
            assert abs(4.0 / c * s.t_uv) < 1e-12
            assert abs(chart.ricci_scalar(c1, c2)) < 1e-12


def test_anomaly_curved_chart_vs_symbolic():
    curved = synthetic_curved_chart()
    st = VacuumSpec(curved, "full_line", label="curved_vacuum")
    for u, v in [(0.5, 0.8), (1.0, 1.0), (2.0, 0.3)]:
        p = Point(u, v, curved.name)
        assert anomaly_check(st, p) < 1e-10
        # both sides against the hand-derived R = 8/(u+v)^4
        s = theta_components(st, p)
        c = curved.conformal_factor(u, v)
        r_symbolic = 8.0 / (u + v) ** 4
        assert close(4.0 / c * s.t_uv, r_symbolic / (24.0 * math.pi), 1e-10)
        assert close(curved.ricci_scalar(u, v), r_symbolic, 1e-10)


def _quartic_chart():
    """Identity chart carrying the curved factor C = 1 + u^2 v^2."""
    return ConformalChart(
        "quartic-test", identity_map("u"), identity_map("v"),
        base_factor=lambda ju, jv: 1.0 + (ju * ju) * (jv * jv))


@pytest.mark.parametrize("factor", ["(u + v)^2", "1 + u^2 v^2"])
def test_curved_vacuum_components_match_a_conserved_symbolic_tensor(factor):
    # an oracle that shares no code with the engine: for ds^2 = C du dv,
    # sympy takes T_uu = F_u(C)/24pi, T_vv = F_v(C)/24pi and
    # T_uv = -d2(ln C)/du dv / 24pi, and from the metric's own Christoffel
    # symbols and Riemann tensor (MTW's sign) it finds the divergence 0
    # and the trace R/24pi.  The code's components and R match them
    sp = pytest.importorskip("sympy")
    u, v = xs = sp.symbols("u v", real=True)
    C = (u + v) ** 2 if factor == "(u + v)^2" else 1 + u ** 2 * v ** 2
    chart = synthetic_curved_chart() if factor == "(u + v)^2" \
        else _quartic_chart()
    g = sp.Matrix([[0, C / 2], [C / 2, 0]])
    gi = g.inv()
    n = range(2)
    gamma = [[[sum(gi[a, d] * (sp.diff(g[d, b], xs[c])
                               + sp.diff(g[d, c], xs[b])
                               - sp.diff(g[b, c], xs[d])) for d in n) / 2
               for c in n] for b in n] for a in n]

    def riemann(a, b, c, d):  # R^a_bcd
        return (sp.diff(gamma[a][d][b], xs[c]) - sp.diff(gamma[a][c][b], xs[d])
                + sum(gamma[a][c][e] * gamma[e][d][b]
                      - gamma[a][d][e] * gamma[e][c][b] for e in n))

    ricci = sp.cancel(sum(gi[b, d] * riemann(a, b, a, d)
                            for a in n for b in n for d in n))

    def F(x):
        r = sp.diff(C, x) / C
        return sp.diff(C, x, 2) / C - sp.Rational(3, 2) * r ** 2

    k = 1 / (24 * sp.pi)
    t = sp.Matrix([[k * F(u), -k * sp.diff(sp.log(C), u, v)],
                   [-k * sp.diff(sp.log(C), u, v), k * F(v)]])
    for c in n:
        divergence = sum(gi[a, b] * (sp.diff(t[b, c], xs[a])
                                     - sum(gamma[e][a][b] * t[e, c]
                                           + gamma[e][a][c] * t[b, e]
                                           for e in n))
                         for a in n for b in n)
        assert sp.cancel(divergence) == 0
    trace = sum(gi[a, b] * t[a, b] for a in n for b in n)
    assert sp.cancel(trace - ricci / (24 * sp.pi)) == 0

    want = sp.lambdify((u, v), (t[0, 0], t[1, 1], t[0, 1], ricci))
    st = VacuumSpec(chart, "full_line", label="curved_vacuum")
    for c1, c2 in [(0.5, 0.8), (2.0, 0.3), (-0.4, 1.1), (1.5, -0.5)]:
        s = theta_components(st, Point(c1, c2, chart.name))
        got = (s.t_uu, s.t_vv, s.t_uv, chart.ricci_scalar(c1, c2))
        assert got == pytest.approx(want(c1, c2), rel=1e-12, abs=1e-15)


def _nested_jet_mixed_log_derivative(chart, cu, cv):
    """d2(ln C)/dc1 dc2 through two nested first-order seeds on any chart:
    the engine's route for charts with a base factor (up to T_12's sign),
    and the oracle of the exact zero it takes on the others."""
    a1 = Jet1(Jet1(cu, 1.0), 0.0)
    a2 = Jet1(Jet1(cv, 0.0), 1.0)
    return jlog(chart.factor(a1, a2)).d1.d1


@pytest.mark.parametrize("make_chart,c1_window", [
    (lambda: RIND, (-3.0, 3.0)),
    (lambda: build_scenario("mirror_in_rindler_vacuum",
                            {"a": 1.0}).state.chart, (-3.0, 0.6)),
    (lambda: build_scenario("accelerated_mirror_minkowski",
                            {"a": 1.0}).state.chart, (0.05, 3.0)),
    (lambda: _derived_mirror_state().chart, (-3.0, 0.6)),
], ids=["rindler", "hatted-stationary", "hatted-accelerated", "derived"])
def test_mixed_log_derivative_is_zero_on_flat_charts(make_chart, c1_window):
    # ln C = ln u'(c1) + ln v'(c2) on a chart without a base factor: the
    # nested-jet route agrees with the exact zero to rounding (3.3e-16 at
    # worst on the derived chart, which inverts numerically)
    chart = make_chart()
    assert chart.base_factor is None
    rng = random.Random(7)
    for _ in range(200):
        c1, c2 = rng.uniform(*c1_window), rng.uniform(-3.0, 3.0)
        assert vs._mixed_log_derivative(chart, c1, c2) == 0.0
        assert abs(_nested_jet_mixed_log_derivative(chart, c1, c2)) <= 4e-16


def test_rindler_vacuum_t_uv_is_zero_where_the_nested_route_overflows():
    # far out in c1 the nested-jet route overflows (it reads -1 at c1 =
    # -569 and -400); T_uv must still be the closed form's exact 0
    sc = build_scenario("rindler_vacuum", {"a": 1.0})
    c1 = np.array([-569.0, -400.0, -360.0])
    c2 = np.array([-1.0, 0.5, 2.0])
    g = expectation_stress_grid(sc.state, RIND, c1, c2)
    assert (g.status == 0).all()
    assert (g.t_uv == 0.0).all()
    for i, j in np.ndindex(g.t_uv.shape):
        ref = closed_form_reference(sc, Point(c1[i], c2[j], "rindler"))
        assert (g.t_uu[i, j], g.t_vv[i, j], g.t_uv[i, j]) == \
            (ref.t_uu, ref.t_vv, ref.t_uv)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("make_state", [
    rindler_state,
    lambda: VacuumSpec(synthetic_curved_chart(), "full_line",
                       label="curved_vacuum"),
    lambda: build_scenario("accelerated_mirror_minkowski",
                           {"a": 1.0}).state,
], ids=["rindler", "curved", "hatted-hyperbola"])
def test_own_chart_operations_name_a_non_finite_point(make_state, bad):
    # as expectation_stress does: the error names the point and the state
    st = make_state()
    for c1, c2 in ((bad, 0.5), (0.5, bad)):
        p = Point(c1, c2, st.chart.name)
        want = (rf"point \({c1}, {c2}\) of chart '{re.escape(st.chart.name)}'"
                rf" lies outside the coverage of state '{st.label}'")
        for operation in (theta_components, anomaly_check):
            with pytest.raises(CoverageError, match=want):
                operation(st, p)


@pytest.mark.parametrize("a,p,theta", [
    # the hatted v map overflows there: both raised a bare OverflowError
    (0.0713605881269414,
     Point(0.7779480780120309, 6624.536950820924, "hatted"), None),
    # the nested-jet T_12 was -inf there: anomaly_check returned NaN and
    # theta_components -inf.  T_12 is exactly 0 on the flat hatted chart,
    # so theta_components is finite; the curvature still overflows
    (2.7403270101556727e-05,
     Point(0.5612695558650129, 1e-300, "curved-test"),
     (-INV_48PI, -INV_48PI, 0.0)),
], ids=["overflow", "infinite-t12"])
def test_own_chart_operations_raise_the_float_range_error(a, p, theta):
    st = build_scenario("mirror_in_rindler_vacuum", {"a": a}).state
    if p.chart == "hatted":
        p = dataclasses.replace(p, chart=st.chart.name)
    want = (r"of chart 'hatted:mirror_in_rindler_vacuum:a=[0-9.e-]+': the "
            r"stress of state 'mirror_in_rindler_vacuum' is outside the "
            r"double-precision range there")
    operations = (theta_components, anomaly_check)
    if theta is not None:
        s = theta_components(st, p)
        assert (s.t_uu, s.t_vv, s.t_uv) == theta
        operations = (anomaly_check,)
    for operation in operations:
        with pytest.raises(CoverageError, match=want):
            operation(st, p)


# ---------- forward-only derived charts ----------

def _derived_relabel():
    """u* -> -log(2 - exp(u*)): the wedge-to-mirror relabeling at a = 1,
    given forward only (no derivative, no inverse)."""
    return ChartMap(fn=lambda x: -jlog(2.0 - jexp(x)),
                    domain=Interval(-math.inf, math.log(2.0)),
                    label="derived-u")


def _derived_mirror_state():
    """The a = 1 mirror state on the wedge chart relabeled forward only;
    the chart equals the hatted one, u = exp(u*) - 2, but inverts
    numerically."""
    chart = compose_charts(RIND, _derived_relabel(), identity_map(),
                           "derived:mirror_in_rindler_vacuum:a=1",
                           global_class="half_line")
    return VacuumSpec(chart, "dirichlet_half_line",
                      label="mirror_in_rindler_vacuum", ambient_chart=RIND,
                      region_predicate=lambda u, v: v - u > 2.0)


def test_numeric_inverse_keeps_inner_derivatives():
    # the derived u-map's inverse against the hatted closed form
    # log(u + 2), on seeds whose coefficients are jets themselves
    u_map = _derived_mirror_state().chart.u_map
    assert u_map.inverse_fn is None  # inverts numerically
    numeric = u_map.inverse_map()
    closed = lambda y: jlog(y + 2.0)
    for y in (-1.7, -1.0, -0.3):
        for arg in (Jet1(Jet1(y, 1.0), 0.0),
                    Jet1(Jet1(y, 0.4), Jet1(1.0, -0.3)),
                    Jet3(seed(y), 0.5, 0.1, 0.2),
                    Jet3(Jet3(y, 1.0, 0.0, 0.0), 0.0, 1.0, 0.0)):
            got, want = leaves(numeric(arg)), leaves(closed(arg))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                # worst measured 1.4e-13, in a third-order coefficient
                # at y = -0.3, so the bound leaves a margin of 3.5
                assert close(g, w, 5e-13)


def test_derived_chart_component_jets_match_hatted_state():
    # value, d/dc1 and d/dc2 of every component, through the numeric
    # inverse, against the closed-form hatted chart
    derived = _derived_mirror_state()
    hatted = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0}).state
    lo = math.log(0.5)
    for c1, c2 in ((lo + 0.05, 1.0), (lo + 1.3, 2.2), (lo + 3.9, 3.0)):
        a1, a2 = Jet1(Jet1(c1, 1.0), 0.0), Jet1(Jet1(c2, 0.0), 1.0)
        pairs = zip(*(vs._gov_components(st, governing_chart(st, RIND, c1),
                                         RIND)(a1, a2)
                      for st in (derived, hatted)))
        for got, want in pairs:
            for g, w in ((got.value.value, want.value.value),
                         (got.value.d1, want.value.d1),
                         (got.d1.value, want.d1.value)):
                assert abs(g - w) <= 1e-12 * max(INV_48PI, abs(w))


def _jet3_seeded_dfn(m, x):
    """The derivative of a map given without one, as it was taken before
    the first-order seed: the d1 slot of fn on an order-3 seed over x.
    Kept as the reference for ChartMap._auto_dfn."""
    return m.fn(Jet3(x, 1.0, 0.0, 0.0)).d1


def test_auto_derivative_matches_jet3_seeded_reference():
    moebius = ChartMap(fn=lambda x: (1.3 * x - 0.4) / (0.7 * x + 1.1),
                       label="moebius", monotone_sign=1)
    eps = np.finfo(float).eps
    for m in (_derived_relabel(), moebius):
        assert m.dfn == m._auto_dfn
        args = [np.array([-1.2, -0.2, 0.5])]
        for x in (-1.2, -0.2, 0.5):
            args += [x, seed(x), Jet3(x, 0.7, -0.3, 0.2),
                     Jet1(Jet1(x, 1.0), 0.0), Jet1(Jet1(x, 0.0), 1.0)]
        for arg in args:
            got, want = leaves(m.dfn(arg)), leaves(_jet3_seeded_dfn(m, arg))
            assert len(got) == len(want)
            scale = max(np.max(np.abs(w)) for w in want)
            for g, w in zip(got, want):
                assert np.all(np.abs(g - w) <= 4.0 * eps * scale)


def test_point_evaluation_inverts_each_target_once(monkeypatch):
    # the u-transition's value and derivative at a point share one
    # numeric root
    targets = []
    invert = ChartMap.invert

    def counting(m, target):
        if m.inverse_fn is None:
            targets.append(target)
        return invert(m, target)

    monkeypatch.setattr(ChartMap, "invert", counting)
    state = _derived_mirror_state()
    for c1 in (0.3, 1.1):
        expectation_stress(state, RIND, Point(c1, 2.5, "rindler"))
    assert targets == [-math.exp(-0.3), -math.exp(-1.1)]


def test_grid_evaluation_inverts_each_axis_entry_once(monkeypatch):
    # a grid of the derived state inverts its c1 column once, shared by
    # the u transition's value and derivative, not once per point
    state = _derived_mirror_state()
    c1 = np.linspace(_EDGE + 0.1, _EDGE + 3.0, 5)
    c2 = np.linspace(1.0, 3.0, 4)
    expectation_stress_grid(state, RIND, c1[:1], c2[:1])  # builds the maps
    targets = []
    invert = ChartMap.invert

    def counting(m, target):
        if m.inverse_fn is None:
            targets.append(target)
        return invert(m, target)

    monkeypatch.setattr(ChartMap, "invert", counting)
    grid = expectation_stress_grid(state, RIND, c1, c2)
    assert (grid.status == 0).all()
    assert targets == (-np.exp(-c1)).tolist()


def test_root_on_the_domain_end_is_a_float_range_failure():
    # base u = -1e-17 lies inside the derived chart's u range (-2, 0), but
    # its root log(2 - 1e-17) rounds onto the domain end log 2, so no
    # double inside the domain inverts it: the point raises the
    # float-range error, not NoRootError, and the grid flags float range
    state = _derived_mirror_state()
    with pytest.raises(CoverageError, match="double-precision range"):
        expectation_stress(state, MINK, Point(-1e-17, 5.0, "minkowski"))
    grid = expectation_stress_grid(state, MINK, [-1e-17, -0.5], [5.0])
    assert grid.status.tolist() == [[vs.FLOAT_RANGE], [vs.OK]]


def test_root_past_the_last_double_is_a_coverage_error():
    # the same root, asked of the map and of convert_point: invert raised
    # NoRootError for a target inside the range, and convert_point passed
    # it on
    chart = _derived_mirror_state().chart
    assert chart.u_map.range.contains(-1e-17)
    with pytest.raises(CoverageError, match="double-precision range"):
        chart.u_map.invert(-1e-17)
    with pytest.raises(CoverageError, match="double-precision range"):
        charts.convert_point(Point(-1e-17, 5.0, "minkowski"), chart)


def test_point_evaluation_differentiates_the_derived_map_once_per_kind():
    # at the root xi of the u transition: one pass on the float, shared by
    # the transition's Jacobian and the factor of T_22 at xi held
    # constant; one on the order-3 seed of T_11.  Holding xi as a constant
    # Jet3 took a second Jet3 pass
    passes = []
    relabel = _derived_relabel()
    forward = relabel.fn

    def counting(x):
        passes.append(x)
        return forward(x)

    relabel.fn = counting
    chart = compose_charts(RIND, relabel, identity_map(),
                           "derived:counting", global_class="half_line")
    state = VacuumSpec(chart, "dirichlet_half_line",
                       label="mirror_in_rindler_vacuum", ambient_chart=RIND,
                       region_predicate=lambda u, v: v - u > 2.0)
    m_u = state.transitions(chart, RIND, "u")
    for c1 in (-0.4, 0.3, 1.1):
        passes.clear()
        expectation_stress(state, RIND, Point(c1, 2.5, "rindler"))
        root = m_u(c1)
        tangents = [x.value for x in passes if isinstance(x, Jet1)]
        assert [x for x in tangents if x.__class__ is float
                and x == root] == [root]
        assert len([x for x in tangents if isinstance(x, Jet3)]) == 1


# ---------- parity with per-component evaluation ----------

def _reference_gov_components(state, gov, observe):
    """(t11, t22, t12) as three closures, each evaluating its own
    transitions and Jacobians: the evaluation the single evaluator
    replaced, kept as its reference."""
    m_u = state.transitions(gov, observe, "u")
    m_v = state.transitions(gov, observe, "v")

    def t11(c1, c2):
        xi, eta, jac = m_u(c1), m_v(c2), m_u.dfn(c1)
        return INV_24PI * ((jac * jac) * vs._theta_F(gov, xi, eta, "u"))

    def t22(c1, c2):
        xi, eta, jac = m_v(c2), m_u(c1), m_v.dfn(c2)
        return INV_24PI * ((jac * jac) * vs._theta_F(gov, eta, xi, "v"))

    def t12(c1, c2):
        xi, eta = m_u(c1), m_v(c2)
        jac = m_u.dfn(c1) * m_v.dfn(c2)
        return INV_24PI * (jac * vs._mixed_log_derivative(gov, xi, eta))

    return t11, t22, t12


def _two_pass_compose_maps(outer, inner, label=None):
    """compose_maps with a derivative that evaluates inner's value and
    inner's derivative in two passes: the reference for the one-pass
    derivative over a forward-only inner map."""
    m = compose_maps(outer, inner, label)

    def dfn(x):
        y = inner.fn(x)
        return outer.dfn(y) * inner.dfn(x)

    m.dfn = dfn
    return m


def _install_reference(mp):
    """Route the stress engine through the reference evaluation, which
    also holds a float coordinate as a constant Jet3."""
    def gov_components(state, gov, observe):
        closures = _reference_gov_components(state, gov, observe)
        return lambda c1, c2: tuple(f(c1, c2) for f in closures)

    for module in (charts, vs):
        mp.setattr(module, "compose_maps", _two_pass_compose_maps)
    mp.setattr(vs, "_gov_components", gov_components)
    mp.setattr(vs, "_held", constant)


_EDGE = math.log(0.5)  # sector boundary u = -2 of the a = 1 mirror

# (state, observe chart, conservation box clear of the singular rays);
# "hatted" is the state's own chart
PARITY_CASES = [
    ("rindler_vacuum", "rindler", (-3.0, 3.0, -3.0, 3.0)),
    ("rindler_vacuum", "minkowski", (-4.0, -0.1, 0.1, 4.0)),
    ("minkowski_vacuum_rindler_observer", "rindler", (-3.0, 3.0, -3.0, 3.0)),
    ("minkowski_vacuum_rindler_observer", "minkowski",
     (-3.0, 3.0, -3.0, 3.0)),
    ("mirror_in_rindler_vacuum", "rindler",
     (_EDGE + 0.05, _EDGE + 4.0, -_EDGE + 0.05, -_EDGE + 3.0)),
    ("mirror_in_rindler_vacuum", "minkowski", (-1.95, 2.0, 4.5, 8.0)),
    ("mirror_in_rindler_vacuum", "hatted", (-1.0, 1.0, 1.2, 3.0)),
    ("accelerated_mirror_minkowski", "minkowski", (-4.0, -0.5, 2.5, 5.0)),
    ("accelerated_mirror_minkowski", "hatted", (0.2, 1.0, 1.2, 3.0)),
    ("derived", "rindler", (_EDGE + 0.05, _EDGE + 4.0, 1.0, 3.0)),
]


def _outcome(f, *args):
    """f(*args), or the class and text of the error it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the error is part of the compared output
        return type(exc), str(exc)


def _array_key(a):
    return a.dtype.str, a.shape, a.tobytes()


def _sample_key(s):
    """A stress sample's chart by name, with every other field: each side
    builds its own states, so a hatted chart is a different object."""
    if not isinstance(s, vs.StressSample):
        return s
    return s.chart.name, s.t_uu, s.t_vv, s.t_uv, s.state, s.point


def _parity_outputs(name, chart_name, box):
    """Every output of the stress engine for one case, in a form that
    compares exactly: point and grid evaluation over the box widened past
    the singular rays, the orthonormal frame of each, a conservation
    report, and the components of the governing chart on floats and on
    nested first-order seeds."""
    state = _derived_mirror_state() if name == "derived" \
        else build_scenario(name, {"a": 1.0}).state
    chart = state.chart if chart_name == "hatted" else get_chart(chart_name)
    lo1, hi1, lo2, hi2 = box
    w1, w2 = 0.3 * (hi1 - lo1), 0.3 * (hi2 - lo2)
    c1 = np.linspace(lo1 - w1, hi1 + w1, 9)
    c2 = np.linspace(lo2 - w2, hi2 + w2, 7)
    out = []
    for x in c1[::2].tolist():
        for y in c2[::2].tolist():
            s = _outcome(expectation_stress, state, chart,
                         Point(x, y, chart.name))
            out += [_sample_key(s), _outcome(to_orthonormal_frame, s)
                    if isinstance(s, vs.StressSample) else None]
    g = _outcome(expectation_stress_grid, state, chart, c1, c2)
    if isinstance(g, vs.StressGrid):
        status, o = orthonormal_grid(g)
        out += [_array_key(a) for a in (g.t_uu, g.t_vv, g.t_uv, g.status,
                                         status, o.energy_density,
                                         o.pressure, o.flux)]
    else:
        out.append(g)
    out.append(_outcome(check_conservation, state, chart, box, 4))
    for x, y in ((lo1, lo2), (0.5 * (lo1 + hi1), hi2)):
        components = vs._gov_components(
            state, governing_chart(state, chart, x), chart)
        for args in ((x, y), (Jet1(Jet1(x, 1.0), 0.0),
                              Jet1(Jet1(y, 0.0), 1.0))):
            out += [leaves(t) for t in components(*args)]
    return out


@pytest.mark.parametrize("name,chart_name,box", PARITY_CASES)
def test_single_pass_evaluation_matches_reference_bit_for_bit(
        monkeypatch, name, chart_name, box):
    # the transition maps are cached per state: each side builds fresh
    # states, so the reference's have two-pass composite derivatives
    got = _parity_outputs(name, chart_name, box)
    with monkeypatch.context() as mp:
        _install_reference(mp)
        want = _parity_outputs(name, chart_name, box)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
