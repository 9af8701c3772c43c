"""Mirror worldlines, chart clipping, asymptotes, reflection maps."""

import math

import pytest

from mirrorstress.charts import (
    ChartMap,
    ConformalChart,
    CoverageError,
    Interval,
    MonotonicityError,
    compose_maps,
    convert_point,
    get_chart,
    identity_map,
    point_from_timespace,
    rindler_chart,
    timespace,
)
from mirrorstress.jets import jexp, jlog, lead_value, seed
from mirrorstress.trajectories import (
    Trajectory,
    asymptotes,
    reflection_map,
    stationary_mirror,
    to_chart,
    uniformly_accelerated_mirror,
)
from mirrorstress.vacuum_stress import schwarzian_derivative

RIND = get_chart("rindler")
MINK = get_chart("minkowski")


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------- constructors ----------

def test_stationary_mirror_values():
    m = stationary_mirror(1.0)
    assert m.position(0.0) == (-1.0, 1.0)
    m2 = stationary_mirror(0.5)
    assert m2.position(0.5) == (0.0, 1.0)


def test_stationary_separation_constant():
    m = stationary_mirror(0.7)
    for t in (-5.0, -0.1, 0.0, 2.0, 40.0):
        u, v = m.position(t)
        assert close(v - u, 1.4)


def test_stationary_requires_positive_position():
    with pytest.raises(ValueError):
        stationary_mirror(0.0)
    with pytest.raises(ValueError):
        stationary_mirror(-1.0)


def test_hyperbola_values():
    m = uniformly_accelerated_mirror(1.0)
    assert m.position(0.0) == (-1.0, 1.0)
    for t in (-3.0, -0.4, 0.0, 1.0, 10.0):
        u, v = m.position(t)
        assert close(u * v, -1.0)


def test_hyperbola_product_general_acceleration():
    a = 2.5
    m = uniformly_accelerated_mirror(a)
    # far out, where t - sqrt(t^2 + 1/a^2) or t + sqrt(...) would cancel
    for t in (-1e8, -1e4, -1.0, 0.0, 0.3, 5.0, 1e4, 1e8):
        u, v = m.position(t)
        assert close(u * v, -1.0 / a**2)


def test_hyperbola_sits_at_constant_rindler_distance():
    a = 2.0
    m = uniformly_accelerated_mirror(a)
    for t in (-0.9, 0.0, 0.4, 2.0):
        u, v = m.position(t)
        p = convert_point(point_from_timespace(MINK, 0.5 * (u + v),
                                               0.5 * (v - u)), RIND)
        _, zeta = timespace(p)
        assert close(math.exp(zeta), 1.0 / a, 1e-12)


def test_hyperbola_requires_positive_acceleration():
    with pytest.raises(ValueError):
        uniformly_accelerated_mirror(-0.1)


# ---------- chart conversion ----------

def test_stationary_in_rindler_chart():
    a = 1.0
    bar = to_chart(stationary_mirror(1.0 / a), RIND)
    assert close(bar.domain.lo, -1.0 / a)
    assert close(bar.domain.hi, 1.0 / a)
    ub, vb = bar.position(0.0)
    assert close(ub, 0.0) and close(vb, 0.0)
    # closed forms: U(t) = log a - log(1 - a t), V(t) = log(1 + a t) - log a
    for t in (-0.9, -0.2, 0.5, 0.99):
        ub, vb = bar.position(t)
        assert close(ub, math.log(a) - math.log(1.0 - a * t), 1e-12)
        assert close(vb, math.log(1.0 + a * t) - math.log(a), 1e-12)


def test_entry_and_exit_limits():
    bar = to_chart(stationary_mirror(1.0), RIND)
    # entering the wedge: V -> -inf while U -> log(1/2)
    t = -1.0 + 1e-9
    ub, vb = bar.position(t)
    assert vb < -15.0
    assert close(ub, math.log(0.5), 1e-8)
    # leaving: U -> +inf while V -> -log(1/2)
    t = 1.0 - 1e-9
    ub, vb = bar.position(t)
    assert ub > 15.0
    assert close(vb, -math.log(0.5), 1e-8)


def test_round_trip_through_chart():
    m = stationary_mirror(0.8)
    back = to_chart(to_chart(m, RIND), MINK)
    for t in (-0.7, -0.1, 0.0, 0.5, 0.79):
        u0, v0 = m.position(t)
        u1, v1 = back.position(t)
        assert close(u0, u1) and close(v0, v1)


def test_hyperbola_in_rindler_covers_both_null_lines():
    bar = to_chart(uniformly_accelerated_mirror(1.0), rindler_chart())
    assert bar.U.range == Interval(-math.inf, math.inf)
    assert bar.V.range == Interval(-math.inf, math.inf)


def test_trajectory_outside_coverage():
    # mirror at z0 left of the wedge for all time never enters a chart
    # whose u-coverage is (0, inf) -- flip the wedge by hand
    left_u = ChartMap(fn=jexp, dfn=jexp, inverse_fn=jlog, monotone_sign=1,
                      label="left-u", range_hint=Interval(0.0, math.inf))
    left_v = ChartMap(fn=lambda x: -jexp(-x), dfn=lambda x: jexp(-x),
                      inverse_fn=lambda y: -jlog(-y), monotone_sign=1,
                      label="left-v", range_hint=Interval(-math.inf, 0.0))
    left = ConformalChart("left-wedge", left_u, left_v)
    with pytest.raises(CoverageError):
        to_chart(stationary_mirror(1.0), left)


# ---------- asymptotes ----------

def test_asymptotes_stationary_in_rindler():
    for a in (0.5, 1.0, 2.0):
        bar = to_chart(stationary_mirror(1.0 / a), RIND)
        asym = asymptotes(bar)
        assert asym.past_null_asymptote is not None
        assert asym.future_null_asymptote is not None
        assert close(asym.past_null_asymptote, math.log(a / 2.0), 1e-15)
        assert close(asym.future_null_asymptote, -math.log(a / 2.0), 1e-15)


def test_no_asymptotes_in_minkowski():
    asym = asymptotes(stationary_mirror(1.0))
    assert asym.past_null_asymptote is None
    assert asym.future_null_asymptote is None


def test_asymptotes_hyperbola():
    # U -> 0 as t -> +inf and V -> 0 as t -> -inf: the horizons u = v = 0
    asym = asymptotes(uniformly_accelerated_mirror(1.0))
    assert asym.past_null_asymptote == 0.0
    assert asym.future_null_asymptote == 0.0
    # in the wedge chart both null coordinates run over the whole line
    asym = asymptotes(to_chart(uniformly_accelerated_mirror(1.0), RIND))
    assert asym.past_null_asymptote is None
    assert asym.future_null_asymptote is None


# ---------- reflection maps ----------

def test_reflection_closed_form_values():
    bar = to_chart(stationary_mirror(1.0), RIND)
    refl = reflection_map(bar)
    assert close(lead_value(refl.p(0.0)), 0.0)
    # p -> -inf approaching the validity edge from above
    assert lead_value(refl.p(math.log(0.5) + 1e-12)) < -20.0
    assert close(refl.validity_domain.lo, math.log(0.5))


def test_reflection_constraint_along_worldline():
    # p(U(lam)) = q(V(lam)) along the mirror
    for a in (0.5, 1.0, 2.0):
        bar = to_chart(stationary_mirror(1.0 / a), RIND)
        refl = reflection_map(bar)
        for k in range(1, 40):
            t = -1.0 / a + (2.0 / a) * k / 40.0
            ub, vb = bar.position(t)
            assert abs(lead_value(refl.p(ub)) - lead_value(refl.q(vb))) < 1e-10


def stationary_reflection_in_rindler(a):
    """Oracle: p(x) = log(2 - a e^-x) - log a, on floats or jets."""
    return lambda x: jlog(2.0 - a * jexp(-x)) - math.log(a)


def reflections_of_stationary_in_rindler(a):
    """p composed from the closed-form inverse of U, and from U stripped
    of it, which inverts numerically."""
    bar = to_chart(stationary_mirror(1.0 / a), RIND)
    forward_u = ChartMap(fn=bar.U.fn, dfn=bar.U.dfn, domain=bar.U.domain,
                         monotone_sign=1, label="U-forward",
                         range_hint=bar.U.range)
    numeric_traj = Trajectory(U=forward_u, V=bar.V, domain=bar.domain,
                              label="numeric-inverse", chart="rindler")
    return reflection_map(bar).p, reflection_map(numeric_traj).p


def test_numeric_reflection_matches_closed_form():
    for a in (0.5, 1.0, 2.0):
        oracle = stationary_reflection_in_rindler(a)
        lo = math.log(a / 2.0)
        for p in reflections_of_stationary_in_rindler(a):
            for k in range(1, 1001):
                ub = lo + 0.01 + 8.0 * k / 1000.0
                want = oracle(ub)
                got = lead_value(p(ub))
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_numeric_reflection_jets_match_closed_form():
    oracle = stationary_reflection_in_rindler(1.0)
    for p in reflections_of_stationary_in_rindler(1.0):
        for ub in (-0.5, 0.0, 1.0, 3.0):
            for x, y in zip(p(seed(ub)).as_tuple(),
                            oracle(seed(ub)).as_tuple()):
                assert close(x, y, 1e-9)


def test_stationary_reflection_in_minkowski_is_a_shift():
    for z0 in (0.3, 1.0, 2.5):
        refl = reflection_map(stationary_mirror(z0))
        assert refl.validity_domain == Interval(-math.inf, math.inf)
        for u in (-7.0, -0.4, 0.0, 1.3, 50.0):
            assert close(lead_value(refl.p(u)), u + 2.0 * z0, 1e-15)
            assert close(refl.p.invert(u + 2.0 * z0), u, 1e-15)


def test_hyperbola_reflection_inverse_range_is_exact():
    # the inverse of p = -1/(a^2 u) maps (0, inf) onto (-inf, 0) exactly
    for a in (0.5, 1.0, 3.0):
        p = reflection_map(uniformly_accelerated_mirror(a)).p
        assert compose_maps(p.inverse_map(), identity_map()).range \
            == Interval(-math.inf, 0.0)


def test_hyperbola_reflection_is_moebius():
    # p(u) = -c/u out to both horizons.  Its Schwarzian is a difference of
    # two terms of size 6/u^2, so double rounding leaves about 1e-15/u^2:
    # -8.0 at u = -1e-8 for a = 1.3 even when p is written as -c/u
    for a in (0.5, 1.0, 1.3, 3.0):
        p = reflection_map(uniformly_accelerated_mirror(a)).p
        c = 1.0 / a**2
        for u in (-1e8, -1e4, -5.0, -1.0, -0.2, -1e-3, -1e-8):
            assert close(lead_value(p(u)), -c / u, 1e-14)
            assert abs(schwarzian_derivative(p, u)) * u * u <= 1e-14
            if abs(u) >= 0.2:
                assert abs(schwarzian_derivative(p, u)) <= 1e-10


def test_reflection_requires_monotone_u():
    wiggly = Trajectory(
        U=ChartMapWiggle(), V=stationary_mirror(1.0).V,
        domain=stationary_mirror(1.0).domain, label="wiggle")
    with pytest.raises(MonotonicityError):
        reflection_map(wiggly)


def ChartMapWiggle():
    from mirrorstress.jets import jsinh
    return ChartMap(fn=lambda t: 2.0 * jsinh(t) * 0.0 + t * t * t - t,
                    monotone_sign=1, label="wiggle-U")
