"""Charts: conformal factors, curvature, conversions, inversion."""

import math
import sys
import threading

import numpy as np
import pytest

from mirrorstress.charts import (
    ChartMap,
    CoverageError,
    Interval,
    NoRootError,
    Point,
    compose_charts,
    convert_point,
    get_chart,
    identity_map,
    invert_map,
    minkowski_chart,
    point_from_timespace,
    rindler_chart,
    synthetic_curved_chart,
    timespace,
)
from mirrorstress.jets import jexp, jlog, lead_value, seed


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


MINK = minkowski_chart()
RIND = rindler_chart()
CURVED = synthetic_curved_chart()


# ---------- conformal factor ----------

def test_minkowski_factor_is_one_with_zero_derivatives():
    for c1, c2 in [(0.0, 0.0), (3.0, -2.0), (-10.0, 0.5)]:
        j = MINK.factor_jet_u(c1, c2)
        assert j.as_tuple() == (1.0, 0.0, 0.0, 0.0)
        assert MINK.conformal_factor(c1, c2) == 1.0


def test_rindler_factor_values():
    assert close(RIND.conformal_factor(0.0, 0.0), 1.0)
    assert close(RIND.conformal_factor(1.0, 0.0), math.exp(-1.0))
    # C = exp(c2 - c1) generally
    for c1, c2 in [(0.3, -1.2), (-2.0, 2.0)]:
        assert close(RIND.conformal_factor(c1, c2), math.exp(c2 - c1))


def test_rindler_factor_derivatives_are_exponential_tower():
    c1, c2 = 0.4, -0.9
    ju = RIND.factor_jet_u(c1, c2)
    c = math.exp(c2 - c1)
    assert all(close(g, e) for g, e in zip(ju.as_tuple(), (c, -c, c, -c)))
    jv = RIND.factor_jet_v(c1, c2)
    assert all(close(g, e) for g, e in zip(jv.as_tuple(), (c, c, c, c)))


def test_factor_positive_on_grids():
    n = 100
    for chart in (MINK, RIND):
        for i in range(n):
            for j in range(n):
                c1 = -5.0 + 10.0 * i / (n - 1)
                c2 = -5.0 + 10.0 * j / (n - 1)
                assert chart.conformal_factor(c1, c2) > 0.0
    # curved chart inside its base domain u + v > 0
    for i in range(n):
        for j in range(n):
            assert CURVED.conformal_factor(0.05 + 3.0 * i / n,
                                           0.05 + 3.0 * j / n) > 0.0


def test_metric_components():
    for chart, c1, c2 in [(RIND, 0.7, -0.2), (MINK, 1.0, 2.0)]:
        c = chart.conformal_factor(c1, c2)
        assert chart.metric_uv(c1, c2) == 0.5 * c
        assert chart.metric_uv_inverse(c1, c2) == 2.0 / c
        assert close(chart.metric_uv(c1, c2) * chart.metric_uv_inverse(c1, c2), 1.0)


# ---------- Ricci scalar ----------

def test_ricci_vanishes_for_flat_charts():
    for chart in (MINK, RIND):
        for c1, c2 in [(0.0, 0.0), (1.5, -2.0), (-3.0, 0.25)]:
            assert abs(chart.ricci_scalar(c1, c2)) < 1e-10


def test_ricci_curved_chart_vs_symbolic():
    # C = (u+v)^2: the symbolic expression -4/C^3 (C d2C/dudv - duC dvC)
    # evaluates to 8/(u+v)^4.
    for u, v in [(0.5, 0.7), (1.0, 0.2), (2.0, 3.0), (0.05, 0.1)]:
        s = u + v
        c = s * s
        symbolic = -4.0 / c**3 * (c * 2.0 - (2.0 * s) * (2.0 * s))
        assert close(symbolic, 8.0 / s**4, 1e-14)
        assert close(CURVED.ricci_scalar(u, v), symbolic, 1e-10)


def test_ricci_zero_survives_relabeling():
    # flatness is invariant under composition with any monotone relabeling
    squash = ChartMap(fn=lambda x: x + 0.1 * jexp(-(x * x) * 0.0) * x,
                      label="stretch")
    chart = compose_charts(RIND, squash, identity_map(), "rindler-stretched")
    for c1, c2 in [(0.0, 0.0), (1.0, -1.0), (-2.0, 0.5)]:
        assert abs(chart.ricci_scalar(c1, c2)) < 1e-10


# ---------- the wedge chart maps ----------

def test_rindler_map_values():
    assert close(lead_value(RIND.u_map(0.0)), -1.0)
    assert close(lead_value(RIND.v_map(0.0)), 1.0)


def test_rindler_round_trip():
    for x in (-3.0, -0.5, 0.0, 1.2, 7.0):
        u = lead_value(RIND.u_map(x))
        assert close(RIND.u_map.invert(u), x)
        v = lead_value(RIND.v_map(x))
        assert close(RIND.v_map.invert(v), x)


def test_rindler_ranges():
    assert RIND.u_range.hi == 0.0
    assert RIND.v_range.lo == 0.0


# ---------- point conversion ----------

def test_convert_point_to_rindler_polar():
    # (t, z) = (0, 1) should sit at tau = 0, rho = 1
    p = point_from_timespace(MINK, 0.0, 1.0)
    q = convert_point(p, RIND)
    tau, zeta = timespace(q)
    assert close(tau, 0.0)
    assert close(math.exp(zeta), 1.0)


def test_convert_point_half_unit():
    p = point_from_timespace(MINK, 0.0, 0.5)
    q = convert_point(p, RIND)
    tau, zeta = timespace(q)
    assert close(tau, 0.0)
    assert close(math.exp(zeta), 0.5)


def test_convert_matches_hyperbolic_formulas():
    for t, z in [(0.2, 1.5), (-0.7, 2.0), (0.0, 0.3)]:
        p = point_from_timespace(MINK, t, z)
        q = convert_point(p, RIND)
        tau, zeta = timespace(q)
        assert close(tau, math.atanh(t / z), 1e-12)
        assert close(math.exp(zeta), math.sqrt(z * z - t * t), 1e-12)


def test_convert_outside_wedge_is_coverage_error():
    for t, z in [(1.0, 1.0), (2.0, 1.0), (0.0, -1.0)]:
        p = point_from_timespace(MINK, t, z)
        with pytest.raises(CoverageError):
            convert_point(p, RIND)


def test_convert_round_trip_on_grid():
    for i in range(-4, 5):
        for j in range(-4, 5):
            p = Point(i * 0.7, j * 0.7, "rindler")
            back = convert_point(convert_point(p, MINK), RIND)
            assert close(back.c1, p.c1) and assert_close2(back.c2, p.c2)


def assert_close2(a, b):
    assert close(a, b)
    return True


# ---------- inversion ----------

def test_invert_closed_form():
    assert close(invert_map(RIND.u_map, -1.0), 0.0)


def test_invert_numeric_reflection_style_map():
    # p(x) = log(2 - exp(-x)) on x > log(1/2), no registered inverse
    p = ChartMap(
        fn=lambda x: jlog(2.0 - jexp(-x)),
        domain=Interval(math.log(0.5), math.inf),
        label="p",
        range_hint=Interval(-math.inf, math.log(2.0)),
    )
    assert close(invert_map(p, 0.0), 0.0)
    # closed-form inverse oracle: f(y) = -log(2 - exp(y))
    for target in (-3.0, -0.4, 0.0, 0.3, 0.65):
        expected = -math.log(2.0 - math.exp(target))
        assert close(invert_map(p, target), expected)


def test_invert_cubic_vs_bisection_oracle():
    cubic = ChartMap(fn=lambda x: x * x * x + 2.0 * x + 1.0, label="cubic")

    def bisect_oracle(target):
        a, b = -50.0, 50.0
        for _ in range(200):
            m = 0.5 * (a + b)
            if m**3 + 2.0 * m + 1.0 < target:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    for target in (-20.0, -1.0, 0.0, 1.0, 5.5, 40.0):
        assert close(invert_map(cubic, target), bisect_oracle(target), 1e-12)


def test_invert_out_of_range():
    with pytest.raises(NoRootError):
        invert_map(RIND.v_map, -2.0)  # range is (0, inf)


def test_inverse_map_jets_match_closed_form():
    # jets of the numeric inverse agree with jets of the registered one
    numeric = ChartMap(fn=lambda x: jlog(2.0 - jexp(-x)),
                       domain=Interval(math.log(0.5), math.inf),
                       label="p-numeric",
                       range_hint=Interval(-math.inf, math.log(2.0)))
    f_numeric = numeric.inverse_map()
    f_closed = ChartMap(fn=lambda y: -jlog(2.0 - jexp(y)),
                        domain=Interval(-math.inf, math.log(2.0)),
                        label="f-closed")
    for y in (-2.0, -0.5, 0.0, 0.4):
        a = f_numeric(seed(y))
        b = f_closed(seed(y))
        for x, z in zip(a.as_tuple(), b.as_tuple()):
            # worst measured 7.2e-16, so the bound leaves a margin of 7
            assert close(x, z, 5e-15)


def test_numeric_inverse_on_array_inverts_each_element():
    p = ChartMap(fn=lambda x: jlog(2.0 - jexp(-x)),
                 domain=Interval(math.log(0.5), math.inf),
                 label="p-numeric",
                 range_hint=Interval(-math.inf, math.log(2.0)))
    inv = p.inverse_map()
    got = inv(np.array([-1.0, -0.5]))
    assert got.tolist() == [inv(-1.0), inv(-0.5)]
    with pytest.raises(NoRootError):
        inv(np.array([-1.0, 1.0]))  # 1.0 is above the range's log(2)


def test_numeric_inverse_roots_agree_across_threads():
    # every caller shares the inverse's one (target, root) cell; a torn or
    # stale read would hand one thread the root of another's target
    p = ChartMap(fn=lambda x: jlog(2.0 - jexp(-x)),
                 domain=Interval(math.log(0.5), math.inf),
                 label="p-numeric",
                 range_hint=Interval(-math.inf, math.log(2.0)))
    numeric = p.inverse_map()
    targets = [-2.0 + 0.1 * k for k in range(26)]
    want = [invert_map(p, y) for y in targets]
    wrong = []
    start = threading.Barrier(6, timeout=60.0)

    def work():
        # all threads ask for the same targets at about the same time, so
        # that one reads the cell while another is replacing it
        start.wait()
        for i in range(300):
            j = i % len(targets)
            if numeric.fn(targets[j]) != want[j]:
                wrong.append(targets[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# ---------- composition ----------

def test_compose_with_identity_keeps_factor():
    chart = compose_charts(RIND, identity_map(), identity_map(), "same")
    for c1, c2 in [(0.0, 0.0), (1.0, -2.0), (-0.3, 0.6)]:
        assert close(chart.conformal_factor(c1, c2),
                     RIND.conformal_factor(c1, c2))


def test_compose_rindler_with_reflection_relabel():
    # relabeling u* -> f(u*) = -log(2 - exp(u*)) maps the wedge chart to the
    # chart adapted to a unit-position mirror; its factor must equal the
    # product-rule expression f'(u*) Cbar(f(u*), v*).
    f = ChartMap(fn=lambda x: -jlog(2.0 - jexp(x)),
                 domain=Interval(-math.inf, math.log(2.0)),
                 label="f")
    hatted = compose_charts(RIND, f, identity_map(), "hatted-test",
                            global_class="half_line")
    for uh, vh in [(0.0, 0.0), (-1.0, 0.5), (0.5, -0.3)]:
        fval = -math.log(2.0 - math.exp(uh))
        fprime = math.exp(uh) / (2.0 - math.exp(uh))
        direct = fprime * math.exp(vh - fval)
        assert close(hatted.conformal_factor(uh, vh), direct, 1e-12)


def test_compose_domain_clipping():
    f = ChartMap(fn=lambda x: -jlog(2.0 - jexp(x)),
                 domain=Interval(-math.inf, math.log(2.0)), label="f")
    hatted = compose_charts(RIND, f, identity_map(), "hatted-test2")
    with pytest.raises(CoverageError):
        hatted.conformal_factor(math.log(2.0) + 0.1, 0.0)


# ---------- registry ----------

def test_registry_contains_builtins():
    assert get_chart("minkowski").name == "minkowski"
    assert get_chart("rindler").name == "rindler"
    with pytest.raises(ValueError):
        get_chart("nonexistent")
