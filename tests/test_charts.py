"""Charts: conformal factors, curvature, conversions, inversion."""

import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorstress.charts import (
    ChartMap,
    ConformalChart,
    CoverageError,
    Interval,
    MonotonicityError,
    NoRootError,
    Point,
    compose_charts,
    compose_maps,
    convert_point,
    get_chart,
    identity_map,
    minkowski_chart,
    point_from_timespace,
    rindler_chart,
    synthetic_curved_chart,
    timespace,
)
from mirrorstress.jets import (
    Jet1,
    Jet3,
    JetDomainError,
    jexp,
    jlog,
    lead_value,
    seed,
)
from mirrorstress.scenarios import hatted_chart_for_accelerated_mirror
from mirrorstress.trajectories import uniformly_accelerated_mirror

from jet_leaves import leaves


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
    jv = RIND.factor(c1, seed(c2))
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
    # du dv = C dc1 dc2: the factor is the product of the maps' slopes
    for chart, c1, c2 in [(RIND, 0.7, -0.2), (MINK, 1.0, 2.0)]:
        c = chart.conformal_factor(c1, c2)
        assert c == chart.u_map.deriv(c1) * chart.v_map.deriv(c2)


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
    assert RIND.u_map.range.hi == 0.0
    assert RIND.v_map.range.lo == 0.0


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


def test_convert_out_of_float_range_is_coverage_error():
    # the wedge chart's v map, exp, overflows at 800; the map says so
    with pytest.raises(CoverageError, match=r"rindler-v: value at 800\.0 "
                       r"leaves the double-precision range"):
        convert_point(Point(0.0, 800.0, "rindler"), MINK)


@pytest.mark.parametrize("p,to,message", [
    # the hyperbola chart's closed-form inverse -1/u overflows at a
    # subnormal u, which is inside its range: it returned inf
    (Point(-5e-324, 0.0, "minkowski"),
     hatted_chart_for_accelerated_mirror(1.0),
     "leaves the double-precision range"),
    # a point kept in its own chart was returned unchecked
    (Point(0.0, math.inf, "minkowski"), MINK, "outside domain"),
    (Point(math.nan, 0.0, "rindler"), RIND, "outside domain"),
])
def test_convert_gives_a_finite_point_or_coverage_error(p, to, message):
    with pytest.raises(CoverageError, match=message):
        convert_point(p, to)


HYPER = hatted_chart_for_accelerated_mirror(1.0)


@pytest.mark.parametrize("evaluate,where", [
    # exp overflows in a map's value, which raised a bare OverflowError
    (lambda: RIND.v_map(800.0), r"rindler-v: value at 800\.0"),
    (lambda: RIND.u_map(-800.0), r"rindler-u: value at -800\.0"),
    (lambda: uniformly_accelerated_mirror(1.0).V(1.7976931348623157e308),
     r"V: value at 1\.7976931348623157e\+308"),
    # ... and in a derivative; c/x^2 divides by x^2, which underflows to 0
    # (a bare ZeroDivisionError)
    (lambda: RIND.u_map.deriv(-800.0), r"rindler-u: derivative at -800\.0"),
    (lambda: HYPER.u_map.deriv(5e-324),
     r"hatted-hyperbola-u\[a=1\.0\]: derivative at 5e-324"),
    (lambda: RIND.conformal_factor(-800.0, 0.0),
     r"chart 'rindler': conformal factor at \(-800\.0, 0\.0\)"),
    # the curved factor (u + v)^2 overflows in a float power
    (lambda: CURVED.conformal_factor(1e200, 1e200),
     r"chart 'curved-test': conformal factor at \(1e\+200, 1e\+200\)"),
    (lambda: HYPER.conformal_factor(5e-324, 1.0),
     r"conformal factor at \(5e-324, 1\.0\)"),
    (lambda: RIND.ricci_scalar(-800.0, 0.0),
     r"chart 'rindler': Ricci scalar at \(-800\.0, 0\.0\)"),
], ids=["v-value", "u-value", "trajectory-value", "u-derivative",
        "hyperbola-derivative", "rindler-factor", "curved-factor",
        "hyperbola-factor", "rindler-ricci"])
def test_float_evaluation_past_the_double_range_is_coverage_error(
        evaluate, where):
    with pytest.raises(CoverageError, match=where + " leaves the "
                       "double-precision range"):
        evaluate()


@pytest.mark.parametrize("m,x", [
    (HYPER.u_map, -1.0), (HYPER.u_map, 0.0), (HYPER.u_map, math.nan),
    (RIND.u_map, math.inf),
], ids=["negative", "domain-end", "nan", "infinity"])
def test_derivative_outside_the_domain_is_coverage_error(m, x):
    # deriv skipped the domain check that __call__ makes: the hyperbola's
    # u map, on (0, inf), gave u'(-1.0) = 1.0
    for evaluate in (m, m.deriv):
        with pytest.raises(CoverageError, match="outside domain"):
            evaluate(x)



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
    assert close(RIND.u_map.invert(-1.0), 0.0)


def test_invert_numeric_reflection_style_map():
    # p(x) = log(2 - exp(-x)) on x > log(1/2), no registered inverse
    p = ChartMap(
        fn=lambda x: jlog(2.0 - jexp(-x)),
        domain=Interval(math.log(0.5), math.inf),
        label="p",
        range_hint=Interval(-math.inf, math.log(2.0)),
    )
    assert close(p.invert(0.0), 0.0)
    # closed-form inverse oracle: f(y) = -log(2 - exp(y))
    for target in (-3.0, -0.4, 0.0, 0.3, 0.65):
        expected = -math.log(2.0 - math.exp(target))
        assert close(p.invert(target), expected)


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
        assert close(cubic.invert(target), bisect_oracle(target), 1e-12)


def test_invert_out_of_range():
    with pytest.raises(NoRootError):
        RIND.v_map.invert(-2.0)  # range is (0, inf)


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
    # 1.0 is above the range's log(2): NaN, as out-of-domain array entries
    # are everywhere, where the in-range entry keeps its scalar root
    got = inv(np.array([-1.0, 1.0]))
    assert math.isnan(got[1]) and got[0] == p.invert(-1.0)


def test_numeric_inverse_roots_agree_across_threads():
    # every caller shares the inverse's one (target, root) cell; a torn or
    # stale read would hand one thread the root of another's target
    p = ChartMap(fn=lambda x: jlog(2.0 - jexp(-x)),
                 domain=Interval(math.log(0.5), math.inf),
                 label="p-numeric",
                 range_hint=Interval(-math.inf, math.log(2.0)))
    numeric = p.inverse_map()
    targets = [-2.0 + 0.1 * k for k in range(26)]
    want = [p.invert(y) for y in targets]
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


def _derived_u():
    """The wedge chart's u map after the forward-only relabel
    -log(2 - e^x), which inverts numerically."""
    return compose_maps(RIND.u_map, ChartMap(
        fn=lambda x: -jlog(2.0 - jexp(x)),
        domain=Interval(-math.inf, math.log(2.0)), label="derived-u"))


def _reversed(m):
    """x -> m(-x): the decreasing counterpart of an increasing map."""
    return ChartMap(fn=lambda x: m.fn(-x),
                    domain=Interval(-m.domain.hi, -m.domain.lo),
                    label=f"{m.label}(-x)", range_hint=m.range)


# (map, window of the domain the property draws its points from); a
# window reaches a finite domain end, inside the 1e-12 gap the bracket
# keeps to it
_INCREASING = (
    (_derived_u(), (-30.0, math.log(2.0))),
    (ChartMap(fn=lambda x: x * x * x + 2.0 * x + 1.0, label="cubic"),
     (-1e6, 1e6)),
    (ChartMap(fn=lambda x: jlog(2.0 - jexp(-x)),
              domain=Interval(math.log(0.5), math.inf), label="p",
              range_hint=Interval(-math.inf, math.log(2.0))),
     (math.log(0.5), 30.0)),
    # the bracket grows from 0 by 1, 2, 4: e^(e^7) overflows; its range
    # is probed
    (ChartMap(fn=lambda x: jexp(jexp(x)), label="double-exp"),
     (-30.0, 6.5)),
)
_INVERTED = _INCREASING + tuple((_reversed(m), (-hi, -lo))
                                for m, (lo, hi) in _INCREASING)


def _target(m, window, share):
    """m at the point ``share`` of the way across ``window``, a target
    inside m's range; the draw is rejected where there is none (an end
    of the domain, or a value that rounds to an end of the range)."""
    lo, hi = window
    x = lo + share * (hi - lo)
    assume(m.domain.contains(x))
    try:
        target = lead_value(m.fn(x))
    except (JetDomainError, OverflowError):
        target = math.nan
    assume(m.range.contains(target))
    return target


@given(case=st.sampled_from(range(len(_INVERTED))),
       share=st.floats(0.0, 1.0))
@settings(max_examples=400, deadline=None)
def test_invert_meets_the_residual_bound_inside_the_bracket(case, share):
    m, window = _INVERTED[case]
    target = _target(m, window, share)
    x = m.invert(target)
    assert abs(lead_value(m.fn(x)) - target) <= 1e-12 * max(1.0, abs(target))
    a, _, b, _ = m._bracket(target, m._interior_point())
    assert a <= x <= b


@given(case=st.sampled_from(range(len(_INVERTED))),
       share=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_invert_raises_outside_the_range_and_against_the_declared_sign(
        case, share):
    m, window = _INVERTED[case]
    rng = m.range
    for end, direction in ((rng.lo, -1.0), (rng.hi, 1.0)):
        if math.isfinite(end):
            with pytest.raises(NoRootError):
                m.invert(end + direction * share * max(1.0, abs(end)))
    if "double-exp" in m.label:
        return  # a wrong sign turns its overflow into the wrong infinity
    flipped = ChartMap(fn=m.fn, domain=m.domain,
                       monotone_sign=-m.monotone_sign, label=m.label,
                       range_hint=rng)
    target = _target(m, window, share)
    assume(target != lead_value(m.fn(m._interior_point())))
    with pytest.raises(MonotonicityError):
        flipped.invert(target)


@pytest.mark.parametrize("m,target,root", [
    # log(2 - e^-x) on (log 1/2, inf): the root lies 3.0e-15 above the
    # domain end, where neighbouring doubles differ by 0.04 in value
    (ChartMap(fn=lambda x: jlog(2.0 - jexp(-x)),
              domain=Interval(math.log(0.5), math.inf)),
     -32.75, -math.log(2.0) - math.log1p(-0.5 * math.exp(-32.75))),
    # the derived u map -(2 - e^x): the root lies 1.7e-15 below log 2
    (_derived_u(), -3.3e-15, math.log(2.0) + math.log1p(-0.5 * 3.3e-15)),
])
def test_invert_finds_a_root_next_to_a_finite_domain_end(m, target, root):
    # both roots lie in the gap of up to 1e-12 that the bracket's growth
    # keeps to the end; no double meets the residual bound there, so the
    # root is the one of the two doubles around it nearer in value
    x = m.invert(target)
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    values = [lead_value(m.fn(e)) - target for e in (below, x, above)]
    assert values[0] < 0.0 < values[2]
    assert abs(values[1]) <= min(abs(values[0]), abs(values[2]))
    assert abs(x - root) <= math.ulp(root)


@pytest.mark.parametrize("target", [-30.0, -32.75])
def test_invert_tries_the_float_next_to_a_domain_end_once_growth_stops(
        target):
    # log(2 - e^-x) on (log 1/2, inf): both roots lie in the gap the growth
    # keeps to the finite end, and the growth on the unbounded side never
    # brackets them; trying the end's neighbour only after that side's
    # 300 growth steps took 316 and 315 evaluations
    calls = []
    m = ChartMap(fn=_counting(lambda x: jlog(2.0 - jexp(-x)), calls),
                 domain=Interval(math.log(0.5), math.inf),
                 range_hint=Interval(-math.inf, math.log(2.0)))
    m.invert(target)
    assert len(calls) <= 40


def test_range_of_a_map_that_overflows_after_one_finite_probe():
    # e^(e^x) is finite at the first probe toward +inf (x = 1) and
    # overflows at the next (x = 10): its limit there is +inf, not e^e
    m = ChartMap(fn=lambda x: jexp(jexp(x)), label="double-exp")
    assert m.range == Interval(1.0, math.inf)
    x = m.invert(1e10)
    assert close(math.exp(math.exp(x)), 1e10)


def test_invert_evaluates_the_derived_map_about_a_dozen_times():
    # the mirror state's sampling box on the derived chart in the
    # benchmark's identities workload: c1 in (log 1/2 + 0.05, log 1/2 + 4)
    m = _derived_u()
    calls = []
    m.fn = _counting(m.fn, calls)
    rng = random.Random(20)
    lo = math.log(0.5) + 0.05
    for _ in range(300):
        m.invert(RIND.u_map.fn(rng.uniform(lo, lo + 3.95)))
    # 11.4 here; bisection to a 1e-3-wide bracket, then Newton, made 19.0
    assert len(calls) / 300 <= 14.0


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


def _unmarked_identity():
    """The identity, with fn and inverse_fn two functions, so that
    compose_maps builds the generic composite with it."""
    return ChartMap(fn=lambda x: x, dfn=lambda x: 0.0 * x + 1.0,
                    inverse_fn=lambda y: y, monotone_sign=1, label="id",
                    range_hint=Interval())


@pytest.mark.parametrize("m", [
    RIND.u_map, hatted_chart_for_accelerated_mirror(1.0).u_map],
    ids=["rindler-u", "hatted-hyperbola-u"])
@pytest.mark.parametrize("identity_side", ["outer", "inner"])
def test_compose_with_identity_calls_the_other_map(m, identity_side):
    if identity_side == "outer":
        outer, inner = identity_map(), m
        generic = compose_maps(_unmarked_identity(), m)
    else:
        outer, inner = m, identity_map()
        generic = compose_maps(m, _unmarked_identity())
    got = compose_maps(outer, inner)
    assert (got.domain, got.range, got.monotone_sign, got.label) \
        == (generic.domain, generic.range, generic.monotone_sign,
            generic.label)
    assert (got.fn, got.dfn, got.inverse_fn) == (m.fn, m.dfn, m.inverse_fn)
    x = 0.7
    for arg in (x, np.array([0.3, 0.7, 2.5]), seed(x),
                Jet1(Jet1(x, 1.0), 0.0), Jet1(Jet1(x, 0.0), 1.0)):
        assert _same_bits(got.fn(arg), outer.fn(inner.fn(arg)))
        assert _same_bits(got.dfn(arg),
                          outer.dfn(inner.fn(arg)) * inner.dfn(arg))


# ---------- registry ----------

def test_registry_contains_builtins():
    assert get_chart("minkowski").name == "minkowski"
    assert get_chart("rindler").name == "rindler"
    with pytest.raises(ValueError):
        get_chart("nonexistent")


# ---------- map evaluations skipped ----------

def _counting(fn, calls):
    """fn, appending each argument it is called with to ``calls``."""
    def counted(x):
        calls.append(x)
        return fn(x)
    return counted


def _same_bits(a, b):
    a, b = leaves(a), leaves(b)
    return len(a) == len(b) and all(
        np.array_equal(x, y) and type(x) is type(y) for x, y in zip(a, b))


def test_factor_without_base_factor_evaluates_no_map():
    calls = []
    u_map = ChartMap(fn=_counting(lambda x: -jexp(-x), calls),
                     dfn=lambda x: jexp(-x), monotone_sign=1,
                     domain=Interval(-5.0, 5.0), label="counted-u")
    v_map = ChartMap(fn=_counting(jexp, calls), dfn=jexp, monotone_sign=1,
                     label="counted-v")
    chart = ConformalChart("counted", u_map, v_map)
    for cu, cv in ((0.3, 1.1), (seed(0.3), 1.1),
                   (Jet1(Jet1(0.3, 1.0), 0.0), Jet1(Jet1(1.1, 0.0), 1.0)),
                   (np.array([0.3, 0.4]), np.array([1.1, 1.2]))):
        want = RIND.factor(cu, cv)
        assert _same_bits(chart.factor(cu, cv), want)
    assert calls == []
    # the scalar domain check still applies, with the map's own message
    for cu in (6.0, seed(6.0), Jet1(Jet1(6.0, 1.0), 0.0)):
        with pytest.raises(CoverageError) as got:
            chart.factor(cu, 1.1)
        with pytest.raises(CoverageError) as want:
            u_map(cu)
        assert str(got.value) == str(want.value) \
            == "counted-u: argument 6.0 outside domain (-5.0, 5.0)"
    assert calls == []


def test_factor_with_base_factor_checks_its_domain():
    with pytest.raises(CoverageError, match=r"base point \(-1.0, 0.5\) "
                       r"outside the factor's domain"):
        CURVED.factor(-1.0, 0.5)
    with pytest.raises(CoverageError, match="outside the factor's domain"):
        CURVED.factor(Jet1(Jet1(-1.0, 1.0), 0.0), Jet1(Jet1(0.5, 0.0), 1.0))
    assert CURVED.conformal_factor(0.5, 1.0) == 2.25


def test_composite_derivative_passes_once_through_forward_only_inner():
    calls = []
    x = 0.2
    xs = np.linspace(-1.2, 0.5, 401)
    # (inner, ulps of the tangent pass's value slot from inner(x), ulps of
    # the derivative from the two-pass value): jet functions, - and *
    # keep inner(x) to the bit; a quotient multiplies by the reciprocal,
    # and outer's derivative e^(-y) at y < 3 turns 1 ulp of y into about 3
    for f, slot_ulps, ulps in ((lambda x: -jlog(2.0 - jexp(x)), 0, 0),
                               (lambda x: 3.0 / (jexp(x) + 1.0), 1, 8)):
        inner = ChartMap(fn=_counting(f, calls),
                         domain=Interval(-math.inf, math.log(2.0)),
                         label="forward-only")
        composite = compose_maps(RIND.u_map, inner)
        slot, value = inner.fn(Jet1(xs, 1.0)).value, inner.fn(xs)
        assert np.all(np.abs(slot - value) <= slot_ulps * np.spacing(value))
        for arg in (x, xs, Jet1(x, 0.7), seed(x), Jet3(x, 0.7, -0.3, 0.2),
                    Jet1(Jet1(x, 1.0), 0.0), Jet1(Jet1(x, 0.0), 1.0)):
            calls.clear()
            got = composite.dfn(arg)
            assert len(calls) == 1
            # the two-pass value: inner's value, then its derivative
            want = RIND.u_map.dfn(inner.fn(arg)) * inner._auto_dfn(arg)
            got, want = leaves(got), leaves(want)
            assert len(got) == len(want)
            scale = max(np.max(np.abs(w)) for w in want)
            for g, w in zip(got, want):
                assert type(g) is type(w)
                assert np.all(np.abs(g - w)
                              <= ulps * np.finfo(float).eps * scale)
