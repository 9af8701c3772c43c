"""Order-3 jet arithmetic against independent oracles.

Oracles here never go through jet arithmetic: polynomial derivatives come
from coefficient calculus, transcendental derivatives from Richardson-
extrapolated central differences.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jet_leaves import leaves
from mirrorstress.jets import (
    Jet1,
    Jet3,
    JetDomainError,
    compose,
    constant,
    jasinh,
    jcosh,
    jexp,
    jlog,
    jsinh,
    jsqrt,
    seed,
)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def jet_close(j, expected, tol=1e-12):
    return all(close(x, e, tol) for x, e in zip(j.as_tuple(), expected))


# ---------- finite-difference oracle (Richardson extrapolated) ----------

def fd1(f, x, h=1e-4):
    def d(hh):
        return (f(x + hh) - f(x - hh)) / (2.0 * hh)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def fd2(f, x, h=1e-3):
    # roundoff in the second-difference stencil goes like eps/h^2, so the
    # step is larger than for fd1
    def d(hh):
        return (f(x + hh) - 2.0 * f(x) + f(x - hh)) / hh**2
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def fd3(f, x, h=1e-2):
    def d(hh):
        return (f(x + 2 * hh) - 2.0 * f(x + hh)
                + 2.0 * f(x - hh) - f(x - 2 * hh)) / (2.0 * hh**3)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


# ---------- polynomial oracle (coefficient calculus, no jets) ----------

def poly_mul(c1, c2):
    out = [0.0] * (len(c1) + len(c2) - 1)
    for i, a in enumerate(c1):
        for j, b in enumerate(c2):
            out[i + j] += a * b
    return out


def poly_derive(c):
    return [k * c[k] for k in range(1, len(c))]


def poly_tower(c, x):
    tower = []
    cur = list(c)
    for _ in range(4):
        tower.append(sum(a * x**k for k, a in enumerate(cur)))
        cur = poly_derive(cur) or [0.0]
    return tower


def poly_jet(c, j):
    out = constant(0.0)
    for a in reversed(c):
        out = out * j + a
    return out


# ---------- seed and ring operations ----------

def test_seed_definition():
    assert seed(0.0).as_tuple() == (0.0, 1.0, 0.0, 0.0)
    assert seed(2.5).as_tuple() == (2.5, 1.0, 0.0, 0.0)


def test_seed_through_identity_map():
    j = seed(1.7)
    assert (j + 0.0).as_tuple() == j.as_tuple()
    assert (1.0 * j).as_tuple() == j.as_tuple()


def test_square_at_one():
    j = seed(1.0)
    assert (j * j).as_tuple() == (1.0, 2.0, 2.0, 0.0)


def test_self_division_is_one():
    for x in (0.3, -2.0, 11.0):
        j = jexp(seed(x)) + x * seed(x)
        assert jet_close(j / j, (1.0, 0.0, 0.0, 0.0))


def test_division_by_zero_value_raises():
    z = seed(0.0)
    with pytest.raises(JetDomainError):
        seed(1.0) / z


@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    st.floats(-2, 2),
)
@settings(max_examples=200, deadline=None)
def test_polynomial_product_vs_coefficient_expansion(c1, c2, x):
    got = poly_jet(c1, seed(x)) * poly_jet(c2, seed(x))
    expected = poly_tower(poly_mul(c1, c2), x)
    scale = max(1.0, max(abs(e) for e in expected))
    for g, e in zip(got.as_tuple(), expected):
        assert abs(g - e) <= 1e-12 * scale


def abs_jet(j):
    return Jet3(*(abs(c) for c in j.as_tuple()))


def quotient_rounding_scale(num, den):
    """Per-coefficient scale of the rounding error of (num / den) * den:
    the same Leibniz and Faa di Bruno sums with every term made positive,
    so no cancellation hides the size of the terms that were rounded."""
    r = 1.0 / abs(den.value)
    recip = compose((r, r * r, 2.0 * r**3, 6.0 * r**4), abs_jet(den))
    return (abs_jet(num) * recip * abs_jet(den)).as_tuple()


@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    st.lists(st.floats(0.5, 3), min_size=1, max_size=4),
    st.floats(-2, 2),
)
# den.value 1.3e-3: d3 is off by 1.6e-7, 0.66 eps of its rounding scale
@example(c1=[1.0], c2=[0.5, 2.09375, 2.15625, 0.5], x=-0.90625)
# q.d2 is rounding noise, so |q| (x) |den| alone would undercount d3
@example(c1=[0.0, 0.0, 1.0], c2=[0.0, 1.5705659607082187],
         x=-0.7129427648963733)
@settings(max_examples=200, deadline=None)
def test_polynomial_quotient_times_divisor_recovers(c1, c2, x):
    num = poly_jet(c1, seed(x))
    den = poly_jet(c2, seed(x))  # positive coefficients, positive value half the time
    if abs(den.value) < 1e-6:
        return
    back = (num / den) * den
    scale = quotient_rounding_scale(num, den)
    for g, e, s in zip(back.as_tuple(), num.as_tuple(), scale):
        # float_info.min: subnormal coefficients round absolutely
        assert abs(g - e) <= 16.0 * (sys.float_info.epsilon * s
                                     + sys.float_info.min)


# ---------- elementary functions ----------

def test_exp_at_zero():
    assert jet_close(jexp(seed(0.0)), (1.0, 1.0, 1.0, 1.0))


def test_log_at_one():
    assert jet_close(jlog(seed(1.0)), (0.0, 1.0, -1.0, 2.0))


# (jet fn, math fn, sample points, distance to nearest real singularity)
ELEMENTARY_CASES = [
    (jexp, math.exp, [-1.5, 0.0, 0.7, 2.0], lambda x: math.inf),
    (jlog, math.log, [0.2, 1.0, 3.5], lambda x: x),
    (jsinh, math.sinh, [-2.0, -0.3, 0.0, 1.1], lambda x: math.inf),
    (jcosh, math.cosh, [-2.0, -0.3, 0.0, 1.1], lambda x: math.inf),
    (jasinh, math.asinh, [-30.0, -0.7, 0.0, 0.5, 4.0], lambda x: math.inf),
    (jsqrt, math.sqrt, [0.3, 1.0, 7.0], lambda x: x),
]


@pytest.mark.parametrize("jf,f,points,dist", ELEMENTARY_CASES,
                         ids=lambda c: getattr(c, "__name__", ""))
def test_elementary_against_finite_differences(jf, f, points, dist):
    for x in points:
        j = jf(seed(x))
        h3 = min(1e-2, dist(x) / 100.0)
        assert close(j.value, f(x), 1e-14)
        assert close(j.d1, fd1(f, x), 1e-8)
        assert close(j.d2, fd2(f, x), 1e-7)
        assert close(j.d3, fd3(f, x, h=h3), 1e-7)


def _leaf_coeffs(j):
    """The leaf coefficients of a Jet3, or of a Jet1 nested in a Jet1."""
    if isinstance(j, Jet3):
        return j.as_tuple()
    return (j.value.value, j.value.d1, j.d1.value, j.d1.d1)


@pytest.mark.parametrize("jf,f,points,dist", ELEMENTARY_CASES,
                         ids=lambda c: getattr(c, "__name__", ""))
def test_elementary_array_leaves_match_scalar_jets(jf, f, points, dist):
    # Array leaves go through numpy and float leaves through math, which
    # agree to 2 ulp; the jet arithmetic on top is the same for both, so
    # the array jet equals, bit for bit, the jets of its points taken one
    # at a time through the same numpy leaves.  (Comparing against float
    # jets directly would mix in the tower's conditioning, which can turn
    # a 1-ulp leaf difference into several ulp of a derivative.)
    xs = np.array(points)
    values = jf(xs)
    for k, x in enumerate(points):
        assert abs(values[k] - jf(x)) <= 2.0 * np.spacing(abs(jf(x)))
    for lift in (seed, lambda x: Jet1(Jet1(x, 1.0), 0.5)):
        grid = [np.broadcast_to(c, xs.shape)
                for c in _leaf_coeffs(jf(lift(xs)))]
        for k, x in enumerate(points):
            one = _leaf_coeffs(jf(lift(np.array([x]))))
            assert [g[k] for g in grid] == [float(c[0]) for c in one]


def test_bare_array_and_jet_do_not_mix():
    # numpy would otherwise build an object array of jets
    for jet in (seed(0.5), Jet1(0.5, 1.0)):
        with pytest.raises(TypeError):
            np.ones(3) + jet
        with pytest.raises(TypeError):
            jet * np.ones(3)


@pytest.mark.parametrize("op", [
    lambda: seed(0.5) / Jet1(0.5, 1.0),
    lambda: Jet1(0.5, 1.0) / seed(0.5),
    lambda: seed(1.7) ** 2.5,
], ids=["jet3_by_jet1", "jet1_by_jet3", "float_power"])
def test_unsupported_operands_raise_type_error(op):
    # a Jet1 and a Jet3 differentiate in different senses, and only
    # integer powers are defined
    with pytest.raises(TypeError):
        op()


def test_domain_guards_skip_array_leaves():
    xs = np.array([-1.0, 0.0, 4.0])
    with np.errstate(invalid="ignore", divide="ignore"):
        j = jlog(seed(xs))
    assert np.isnan(j.value[0]) and j.value[1] == -math.inf
    assert j.value[2] == math.log(4.0)


@pytest.mark.parametrize("jf,x,want", [
    (jlog, math.nan, [math.nan]), (jexp, -math.inf, [0.0]),
    (jexp, math.inf, [math.inf]), (jlog, math.inf, [math.inf]),
    (jlog, seed(math.nan), [math.nan] * 4),
], ids=["log_nan", "exp_-inf", "exp_inf", "log_inf", "log_nan_jet"])
def test_scalar_nan_and_inf_leaves_pass_the_guards(jf, x, want):
    # a guard compares the leaf with a domain bound; NaN compares false,
    # so it passes, and so does an infinity inside the domain
    assert np.array_equal(leaves(jf(x)), want, equal_nan=True)


def test_sinh_cosh_random_points_vs_finite_differences():
    rng = random.Random(7)
    for _ in range(50):
        x = rng.uniform(-2.5, 2.5)
        s = jsinh(seed(x))
        c = jcosh(seed(x))
        assert close(s.d1, fd1(math.sinh, x), 1e-8)
        assert close(s.d2, fd2(math.sinh, x), 1e-8)
        assert close(c.d1, fd1(math.cosh, x), 1e-8)
        assert close(c.d2, fd2(math.cosh, x), 1e-8)


def test_pow_tower():
    x = 1.7
    ji = seed(x) ** 3
    assert jet_close(ji, (x**3, 3 * x**2, 6 * x, 6.0))
    jm = seed(x) ** -2
    g = lambda t: t**-2.0
    assert close(jm.value, g(x), 1e-14)
    assert close(jm.d1, fd1(g, x), 1e-8)


@pytest.mark.parametrize("p,product", [
    (0, lambda j: Jet1(Jet1(1.0, 0.0), 0.0)),
    (3, lambda j: j * j * j),
    (-2, lambda j: 1.0 / (j * j)),
])
def test_integer_powers_of_nested_jet1_are_products(p, product):
    j = Jet1(Jet1(0.7, 1.0), 0.3)
    assert leaves(j ** p) == leaves(product(j))


@pytest.mark.parametrize("jf,bad", [
    (jlog, 0.0), (jlog, -0.0), (jlog, -1.0), (jsqrt, -4.0), (jsqrt, 0.0),
], ids=lambda c: c.__name__[1:] if callable(c) else None)
def test_domain_errors(jf, bad):
    # the guards hold for a float argument and for a jet's leaf alike
    for arg in (bad, seed(bad)):
        with pytest.raises(JetDomainError) as err:
            jf(arg)
        assert err.value.fn == jf.__name__[1:]
        assert err.value.value == bad


# ---------- composition ----------

def test_compose_identity_tower():
    j = jexp(seed(0.3)) * seed(0.3)
    out = compose((j.value, 1.0, 0.0, 0.0), j)
    assert out.as_tuple() == j.as_tuple()


def test_compose_exp_tower_matches_elementary():
    x = 0.8
    e = math.exp(x)
    assert jet_close(compose((e, e, e, e), seed(x)), jexp(seed(x)).as_tuple())


def test_exp_log_inverse_pair():
    for x in (0.1, 1.0, 4.2, 50.0):
        j = jexp(jlog(seed(x)))
        assert jet_close(j, (x, 1.0, 0.0, 0.0), 1e-12)


def test_compose_associativity_on_closed_forms():
    # compose(f, compose(g, h)) against the direct evaluation f(g(h)) for
    # f = sinh, g = exp, h an arbitrary smooth jet.
    for x in (-1.2, 0.0, 0.9):
        h = jasinh(seed(x)) + 0.5 * seed(x)
        gh = jexp(h)
        s, c = math.sinh(gh.value), math.cosh(gh.value)
        via_towers = compose((s, c, s, c), gh)
        direct = jsinh(jexp(h))
        for a, b in zip(via_towers.as_tuple(), direct.as_tuple()):
            assert close(a, b, 1e-12)


# ---------- nested jets (mixed derivatives) ----------

def test_nested_jets_mixed_partial():
    # f(u, v) = exp(u * v): d2f/dudv = exp(uv) (1 + uv),
    # d3f/du dv^2 = exp(uv) u (2 + uv).
    u0, v0 = 0.4, -0.7
    ju = Jet3(seed(u0), 0.0, 0.0, 0.0)        # inner jet in u, constant in v
    jv = Jet3(constant(v0), 1.0, 0.0, 0.0)    # outer jet in v
    f = jexp(ju * jv)
    e = math.exp(u0 * v0)
    assert close(f.value.value, e)
    assert close(f.value.d1, e * v0)                      # df/du
    assert close(f.d1.value, e * u0)                      # df/dv
    assert close(f.d1.d1, e * (1.0 + u0 * v0))            # d2f/dudv
    assert close(f.d2.d1, e * u0 * (2.0 + u0 * v0))       # d3f/du dv2


def test_nested_division_and_log():
    # g(u, v) = log(u + v^2) mixed partial: -2v / (u + v^2)^2
    u0, v0 = 1.3, 0.6
    ju = Jet3(seed(u0), 0.0, 0.0, 0.0)
    jv = Jet3(constant(v0), 1.0, 0.0, 0.0)
    g = jlog(ju + jv * jv)
    denom = (u0 + v0**2) ** 2
    assert close(g.d1.d1, -2.0 * v0 / denom)


def test_random_compositions_vs_finite_differences():
    rng = random.Random(23)

    def make_pair():
        a = rng.uniform(0.3, 1.5)
        b = rng.uniform(-0.8, 0.8)
        kind = rng.randrange(4)
        if kind == 0:
            return (lambda j: jexp(jasinh(a * j) + b),
                    lambda x: math.exp(math.asinh(a * x) + b))
        if kind == 1:
            return (lambda j: jlog(jcosh(a * j) + 1.0 + b * b),
                    lambda x: math.log(math.cosh(a * x) + 1.0 + b * b))
        if kind == 2:
            return (lambda j: jsinh(a * j) / (jcosh(j) + 2.0),
                    lambda x: math.sinh(a * x) / (math.cosh(x) + 2.0))
        return (lambda j: jsqrt(jexp(a * j) + 1.0) * (j + b),
                lambda x: math.sqrt(math.exp(a * x) + 1.0) * (x + b))

    for _ in range(40):
        jf, f = make_pair()
        x = rng.uniform(-1.5, 1.5)
        j = jf(seed(x))
        assert close(j.value, f(x), 1e-13)
        assert close(j.d1, fd1(f, x), 1e-8)
        assert close(j.d2, fd2(f, x), 1e-8)
        assert close(j.d3, fd3(f, x), 1e-7)
