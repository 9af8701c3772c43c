"""Mirror worldlines and the reflection maps they induce.

A trajectory stores the two base null coordinates along the worldline as
monotone functions of inertial time.  Converting to a chart clips the
parameter domain to the covered stretch; the reflection map p = V o U^-1
relabels right-movers so the mirror sits at constant position in the new
(hatted) chart, while left-movers keep their labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .charts import (
    ChartMap,
    ConformalChart,
    CoverageError,
    Interval,
    MonotonicityError,
    compose_maps,
    get_chart,
    identity_map,
)
from .jets import jexp, jlog, jsqrt, lead_value

__all__ = [
    "Trajectory",
    "ReflectionMap",
    "Asymptotes",
    "stationary_mirror",
    "uniformly_accelerated_mirror",
    "to_chart",
    "asymptotes",
    "reflection_map",
    "trajectory_from_name",
]


@dataclass(frozen=True)
class Trajectory:
    """Worldline as monotone null-coordinate functions of a parameter.

    ``U`` and ``V`` give the chart's null coordinates along the worldline;
    ``chart`` names the chart they are expressed in.  ``closed_reflections``
    maps chart names to factories for closed-form reflection maps, used in
    place of numeric inversion when available.
    """

    U: ChartMap
    V: ChartMap
    domain: Interval
    label: str
    chart: str = "minkowski"
    closed_reflections: dict = field(default_factory=dict, repr=False)

    def position(self, lam: float):
        """(U, V) at parameter value lam."""
        if not self.domain.contains(lam):
            raise CoverageError(
                f"{self.label}: parameter {lam} outside domain {self.domain}")
        return lead_value(self.U(lam)), lead_value(self.V(lam))


@dataclass(frozen=True)
class ReflectionMap:
    """Right-mover relabeling p (and left-mover q, identity here)."""

    p: ChartMap
    q: ChartMap
    validity_domain: Interval


@dataclass(frozen=True)
class Asymptotes:
    past_null_asymptote: Optional[float]
    future_null_asymptote: Optional[float]


# ---------- constructors ----------

def stationary_mirror(z0: float) -> Trajectory:
    """Mirror at rest at position z0 > 0: U = t - z0, V = t + z0."""
    if not z0 > 0.0:
        raise ValueError(f"mirror position must be positive, got {z0}")
    a = 1.0 / z0

    def rindler_reflection() -> ChartMap:
        # p(x) = log(2 - a exp(-x)) - log(a) on x > log(a/2); its inverse
        # is log(a) - log(2 - a exp(y)) on y < log(2/a).
        lo = math.log(a / 2.0)
        return ChartMap(
            fn=lambda x: jlog(2.0 - a * jexp(-x)) - math.log(a),
            dfn=lambda x: a * jexp(-x) / (2.0 - a * jexp(-x)),
            domain=Interval(lo, math.inf),
            inverse_fn=lambda y: math.log(a) - jlog(2.0 - a * jexp(y)),
            monotone_sign=1,
            label=f"reflection[{z0}]@rindler",
            range_hint=Interval(-math.inf, math.log(2.0 / a)),
        )

    def minkowski_reflection() -> ChartMap:
        return ChartMap(
            fn=lambda x: x + 2.0 * z0,
            dfn=lambda x: 0.0 * x + 1.0,
            inverse_fn=lambda y: y - 2.0 * z0,
            monotone_sign=1,
            label=f"reflection[{z0}]@minkowski",
            range_hint=Interval(-math.inf, math.inf),
        )

    full = Interval()
    return Trajectory(
        U=ChartMap(fn=lambda t: t - z0, dfn=lambda t: 0.0 * t + 1.0,
                   inverse_fn=lambda u: u + z0, monotone_sign=1,
                   label="U", range_hint=full),
        V=ChartMap(fn=lambda t: t + z0, dfn=lambda t: 0.0 * t + 1.0,
                   inverse_fn=lambda v: v - z0, monotone_sign=1,
                   label="V", range_hint=full),
        domain=Interval(),
        label=f"stationary:z0={z0:g}",
        closed_reflections={
            "rindler": rindler_reflection,
            "minkowski": minkowski_reflection,
        },
    )


def hyperbola_constant(a: float) -> float:
    """1/a^2 for the hyperbolic mirror of acceleration a; ValueError unless
    a is positive and 1/a^2 a positive finite float."""
    if not a > 0.0:
        raise ValueError(f"acceleration must be positive, got {a}")
    sq = a * a
    c = 1.0 / sq if sq > 0.0 else math.inf
    if not 0.0 < c < math.inf:
        raise ValueError(f"acceleration {a!r} out of range: 1/a^2 = {c!r} "
                         f"is not a positive finite float")
    return c


def uniformly_accelerated_mirror(a: float) -> Trajectory:
    """Mirror on the hyperbola z^2 - t^2 = 1/a^2 (uniform acceleration a)."""
    c = hyperbola_constant(a)

    def minkowski_reflection() -> ChartMap:
        return ChartMap(
            fn=lambda x: -c / x,
            dfn=lambda x: c / (x * x),
            domain=Interval(-math.inf, 0.0),
            inverse_fn=lambda y: -c / y,
            monotone_sign=1,
            label=f"reflection[hyperbola a={a:g}]@minkowski",
            range_hint=Interval(0.0, math.inf),
        )

    return Trajectory(
        U=ChartMap(fn=lambda t: t - jsqrt(t * t + c),
                   dfn=lambda t: 1.0 - t / jsqrt(t * t + c),
                   inverse_fn=lambda u: (u * u - c) / (2.0 * u),
                   monotone_sign=1, label="U",
                   range_hint=Interval(-math.inf, 0.0)),
        V=ChartMap(fn=lambda t: t + jsqrt(t * t + c),
                   dfn=lambda t: 1.0 + t / jsqrt(t * t + c),
                   inverse_fn=lambda v: (v * v - c) / (2.0 * v),
                   monotone_sign=1, label="V",
                   range_hint=Interval(0.0, math.inf)),
        domain=Interval(),
        label=f"hyperbola:a={a:g}",
        closed_reflections={"minkowski": minkowski_reflection},
    )


# ---------- chart conversion ----------

def to_chart(traj: Trajectory, chart: ConformalChart) -> Trajectory:
    """Express the worldline in another chart, clipping the parameter
    domain to the stretch the chart covers."""
    chart = get_chart(chart)
    src = get_chart(traj.chart)
    if src.name == chart.name:
        return traj

    def through_base(m_src: ChartMap, m_dst: ChartMap, comp: ChartMap):
        base = comp if src.name == "minkowski" else compose_maps(m_src, comp)
        return compose_maps(m_dst.inverse_map(), base)

    try:
        new_u = through_base(src.u_map, chart.u_map, traj.U)
        new_v = through_base(src.v_map, chart.v_map, traj.V)
    except CoverageError:
        raise CoverageError(
            f"{traj.label}: never enters coverage of chart '{chart.name}'")
    domain = traj.domain.intersect(new_u.domain).intersect(new_v.domain)
    if domain.empty:
        raise CoverageError(
            f"{traj.label}: never enters coverage of chart '{chart.name}'")
    return Trajectory(U=new_u, V=new_v, domain=domain, label=traj.label,
                      chart=chart.name,
                      closed_reflections=traj.closed_reflections)


# ---------- asymptote probing ----------

def _probe_sequence(domain: Interval, end: float):
    if math.isinf(end):
        return [math.copysign(10.0 ** k, end) for k in range(0, 9)
                if domain.contains(math.copysign(10.0 ** k, end))]
    width = domain.hi - domain.lo
    scale = min(1.0, width / 4.0) if math.isfinite(width) else 1.0
    inward = 1.0 if end == domain.lo else -1.0
    return [end + inward * scale * 10.0 ** (-k) for k in range(1, 11)]


def _limit_state(values):
    """('finite', limit) or ('divergent', sign) from a probe sequence."""
    vals = [v for v in values if v is not None and math.isfinite(v)]
    if len(vals) < 3:
        return "divergent", math.copysign(1.0, vals[-1]) if vals else 1.0
    last, prev, prev2 = vals[-1], vals[-2], vals[-3]
    if abs(last) > 1e8:
        return "divergent", math.copysign(1.0, last)
    step, step_prev = abs(last - prev), abs(prev - prev2)
    if abs(last) > abs(prev) and step > 0.5 * step_prev and step > 1e-8:
        # |value| grows with non-contracting steps: log-type divergence
        return "divergent", math.copysign(1.0, last)
    if step <= 1e-8 * max(1.0, abs(last)):
        return "finite", last
    return "finite", last  # converging but slowly; best available estimate


def asymptotes(traj: Trajectory) -> Asymptotes:
    """Finite limits of one null coordinate where the conjugate one
    diverges at a domain endpoint."""

    def probe(end):
        lams = _probe_sequence(traj.domain, end)
        us = [_safe(traj.U, lam) for lam in lams]
        vs = [_safe(traj.V, lam) for lam in lams]
        return _limit_state(us), _limit_state(vs)

    past = future = None
    (u_state, u_lim), (v_state, v_lim) = probe(traj.domain.lo)
    if v_state == "divergent" and u_state == "finite":
        past = u_lim
    elif u_state == "divergent" and v_state == "finite":
        past = v_lim
    (u_state, u_lim), (v_state, v_lim) = probe(traj.domain.hi)
    if u_state == "divergent" and v_state == "finite":
        future = v_lim
    elif v_state == "divergent" and u_state == "finite":
        future = u_lim
    return Asymptotes(past, future)


def _safe(m: ChartMap, x: float):
    try:
        return lead_value(m.fn(x))
    except (OverflowError, ValueError):
        return None


# ---------- reflection map ----------

def reflection_map(traj: Trajectory) -> ReflectionMap:
    """p = V o U^-1 with q = identity; closed form when registered."""
    factory = traj.closed_reflections.get(traj.chart)
    if factory is not None:
        p = factory()
    else:
        _check_increasing(traj.U, traj.domain)
        p = compose_maps(traj.V, traj.U.inverse_map(),
                         label=f"reflection[{traj.label}]@{traj.chart}")
    return ReflectionMap(p=p, q=identity_map("q"),
                         validity_domain=p.domain)


def _check_increasing(m: ChartMap, domain: Interval, samples: int = 33):
    lo = domain.lo if math.isfinite(domain.lo) else -10.0
    hi = domain.hi if math.isfinite(domain.hi) else 10.0
    width = hi - lo
    for k in range(1, samples):
        x = lo + width * k / samples
        if lead_value(m.dfn(x)) <= 0.0:
            raise MonotonicityError(
                f"{m.label}: derivative not positive at {x}")


# ---------- registry ----------

def trajectory_from_name(name: str) -> Trajectory:
    """Build from a spec string: 'stationary:z0=1' or 'hyperbola:a=2'."""
    kind, _, rest = name.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            params[key.strip()] = float(val)
    if kind == "stationary":
        return stationary_mirror(params.get("z0", 1.0))
    if kind == "hyperbola":
        return uniformly_accelerated_mirror(params.get("a", 1.0))
    raise ValueError(f"unknown trajectory {name!r}; "
                     f"use 'stationary:z0=...' or 'hyperbola:a=...'")
