"""Mirror worldlines and the reflection maps they induce.

A trajectory stores the two base null coordinates along the worldline as
monotone functions of inertial time.  Converting to a chart clips the
parameter domain to the covered stretch.  A ``ReflectionMap`` holds the
one relabeling a mirror induces, p = V o U^-1 on right-movers, which puts
the mirror at constant position in the new (hatted) chart; left-movers
keep their labels, so there is no map for them, and p's domain is where
the relabeling is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .charts import (
    ChartMap,
    ConformalChart,
    CoverageError,
    Interval,
    MonotonicityError,
    compose_maps,
    minkowski_chart,
)
from .jets import jasinh, jcosh, jexp, lead_value

__all__ = [
    "Trajectory",
    "ReflectionMap",
    "Asymptotes",
    "stationary_mirror",
    "uniformly_accelerated_mirror",
    "to_chart",
    "asymptotes",
    "reflection_map",
]


@dataclass(frozen=True)
class Trajectory:
    """Worldline as monotone null-coordinate functions of a parameter.

    ``U`` and ``V`` give the null coordinates along the worldline of
    ``chart``, the chart they are expressed in.
    """

    U: ChartMap
    V: ChartMap
    domain: Interval
    label: str
    chart: ConformalChart

    def position(self, lam: float):
        """(U, V) at parameter value lam, as finite floats; CoverageError
        outside the domain or where a map leaves the double-precision
        range, an intermediate value included."""
        if not self.domain.contains(lam):
            raise CoverageError(
                f"{self.label}: parameter {lam} outside domain {self.domain}")
        return lead_value(self.U(lam)), lead_value(self.V(lam))


@dataclass(frozen=True)
class ReflectionMap:
    """Right-mover relabeling p."""

    p: ChartMap


@dataclass(frozen=True)
class Asymptotes:
    past_null_asymptote: Optional[float]
    future_null_asymptote: Optional[float]


# ---------- constructors ----------

def stationary_mirror(z0: float) -> Trajectory:
    """Mirror at rest at position z0 > 0: U = t - z0, V = t + z0."""
    if not z0 > 0.0:
        raise ValueError(f"mirror position must be positive, got {z0}")
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
        chart=minkowski_chart(),
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
    """Mirror on the hyperbola z^2 - t^2 = 1/a^2 (uniform acceleration a).

    With w = asinh(a t), U = -e^{-w}/a and V = e^{w}/a.  Neither cancels,
    as t - sqrt(t^2 + 1/a^2) does for large t and t + sqrt(t^2 + 1/a^2)
    for large -t, so p = V o U^-1 = -1/(a^2 u) loses no digits to
    cancellation out to both horizons.  It keeps about 14 digits: where
    t/s reaches about 1e200, as at a = 1e-100 and 1e100, the rounding of
    w (about 460 there) is relative error in e^{+-w}, and p is off by
    1.1e-14 relative at u = -1/a^2 and -3/a^2 (1.3e-14 at -10/a^2).
    """
    c = hyperbola_constant(a)
    s = math.sqrt(c)

    def w(t):
        return jasinh(t / s)

    return Trajectory(
        U=ChartMap(fn=lambda t: -s * jexp(-w(t)),
                   dfn=lambda t: jexp(-w(t)) / jcosh(w(t)),
                   inverse_fn=lambda u: 0.5 * (u - c / u),
                   monotone_sign=1, label="U",
                   range_hint=Interval(-math.inf, 0.0)),
        V=ChartMap(fn=lambda t: s * jexp(w(t)),
                   dfn=lambda t: jexp(w(t)) / jcosh(w(t)),
                   inverse_fn=lambda v: 0.5 * (v - c / v),
                   monotone_sign=1, label="V",
                   range_hint=Interval(0.0, math.inf)),
        domain=Interval(),
        label=f"hyperbola:a={a:g}",
        chart=minkowski_chart(),
    )


# ---------- chart conversion ----------

def to_chart(traj: Trajectory, chart: ConformalChart) -> Trajectory:
    """Express the worldline in ``chart``, clipping the parameter domain
    to the stretch the chart covers."""
    if traj.chart.name == chart.name:
        return traj

    def through_base(m_src: ChartMap, m_dst: ChartMap, comp: ChartMap):
        return compose_maps(m_dst.inverse_map(), compose_maps(m_src, comp))

    try:
        new_u = through_base(traj.chart.u_map, chart.u_map, traj.U)
        new_v = through_base(traj.chart.v_map, chart.v_map, traj.V)
    except CoverageError:
        raise CoverageError(
            f"{traj.label}: never enters coverage of chart '{chart.name}'")
    domain = traj.domain.intersect(new_u.domain).intersect(new_v.domain)
    if domain.empty:
        raise CoverageError(
            f"{traj.label}: never enters coverage of chart '{chart.name}'")
    return Trajectory(U=new_u, V=new_v, domain=domain, label=traj.label,
                      chart=chart)


# ---------- asymptotes ----------

def asymptotes(traj: Trajectory) -> Asymptotes:
    """Finite limits of one null coordinate where the conjugate one
    diverges at a domain endpoint, read from the exact images of the
    parameter domain under U and V."""

    def past_future(m: ChartMap):
        image = m.image(traj.domain.intersect(m.domain))
        return (image.lo, image.hi)[::m.monotone_sign]

    def finite_beside_infinite(u, v):
        for x, y in ((u, v), (v, u)):
            if math.isfinite(x) and math.isinf(y):
                return x
        return None

    u_past, u_future = past_future(traj.U)
    v_past, v_future = past_future(traj.V)
    return Asymptotes(finite_beside_infinite(u_past, v_past),
                      finite_beside_infinite(u_future, v_future))


# ---------- reflection map ----------

def reflection_map(traj: Trajectory) -> ReflectionMap:
    """p = V o U^-1.  p inverts in closed form wherever U and V do, as
    they do for both built-in trajectories in every chart."""
    _check_increasing(traj.U, traj.domain)
    return ReflectionMap(p=compose_maps(
        traj.V, traj.U.inverse_map(),
        label=f"reflection[{traj.label}]@{traj.chart.name}"))


def _check_increasing(m: ChartMap, domain: Interval):
    samples = 33
    lo = domain.lo if math.isfinite(domain.lo) else -10.0
    hi = domain.hi if math.isfinite(domain.hi) else 10.0
    width = hi - lo
    for k in range(1, samples):
        x = lo + width * k / samples
        if lead_value(m.dfn(x)) <= 0.0:
            raise MonotonicityError(
                f"{m.label}: derivative not positive at {x}")

