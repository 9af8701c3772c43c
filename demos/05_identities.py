#!/usr/bin/env python3
"""The identities that hold the machinery together.

Covariant conservation of the renormalized tensor, the trace identity
relating T_uv to the curvature scalar, and the composition rule that
moves the F functional between relabeled charts: each is checked here
numerically with jet derivatives, no finite differences anywhere.
"""

import math

from mirrorstress import (
    F_composition,
    Point,
    VacuumSpec,
    anomaly_check,
    build_scenario,
    check_conservation,
    get_chart,
    reflection_map,
    stationary_mirror,
    synthetic_curved_chart,
    to_chart,
)

rind = get_chart("rindler")
mink = get_chart("minkowski")

print("conservation residuals, d1 T_22 + d2 T_12 - (d2 C / C) T_12 and")
print("its mirror image, maximized over 30 x 30 grids:")
for name, chart, region in [
    ("rindler_vacuum", rind, (-2.0, 2.0, -2.0, 2.0)),
    ("mirror_in_rindler_vacuum", rind,
     (math.log(0.5) + 0.05, math.log(0.5) + 4.0, 1.0, 3.0)),
    ("mirror_in_rindler_vacuum", mink, (-1.95, 3.0, 5.2, 9.0)),
    ("accelerated_mirror_minkowski", mink, (-4.0, -0.5, 2.5, 5.0)),
]:
    sc = build_scenario(name, {"a": 1.0})
    rep = check_conservation(sc.state, chart, region, 30)
    print(f"  {name:32s} in {chart.name:10s}: {rep.max_residual:.2e}")

print("\ntrace identity |(4/C) T_uv - R/(24 pi)| (state independent):")
for chart, pt in [(rind, (0.5, -0.5)), (mink, (2.0, 1.0))]:
    st = VacuumSpec(chart, "full_line", label="demo")
    print(f"  {chart.name:12s}: {anomaly_check(st, Point(*pt, chart.name)):.2e}"
          f"   (flat: both terms vanish)")
curved = synthetic_curved_chart()
st = VacuumSpec(curved, "full_line", label="demo")
u, v = 0.8, 0.6
print(f"  {curved.name:12s}: {anomaly_check(st, Point(u, v, curved.name)):.2e}"
      f"   (curved: R = {curved.ricci_scalar(u, v):.4f} "
      f"vs 8/(u+v)^4 = {8.0 / (u + v) ** 4:.4f})")

print("\nF-functional composition under the mirror relabeling,")
print("(1/p'^2)[F(C) - schwarzian(p)] against the direct evaluation:")
sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
bar = to_chart(stationary_mirror(1.0), rind)
p_map = reflection_map(bar).p
hat = sc.state.chart
for ub in (-0.5, 0.0, 1.0, 3.0):
    via = F_composition(p_map, -0.5, ub)
    uh = math.log(2.0 - math.exp(-ub))
    cj = hat.factor_jet_u(uh, 0.4)
    direct = float(cj.d2 / cj.value - 1.5 * (cj.d1 / cj.value) ** 2)
    print(f"  u* = {ub:5.2f}: identity {via:+.12f}  direct {direct:+.12f}"
          f"  diff {abs(via - direct):.1e}")
