"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here; the expected values come from closed
forms checked independently in the per-module test files.
"""

import math
import random

import numpy as np

from mirrorstress.bogolubov import row_normalization
from mirrorstress.charts import (
    ChartMap,
    Point,
    get_chart,
    synthetic_curved_chart,
)
from mirrorstress.cli import main as cli_main
from mirrorstress.scenarios import SCENARIO_NAMES, build_scenario
from mirrorstress.trajectories import (
    reflection_map,
    stationary_mirror,
    to_chart,
    uniformly_accelerated_mirror,
)
from mirrorstress.vacuum_stress import (
    INV_24PI,
    INV_48PI,
    F_composition,
    VacuumSpec,
    anomaly_check,
    check_conservation,
    expectation_stress,
    schwarzian_derivative,
    theta_components,
    to_orthonormal_frame,
    transform_stress,
)

RIND = get_chart("rindler")
MINK = get_chart("minkowski")


def verdict(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_rindler_vacuum_constants():
    rng = random.Random(42)
    state = VacuumSpec(RIND, "full_line", label="rindler_vacuum")
    worst = 0.0
    for _ in range(10_000):
        p = Point(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0), "rindler")
        s = theta_components(state, p)
        worst = max(worst,
                    abs(s.t_uu + INV_48PI) / INV_48PI,
                    abs(s.t_vv + INV_48PI) / INV_48PI)
    verdict(1, worst < 1e-12,
            f"wedge vacuum constants, worst rel err {worst:.2e} < 1e-12 "
            f"at 10^4 points")


def test_criterion_02_orthonormal_density():
    state = VacuumSpec(RIND, "full_line", label="rindler_vacuum")
    worst = 0.0
    for rho in (0.1, 1.0, 10.0):
        zeta = math.log(rho)
        s = theta_components(state, Point(-zeta, zeta, "rindler"))
        o = to_orthonormal_frame(s)
        want = -INV_24PI / rho**2
        worst = max(worst, abs(o.energy_density - want) / abs(want))
    verdict(2, worst < 1e-11,
            f"orthonormal energy density -1/(24 pi rho^2), worst rel err "
            f"{worst:.2e} < 1e-11")


def test_criterion_03_mirror_rindler_chart():
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        sc = build_scenario("mirror_in_rindler_vacuum", {"a": a})
        lo = math.log(a / 2.0)
        for k in range(50):
            ub = lo + 0.01 + (10.0 - 0.01) * k / 49.0
            p = Point(ub, lo + 12.0, "rindler")
            s = expectation_stress(sc.state, RIND, p)
            w = a * math.exp(-ub)
            want = -INV_48PI * w * w / (2.0 - w) ** 2
            worst = max(worst,
                        abs(s.t_uu - want) / abs(want),
                        abs(s.t_vv + INV_48PI) / INV_48PI)
    verdict(3, worst < 1e-10,
            f"mirror radiation in the wedge chart, worst rel err "
            f"{worst:.2e} < 1e-10 for a in (0.5, 1, 2)")


def test_criterion_04_mirror_minkowski_chart():
    worst_form = worst_routes = 0.0
    for a in (0.5, 1.0, 2.0):
        sc = build_scenario("mirror_in_rindler_vacuum", {"a": a})
        shift = 2.0 / a
        # route agreement inside the wedge: direct vs transform of the
        # wedge-chart field
        n = 50
        for i in range(n):
            u = -shift + 1e-3 + (shift - 2e-3) * i / (n - 1)
            for v in (shift + 0.5, shift + 2.0):
                p = Point(u, v, "minkowski")
                direct = expectation_stress(sc.state, MINK, p)
                want_uu = -INV_48PI * a * a / (2.0 + a * u) ** 2
                want_vv = -INV_48PI / (v * v)
                worst_form = max(
                    worst_form,
                    abs(direct.t_uu - want_uu) / abs(want_uu),
                    abs(direct.t_vv - want_vv) / abs(want_vv))
                bar = expectation_stress(
                    sc.state, RIND,
                    Point(-math.log(-u), math.log(v), "rindler"))
                back = transform_stress(bar, MINK)
                worst_routes = max(
                    worst_routes,
                    abs(back.t_uu - direct.t_uu) / abs(direct.t_uu),
                    abs(back.t_vv - direct.t_vv) / abs(direct.t_vv))
        # the closed form continues smoothly across u = 0
        for u in np.linspace(0.5, 20.0, 25):
            p = Point(float(u), float(u) + shift + 1.0, "minkowski")
            direct = expectation_stress(sc.state, MINK, p)
            want = -INV_48PI * a * a / (2.0 + a * u) ** 2
            worst_form = max(worst_form, abs(direct.t_uu - want) / abs(want))
    ok = worst_form < 1e-10 and worst_routes < 1e-10
    verdict(4, ok,
            f"mirror radiation in the inertial chart: closed form rel err "
            f"{worst_form:.2e}, route agreement {worst_routes:.2e}, "
            f"both < 1e-10")


def test_criterion_05_composition_identity():
    a = 1.0
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": a})
    hat = sc.state.chart
    bar = to_chart(stationary_mirror(1.0 / a), RIND)
    p_map = reflection_map(bar).p
    worst = 0.0
    lo = math.log(a / 2.0)
    for k in range(1000):
        ub = lo + 0.01 + 5.0 * k / 999.0
        via = F_composition(p_map, -0.5, ub)
        uh = math.log(2.0 - a * math.exp(-ub)) - math.log(a)
        cj = hat.factor_jet_u(uh, 0.7)
        direct = float(cj.d2 / cj.value - 1.5 * (cj.d1 / cj.value) ** 2)
        worst = max(worst, abs(via - direct) / max(1.0, abs(direct)))
    verdict(5, worst < 1e-10,
            f"F composition identity on 10^3 points, worst dev "
            f"{worst:.2e} < 1e-10")


def test_criterion_06_conservation():
    regions = {
        "rindler_vacuum": ("rindler", (-2.0, 2.0, -2.0, 2.0)),
        "mirror_in_rindler_vacuum": ("rindler",
                                     (math.log(0.5) + 0.05,
                                      math.log(0.5) + 4.0, 1.0, 3.0)),
        "accelerated_mirror_minkowski": ("minkowski",
                                         (-4.0, -0.5, 2.5, 5.0)),
        "minkowski_vacuum_rindler_observer": ("rindler",
                                              (-2.0, 2.0, -2.0, 2.0)),
    }
    worst = 0.0
    details = []
    for name in SCENARIO_NAMES:
        sc = build_scenario(name, {"a": 1.0})
        chart_name, region = regions[name]
        rep = check_conservation(sc.state, get_chart(chart_name), region, 50)
        worst = max(worst, rep.max_residual)
        details.append(f"{name}={rep.max_residual:.1e}")
    # the mirror field in the inertial chart as well
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    rep = check_conservation(sc.state, MINK, (-1.95, 3.0, 5.2, 9.0), 50)
    worst = max(worst, rep.max_residual)
    details.append(f"mirror@minkowski={rep.max_residual:.1e}")
    verdict(6, worst < 1e-9,
            "conservation residuals on 50x50 grids < 1e-9: "
            + ", ".join(details))


def test_criterion_07_trace_anomaly():
    worst_flat = 0.0
    for chart, pts in ((RIND, [(0.0, 0.0), (1.5, -2.0)]),
                       (MINK, [(3.0, -1.0)])):
        state = VacuumSpec(chart, "full_line", label="chk")
        for c1, c2 in pts:
            p = Point(c1, c2, chart.name)
            worst_flat = max(worst_flat, anomaly_check(state, p))
            s = theta_components(state, p)
            c = chart.conformal_factor(c1, c2)
            both = max(abs(4.0 / c * s.t_uv),
                       abs(chart.ricci_scalar(c1, c2)) / (24.0 * math.pi))
            assert both < 1e-12
    curved = synthetic_curved_chart()
    state = VacuumSpec(curved, "full_line", label="chk")
    worst_curved = 0.0
    for u, v in ((0.5, 0.8), (1.0, 1.0), (2.0, 0.3)):
        worst_curved = max(worst_curved,
                           anomaly_check(state, Point(u, v, curved.name)))
    ok = worst_flat < 1e-10 and worst_curved < 1e-10
    verdict(7, ok,
            f"trace anomaly: flat charts {worst_flat:.2e}, curved test "
            f"chart {worst_curved:.2e}, both < 1e-10")


def test_criterion_08_vacuum_difference():
    rng = random.Random(7)
    st_m = VacuumSpec(MINK, "full_line", label="minkowski_vacuum")
    st_r = VacuumSpec(RIND, "full_line", label="rindler_vacuum")
    worst = 0.0
    for _ in range(1000):
        p = Point(rng.uniform(-4, 4), rng.uniform(-4, 4), "rindler")
        tm = expectation_stress(st_m, RIND, p)
        tr = theta_components(st_r, p)
        worst = max(worst, abs(tm.t_uu - tr.t_uu - INV_48PI) / INV_48PI)
    verdict(8, worst < 1e-12,
            f"inertial-minus-wedge vacuum difference +1/(48 pi) at 10^3 "
            f"points, worst rel err {worst:.2e} < 1e-12")


def test_criterion_09_schwarzian():
    rng = random.Random(13)
    worst = 0.0
    for _ in range(100):
        while True:
            a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
            if abs(a * d - b * c) > 0.1:
                break
        m = ChartMap(fn=lambda x, a=a, b=b, c=c, d=d:
                     (a * x + b) / (c * x + d),
                     label="moebius", monotone_sign=1)
        x = rng.uniform(-1.0, 1.0)
        if abs(c * x + d) < 0.2:
            x += 1.5
        worst = max(worst, abs(schwarzian_derivative(m, x)))
    hyper = reflection_map(uniformly_accelerated_mirror(1.3)).p
    for x in (-5.0, -1.0, -0.2):
        worst = max(worst, abs(schwarzian_derivative(hyper, x)))
    verdict(9, worst < 1e-10,
            f"Schwarzian of 100 Moebius maps and the hyperbolic mirror's "
            f"reflection map, worst {worst:.2e} < 1e-10")


def test_criterion_10_bogolubov(thermal_pair, planck_pair,
                                planck_coarse_pair):
    worst_ratio = 0.0
    for i, omega in enumerate(thermal_pair.basis_b.frequencies):
        a2 = np.abs(thermal_pair.alpha[i]) ** 2
        b2 = np.abs(thermal_pair.beta[i]) ** 2
        ratio = float(b2.sum() / a2.sum())
        want = math.exp(-2.0 * math.pi * float(omega))
        worst_ratio = max(worst_ratio, abs(ratio / want - 1.0))
    norm_dev = abs(row_normalization(planck_pair, 0) - 1.0)
    refine_change = abs(row_normalization(planck_pair, 0)
                        - row_normalization(planck_coarse_pair, 0))
    reported = planck_coarse_pair.row_discretization_error(0)
    ok = worst_ratio < 0.05 and norm_dev < 0.02 and refine_change < reported
    verdict(10, ok,
            f"thermal ratio dev {worst_ratio:.3f} < 0.05, row norm dev "
            f"{norm_dev:.3f} < 0.02, refinement change "
            f"{refine_change:.4f} < reported {reported:.4f}")


def test_criterion_11_determinism(tmp_path):
    args = ["run", "--scenario", "mirror_in_rindler_vacuum", "--a", "1",
            "--chart", "rindler",
            "--c1-min", "-0.5", "--c1-max", "3.0", "--n1", "7",
            "--c2-min", "0.5", "--c2-max", "2.5", "--n2", "5"]
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert cli_main(args + ["--output", str(out1)]) == 0
    assert cli_main(args + ["--output", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    verdict(11, ok, "two identical runs produce byte-identical files")
