"""Command line interface: grid evaluation, export, self-checks.

Subcommands: run (evaluate a scenario on a coordinate grid and write
CSV/JSON), check (run the invariant suites and report residuals),
list-scenarios.  Exit codes: 0 success, 1 configuration or usage error,
2 coverage error, 3 I/O error, 4 failed invariant.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass

import numpy as np

from .charts import (
    CoverageError,
    Point,
    get_chart,
    synthetic_curved_chart,
)
from .scenarios import (
    SCENARIO_NAMES,
    build_scenario,
    closed_form_reference,
    scenario_parameter_schema,
)
from .trajectories import reflection_map, stationary_mirror, to_chart, \
    uniformly_accelerated_mirror
from .vacuum_stress import (
    INV_24PI,
    INV_48PI,
    MARGIN,
    F_composition,
    MarginError,
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

_CONFIG_KEYS = {
    "scenario": str, "a": float, "chart": str,
    "c1_min": float, "c1_max": float, "n1": int,
    "c2_min": float, "c2_max": float, "n2": int,
    "frame": str, "output": str, "format": str,
}


class ConfigError(ValueError):
    pass


class _UsageError(Exception):
    """A command line argparse rejects; main reports it and exits 1."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1 instead of 2 (2 means a
    coverage error here), and which takes a negative float in any repr
    form, such as -6.1e-05 or -inf, as a value rather than an option."""

    _NEGATIVE_NUMBER = re.compile(
        r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$|^-inf$")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponent forms (Python < 3.14)
        self._negative_number_matcher = self._NEGATIVE_NUMBER

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: "
                          f"{message}")


@dataclass
class RunConfig:
    scenario: str
    a: float
    chart: str
    c1_min: float
    c1_max: float
    n1: int
    c2_min: float
    c2_max: float
    n2: int
    frame: str
    output: str
    format: str


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_run_config(args) -> RunConfig:
    merged = {
        "scenario": None, "a": "1.0", "chart": None,
        "c1_min": None, "c1_max": None, "n1": "2",
        "c2_min": None, "c2_max": None, "n2": "2",
        "frame": "null", "output": None, "format": "csv",
    }
    if args.config:
        merged.update(_parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = str(flag)
    parsed = {}
    for key, typ in _CONFIG_KEYS.items():
        raw = merged[key]
        if raw is None:
            raise ConfigError(f"missing required field '{key}'")
        try:
            parsed[key] = typ(raw)
        except ValueError:
            raise ConfigError(
                f"field '{key}': cannot parse {raw!r} as {typ.__name__}") \
                from None
    cfg = RunConfig(**parsed)
    if cfg.scenario not in SCENARIO_NAMES:
        raise ConfigError(f"field 'scenario': unknown scenario "
                          f"{cfg.scenario!r}")
    if cfg.a <= 0.0:
        raise ConfigError("field 'a': must be positive")
    if cfg.chart not in ("minkowski", "rindler", "hatted"):
        raise ConfigError(f"field 'chart': must be minkowski, rindler or "
                          f"hatted, got {cfg.chart!r}")
    if cfg.n1 < 2 or cfg.n2 < 2:
        raise ConfigError("field 'n1'/'n2': grid sizes must be >= 2")
    if not cfg.c1_min < cfg.c1_max:
        raise ConfigError("field 'c1_min': must be below c1_max")
    if not cfg.c2_min < cfg.c2_max:
        raise ConfigError("field 'c2_min': must be below c2_max")
    for axis, lo, hi, n in (("c1", cfg.c1_min, cfg.c1_max, cfg.n1),
                            ("c2", cfg.c2_min, cfg.c2_max, cfg.n2)):
        # the last grid coordinate, by _evaluate_rows' formula: the
        # largest, so every coordinate is finite when it is
        if not math.isfinite(lo + (hi - lo) * (n - 1) / (n - 1)):
            raise ConfigError(f"field '{axis}_min'/'{axis}_max': grid "
                              f"window [{lo}, {hi}] overflows a double")
    if cfg.frame not in ("null", "orthonormal"):
        raise ConfigError(f"field 'frame': must be null or orthonormal, "
                          f"got {cfg.frame!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"field 'format': must be csv or json, "
                          f"got {cfg.format!r}")
    return cfg


# ---------- run ----------

def _coverage_interval(state, observe, side: str):
    """Observe-chart coordinate interval reachable by the state, as
    (lo, hi) with infinities where unconstrained."""
    o_map = observe.u_map if side == "u" else observe.v_map
    if state.boundary == "full_line":
        charts = [state.chart]
    else:
        charts = [c for c in (state.chart, state.ambient_chart)
                  if c is not None]
    base_lo = min((c.u_map if side == "u" else c.v_map).range.lo
                  for c in charts)
    base_hi = max((c.u_map if side == "u" else c.v_map).range.hi
                  for c in charts)
    rng = o_map.range
    lo_b, hi_b = max(base_lo, rng.lo), min(base_hi, rng.hi)
    lo = o_map.invert(lo_b) if lo_b > rng.lo else -math.inf
    hi = o_map.invert(hi_b) if hi_b < rng.hi else math.inf
    return lo, hi


def _resolve_chart(cfg: RunConfig, scenario):
    if cfg.chart == "hatted":
        if scenario.state.boundary != "dirichlet_half_line":
            raise ConfigError(
                f"field 'chart': scenario '{cfg.scenario}' has no "
                f"mirror-adapted chart")
        return scenario.state.chart
    return get_chart(cfg.chart)


def _evaluate_rows(cfg: RunConfig, scenario, chart):
    """The grid's rows as (table, singular): an (n1 n2, 5) array of c1,
    c2 and the three stress values, row-major in c1, and a flag per row.
    The stress values of a singular row are NaN."""
    lo1, hi1 = _coverage_interval(scenario.state, chart, "u")
    lo2, hi2 = _coverage_interval(scenario.state, chart, "v")
    if not (cfg.c1_min > lo1 + MARGIN and cfg.c1_max < hi1 - MARGIN):
        raise CoverageError(
            f"c1 grid [{cfg.c1_min}, {cfg.c1_max}] outside coverage "
            f"({lo1}, {hi1}) after margin clipping")
    if not (cfg.c2_min > lo2 + MARGIN and cfg.c2_max < hi2 - MARGIN):
        raise CoverageError(
            f"c2 grid [{cfg.c2_min}, {cfg.c2_max}] outside coverage "
            f"({lo2}, {hi2}) after margin clipping")
    c1 = cfg.c1_min + (cfg.c1_max - cfg.c1_min) * np.arange(cfg.n1) \
        / (cfg.n1 - 1)
    c2 = cfg.c2_min + (cfg.c2_max - cfg.c2_min) * np.arange(cfg.n2) \
        / (cfg.n2 - 1)
    grid = expectation_stress_grid(scenario.state, chart, c1, c2)
    status, values = grid.status, (grid.t_uu, grid.t_vv, grid.t_uv)
    if cfg.frame == "orthonormal":
        status, o = orthonormal_grid(grid)
        values = (o.energy_density, o.pressure, o.flux)
    coords = np.meshgrid(c1, c2, indexing="ij")
    table = np.stack((*coords, *values), axis=-1).reshape(-1, 5)
    return table, (status != 0).ravel()


def _columns(cfg: RunConfig):
    if cfg.frame == "orthonormal":
        return ("c1", "c2", "energy_density", "pressure", "flux", "singular")
    return ("c1", "c2", "T_uu", "T_vv", "T_uv", "singular")


# The writers stream into the output file in blocks of _BLOCK_ROWS rows,
# so that a run holds its rows as arrays but never the whole rendered
# document.  Each row is rendered by the %-template of its shape: five
# values, or the two coordinates of a singular row.  All of them are
# finite floats, for which '%.16e' gives the bytes of '{:.16e}'.format and
# '%r' those of the json module.  Blocks are small on purpose: rendered
# blocks of 1024 rows (100-150 KB strings) made the heap grow over
# thousands of runs in one process.

_BLOCK_ROWS = 128
_CSV_ROW = "%.16e,%.16e,%.16e,%.16e,%.16e,0\n"
_CSV_SINGULAR = "%.16e,%.16e,,,,1\n"
# a row of json.dump(..., indent=1) at depth two
_JSON_ROW = "  [\n   %r,\n   %r,\n   %r,\n   %r,\n   %r,\n   0\n  ]"
_JSON_SINGULAR = ("  [\n   %r,\n   %r,\n   null,\n   null,\n   null,\n"
                  "   1\n  ]")


def _write_rows(out, rows, row, singular_row, sep=""):
    table, singular = rows
    keep = ~singular[:, None] | (np.arange(5) < 2)  # cells a row prints
    for k in range(0, len(table), _BLOCK_ROWS):
        rows_k = slice(k, k + _BLOCK_ROWS)
        template = sep.join([singular_row if bad else row
                             for bad in singular[rows_k].tolist()])
        cells = table[rows_k][keep[rows_k]].tolist()
        out.write((sep if k else "") + template % tuple(cells))


def _write_csv(out, cfg: RunConfig, scenario, chart, rows):
    out.write(f"# scenario={cfg.scenario} state={scenario.state.label} "
              f"chart={chart.name} a={cfg.a:g} frame={cfg.frame}\n")
    out.write(",".join(_columns(cfg)) + "\n")
    _write_rows(out, rows, _CSV_ROW, _CSV_SINGULAR)


def _write_json(out, cfg: RunConfig, scenario, chart, rows):
    # json.dump(..., indent=1, sort_keys=True) of the payload, its header
    # and trailer taken from the payload with no rows
    payload = {
        "scenario": cfg.scenario,
        "state": scenario.state.label,
        "chart": chart.name,
        "a": cfg.a,
        "frame": cfg.frame,
        "columns": list(_columns(cfg)),
        "rows": [],
    }
    head, _, tail = json.dumps(payload, indent=1, sort_keys=True) \
        .partition('"rows": []')
    out.write(head + '"rows": [\n')
    _write_rows(out, rows, _JSON_ROW, _JSON_SINGULAR, ",\n")
    out.write("\n ]" + tail + "\n")


def cmd_run(args) -> int:
    try:
        cfg = _build_run_config(args)
        scenario = build_scenario(cfg.scenario, {"a": cfg.a})
        chart = _resolve_chart(cfg, scenario)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = _evaluate_rows(cfg, scenario, chart)
    except (CoverageError, MarginError) as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return 2
    write = _write_csv if cfg.format == "csv" else _write_json
    try:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            write(fh, cfg, scenario, chart, rows)
    except OSError as exc:
        print(f"i/o error: cannot write {cfg.output}: {exc}",
              file=sys.stderr)
        return 3
    return 0


# ---------- check ----------

def _invariant_suite(bog_export: dict = None):
    """Yield (name, residual, tolerance) for every invariant."""
    rind = get_chart("rindler")
    mink = get_chart("minkowski")
    rng = random.Random(20240101)

    # wedge vacuum constants
    sc_r = build_scenario("rindler_vacuum")
    worst = 0.0
    for _ in range(200):
        p = Point(rng.uniform(-4, 4), rng.uniform(-4, 4), "rindler")
        s = theta_components(sc_r.state, p)
        worst = max(worst, abs(s.t_uu + INV_48PI) / INV_48PI,
                    abs(s.t_vv + INV_48PI) / INV_48PI)
    yield "rindler_vacuum_constants", worst, 1e-12

    # orthonormal energy density profile
    worst = 0.0
    for rho in (0.1, 1.0, 10.0):
        zeta = math.log(rho)
        s = theta_components(sc_r.state, Point(-zeta, zeta, "rindler"))
        o = to_orthonormal_frame(s)
        want = -INV_24PI / rho**2
        worst = max(worst, abs(o.energy_density - want) / abs(want))
    yield "rindler_orthonormal_density", worst, 1e-11

    # mirror radiation vs closed forms, wedge chart
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        sc = build_scenario("mirror_in_rindler_vacuum", {"a": a})
        lo = math.log(a / 2.0)
        for k in range(50):
            ub = lo + 0.01 + 10.0 * k / 49.0
            p = Point(ub, lo + 12.0, "rindler")
            s = expectation_stress(sc.state, rind, p)
            ref = closed_form_reference(sc, p)
            worst = max(worst,
                        abs(s.t_uu - ref.t_uu) / max(abs(ref.t_uu), 1e-12),
                        abs(s.t_vv - ref.t_vv) / abs(ref.t_vv))
    yield "mirror_rindler_closed_form", worst, 1e-10

    # mirror radiation in the inertial chart, two routes
    sc = build_scenario("mirror_in_rindler_vacuum", {"a": 1.0})
    worst_direct = worst_routes = 0.0
    for k in range(40):
        u = -1.95 + 4.0 * k / 39.0
        v = u + 2.0 + 1.0 + 2.0 * k / 39.0
        p = Point(u, v, "minkowski")
        direct = expectation_stress(sc.state, mink, p)
        ref = closed_form_reference(sc, p)
        worst_direct = max(
            worst_direct,
            abs(direct.t_uu - ref.t_uu) / max(abs(ref.t_uu), 1e-12),
            abs(direct.t_vv - ref.t_vv) / abs(ref.t_vv))
        bar = expectation_stress(sc.state, rind,
                                 Point(-math.log(-u) if u < 0 else 0.0,
                                       math.log(v), "rindler")) \
            if u < 0 else None
        if bar is not None:
            back = transform_stress(bar, mink)
            worst_routes = max(
                worst_routes,
                abs(back.t_uu - direct.t_uu) / max(abs(direct.t_uu), 1e-12))
    yield "mirror_minkowski_closed_form", worst_direct, 1e-10
    yield "mirror_two_route_agreement", worst_routes, 1e-10

    # F composition identity (away from the degenerate p' -> 0 end)
    bar = to_chart(stationary_mirror(1.0), rind)
    p_map = reflection_map(bar).p
    hat = sc.state.chart
    worst = 0.0
    for k in range(200):
        ub = math.log(0.5) + 0.01 + 5.0 * k / 199.0
        via = F_composition(p_map, -0.5, ub)
        uh = math.log(2.0 - math.exp(-ub))
        cj = hat.factor_jet_u(uh, 0.5)
        direct = float((cj.d2 / cj.value - 1.5 * (cj.d1 / cj.value) ** 2))
        worst = max(worst, abs(via - direct) / max(1.0, abs(direct)))
    yield "composition_identity", worst, 1e-10

    # conservation per scenario
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
    for name in SCENARIO_NAMES:
        sc_i = build_scenario(name, {"a": 1.0})
        chart_name, region = regions[name]
        rep = check_conservation(sc_i.state, get_chart(chart_name),
                                 region, 15)
        yield f"conservation[{name}]", rep.max_residual, 1e-9

    # trace anomaly, flat and curved
    worst = 0.0
    for st_chart, cs in ((rind, (0.3, -0.4)), (mink, (1.0, 2.0))):
        st = VacuumSpec(st_chart, "full_line", label="chk")
        worst = max(worst, anomaly_check(st, Point(*cs, st_chart.name)))
    curved = synthetic_curved_chart()
    st = VacuumSpec(curved, "full_line", label="chk")
    for cs in ((0.5, 0.8), (1.5, 0.4)):
        worst = max(worst, anomaly_check(st, Point(*cs, curved.name)))
    yield "trace_anomaly", worst, 1e-10

    # thermal-bath difference of the two vacua
    st_m = VacuumSpec(mink, "full_line", label="mval")
    worst = 0.0
    for _ in range(100):
        p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3), "rindler")
        tm = expectation_stress(st_m, rind, p)
        tr = theta_components(sc_r.state, p)
        worst = max(worst,
                    abs(tm.t_uu - tr.t_uu - INV_48PI) / INV_48PI)
    yield "vacuum_difference", worst, 1e-12

    # Moebius maps have vanishing Schwarzian
    from .charts import ChartMap
    worst = 0.0
    for _ in range(100):
        while True:
            a_, b_, c_, d_ = (rng.uniform(-2, 2) for _ in range(4))
            if abs(a_ * d_ - b_ * c_) > 0.1:
                break
        m = ChartMap(fn=lambda x, a_=a_, b_=b_, c_=c_, d_=d_:
                     (a_ * x + b_) / (c_ * x + d_), label="moebius",
                     monotone_sign=1)
        x = rng.uniform(-1, 1)
        if abs(c_ * x + d_) < 0.2:
            x += 1.0
        worst = max(worst, abs(schwarzian_derivative(m, x)))
    hyper = reflection_map(uniformly_accelerated_mirror(1.0)).p
    for x in (-4.0, -1.0, -0.3):
        worst = max(worst, abs(schwarzian_derivative(hyper, x)))
    yield "schwarzian_moebius", worst, 1e-10

    # quick thermal-ratio probe of the mode machinery
    from .bogolubov import (ModeBasis, compute_coefficients,
                            critical_packet_width)
    freqs_a = np.geomspace(0.25, 4.0, 19)
    basis_a = ModeBasis(mink, frequencies=freqs_a,
                        packet_width=critical_packet_width(freqs_a))
    basis_b = ModeBasis(rind, frequencies=np.array([1.0]),
                        packet_width=0.04)
    pair = compute_coefficients(basis_a, basis_b, tol=1e-8)
    ratio = float(np.sum(np.abs(pair.beta[0]) ** 2)
                  / np.sum(np.abs(pair.alpha[0]) ** 2))
    dev = abs(ratio / math.exp(-2.0 * math.pi) - 1.0)
    if bog_export is not None:
        bog_export["alpha_re"] = pair.alpha.real.tolist()
        bog_export["alpha_im"] = pair.alpha.imag.tolist()
        bog_export["beta_re"] = pair.beta.real.tolist()
        bog_export["beta_im"] = pair.beta.imag.tolist()
        bog_export["frequencies_a"] = basis_a.frequencies.tolist()
        bog_export["frequencies_b"] = basis_b.frequencies.tolist()
        bog_export["n_evaluations"] = pair.n_evaluations.tolist()
        bog_export["truncation_warning"] = pair.truncation_warning.tolist()
    yield "bogolubov_thermal_ratio", dev, 0.05

    # byte-identical output files
    cfg = RunConfig("rindler_vacuum", 1.0, "rindler", -1.0, 1.0, 3,
                    -1.0, 1.0, 3, "null", "-", "csv")
    sc0 = build_scenario("rindler_vacuum")
    texts = []
    for _ in range(2):
        out = io.StringIO()
        _write_csv(out, cfg, sc0, rind, _evaluate_rows(cfg, sc0, rind))
        texts.append(out.getvalue())
    yield "deterministic_output", 0.0 if texts[0] == texts[1] else 1.0, 0.5


def cmd_check(args) -> int:
    overrides = {}
    for item in args.override or []:
        name, _, val = item.partition("=")
        try:
            overrides[name] = float(val)
        except ValueError:
            print(f"config error: bad override {item!r}", file=sys.stderr)
            return 1
    bog_export = {} if args.bogolubov_json else None
    failures = 0
    names = set()
    print(f"{'invariant':42s} {'residual':>12s} {'tolerance':>10s}  status")
    for name, residual, tol in _invariant_suite(bog_export):
        names.add(name)
        tol = overrides.get(name, tol)
        ok = residual < tol
        failures += 0 if ok else 1
        print(f"{name:42s} {residual:12.3e} {tol:10.1e}  "
              f"{'PASS' if ok else 'FAIL'}")
    unknown = sorted(overrides.keys() - names)
    if unknown:
        print(f"config error: --override names no invariant: "
              f"{', '.join(unknown)}", file=sys.stderr)
        return 1
    if args.bogolubov_json:
        try:
            with open(args.bogolubov_json, "w", encoding="utf-8") as fh:
                json.dump(bog_export, fh, indent=1, sort_keys=True)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 3
    if failures:
        print(f"{failures} invariant(s) failed")
        return 4
    print("all invariants passed")
    return 0


# ---------- list-scenarios ----------

def cmd_list(args) -> int:
    schema = scenario_parameter_schema()
    if args.json:
        payload = {"scenarios": [
            {"name": name, "params": schema[name]}
            for name in SCENARIO_NAMES
        ]}
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    for name in SCENARIO_NAMES:
        print(name)
        for key, doc in schema[name].items():
            print(f"    {key}: {doc}")
    return 0


# ---------- entry points ----------

@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then shared by
    every ``main`` call of the process: parsing leaves it unchanged, and
    building it costs more than a small ``run``."""
    parser = _Parser(
        prog="mirrorstress",
        description="Stress-energy of a massless 2D scalar field in "
                    "conformally flat charts with reflecting mirrors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a scenario on a grid")
    p_run.add_argument("--config", help="key=value config file")
    p_run.add_argument("--scenario")
    p_run.add_argument("--a", type=float)
    p_run.add_argument("--chart",
                       help="minkowski, rindler or hatted")
    p_run.add_argument("--c1-min", dest="c1_min", type=float)
    p_run.add_argument("--c1-max", dest="c1_max", type=float)
    p_run.add_argument("--n1", type=int)
    p_run.add_argument("--c2-min", dest="c2_min", type=float)
    p_run.add_argument("--c2-max", dest="c2_max", type=float)
    p_run.add_argument("--n2", type=int)
    p_run.add_argument("--frame", help="null or orthonormal")
    p_run.add_argument("--output")
    p_run.add_argument("--format", help="csv or json")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run the invariant suites")
    p_check.add_argument("--override", action="append",
                         help="NAME=TOLERANCE, repeatable")
    p_check.add_argument("--bogolubov-json", dest="bogolubov_json",
                         help="export the check's Bogolubov matrices")
    p_check.set_defaults(func=cmd_check)

    p_list = sub.add_parser("list-scenarios", help="list scenario names")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    return args.func(args)


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
