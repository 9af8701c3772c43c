"""The benchmark workloads.

Each workload draws its inputs from a seed, builds what it needs in
``setup`` (which ends with the first evaluated operation of every kind),
runs its unit calls one cycle at a time, and checks every output in
``check``, after the timed region.  An operation that raises an
undocumented exception or fails its check counts as failed.

The program is reached only through its public API and its CLI entry
point, always through module attributes, so that the tracer can wrap
them.
"""

from __future__ import annotations

import json
import math
import os
import random
import time

import numpy as np

from mirrorstress import bogolubov, charts, cli, jets, scenarios, trajectories
from mirrorstress import vacuum_stress as vs

# Errors the stress engine documents for points where a state's stress is
# undefined; the CLI flags such rows singular.
DOCUMENTED_SINGULAR = (vs.StateRegionError, vs.SingularRayError,
                       charts.CoverageError)

# Acceptance tolerance for stress values (criteria 3-5 of the acceptance
# suite); the wedge-vacuum constants are held to 1e-12 there, so 1e-10 is
# the loosest value any row may miss by.
STRESS_TOL = 1e-10
CONSERVATION_TOL = 1e-9
COMPOSITION_TOL = 1e-10
THERMAL_TOL = 0.05
NORMALIZATION_TOL = 0.02


def close(got, want, tol):
    """Componentwise relative agreement.  A component far below the row's
    largest is held to 1e-3 of that one; a row whose reference vanishes
    is held to the vacuum stress scale 1/(48 pi)."""
    scale = max(abs(w) for w in want)
    floor = 1e-3 * scale if scale > 0.0 else vs.INV_48PI
    return all(abs(g - w) <= tol * max(abs(w), floor)
               for g, w in zip(got, want))


class Recorder:
    """Start and latency of every unit call, in seconds of ``clock``, and
    operations attempted."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts = []
        self.latencies = []
        self.ops = 0

    def call(self, fn, *args, **kwargs):
        """Time one unit call; an exception is returned, not raised, so
        that the check can count it."""
        t0 = self.clock()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failure by the check
            out = exc
        self.starts.append(t0)
        self.latencies.append(self.clock() - t0)
        return out


def _sub_window(rng, lo, hi, trim=0.3):
    """A random sub-interval keeping at least 1 - 2 trim of the width."""
    w = hi - lo
    return lo + rng.uniform(0.0, trim) * w, hi - rng.uniform(0.0, trim) * w


# ---------------------------------------------------------------- grid

GRID_PAIRS = (
    ("rindler_vacuum", "rindler"),
    ("rindler_vacuum", "minkowski"),
    ("minkowski_vacuum_rindler_observer", "rindler"),
    ("minkowski_vacuum_rindler_observer", "minkowski"),
    ("mirror_in_rindler_vacuum", "rindler"),
    ("mirror_in_rindler_vacuum", "minkowski"),
    ("mirror_in_rindler_vacuum", "hatted"),
    ("accelerated_mirror_minkowski", "minkowski"),
    ("accelerated_mirror_minkowski", "hatted"),
)
GRID_N = 24
_MIRRORS = ("mirror_in_rindler_vacuum", "accelerated_mirror_minkowski")


def _grid_box(scenario, chart, a):
    """(c1_lo, c1_hi, c2_lo, c2_hi) inside the state's region, clear of
    its singular rays, so that every row has a closed-form value."""
    if scenario == "rindler_vacuum" and chart == "minkowski":
        return -4.0, -0.1, 0.1, 4.0
    if scenario in ("rindler_vacuum", "minkowski_vacuum_rindler_observer"):
        return -3.0, 3.0, -3.0, 3.0
    if scenario == "mirror_in_rindler_vacuum":
        edge = math.log(a / 2.0)  # sector boundary, u = -2/a
        if chart == "rindler":
            return edge + 0.05, edge + 4.0, -edge + 0.05, -edge + 3.0
        if chart == "minkowski":
            return -1.95 / a, 2.0 / a, 4.5 / a, 8.0 / a
        return -1.0, 1.0, 1.2, 3.0  # hatted: the mirror sits at c1 = c2
    if chart == "minkowski":  # accelerated mirror, region u v < -1/a^2
        return -4.0 / a, -0.5 / a, 2.5 / a, 5.0 / a
    return 0.2, 1.0, 1.2, 3.0  # hatted hyperbola: region c2 > c1 > 0


class GridWorkload:
    """In-process ``mirrorstress run`` invocations cycling through every
    scenario x chart pair, both frames and both formats."""

    name = "grid"

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.runs = []  # (config, argv, path, exit code)

    @staticmethod
    def _config(rng, scenario, chart, frame, fmt):
        a = math.exp(rng.uniform(math.log(0.5), math.log(2.0))) \
            if scenario in _MIRRORS else 1.0
        c1_lo, c1_hi, c2_lo, c2_hi = _grid_box(scenario, chart, a)
        c1 = _sub_window(rng, c1_lo, c1_hi)
        c2 = _sub_window(rng, c2_lo, c2_hi)
        return dict(scenario=scenario, chart=chart, a=a, c1=c1, c2=c2,
                    frame=frame, format=fmt)

    @staticmethod
    def _argv(cfg, n, path):
        return ["run", "--scenario", cfg["scenario"], "--a", repr(cfg["a"]),
                "--chart", cfg["chart"],
                "--c1-min", repr(cfg["c1"][0]), "--c1-max", repr(cfg["c1"][1]),
                "--n1", str(n),
                "--c2-min", repr(cfg["c2"][0]), "--c2-max", repr(cfg["c2"][1]),
                "--n2", str(n), "--frame", cfg["frame"],
                "--format", cfg["format"], "--output", path]

    def setup(self):
        rng = random.Random(0)
        for k, (scenario, chart) in enumerate(GRID_PAIRS):
            cfg = self._config(rng, scenario, chart, "null", "csv")
            path = os.path.join(self.workdir, f"setup{k}.csv")
            if cli.main(self._argv(cfg, 2, path)) != 0:
                raise RuntimeError(f"grid setup failed for {scenario}/{chart}")

    def cycle(self, rec):
        for scenario, chart in GRID_PAIRS:
            for frame in ("null", "orthonormal"):
                for fmt in ("csv", "json"):
                    cfg = self._config(self.rng, scenario, chart, frame,
                                       fmt)
                    path = os.path.join(self.workdir,
                                        f"run{len(self.runs):05d}.{fmt}")
                    argv = self._argv(cfg, GRID_N, path)
                    rc = rec.call(cli.main, argv)
                    self.runs.append((cfg, argv, path, rc))
                    rec.ops += GRID_N * GRID_N

    def check(self, failures):
        """Returns (attempted, failed) rows."""
        attempted = failed = 0
        for k, (cfg, argv, path, rc) in enumerate(self.runs):
            attempted += GRID_N * GRID_N
            bad = self._check_run(cfg, path, rc)
            if bad is None and k % 8 == 0:
                again = path + ".again"
                if cli.main(argv[:-1] + [again]) != 0 or \
                        _read_bytes(again) != _read_bytes(path):
                    bad = "repeated invocation is not byte-identical"
            if bad is not None:
                failed += GRID_N * GRID_N
                failures.append(f"grid {path}: {bad}")
        return attempted, failed

    def _check_run(self, cfg, path, rc):
        if rc != 0:
            return f"exit code {rc!r}"
        try:
            rows = _read_rows(path, cfg["format"])
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {exc}"
        if len(rows) != GRID_N * GRID_N:
            return f"{len(rows)} rows, expected {GRID_N * GRID_N}"
        sc = scenarios.build_scenario(cfg["scenario"], {"a": cfg["a"]})
        chart = sc.state.chart if cfg["chart"] == "hatted" \
            else charts.get_chart(cfg["chart"])
        for idx, row in enumerate(rows):
            i, j = divmod(idx, GRID_N)
            c1 = _grid_coord(cfg["c1"], i)
            c2 = _grid_coord(cfg["c2"], j)
            if row[0] != c1 or row[1] != c2:
                return f"row {idx}: coordinates {row[:2]} != {(c1, c2)}"
            p = charts.Point(c1, c2, chart.name)
            if row[5] == 1:
                try:
                    vs.expectation_stress(sc.state, chart, p)
                except DOCUMENTED_SINGULAR:
                    continue
                return f"row {idx}: flagged singular but evaluates"
            want = _reference(sc, chart, p, cfg["frame"])
            if row[5] != 0 or not close(row[2:5], want, STRESS_TOL):
                return f"row {idx}: {row[2:5]} != reference {want}"
        return None


def _grid_coord(window, i):
    lo, hi = window
    return lo + (hi - lo) * i / (GRID_N - 1)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _read_rows(path, fmt):
    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "json":
            rows = json.load(fh)["rows"]
            return [[float(x) if x is not None else None for x in r[:5]]
                    + [int(r[5])] for r in rows]
        lines = fh.read().splitlines()
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        rows.append([float(x) if x else None for x in cells[:5]]
                    + [int(cells[5])])
    return rows


def _reference(sc, chart, p, frame):
    """The closed form at p, carried by transform_stress into charts that
    have none (the mirror-adapted ones)."""
    if p.chart in sc.forms:
        ref = scenarios.closed_form_reference(sc, p)
    else:
        q = charts.convert_point(p, charts.get_chart("minkowski"))
        ref = vs.transform_stress(scenarios.closed_form_reference(sc, q),
                                  chart)
    if frame == "orthonormal":
        o = vs.to_orthonormal_frame(ref)
        return o.energy_density, o.pressure, o.flux
    return ref.t_uu, ref.t_vv, ref.t_uv


# ---------------------------------------------------------- identities

# conservation regions of the CLI's invariant suite, per scenario
_LOG_HALF = math.log(0.5)
CONSERVATION_REGIONS = {
    "rindler_vacuum": ("rindler", (-2.0, 2.0, -2.0, 2.0)),
    "mirror_in_rindler_vacuum": ("rindler",
                                 (_LOG_HALF + 0.05, _LOG_HALF + 4.0,
                                  1.0, 3.0)),
    "accelerated_mirror_minkowski": ("minkowski", (-4.0, -0.5, 2.5, 5.0)),
    "minkowski_vacuum_rindler_observer": ("rindler",
                                          (-2.0, 2.0, -2.0, 2.0)),
}
CONSERVATION_N = 10
DERIVED_POINTS = 150
# as many compositions (microseconds each) as conservation calls (tenths
# of a second), so that the median unit call is the median point
# evaluation
COMPOSITION_POINTS = 5


def evaluate_point(state, chart, p):
    """One point evaluation, the identities workload's stress unit call."""
    s = vs.expectation_stress(state, chart, p)
    return s, vs.to_orthonormal_frame(s)


def derived_mirror_state():
    """mirror_in_rindler_vacuum at a = 1 on a chart derived from the wedge
    chart by a forward-only relabeling (no closed-form inverse), so that
    every transition into the wedge chart inverts numerically."""
    rind = charts.get_chart("rindler")
    relabel = charts.ChartMap(
        fn=lambda x: -jets.jlog(2.0 - jets.jexp(x)),
        domain=charts.Interval(-math.inf, math.log(2.0)),
        label="derived-u")
    chart = charts.compose_charts(rind, relabel, charts.identity_map(),
                                  "derived:mirror_in_rindler_vacuum:a=1",
                                  global_class="half_line")
    return vs.VacuumSpec(
        chart, "dirichlet_half_line", label="mirror_in_rindler_vacuum",
        ambient_chart=rind, reflected_u_range=charts.Interval(-2.0, math.inf),
        region_predicate=lambda u, v: v - u > 2.0)


class IdentitiesWorkload:
    """Conservation over the invariant-suite regions, the mirror state on
    a derived chart point by point and by conservation, and the
    F-composition identity of the stationary mirror's reflection map."""

    name = "identities"

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.results = []

    def setup(self):
        self.rind = charts.get_chart("rindler")
        self.states = {}
        for name, (chart, _) in CONSERVATION_REGIONS.items():
            sc = scenarios.build_scenario(name, {"a": 1.0})
            self.states[name] = (sc.state, charts.get_chart(chart))
        self.mirror = scenarios.build_scenario("mirror_in_rindler_vacuum",
                                               {"a": 1.0})
        self.derived = derived_mirror_state()
        self.states["derived"] = (self.derived, self.rind)
        bar = trajectories.to_chart(trajectories.stationary_mirror(1.0),
                                    self.rind)
        self.p_map = trajectories.reflection_map(bar).p
        # the first operation of every kind
        for name, (state, chart) in self.states.items():
            region = CONSERVATION_REGIONS.get(
                name, CONSERVATION_REGIONS["mirror_in_rindler_vacuum"])[1]
            vs.check_conservation(state, chart, region, 1)
        evaluate_point(self.derived, self.rind,
                       charts.Point(0.5, 2.0, "rindler"))
        vs.F_composition(self.p_map, -0.5, 0.5)

    def cycle(self, rec):
        rng = self.rng
        for name, (state, chart) in self.states.items():
            base = CONSERVATION_REGIONS.get(
                name, CONSERVATION_REGIONS["mirror_in_rindler_vacuum"])[1]
            region = (*_sub_window(rng, base[0], base[1], 0.15),
                      *_sub_window(rng, base[2], base[3], 0.15))
            rep = rec.call(vs.check_conservation, state, chart, region,
                           CONSERVATION_N)
            rec.ops += CONSERVATION_N * CONSERVATION_N
            self.results.append(("conservation", name, rep))
        lo1, hi1, lo2, hi2 = CONSERVATION_REGIONS[
            "mirror_in_rindler_vacuum"][1]
        for _ in range(DERIVED_POINTS):
            p = charts.Point(rng.uniform(lo1, hi1), rng.uniform(lo2, hi2),
                             "rindler")
            out = rec.call(evaluate_point, self.derived, self.rind, p)
            rec.ops += 1
            self.results.append(("point", p, out))
        for _ in range(COMPOSITION_POINTS):
            ub = _LOG_HALF + 0.01 + rng.uniform(0.0, 5.0)
            val = rec.call(vs.F_composition, self.p_map, -0.5, ub)
            rec.ops += 1
            self.results.append(("composition", ub, val))

    def check(self, failures):
        attempted = failed = 0
        hat = self.mirror.state.chart
        for kind, key, out in self.results:
            n = CONSERVATION_N ** 2 if kind == "conservation" else 1
            attempted += n
            bad = None
            if kind == "conservation":
                if not isinstance(out, vs.ConservationReport):
                    bad = repr(out)
                elif not out.max_residual < CONSERVATION_TOL:
                    bad = f"residual {out.max_residual:.3e}"
            elif kind == "point":
                if not isinstance(out, tuple):
                    bad = repr(out)
                else:
                    s, o = out
                    ref = scenarios.closed_form_reference(self.mirror, key)
                    ro = vs.to_orthonormal_frame(ref)
                    if not close((s.t_uu, s.t_vv, s.t_uv),
                                 (ref.t_uu, ref.t_vv, ref.t_uv), STRESS_TOL) \
                            or not close(
                                (o.energy_density, o.pressure, o.flux),
                                (ro.energy_density, ro.pressure, ro.flux),
                                STRESS_TOL):
                        bad = f"{s} != closed form {ref}"
            else:
                if not isinstance(out, float):
                    bad = repr(out)
                else:
                    # F in the mirror-adapted chart, taken directly
                    uh = math.log(2.0 - math.exp(-key))
                    cj = hat.factor_jet_u(uh, 0.5)
                    direct = float(cj.d2 / cj.value
                                   - 1.5 * (cj.d1 / cj.value) ** 2)
                    if not abs(out - direct) / max(1.0, abs(direct)) \
                            < COMPOSITION_TOL:
                        bad = f"F composition {out!r} != direct {direct!r}"
            if bad is not None:
                failed += n
                failures.append(f"identities {kind} {key}: {bad}")
        return attempted, failed


# ----------------------------------------------------------- bogolubov

THERMAL_ROW_BAND = (0.7, 1.4)


def _column_basis(freqs):
    return bogolubov.ModeBasis(
        charts.get_chart("minkowski"), frequencies=freqs,
        packet_width=bogolubov.critical_packet_width(freqs))


class BogolubovWorkload:
    """compute_coefficients on the shapes of the test-session fixtures: the
    3 x 19 thermal matrix and one narrow wedge packet against a 255-column
    inertial family, with seed-drawn row frequencies.  A cycle takes about
    30 s on a 2-core host, so a run is usually one cycle."""

    name = "bogolubov"

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.results = []

    def _band(self, k, parts):
        """A frequency in part k of ``parts`` equal parts of the band:
        stratified draws keep the spread of rows the fixtures have, and
        the work of a run nearly the same for every seed."""
        lo, hi = THERMAL_ROW_BAND
        return lo + (hi - lo) / parts * (k + self.rng.random())

    def setup(self):
        self.thermal_cols = _column_basis(np.geomspace(0.25, 4.0, 19))
        self.wide_cols = _column_basis(
            np.geomspace(math.exp(-38.0), math.exp(38.0), 255))
        rind = charts.get_chart("rindler")
        self.thermal_rows = lambda f: bogolubov.ModeBasis(
            rind, frequencies=f, packet_width=0.04)
        self.wide_rows = lambda f: bogolubov.ModeBasis(
            rind, frequencies=f, packet_width=0.06)
        # the first entry of each shape, against the column nearest the row
        for cols, rows in ((self.thermal_cols, self.thermal_rows),
                           (self.wide_cols, self.wide_rows)):
            k = int(np.argmin(np.abs(np.log(cols.frequencies))))
            bogolubov.kg_inner_product(cols.packet(k),
                                       rows(np.array([1.0])).packet(0),
                                       tol=1e-9)

    def cycle(self, rec):
        """Each shape twice; the wide row once in each half of the band."""
        for half in (0, 1):
            thermal = np.array([self._band(k, 3) for k in range(3)])
            wide = np.array([self._band(half, 2)])
            for shape, cols, rows, freqs in (
                    ("thermal", self.thermal_cols, self.thermal_rows, thermal),
                    ("wide", self.wide_cols, self.wide_rows, wide)):
                pair = rec.call(bogolubov.compute_coefficients, cols,
                                rows(freqs), tol=1e-9)
                rec.ops += len(cols) * len(freqs)
                self.results.append((shape, freqs, len(cols), pair))

    def check(self, failures):
        attempted = failed = 0
        for shape, freqs, ncols, pair in self.results:
            for i, omega in enumerate(freqs):
                attempted += ncols
                bad = self._check_row(shape, pair, i, float(omega))
                if bad is not None:
                    failed += ncols
                    failures.append(f"bogolubov {shape} row {omega}: {bad}")
        return attempted, failed

    @staticmethod
    def _check_row(shape, pair, i, omega):
        if not isinstance(pair, bogolubov.BogolubovPair):
            return repr(pair)
        if not (np.isfinite(pair.alpha[i]).all()
                and np.isfinite(pair.beta[i]).all()):
            return "non-finite coefficient"
        if shape == "thermal":
            ratio = float(np.sum(np.abs(pair.beta[i]) ** 2)
                          / np.sum(np.abs(pair.alpha[i]) ** 2))
            dev = abs(ratio / math.exp(-2.0 * math.pi * omega) - 1.0)
            return None if dev < THERMAL_TOL \
                else f"thermal ratio dev {dev:.3g}"
        dev = abs(bogolubov.row_normalization(pair, i) - 1.0)
        return None if dev < NORMALIZATION_TOL else f"row norm dev {dev:.3g}"


WORKLOADS = {w.name: w for w in (GridWorkload, IdentitiesWorkload,
                                 BogolubovWorkload)}
