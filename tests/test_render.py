"""`run` output: the template writers against the reference writers.

The reference functions below are the writers the CLI used before rows
were rendered from per-row templates: rows as Python tuples, CSV through
``str.format`` per cell and JSON through ``json.dump(indent=1)``.  Every
window is written by ``main`` into a file, whose bytes must equal the
reference rendering of the same grid.
"""

import io
import json
import math
import sys

import numpy as np
import pytest

from mirrorstress import cli
from mirrorstress.charts import get_chart
from mirrorstress.scenarios import build_scenario
from mirrorstress.vacuum_stress import (
    OK,
    REGION,
    STATUS_NAMES,
    StressGrid,
    expectation_stress_grid,
    orthonormal_grid,
)

_FMT = "{:.16e}"


def reference_rows(cfg, scenario, chart):
    c1 = cfg.c1_min + (cfg.c1_max - cfg.c1_min) * np.arange(cfg.n1) \
        / (cfg.n1 - 1)
    c2 = cfg.c2_min + (cfg.c2_max - cfg.c2_min) * np.arange(cfg.n2) \
        / (cfg.n2 - 1)
    grid = expectation_stress_grid(scenario.state, chart, c1, c2)
    status, values = grid.status, (grid.t_uu, grid.t_vv, grid.t_uv)
    if cfg.frame == "orthonormal":
        status, o = orthonormal_grid(grid)
        values = (o.energy_density, o.pressure, o.flux)
    singular = (status != 0).ravel().tolist()
    x, y, z = (v.ravel().tolist() for v in values)
    c1s, c2s = c1.tolist(), c2.tolist()
    rows = []
    for k, bad in enumerate(singular):
        c = (c1s[k // cfg.n2], c2s[k % cfg.n2])
        rows.append((*c, None, None, None, 1) if bad
                    else (*c, x[k], y[k], z[k], 0))
    return rows, status


def reference_write_csv(out, cfg, scenario, chart, rows):
    out.write(f"# scenario={cfg.scenario} state={scenario.state.label} "
              f"chart={chart.name} a={cfg.a:g} frame={cfg.frame}\n")
    out.write(",".join(cli._columns(cfg)) + "\n")
    for c1, c2, x, y, z, singular in rows:
        cells = [_FMT.format(c1), _FMT.format(c2)]
        for v in (x, y, z):
            cells.append("" if v is None else _FMT.format(v))
        cells.append(str(singular))
        out.write(",".join(cells) + "\n")


def reference_write_json(out, cfg, scenario, chart, rows):
    payload = {
        "scenario": cfg.scenario,
        "state": scenario.state.label,
        "chart": chart.name,
        "a": cfg.a,
        "frame": cfg.frame,
        "columns": list(cli._columns(cfg)),
        "rows": rows,
    }
    json.dump(payload, out, indent=1, sort_keys=True)
    out.write("\n")


# (scenario, chart, a, c1 window, n1, c2 window, n2): every scenario x
# chart pair, singular rows of every reason, and grids of several blocks
WINDOWS = [
    ("rindler_vacuum", "rindler", 1.0, (-1.0, 1.0), 5, (-1.0, 1.0), 4),
    # u = -exp(-u*) overflows at u* = -800: float range
    ("rindler_vacuum", "rindler", 1.0, (-800.0, 1.0), 3, (0.0, 1.0), 2),
    ("rindler_vacuum", "minkowski", 1.0, (-4.0, -0.1), 4, (0.1, 4.0), 3),
    ("minkowski_vacuum_rindler_observer", "rindler", 1.0,
     (-2.0, 2.0), 4, (-2.0, 2.0), 3),
    # exp(533.8)^2 overflows in the Jacobian: float range
    ("minkowski_vacuum_rindler_observer", "rindler", 1.0,
     (-533.8, -444.6), 3, (582.4, 1337.8), 3),
    ("minkowski_vacuum_rindler_observer", "minkowski", 1.0,
     (-4.0, 4.0), 4, (-4.0, 4.0), 3),
    # below the sector boundary: region
    ("mirror_in_rindler_vacuum", "rindler", 0.5,
     (-1.5, 1.5), 4, (-1.0, 1.2), 4),
    # u = -2 on the grid: sector ray
    ("mirror_in_rindler_vacuum", "minkowski", 1.0,
     (-3.0, -1.0), 3, (6.0, 7.0), 2),
    ("mirror_in_rindler_vacuum", "minkowski", 1.0,
     (-1.5, 1.5), 4, (0.5, 2.5), 4),
    ("mirror_in_rindler_vacuum", "hatted", 1.0,
     (-1.0, 1.0), 4, (-1.0, 1.2), 4),
    ("accelerated_mirror_minkowski", "minkowski", 1.0,
     (-4.0, -0.5), 4, (0.1, 5.0), 4),
    ("accelerated_mirror_minkowski", "rindler", 1.0,
     (-1.0, 1.0), 4, (-1.0, 1.0), 4),
    # x*x underflows in the hatted map's derivative: float range
    ("accelerated_mirror_minkowski", "rindler", 27.17659422642401,
     (-383.72951261747767, -383.7071954937219), 3,
     (1.6887598778581445, 1.6888341545734982), 3),
    # c1 <= 0 lies outside the hatted u-map's domain: coverage
    ("accelerated_mirror_minkowski", "hatted", 1.0,
     (-1.0, 1.0), 3, (-1.0, 3.0), 3),
    # 1480 rows: full blocks of finite rows, blocks with region rows and
    # a last partial block
    ("mirror_in_rindler_vacuum", "rindler", 0.7,
     (-1.5, 3.0), 40, (-0.5, 2.0), 37),
]


def _config(window, frame, fmt):
    scenario, chart, a, (lo1, hi1), n1, (lo2, hi2), n2 = window
    return cli.RunConfig(scenario, a, chart, lo1, hi1, n1, lo2, hi2, n2,
                         frame, "-", fmt)


def _argv(cfg, path):
    return ["run", "--scenario", cfg.scenario, "--a", repr(cfg.a),
            "--chart", cfg.chart,
            "--c1-min", repr(cfg.c1_min), "--c1-max", repr(cfg.c1_max),
            "--n1", str(cfg.n1),
            "--c2-min", repr(cfg.c2_min), "--c2-max", repr(cfg.c2_max),
            "--n2", str(cfg.n2), "--frame", cfg.frame,
            "--format", cfg.format, "--output", str(path)]


def _reference(cfg):
    scenario = build_scenario(cfg.scenario, {"a": cfg.a})
    chart = scenario.state.chart if cfg.chart == "hatted" \
        else get_chart(cfg.chart)
    rows, status = reference_rows(cfg, scenario, chart)
    write = reference_write_csv if cfg.format == "csv" \
        else reference_write_json
    out = io.StringIO()
    write(out, cfg, scenario, chart, rows)
    return out.getvalue().encode("utf-8"), status


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("frame", ["null", "orthonormal"])
@pytest.mark.parametrize("window", WINDOWS,
                         ids=[f"{w[0]}-{w[1]}-{k}"
                              for k, w in enumerate(WINDOWS)])
def test_run_output_matches_reference_writers(tmp_path, window, frame, fmt):
    cfg = _config(window, frame, fmt)
    path = tmp_path / f"grid.{fmt}"
    assert cli.main(_argv(cfg, path)) == 0
    want, _ = _reference(cfg)
    assert path.read_bytes() == want


def test_windows_cover_every_singular_reason():
    seen = set()
    for window in WINDOWS:
        for frame in ("null", "orthonormal"):
            _, status = _reference(_config(window, frame, "csv"))
            seen.update(STATUS_NAMES[k] for k in np.unique(status))
    assert seen == set(STATUS_NAMES)


def test_multi_block_window_is_repeatable(tmp_path):
    window = WINDOWS[-1]
    assert window[4] * window[6] > 8 * cli._BLOCK_ROWS
    for fmt in ("csv", "json"):
        cfg = _config(window, "null", fmt)
        first, again = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        assert cli.main(_argv(cfg, first)) == 0
        assert cli.main(_argv(cfg, again)) == 0
        assert first.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                               1.7976931348623157e308, 0.1, -1.0 / 3.0,
                               math.pi * 1e-300, 123456789.0])
def test_row_templates_format_as_reference(x):
    # the per-cell formats the templates stand for, at the float extremes
    assert "%.16e" % x == _FMT.format(x)
    assert "%r" % x == json.dumps(x)


# the rows of the crafted grid below where a value repeats, with
# singular rows between the repeats; rows 127 and 128, and 255 and 257,
# lie on either side of a block boundary
_REPEATED = {120: 1.0 / 3.0, 124: 1.0 / 3.0, 127: -0.0, 128: -0.0,
             130: 0.0, 255: 5e-324, 256: -1.7976931348623157e308,
             257: 5e-324}
_SINGULAR = (121, 122, 123, 126, 129, 131)


def _crafted_grid(state, chart, c1, c2):
    """Null components whose values repeat the way the writer's per-block
    dedup must get right: 0.0 and -0.0 in one block (equal as floats,
    not in their strings), a value repeated across a block boundary and
    singular rows between repeats."""
    n1, n2 = len(c1), len(c2)
    i, j = np.divmod(np.arange(n1 * n2), n2)
    t_uu = np.where(i % 2, -0.0, 0.0)  # by c1, as in the null frame
    t_vv = np.array([0.1, -0.0, 2.5, 0.0, -0.1])[j % 5]  # by c2
    t_uv = np.where((i + j) % 3, 0.0, -0.0)
    for k, x in _REPEATED.items():
        t_uv[k] = x
    status = np.full(n1 * n2, OK)
    status[list(_SINGULAR)] = REGION
    comps = [np.where(status == OK, t, np.nan).reshape(n1, n2)
             for t in (t_uu, t_vv, t_uv)]
    return StressGrid(*comps, status.reshape(n1, n2), c1, c2, chart,
                      state.label)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_distinct_values_keep_their_strings(tmp_path, monkeypatch, fmt):
    # n2 = 37: c1 lines straddle the 128-row blocks
    window = ("rindler_vacuum", "minkowski", 1.0, (-4.0, -0.1), 8,
              (0.1, 4.0), 37)
    monkeypatch.setattr(cli, "expectation_stress_grid", _crafted_grid)
    monkeypatch.setattr(sys.modules[__name__], "expectation_stress_grid",
                        _crafted_grid)
    cfg = _config(window, "null", fmt)
    assert cfg.n1 * cfg.n2 > 2 * cli._BLOCK_ROWS
    path = tmp_path / f"grid.{fmt}"
    assert cli.main(_argv(cfg, path)) == 0
    want, status = _reference(cfg)
    assert path.read_bytes() == want
    assert (status != OK).sum() == len(_SINGULAR)
