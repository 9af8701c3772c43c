"""CLI: config handling, grid export, exit codes, determinism."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorstress import cli
from mirrorstress.cli import main
from mirrorstress.scenarios import SCENARIO_NAMES
from mirrorstress.vacuum_stress import INV_48PI


def read_rows(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("c1,"):
                continue
            rows.append(line.rstrip("\n").split(","))
    return rows


def run_cli(*args):
    return main(list(args))


def test_run_rindler_vacuum_grid(tmp_path):
    out = tmp_path / "grid.csv"
    code = run_cli("run", "--scenario", "rindler_vacuum",
                   "--chart", "rindler",
                   "--c1-min", "-1", "--c1-max", "1", "--n1", "2",
                   "--c2-min", "-1", "--c2-max", "1", "--n2", "2",
                   "--output", str(out))
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 4
    for row in rows:
        assert abs(float(row[2]) + INV_48PI) < 1e-15
        assert abs(float(row[3]) + INV_48PI) < 1e-15
        assert float(row[4]) == 0.0
        assert row[5] == "0"


def test_run_mirror_minkowski_values(tmp_path):
    out = tmp_path / "mirror.csv"
    code = run_cli("run", "--scenario", "mirror_in_rindler_vacuum",
                   "--a", "1", "--chart", "minkowski",
                   "--c1-min", "-1", "--c1-max", "-0.5", "--n1", "2",
                   "--c2-min", "2", "--c2-max", "3", "--n2", "2",
                   "--output", str(out))
    assert code == 0
    rows = read_rows(out)
    first = rows[0]  # (u, v) = (-1, 2)
    assert float(first[0]) == -1.0 and float(first[1]) == 2.0
    assert abs(float(first[2]) + INV_48PI) < 1e-12
    assert abs(float(first[3]) + 1.0 / (192.0 * math.pi)) < 1e-12


def test_run_singular_marker(tmp_path):
    out = tmp_path / "singular.csv"
    code = run_cli("run", "--scenario", "mirror_in_rindler_vacuum",
                   "--chart", "minkowski",
                   "--c1-min", "-3", "--c1-max", "-1", "--n1", "3",
                   "--c2-min", "6", "--c2-max", "7", "--n2", "2",
                   "--output", str(out))
    assert code == 0
    rows = read_rows(out)
    flagged = [r for r in rows if r[5] == "1"]
    assert len(flagged) == 2  # sector boundary ray u = -2, both c2 values
    for r in flagged:
        assert float(r[0]) == -2.0
        assert r[2] == "" and r[3] == "" and r[4] == ""


def test_run_overflowing_chart_map_marks_singular(tmp_path):
    # u = -exp(-u*) overflows a double at u* = -800; an uncaught error
    # would propagate out of main and fail the test
    out = tmp_path / "overflow.csv"
    code = run_cli("run", "--scenario", "rindler_vacuum",
                   "--chart", "rindler",
                   "--c1-min", "-800", "--c1-max", "1", "--n1", "3",
                   "--c2-min", "0", "--c2-max", "1", "--n2", "2",
                   "--output", str(out))
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 6
    for r in rows:
        if float(r[0]) == -800.0:
            assert r[2:] == ["", "", "", "1"]
        else:
            assert r[5] == "0"


@pytest.mark.parametrize("args", [
    # exp(533.8)^2 overflows in the Jacobian: these rows were written as NaN
    ("--scenario", "minkowski_vacuum_rindler_observer", "--chart", "rindler",
     "--c1-min", "-533.8", "--c1-max", "-444.6", "--n1", "3",
     "--c2-min", "582.4", "--c2-max", "1337.8", "--n2", "3"),
    # x*x underflows in the hatted map's derivative: ZeroDivisionError
    ("--scenario", "accelerated_mirror_minkowski",
     "--a", "27.17659422642401", "--chart", "rindler",
     "--c1-min", "-383.72951261747767", "--c1-max", "-383.7071954937219",
     "--n1", "3", "--c2-min", "1.6887598778581445",
     "--c2-max", "1.6888341545734982", "--n2", "3"),
])
def test_run_float_range_points_are_singular(tmp_path, args):
    out = tmp_path / "range.csv"
    assert run_cli("run", *args, "--output", str(out)) == 0
    rows = read_rows(out)
    assert len(rows) == 9
    for r in rows:
        assert r[2:] == ["", "", "", "1"]


@pytest.mark.parametrize("axis,lo,hi,n", [
    ("c1", "-1e308", "1e308", "3"),  # c1_max - c1_min overflows
    ("c1", "-1e308", "0", "3"),  # the difference is finite, 2 x it is not
    ("c2", "-1e308", "1e308", "2"),
])
def test_run_overflowing_grid_window_exits_one(tmp_path, capsys, axis, lo,
                                               hi, n):
    # the window's coordinates would be inf or nan: refused before any
    # evaluation, with no output
    window = {"c1": ["-1", "1", "2"], "c2": ["0", "1", "2"]}
    window[axis] = [lo, hi, n]
    out = tmp_path / "x.csv"
    code = run_cli("run", "--scenario", "rindler_vacuum",
                   "--chart", "rindler",
                   "--c1-min", window["c1"][0], "--c1-max", window["c1"][1],
                   "--n1", window["c1"][2],
                   "--c2-min", window["c2"][0], "--c2-max", window["c2"][1],
                   "--n2", window["c2"][2], "--output", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{axis}_min" in err
    assert not out.exists()


def test_run_widest_finite_grid_window_runs(tmp_path):
    # two coordinates 1e308 apart are finite: the run goes ahead
    out = tmp_path / "wide.csv"
    code = run_cli("run", "--scenario", "rindler_vacuum",
                   "--chart", "rindler",
                   "--c1-min", "-1e308", "--c1-max", "0", "--n1", "2",
                   "--c2-min", "0", "--c2-max", "1", "--n2", "2",
                   "--output", str(out))
    assert code == 0
    rows = read_rows(out)
    assert [float(r[0]) for r in rows] == [-1e308, -1e308, 0.0, 0.0]


@pytest.mark.parametrize("a", ["1e-200", "1e200", "inf"])
@pytest.mark.parametrize("chart", ["minkowski", "rindler", "hatted"])
def test_run_accelerated_mirror_out_of_range_a_exits_one(tmp_path, capsys,
                                                         a, chart):
    # 1/a^2 is inf (a*a underflows) or 0 (a*a overflows, or a is inf)
    code = run_cli("run", "--scenario", "accelerated_mirror_minkowski",
                   "--a", a, "--chart", chart,
                   "--c1-min", "0.2", "--c1-max", "1", "--n1", "2",
                   "--c2-min", "1.2", "--c2-max", "3", "--n2", "2",
                   "--output", str(tmp_path / "x.csv"))
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("scenario", ["rindler_vacuum",
                                      "minkowski_vacuum_rindler_observer",
                                      "mirror_in_rindler_vacuum"])
def test_run_infinite_a_exits_one(tmp_path, capsys, scenario, fmt):
    # the vacua ignore a, which would otherwise reach the output header
    # (JSON has no Infinity); the stationary mirror would sit at z = 0
    out = tmp_path / f"x.{fmt}"
    code = run_cli("run", "--scenario", scenario, "--a", "inf",
                   "--chart", "rindler",
                   "--c1-min", "-1", "--c1-max", "1", "--n1", "2",
                   "--c2-min", "1", "--c2-max", "2", "--n2", "2",
                   "--format", fmt, "--output", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "positive and finite" in err
    assert not out.exists()


def test_run_negative_exponent_floats_parse(tmp_path):
    out = tmp_path / "small.csv"
    code = run_cli("run", "--scenario", "rindler_vacuum", "--chart", "rindler",
                   "--c1-min", "-0.00024", "--c1-max", "-6.1e-05",
                   "--n1", "2", "--c2-min", "-1e-05", "--c2-max", "1.5e-05",
                   "--n2", "2", "--output", str(out))
    assert code == 0
    first = read_rows(out)[0]
    assert (float(first[0]), float(first[1])) == (-0.00024, -1e-05)


def test_usage_error_exits_one(tmp_path, capsys):
    code = run_cli("run", "--scenario", "rindler_vacuum", "--c1-min",
                   "--output", str(tmp_path / "x.csv"))
    assert code == 1
    assert "expected one argument" in capsys.readouterr().err
    assert run_cli("run", "--no-such-flag") == 1
    assert run_cli() == 1


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    inits = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._make_parser.cache_clear()

    def run(out):
        return run_cli("run", "--scenario", "rindler_vacuum",
                       "--chart", "rindler",
                       "--c1-min", "-1", "--c1-max", "1", "--n1", "3",
                       "--c2-min", "-1", "--c2-max", "1", "--n2", "3",
                       "--format", "json", "--output", str(out))

    assert run(tmp_path / "first.json") == 0
    built = len(inits)
    assert run_cli("run", "--c1-min") == 1
    assert "expected one argument" in capsys.readouterr().err
    assert run(tmp_path / "second.json") == 0
    assert run_cli("list-scenarios") == 0
    assert "rindler_vacuum" in capsys.readouterr().out
    cli._make_parser.__wrapped__()  # one build, for the count
    assert built > 0 and len(inits) == 2 * built
    assert (tmp_path / "second.json").read_bytes() \
        == (tmp_path / "first.json").read_bytes()


def test_run_orthonormal_frame(tmp_path):
    out = tmp_path / "frame.csv"
    code = run_cli("run", "--scenario", "rindler_vacuum",
                   "--chart", "rindler", "--frame", "orthonormal",
                   "--c1-min", "0", "--c1-max", "0.5", "--n1", "2",
                   "--c2-min", "0", "--c2-max", "0.5", "--n2", "2",
                   "--output", str(out))
    assert code == 0
    with open(out) as fh:
        header = [fh.readline(), fh.readline()]
    assert "energy_density,pressure,flux" in header[1]
    rows = read_rows(out)
    # at c1 = c2 = 0 (rho = 1): energy density -1/(24 pi)
    assert abs(float(rows[0][2]) + 1.0 / (24.0 * math.pi)) < 1e-15


def test_run_json_format(tmp_path):
    out = tmp_path / "grid.json"
    code = run_cli("run", "--scenario", "rindler_vacuum",
                   "--chart", "rindler", "--format", "json",
                   "--c1-min", "-1", "--c1-max", "1", "--n1", "2",
                   "--c2-min", "-1", "--c2-max", "1", "--n2", "2",
                   "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["chart"] == "rindler"
    assert len(payload["rows"]) == 4
    assert payload["columns"][2] == "T_uu"


def test_run_hatted_chart(tmp_path):
    out = tmp_path / "hatted.csv"
    code = run_cli("run", "--scenario", "mirror_in_rindler_vacuum",
                   "--chart", "hatted",
                   "--c1-min", "-1", "--c1-max", "0", "--n1", "2",
                   "--c2-min", "0.5", "--c2-max", "1", "--n2", "2",
                   "--output", str(out))
    assert code == 0
    rows = read_rows(out)
    for row in rows:
        assert abs(float(row[2]) + INV_48PI) < 1e-14


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario=rindler_vacuum\nchart=rindler\n"
        "c1_min=-1\nc1_max=1\nn1=2\nc2_min=-1\nc2_max=1\nn2=2\n"
        "output=UNUSED\nformat=csv\n")
    out = tmp_path / "fromfile.csv"
    code = run_cli("run", "--config", str(cfg), "--output", str(out))
    assert code == 0
    assert out.exists()


def test_malformed_grid_exits_one(tmp_path, capsys):
    code = run_cli("run", "--scenario", "rindler_vacuum",
                   "--chart", "rindler",
                   "--c1-min", "-1", "--c1-max", "1", "--n1", "1",
                   "--c2-min", "-1", "--c2-max", "1", "--n2", "2",
                   "--output", str(tmp_path / "x.csv"))
    assert code == 1
    assert "n1" in capsys.readouterr().err


def test_unknown_scenario_exits_one(tmp_path, capsys):
    code = run_cli("run", "--scenario", "warp_drive", "--chart", "rindler",
                   "--c1-min", "0", "--c1-max", "1", "--n1", "2",
                   "--c2-min", "0", "--c2-max", "1", "--n2", "2",
                   "--output", str(tmp_path / "x.csv"))
    assert code == 1
    assert "scenario" in capsys.readouterr().err


def test_bad_config_file_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario=rindler_vacuum\nwavelength=7\n")
    code = run_cli("run", "--config", str(cfg),
                   "--output", str(tmp_path / "x.csv"))
    assert code == 1
    assert "wavelength" in capsys.readouterr().err


def test_coverage_error_exits_two(tmp_path, capsys):
    code = run_cli("run", "--scenario", "rindler_vacuum",
                   "--chart", "minkowski",
                   "--c1-min", "1", "--c1-max", "2", "--n1", "2",
                   "--c2-min", "1", "--c2-max", "2", "--n2", "2",
                   "--output", str(tmp_path / "x.csv"))
    assert code == 2
    assert "coverage" in capsys.readouterr().err


def test_io_error_exits_three(tmp_path):
    code = run_cli("run", "--scenario", "rindler_vacuum",
                   "--chart", "rindler",
                   "--c1-min", "-1", "--c1-max", "1", "--n1", "2",
                   "--c2-min", "-1", "--c2-max", "1", "--n2", "2",
                   "--output", str(tmp_path / "no-such-dir" / "x.csv"))
    assert code == 3


def test_deterministic_output(tmp_path):
    args = ("run", "--scenario", "mirror_in_rindler_vacuum",
            "--chart", "rindler",
            "--c1-min", "0", "--c1-max", "2", "--n1", "5",
            "--c2-min", "1", "--c2-max", "2", "--n2", "4")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--output", str(out1)) == 0
    assert run_cli(*args, "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _emitted_rows(path, fmt):
    if fmt == "json":
        with open(path) as fh:
            return json.load(fh)["rows"]
    return [[None if c == "" else float(c) for c in r[:5]] + [int(r[5])]
            for r in read_rows(path)]


_WINDOW = st.lists(st.floats(-800.0, 800.0), min_size=2, max_size=2)


@given(scenario=st.sampled_from(SCENARIO_NAMES),
       chart=st.sampled_from(["minkowski", "rindler", "hatted"]),
       a=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
       c1=_WINDOW, c2=_WINDOW,
       n1=st.integers(1, 4), n2=st.integers(1, 4),
       frame=st.sampled_from(["null", "orthonormal"]),
       fmt=st.sampled_from(["csv", "json"]))
@settings(max_examples=200, deadline=None)
def test_run_property_documented_outcome(tmp_path_factory, scenario, chart,
                                         a, c1, c2, n1, n2, frame, fmt):
    # every invocation ends with a documented exit code, without a
    # traceback, and writes only finite values or singular rows
    out = tmp_path_factory.getbasetemp() / f"property.{fmt}"
    (lo1, hi1), (lo2, hi2) = sorted(c1), sorted(c2)
    code = run_cli("run", "--scenario", scenario, "--a", repr(a),
                   "--chart", chart, "--c1-min", repr(lo1),
                   "--c1-max", repr(hi1), "--n1", str(n1),
                   "--c2-min", repr(lo2), "--c2-max", repr(hi2),
                   "--n2", str(n2), "--frame", frame, "--format", fmt,
                   "--output", str(out))
    assert code in (0, 1, 2, 3)
    if code != 0:
        return
    rows = _emitted_rows(out, fmt)
    assert len(rows) == n1 * n2
    for r in rows:
        if r[5] == 1:
            assert r[2:5] == [None, None, None]
        else:
            assert r[5] == 0 and all(math.isfinite(x) for x in r[2:5])


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == 0
    text = capsys.readouterr().out
    for name in ("rindler_vacuum", "mirror_in_rindler_vacuum",
                 "accelerated_mirror_minkowski",
                 "minkowski_vacuum_rindler_observer"):
        assert name in text
    assert "a:" in text  # parameter schema shown


def test_list_scenarios_json(capsys):
    assert run_cli("list-scenarios", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    names = [s["name"] for s in payload["scenarios"]]
    assert len(names) == 4


def test_check_passes_and_exports(tmp_path, capsys):
    bog = tmp_path / "bog.json"
    code = run_cli("check", "--bogolubov-json", str(bog))
    assert code == 0
    out = capsys.readouterr().out
    assert "conservation[mirror_in_rindler_vacuum]" in out
    assert "PASS" in out and "FAIL" not in out
    payload = json.loads(bog.read_text())
    assert "alpha_re" in payload and "beta_re" in payload
    shape = [len(row) for row in payload["alpha_re"]]
    for key, kind in (("n_evaluations", int), ("truncation_warning", bool)):
        assert [len(row) for row in payload[key]] == shape
        assert all(type(v) is kind for row in payload[key] for v in row)
    assert all(n > 0 for row in payload["n_evaluations"] for n in row)


def test_check_tolerance_override(tmp_path, capsys):
    bog = tmp_path / "bog.json"
    code = run_cli("check", "--override", "composition_identity=1e-16",
                   "--bogolubov-json", str(bog))
    assert code == 4
    assert "FAIL" in capsys.readouterr().out
    assert bog.exists()


def test_check_unknown_override_exits_one(tmp_path, capsys):
    # a misspelt name is refused, not ignored, even beside a known one,
    # and nothing is exported
    bog = tmp_path / "bog.json"
    code = run_cli("check", "--override", "composition_identity=1.0",
                   "--override", "composition_identiy=1e-16",
                   "--bogolubov-json", str(bog))
    assert code == 1
    err = capsys.readouterr().err
    assert "composition_identiy" in err
    assert "composition_identity," not in err
    assert not bog.exists()
