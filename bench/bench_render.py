"""Per-layer timings of `run` output rendering, on pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_render.py \
        [--benchmark-json FILE]

The subject is the a = 1 mirror state on the wedge chart, on a 200 x 200
grid over the conservation region of the CLI's invariant suite.  The
layers: ``_write_csv`` and ``_write_json`` into memory, on rows evaluated
once, and an in-process ``mirrorstress run`` of each format into a file
(argument parsing, scenario build, grid evaluation and rendering), on the
200 x 200 grid and on the 24 x 24 grid of the ``grid`` workload in
``mirrorbench``, where the fixed cost of a call is a large share; and
the first step of such a call alone, argv to ``RunConfig``
(``_make_parser().parse_args`` and ``_build_run_config``) on that 24 x 24
argv.  The writers and the 200 x 200 run are timed in both frames: in
the null frame T_uu depends on c1 alone and T_vv on c2 alone, so a block
of rows holds few distinct values, while nearly every orthonormal value
is distinct, the case where formatting each distinct value once saves
least.  Only ``_evaluate_rows``, ``_make_parser``, ``_build_run_config``
and the two writers' call signatures are used, so the file runs
unchanged against earlier commits: compare commits by running it against
each commit's source.
"""

import io
import math

import pytest

from mirrorstress import cli
from mirrorstress.scenarios import build_scenario

N = 200
N_SMALL = 24
LOG_HALF = math.log(0.5)
WINDOW = (LOG_HALF + 0.05, LOG_HALF + 4.0, 1.0, 3.0)
FORMATS = ["csv", "json"]
FRAMES = ["null", "orthonormal"]
# a 200 x 200 case takes 50-250 ms a round, so the default 1 s budget
# gives 5-9 rounds, too few for quartiles that resolve a 10% change
MIN_ROUNDS = pytest.mark.benchmark(min_rounds=20)


def run_argv(fmt, path, n=N, frame="null"):
    c1_min, c1_max, c2_min, c2_max = WINDOW
    return ["run", "--scenario", "mirror_in_rindler_vacuum", "--a", "1",
            "--chart", "rindler",
            "--c1-min", repr(c1_min), "--c1-max", repr(c1_max),
            "--n1", str(n),
            "--c2-min", repr(c2_min), "--c2-max", repr(c2_max),
            "--n2", str(n), "--frame", frame, "--format", fmt,
            "--output", str(path)]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("frame", FRAMES)
@MIN_ROUNDS
def test_write(benchmark, frame, fmt):
    c1_min, c1_max, c2_min, c2_max = WINDOW
    cfg = cli.RunConfig("mirror_in_rindler_vacuum", 1.0, "rindler",
                        c1_min, c1_max, N, c2_min, c2_max, N, frame, "-",
                        fmt)
    scenario = build_scenario(cfg.scenario, {"a": cfg.a})
    chart = cli._resolve_chart(cfg, scenario)
    rows = cli._evaluate_rows(cfg, scenario, chart)
    write = cli._write_csv if fmt == "csv" else cli._write_json
    benchmark(lambda: write(io.StringIO(), cfg, scenario, chart, rows))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("frame", FRAMES)
@MIN_ROUNDS
def test_run(benchmark, tmp_path, frame, fmt):
    argv = run_argv(fmt, tmp_path / f"grid.{fmt}", frame=frame)
    assert cli.main(argv) == 0
    benchmark(cli.main, argv)


@pytest.mark.parametrize("fmt", FORMATS)
def test_run_small(benchmark, tmp_path, fmt):
    argv = run_argv(fmt, tmp_path / f"grid.{fmt}", N_SMALL)
    assert cli.main(argv) == 0
    benchmark(cli.main, argv)


def test_run_config_from_argv(benchmark, tmp_path):
    argv = run_argv("csv", tmp_path / "grid.csv", N_SMALL)
    parser = cli._make_parser()
    benchmark(lambda: cli._build_run_config(parser.parse_args(argv)))
