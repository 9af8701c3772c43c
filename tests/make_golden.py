"""Golden outputs of the stress engine, and the script that writes them.

``tests/test_golden.py`` recomputes every case of ``golden.json`` and
compares it with the stored outputs:

- the values and singular flags ``mirrorstress run`` writes, for every
  scenario x chart pair, both frames and a in {0.5, 1, 2}, on the windows
  of ``tests/test_stress_grid.py``, on the parity boxes of
  ``tests/test_vacuum_stress.py`` widened past their singular rays, and
  on hatted windows whose grids put points on the mirror (c1 == c2);
- the conservation reports of the parity cases;
- the Bogolubov alpha and beta matrices, with the integrand evaluations
  and the truncation warning of every entry, of the ``thermal_pair`` and
  ``planck_pair`` fixture shapes and of the matrix checks of
  ``tests/test_bogolubov.py``.

A change that moves an output on purpose regenerates the file with

    PYTHONPATH=src python tests/make_golden.py

and says in CHANGES.md which outputs moved and why.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from mirrorstress import cli
from mirrorstress.bogolubov import compute_coefficients
from mirrorstress.charts import get_chart
from mirrorstress.scenarios import build_scenario
from mirrorstress.vacuum_stress import check_conservation

import bogolubov_bases as bases
from test_stress_grid import WINDOWS
from test_vacuum_stress import PARITY_CASES, _derived_mirror_state

GOLDEN = Path(__file__).resolve().parent / "golden.json"
ACCELERATIONS = (0.5, 1.0, 2.0)
FRAMES = ("null", "orthonormal")

# hatted windows with equal axes: the diagonal points lie on the mirror
# worldline u* = v* of both mirror scenarios
MIRROR_WINDOWS = [
    ("mirror_in_rindler_vacuum", "hatted", (-1.0, 1.0), 7, (-1.0, 1.0), 7),
    ("mirror_in_rindler_vacuum", "hatted", (0.3, 2.7), 5, (0.3, 2.7), 5),
    ("accelerated_mirror_minkowski", "hatted", (0.2, 2.0), 7,
     (0.2, 2.0), 7),
    ("accelerated_mirror_minkowski", "hatted", (0.05, 0.45), 5,
     (0.05, 0.45), 5),
]


def windows():
    """(scenario, chart, c1 window, n1, c2 window, n2, accelerations)."""
    out = [(scenario, chart, w1, 5, w2, 4,
            sorted({*ACCELERATIONS, a}))
           for scenario, a, chart, w1, w2, _ in WINDOWS]
    for name, chart, (lo1, hi1, lo2, hi2) in PARITY_CASES:
        if name != "derived":
            d1, d2 = 0.3 * (hi1 - lo1), 0.3 * (hi2 - lo2)
            out.append((name, chart, (lo1 - d1, hi1 + d1), 5,
                        (lo2 - d2, hi2 + d2), 4, list(ACCELERATIONS)))
    out += [(*w, list(ACCELERATIONS)) for w in MIRROR_WINDOWS]
    return out


def run_cases():
    return [{"scenario": scenario, "a": a, "chart": chart, "frame": frame,
             "c1": [*w1, n1], "c2": [*w2, n2]}
            for scenario, chart, w1, n1, w2, n2, accs in windows()
            for a in accs for frame in FRAMES]


def run_outcome(case):
    """``run``'s exit code, and for a written grid its singular flags (one
    character per row, row-major in c1) and the values of its other rows
    (three per row, as written)."""
    (lo1, hi1, n1), (lo2, hi2, n2) = case["c1"], case["c2"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        argv = ["run", "--scenario", case["scenario"],
                "--a", repr(case["a"]), "--chart", case["chart"],
                "--c1-min", repr(lo1), "--c1-max", repr(hi1),
                "--n1", str(n1), "--c2-min", repr(lo2),
                "--c2-max", repr(hi2), "--n2", str(n2),
                "--frame", case["frame"], "--format", "csv",
                "--output", str(path)]
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return {"exit": code}
        rows = [line.split(",")
                for line in path.read_text().splitlines()[2:]]
    return {"exit": 0,
            "flags": "".join(r[5] for r in rows),
            "values": [float(x) for r in rows if r[5] == "0"
                       for x in r[2:5]]}


def conservation_cases():
    return [{"scenario": name, "chart": chart, "box": list(box)}
            for name, chart, box in PARITY_CASES]


def conservation_outcome(case):
    """The report of a parity case's conservation grid (n = 4), or the
    class of the error it raises."""
    name = case["scenario"]
    state = _derived_mirror_state() if name == "derived" \
        else build_scenario(name, {"a": 1.0}).state
    chart = state.chart if case["chart"] == "hatted" \
        else get_chart(case["chart"])
    try:
        rep = check_conservation(state, chart, tuple(case["box"]), 4)
    except ValueError as exc:
        return {"error": type(exc).__name__}
    return {"report": [rep.max_residual, rep.max_residual_u_equation,
                       rep.max_residual_v_equation]}


# (bases, surface time, tolerance); the thermal and planck shapes are
# those of the session fixtures of the same name
BOGOLUBOV_CASES = {
    "thermal": (bases.thermal_bases, 0.0, 1e-9),
    "planck": (bases.planck_bases, 0.0, 1e-9),
    "two_by_five": (bases.two_by_five_bases, 0.0, 1e-9),
    "wedge_columns": (bases.wedge_column_bases, 0.0, 1e-9),
    "v_sector": (bases.v_sector_bases, 0.5, 1e-9),
    "empty_window": (bases.empty_window_bases, 0.0, 1e-9),
    "dirichlet": (bases.dirichlet_bases, 2.0, 1e-10),
}


def bogolubov_cases():
    return [{"bogolubov": name, "t": t, "tol": tol}
            for name, (_, t, tol) in BOGOLUBOV_CASES.items()]


def bogolubov_pair(case):
    make_bases, t, tol = BOGOLUBOV_CASES[case["bogolubov"]]
    return compute_coefficients(*make_bases(), t=t, tol=tol)


def bogolubov_outcome(pair):
    """alpha and beta as [re, im] per entry, row by row, and the integrand
    evaluations and truncation warning of each entry."""
    def entries(m):
        return [[[z.real, z.imag] for z in row] for row in m.tolist()]

    return {"alpha": entries(pair.alpha), "beta": entries(pair.beta),
            "n_evaluations": pair.n_evaluations.tolist(),
            "truncation_warning": pair.truncation_warning.tolist()}


def main(path=GOLDEN) -> int:
    run = [{**case, **run_outcome(case)} for case in run_cases()]
    conservation = [{**case, **conservation_outcome(case)}
                    for case in conservation_cases()]
    bogolubov = [{**case, **bogolubov_outcome(bogolubov_pair(case))}
                 for case in bogolubov_cases()]

    def lines(cases):
        return ",\n".join(json.dumps(c, separators=(",", ":"))
                          for c in cases)

    # one case a line, so that a diff of the file names the moved cases
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"run": [\n{lines(run)}\n],\n'
                 f'"conservation": [\n{lines(conservation)}\n],\n'
                 f'"bogolubov": [\n{lines(bogolubov)}\n]}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
