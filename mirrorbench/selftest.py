"""Self-tests of the benchmark: every correctness check must reject a
deliberately perturbed value, and the tracer's arithmetic must hold.

    python3 mirrorbench/selftest.py

Named so that the package's own test run does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from mirrorstress import bogolubov, charts, cli, jets  # noqa: E402
from mirrorstress import vacuum_stress as vs  # noqa: E402


def _perturb(x):
    return x * (1.0 + 1e-8) if x else 1e-12


class GridCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        work = HERE.parent / ".mirrorbench"
        work.mkdir(exist_ok=True)
        cls.workdir = tempfile.mkdtemp(prefix="selftest-", dir=work)
        cls.grid = workloads.GridWorkload(7, cls.workdir)
        cls.grid.setup()
        cls.grid.cycle(workloads.Recorder())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def _failed(self):
        failures = []
        attempted, failed = self.grid.check(failures)
        self.assertEqual(attempted, 36 * workloads.GRID_N ** 2)
        return failed

    def _edit(self, fmt, edit):
        """Apply ``edit`` to the first output of the given format, check,
        and restore the file."""
        path = next(p for cfg, _, p, _ in self.grid.runs
                    if cfg["format"] == fmt and cfg["chart"] == "hatted")
        original = Path(path).read_text()
        try:
            Path(path).write_text(edit(original))
            return self._failed()
        finally:
            Path(path).write_text(original)

    def test_unperturbed_output_passes(self):
        self.assertEqual(self._failed(), 0)

    def test_perturbed_csv_value_fails(self):
        def edit(text):
            lines = text.splitlines(keepends=True)
            cells = lines[5].split(",")
            cells[3] = f"{_perturb(float(cells[3])):.16e}"
            lines[5] = ",".join(cells)
            return "".join(lines)
        self.assertEqual(self._edit("csv", edit), workloads.GRID_N ** 2)

    def test_perturbed_json_value_fails(self):
        def edit(text):
            payload = json.loads(text)
            payload["rows"][3][2] = _perturb(payload["rows"][3][2])
            return json.dumps(payload)
        self.assertEqual(self._edit("json", edit), workloads.GRID_N ** 2)

    def test_row_wrongly_flagged_singular_fails(self):
        def edit(text):
            lines = text.splitlines(keepends=True)
            cells = lines[2].rstrip("\n").split(",")
            lines[2] = ",".join(cells[:2] + ["", "", "", "1"]) + "\n"
            return "".join(lines)
        self.assertEqual(self._edit("csv", edit), workloads.GRID_N ** 2)

    def test_failed_invocation_fails(self):
        cfg, argv, path, _ = self.grid.runs[0]
        self.grid.runs[0] = (cfg, argv, path, 2)
        try:
            self.assertEqual(self._failed(), workloads.GRID_N ** 2)
        finally:
            self.grid.runs[0] = (cfg, argv, path, 0)


class IdentitiesCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ident = workloads.IdentitiesWorkload(7, None)
        cls.ident.setup()
        cls.ident.cycle(workloads.Recorder())
        cls.clean = list(cls.ident.results)

    def setUp(self):
        self.ident.results = list(self.clean)

    def _replace(self, kind, change):
        k = next(i for i, r in enumerate(self.ident.results) if r[0] == kind)
        self.ident.results[k] = change(self.ident.results[k])
        failures = []
        return self.ident.check(failures)[1]

    def test_unperturbed_results_pass(self):
        self.assertEqual(self.ident.check([])[1], 0)

    def test_conservation_residual_above_tolerance_fails(self):
        def change(r):
            rep = r[2]
            return (r[0], r[1], vs.ConservationReport(
                2e-9, 2e-9, rep.max_residual_v_equation, rep.n, rep.region))
        self.assertEqual(self._replace("conservation", change),
                         workloads.CONSERVATION_N ** 2)

    def test_perturbed_stress_point_fails(self):
        def change(r):
            s, o = r[2]
            s = vs.StressSample(_perturb(s.t_uu), s.t_vv, s.t_uv, s.chart,
                                s.state, s.point)
            return (r[0], r[1], (s, o))
        self.assertEqual(self._replace("point", change), 1)

    def test_perturbed_orthonormal_point_fails(self):
        def change(r):
            s, o = r[2]
            o = vs.OrthonormalStress(o.energy_density, o.pressure,
                                     _perturb(o.flux))
            return (r[0], r[1], (s, o))
        self.assertEqual(self._replace("point", change), 1)

    def test_perturbed_composition_fails(self):
        self.assertEqual(self._replace(
            "composition", lambda r: (r[0], r[1], r[2] + 1e-9)), 1)

    def test_exception_fails(self):
        self.assertEqual(self._replace(
            "composition", lambda r: (r[0], r[1], ValueError("x"))), 1)


class BogolubovCheck(unittest.TestCase):
    """The row checks on synthetic matrices that satisfy them exactly."""

    def _pair(self, omegas, ratio_scale=1.0, norm=1.0):
        n = 19
        alpha = np.full((len(omegas), n), 1.0 + 0j)
        beta = np.zeros_like(alpha)
        for i, w in enumerate(omegas):
            beta[i] = math.sqrt(math.exp(-2.0 * math.pi * w) * ratio_scale)
            scale = math.sqrt(norm / np.sum(np.abs(alpha[i]) ** 2
                                            - np.abs(beta[i]) ** 2))
            alpha[i] *= scale
            beta[i] *= scale
        return bogolubov.BogolubovPair(alpha, beta, None, None, None, None)

    def _failed(self, shape, pair, omegas):
        wl = workloads.BogolubovWorkload(7, None)
        wl.results = [(shape, omegas, 19, pair)]
        return wl.check([])[1]

    def test_thermal_rows(self):
        omegas = np.array([0.8, 1.0, 1.3])
        self.assertEqual(self._failed("thermal", self._pair(omegas), omegas),
                         0)
        self.assertEqual(self._failed(
            "thermal", self._pair(omegas, ratio_scale=1.06), omegas), 3 * 19)

    def test_wide_row_normalization(self):
        omegas = np.array([1.1])
        self.assertEqual(self._failed("wide", self._pair(omegas), omegas), 0)
        self.assertEqual(self._failed(
            "wide", self._pair(omegas, norm=1.021), omegas), 19)

    def test_non_finite_and_exception_fail(self):
        omegas = np.array([1.1])
        pair = self._pair(omegas)
        pair.alpha[0, 3] = np.nan
        self.assertEqual(self._failed("wide", pair, omegas), 19)
        self.assertEqual(self._failed("wide", RuntimeError("x"), omegas), 19)


class TracerArithmetic(unittest.TestCase):
    def test_busy_and_self_time(self):
        tr = tracing.Tracer()

        def leaf(x):
            return sum(range(x))

        traced_leaf = tr.wrap(leaf, "leaf")

        def outer(depth):
            if depth:
                return traced_outer(depth - 1) + traced_leaf(20000)
            return traced_leaf(20000)

        traced_outer = tr.wrap(outer, "outer")
        traced_outer(2)
        calls, busy, self_s = tr.layer("outer")
        leaf_calls, leaf_busy, leaf_self = tr.layer("leaf")
        self.assertEqual((calls, leaf_calls), (3, 3))
        self.assertEqual(leaf_busy, leaf_self)
        # nested spans of one name count once toward busy time
        root = tr.span_end[0] - tr.span_start[0]
        self.assertAlmostEqual(busy, root, delta=1e-12)
        self.assertAlmostEqual(self_s + leaf_self, busy, delta=1e-9)
        self.assertEqual(list(tr.span_parent[:3]), [-1, 0, 1])

    def test_install_counts_and_uninstall_restores(self):
        originals = (cli.main, vs.expectation_stress, jets.Jet3.__init__,
                     charts.ChartMap.invert, charts.ConformalChart.factor)
        tr = tracing.Tracer()
        tr.install()
        try:
            state = workloads.derived_mirror_state()
            rind = charts.get_chart("rindler")
            vs.expectation_stress(state, rind, charts.Point(0.5, 2.0,
                                                            "rindler"))
            with self.assertRaises(vs.StateRegionError):
                # v - u < 2: on the wall side of the mirror
                vs.expectation_stress(state, rind, charts.Point(
                    2.0, -2.0, "rindler"))
        finally:
            tr.uninstall()
        m = tr.metrics(ops=1)
        self.assertEqual(m["vacuum_stress.expectation_stress.calls"]["value"],
                         2)
        self.assertEqual(m["vacuum_stress.singular.region"]["value"], 1)
        self.assertGreater(m["charts.invert.numeric.calls"]["value"], 0)
        self.assertGreater(m["jets.jet3_created"]["value"], 0)
        self.assertEqual((cli.main, vs.expectation_stress,
                          jets.Jet3.__init__, charts.ChartMap.invert,
                          charts.ConformalChart.factor), originals)


if __name__ == "__main__":
    unittest.main()
