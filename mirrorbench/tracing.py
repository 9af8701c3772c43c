"""Spans and counters recorded around the program's public entry points.

The tracer wraps functions and methods of the ``mirrorstress`` modules
from the outside: it replaces every reference a ``mirrorstress`` module
holds to an entry point with a wrapper, and restores the originals on
``uninstall``.  Each wrapped call records a span (name, parent, start,
end) in memory; spans are written out only when the run ends.

A layer's busy time is the total length of its outermost spans (a span
nested in another of the same name adds nothing); its self time is the
sum over its spans of the span's length minus the length of its direct
child spans.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from array import array

from mirrorstress import bogolubov, charts, cli, jets, scenarios, trajectories
from mirrorstress import vacuum_stress as vs

SPAN_CAP = 1_000_000  # spans kept for writing out; all are aggregated

SINGULAR_KINDS = (
    (vs.StateRegionError, "vacuum_stress.singular.region"),
    (vs.SingularRayError, "vacuum_stress.singular.sector_ray"),
    (charts.CoverageError, "vacuum_stress.singular.coverage"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.busy = []
        self.self_time = []
        self._depth = []
        self._stack = []  # [span index, time covered by direct children]
        self.counts = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._patches = []

    # ---- recording

    def _id(self, name):
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.busy, self.self_time,
                           self._depth):
                column.append(0)
        return idx

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, after=None, name_of=None):
        """Wrapper recording one span per call.  ``name_of(args)`` picks
        the span name per call; ``after(args, kwargs, result, error)``
        runs once the span has ended."""
        fixed = self._id(name) if name is not None else None
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            nid = fixed if name_of is None else self._id(name_of(args))
            parent = stack[-1][0] if stack else -1
            if len(self.span_start) < SPAN_CAP:
                span = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                span = parent
                self.dropped += 1
            frame = [span, 0.0]
            stack.append(frame)
            depth[nid] += 1
            error = result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                length = t1 - t0
                if stack:
                    stack[-1][1] += length
                depth[nid] -= 1
                if depth[nid] == 0:
                    self.busy[nid] += length
                self.self_time[nid] += length - frame[1]
                self.calls[nid] += 1
                if span != parent:
                    self.span_start[span] = t0
                    self.span_end[span] = t1
                if after is not None:
                    after(args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    # ---- installing

    def patch_function(self, module, attr, name, **hooks):
        """Replace ``module.attr`` wherever a mirrorstress module holds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mirrorstress"
                                   or mod_name.startswith("mirrorstress.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **hooks))

    def count_constructor(self, cls, name):
        original = cls.__dict__["__init__"]
        cell = self.counts
        cell[name] = 0

        def init(obj, *args, **kwargs):
            cell[name] += 1
            original(obj, *args, **kwargs)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = init

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        """Wrap the public entry points of every layer."""
        self.patch_function(cli, "main", "cli.run", after=self._after_cli)
        self.patch_function(scenarios, "build_scenario",
                            "scenarios.build_scenario")
        self.patch_function(vs, "expectation_stress",
                            "vacuum_stress.expectation_stress",
                            after=self._after_stress)
        self.patch_function(vs, "to_orthonormal_frame",
                            "vacuum_stress.to_orthonormal_frame")
        self.patch_function(vs, "check_conservation",
                            "vacuum_stress.check_conservation",
                            after=self._after_conservation)
        self.patch_function(vs, "F_composition",
                            "vacuum_stress.F_composition")
        self.patch_method(charts.ConformalChart, "factor", "charts.factor")
        self.patch_function(charts, "convert_point", "charts.convert_point")
        self.patch_method(
            charts.ChartMap, "invert", None,
            name_of=lambda args: "charts.invert.closed"
            if args[0].inverse_fn is not None else "charts.invert.numeric")
        self.count_constructor(jets.Jet3, "jets.jet3_created")
        self.count_constructor(jets.Jet1, "jets.jet1_created")
        self.patch_function(trajectories, "reflection_map",
                            "trajectories.reflection_map")
        self.patch_function(bogolubov, "compute_coefficients",
                            "bogolubov.compute_coefficients",
                            after=self._after_coefficients)
        self.patch_function(bogolubov, "kg_inner_product",
                            "bogolubov.kg_inner_product",
                            after=self._after_pairing)
        self.patch_method(bogolubov.ModeBasis, "packet", "bogolubov.packet")

    # ---- hooks, run after the span has ended

    def _after_cli(self, args, kwargs, rc, error):
        argv = list(args[0])
        if rc != 0 or "run" not in argv:
            return
        flag = {argv[k]: argv[k + 1] for k in range(len(argv) - 1)}
        self.add("cli.rows_written", int(flag["--n1"]) * int(flag["--n2"]))
        self.add("cli.bytes_written", os.path.getsize(flag["--output"]))

    def _after_stress(self, args, kwargs, result, error):
        for kind, name in SINGULAR_KINDS:
            if isinstance(error, kind):
                self.add(name)
                return

    def _after_conservation(self, args, kwargs, result, error):
        n = kwargs["n"] if "n" in kwargs else args[3]
        self.add("vacuum_stress.check_conservation.points", n * n)

    def _after_coefficients(self, args, kwargs, pair, error):
        if pair is not None:
            self.add("bogolubov.entries", pair.alpha.size)

    def _after_pairing(self, args, kwargs, report, error):
        if isinstance(report, bogolubov.QuadReport):
            self.add("bogolubov.quad_evaluations", report.n_evaluations)
            self.add("bogolubov.truncation_warnings",
                     int(report.truncation_warning))

    # ---- results

    def layer(self, name):
        """(calls, busy seconds, self seconds) of one span name."""
        idx = self._ids.get(name)
        if idx is None:
            return 0, 0.0, 0.0
        return self.calls[idx], self.busy[idx], self.self_time[idx]

    def metrics(self, ops):
        """Per-layer metrics; ``ops`` are the operations the traced cycles
        attempted, the base of every per-operation ratio."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def spans(name, calls=True, busy=True, self_s=False):
            n, b, s = self.layer(name)
            if calls:
                put(f"{name}.calls", n, "count")
            if busy:
                put(f"{name}.s", b, "s")
            if self_s:
                put(f"{name}.self_s", s, "s")

        count = self.counts.get
        spans("cli.run", busy=False, self_s=True)
        put("cli.rows_written", count("cli.rows_written", 0), "count")
        put("cli.bytes_written", count("cli.bytes_written", 0), "bytes")
        spans("scenarios.build_scenario")
        put("charts.registry_size", len(charts.registered_charts()), "count")
        spans("vacuum_stress.expectation_stress", self_s=True)
        stress_calls = self.layer("vacuum_stress.expectation_stress")[0]
        singular = 0
        for _, name in SINGULAR_KINDS:
            put(name, count(name, 0), "count")
            singular += count(name, 0)
        put("vacuum_stress.singular_ratio",
            singular / stress_calls if stress_calls else 0.0, "ratio")
        spans("vacuum_stress.to_orthonormal_frame")
        spans("vacuum_stress.check_conservation")
        put("vacuum_stress.check_conservation.points",
            count("vacuum_stress.check_conservation.points", 0), "count")
        spans("vacuum_stress.F_composition")
        spans("charts.factor", self_s=True)
        spans("charts.convert_point")
        spans("charts.invert.closed")
        spans("charts.invert.numeric")
        put("charts.invert.numeric_per_op",
            self.layer("charts.invert.numeric")[0] / ops, "count")
        put("jets.jet3_created", count("jets.jet3_created", 0), "count")
        put("jets.jet1_created", count("jets.jet1_created", 0), "count")
        put("jets.jet3_per_op", count("jets.jet3_created", 0) / ops, "count")
        spans("trajectories.reflection_map")
        spans("bogolubov.compute_coefficients")
        spans("bogolubov.kg_inner_product")
        evaluations = count("bogolubov.quad_evaluations", 0)
        entries = count("bogolubov.entries", 0)
        put("bogolubov.quad_evaluations", evaluations, "count")
        put("bogolubov.truncation_warnings",
            count("bogolubov.truncation_warnings", 0), "count")
        put("bogolubov.evaluations_per_entry",
            evaluations / entries if entries else 0.0, "count")
        spans("bogolubov.packet")
        put("trace.spans", len(self.span_start) + self.dropped, "count")
        return out

    def write(self, path):
        """Every kept span, one line each: name, parent line, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(f"# spans={len(self.span_start)} "
                     f"dropped={self.dropped}\n")
            fh.write("span,name,parent,start_s,end_s\n")
            names = self.names
            for k in range(len(self.span_start)):
                fh.write(f"{k},{names[self.span_name[k]]},"
                         f"{self.span_parent[k]},{self.span_start[k]!r},"
                         f"{self.span_end[k]!r}\n")
