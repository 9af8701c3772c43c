"""Benchmark of the mirrorstress package.

    python3 mirrorbench/run.py --workload {grid,identities,bogolubov}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  One client in one process makes
sequential calls (a closed loop); numpy's BLAS keeps its own thread
setting, which the header reports.

With ``--trace 0`` the run measures set-up time in fresh processes, then
repeats whole cycles of the workload's unit calls until ``--seconds`` have
passed, and prints the end-to-end metrics.  With ``--trace 1`` it makes a
fixed number of cycles with every layer's entry points wrapped, so that
its counts repeat exactly for a seed, then the same cycles untraced, and
prints the per-layer metrics together with the tracing overhead; the
spans are written to ``.mirrorbench/traces/``.  Every output is checked
after the timed region in both modes.

Durations in the metrics are reference seconds: the machine's speed is
sampled during every measurement and divided out (``calibrate.py``), so
that runs made minutes apart on a shared host compare.  The raw values
are in the second line printed, after the header describing the machine
and the code; the last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".mirrorbench"

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60.0
BRACKET_S = 0.05  # speed sampling before and after each set-up probe
# cycles of a traced run: each workload's takes a few seconds untraced
TRACE_CYCLES = {"grid": 3, "identities": 6, "bogolubov": 1}
WORKLOAD_NAMES = tuple(TRACE_CYCLES)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import mirrorstress from this checkout's sources, never from an
    installed copy."""
    if not (SRC / "mirrorstress" / "__init__.py").is_file():
        raise SystemExit(f"mirrorbench: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mirrorstress
    if Path(mirrorstress.__file__).resolve().parent != SRC / "mirrorstress":
        raise SystemExit(f"mirrorbench: imported {mirrorstress.__file__}, "
                         f"not the checkout's sources")


def _probe(args):
    """Fresh-process set-up: import, build, evaluate the first operation
    of every kind, then report readiness on stdout."""
    import workloads
    workdir = tempfile.mkdtemp(prefix="probe-", dir=WORK)
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir).setup()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _setup_seconds(args, sampler):
    """Time from spawning a fresh interpreter to its first evaluated
    operation, once per probe, raw and in reference seconds (the speed
    sampled just before and after the probe)."""
    raw, calibrated = [], []
    for _ in range(SETUP_PROBES):
        first = len(sampler.samples)
        sampler.bracket(BRACKET_S)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or rc != 0:
            raise SystemExit(f"mirrorbench: set-up probe failed (exit {rc})")
        sampler.bracket(BRACKET_S)
        raw.append(t1 - t0)
        calibrated.append((t1 - t0) * sampler.factor(since=first))
    return raw, calibrated


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "mirrorstress").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas():
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads, "thread_env": env}


def _header(args, loadavg):
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": _git_commit(), "src_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas(), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
    }


def _cycles(workload, rec, seconds=None, count=None):
    """Whole cycles until ``seconds`` have passed, or ``count`` cycles;
    returns the seconds they took, by the recorder's clock."""
    t0 = rec.clock()
    done = 0
    while True:
        workload.cycle(rec)
        done += 1
        elapsed = rec.clock() - t0
        if (count is not None and done >= count) or \
                (count is None and elapsed >= seconds):
            return elapsed


def _sampled_cycles(workload, rec, sampler, **limit):
    """Cycles with the machine's speed sampled; returns the reference
    seconds they took and the index of their first speed sample."""
    first = len(sampler.samples)
    sampler.start()
    try:
        elapsed = _cycles(workload, rec, **limit)
    finally:
        sampler.stop()
    return elapsed * sampler.factor(since=first), first


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _fresh(args, workloads, workdir, name):
    path = os.path.join(workdir, name)
    os.mkdir(path)
    return workloads.WORKLOADS[args.workload](args.seed, path)


def _untraced(args, workloads, workdir, sampler, setup):
    workload = _fresh(args, workloads, workdir, "run")
    workload.setup()
    rec = workloads.Recorder(sampler.clock)
    elapsed, first = _sampled_cycles(workload, rec, sampler,
                                     seconds=args.seconds)
    factor = sampler.factor(since=first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = []
    attempted, failed = workload.check(failures)
    local = sampler.local_factors(rec.starts, rec.latencies, since=first)
    lat_ms = [x * 1e3 * f for x, f in zip(rec.latencies, local)]
    raw_ms = [x * 1e3 for x in rec.latencies]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    metrics = {
        "setup_s": _metric(statistics.median(setup[1]), "s"),
        "ops_per_s": _metric(rec.ops / elapsed, "1/s"),
        "call_ms_p50": _metric(statistics.median(lat_ms), "ms"),
        "call_ms_p90": _metric(deciles[8], "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    detail = {"setup_probes": len(setup[0]), "unit_calls": len(lat_ms),
              "ops": rec.ops, "reference_s": elapsed,
              "speed_factor": factor,
              "speed_samples": len(sampler.samples) - first,
              "raw": {"setup_s": statistics.median(setup[0]),
                      "ops_per_s": rec.ops * factor / elapsed,
                      "call_ms_p50": statistics.median(raw_ms),
                      "call_ms_p90": statistics.quantiles(
                          raw_ms, n=10, method="inclusive")[8]}}
    return metrics, detail, attempted, failed, failures


def _traced(args, workloads, workdir, sampler):
    import tracing
    cycles = TRACE_CYCLES[args.workload]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _fresh(args, workloads, workdir, "traced")
        traced.setup()
        rec_t = workloads.Recorder(sampler.clock)
        elapsed_t, _ = _sampled_cycles(traced, rec_t, sampler, count=cycles)
    finally:
        tracer.uninstall()
    plain = _fresh(args, workloads, workdir, "plain")
    plain.setup()
    rec_u = workloads.Recorder(sampler.clock)
    elapsed_u, _ = _sampled_cycles(plain, rec_u, sampler, count=cycles)
    failures = []
    attempted, failed = traced.check(failures)
    more = plain.check(failures)
    attempted, failed = attempted + more[0], failed + more[1]
    metrics = tracer.metrics(rec_t.ops)
    traced_rate, plain_rate = rec_t.ops / elapsed_t, rec_u.ops / elapsed_u
    metrics["trace.overhead"] = _metric(1.0 - traced_rate / plain_rate,
                                        "ratio")
    metrics["error_rate"] = _metric(failed / attempted, "ratio")
    spans = WORK / "traces" / f"{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(str(spans))
    detail = {"cycles": cycles, "ops": rec_t.ops,
              "traced_ops_per_s": traced_rate,
              "untraced_ops_per_s": plain_rate,
              "spans_file": str(spans.relative_to(ROOT))}
    return metrics, detail, attempted, failed, failures


def main(argv=None):
    args = _parse(argv)
    loadavg = os.getloadavg()
    _import_package()
    WORK.mkdir(exist_ok=True)
    if args.probe:
        return _probe(args)
    import calibrate
    sampler = calibrate.SpeedSampler()
    setup = _setup_seconds(args, sampler) if args.trace == 0 else None
    import workloads
    print(json.dumps({"header": _header(args, loadavg)}), flush=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if args.trace:
            result = _traced(args, workloads, workdir, sampler)
        else:
            result = _untraced(args, workloads, workdir, sampler, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, detail, attempted, failed, failures = result
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    detail["failures"] = len(failures)
    print(json.dumps({"detail": detail}), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
