"""Repeat the benchmark over seeds and summarize each metric.

    python3 mirrorbench/prove.py --seeds 101-110 [--workloads grid,...]
        [--trace] [--out FILE]

Runs ``run.py`` once per (seed, workload), alternating workloads so that
a slow spell of the machine spreads over all of them, and prints for each
end-to-end metric its median, quartiles and quartile spread as a share of
the median, flagging a spread above a third of the metric's bound in
``BENCHMARK.json``.  With ``--trace`` it runs the traced mode instead and
checks the predicted zeros recorded in ``workloads.json``.  ``--out``
writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["header"] = json.loads(lines[0])["header"]
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=_seeds)
    parser.add_argument("--workloads")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    notes = json.loads((HERE / "workloads.json").read_text())
    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            result = run_once(name, seed, bench["run_seconds"], args.trace)
            runs[name].append(dict(result, seed=seed))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
    ok = True
    summary = {}
    for name in names:
        summary[name] = {}
        results = runs[name]
        if any(r["failed"] or not r["correct"] for r in results):
            print(f"{name}: failed operations")
            ok = False
        if args.trace:
            for layer in notes[name]["predicted_zero"]:
                seen = [r["metrics"][layer]["value"] for r in results]
                if any(seen):
                    print(f"{name}: predicted zero {layer} reads {seen}")
                    ok = False
        metrics = results[0]["metrics"]
        for metric in metrics:
            summary[name][metric] = summarize(
                [r["metrics"][metric]["value"] for r in results])
        if args.trace:
            continue
        for spec in bench["end_to_end"]:
            s = summary[name][spec["name"]]
            flag = ""
            if spec["name"] != "setup_s" and s["spread"] > spec["bound"] / 3:
                flag = "  above a third of the bound"
                ok = False
            print(f"{name:10s} {spec['name']:12s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f} (bound {spec['bound']}){flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "trace": args.trace, "summary": summary,
             "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
