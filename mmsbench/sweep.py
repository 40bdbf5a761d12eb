"""Run workloads over several seeds and summarise each end-to-end metric.

    python3 mmsbench/sweep.py --seeds 1-10 [--workloads solve-hard,cli-batch]
                              [--trace-seed 1] [--label NAME] [--out FILE]

Each run is a separate ``run.py`` process, one after another, with the
``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` is given.  For
every metric the summary gives the median and quartiles of its values
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound.  With
``--trace-seed`` one traced run per workload adds the per-layer metrics.
With ``--out`` everything is written as one schema-versioned document, the
form in which results are kept under ``mmsbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py process; returns its schema-versioned record."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    last = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if last["metrics"] != doc["metrics"]:
        raise SystemExit(f"{path} does not match the printed result")
    return doc


def summarise(values: list, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--label", default="")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    result = {"schema": None, "label": args.label, "host": None, "seconds": args.seconds,
              "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            doc = run_once(workload, seed, args.seconds, 0)
            runs.append(doc)
            vals = "  ".join(f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items())
            print(f"{workload} seed {seed}: attempted {doc['attempted']} failed "
                  f"{doc['failed']} correct {doc['correct']}  {vals}", flush=True)
        result["schema"], result["host"] = runs[0]["schema"], runs[0]["host"]
        entry = {
            "runs": [{"seed": d["seed"], "correct": d["correct"], "attempted": d["attempted"],
                      "failed": d["failed"], "error_rate": d["error_rate"],
                      "digest": d["digest"], "tail_percentile": d["tail_percentile"],
                      "metrics": {k: v["value"] for k, v in d["metrics"].items()},
                      "measured": d["measured"]}
                     for d in runs],
            "summary": {},
        }
        for name, bound in bounds.items():
            s = summarise([d["metrics"][name]["value"] for d in runs], bound)
            entry["summary"][name] = s
            flag = "" if s["spread"] <= bound / 3 else (
                "  above bound/3" if s["spread"] <= bound else "  ABOVE BOUND")
            print(f"  {workload:16s} {name:18s} median {s['median']:10.4g}  "
                  f"spread {s['spread']:.3f} (bound {bound}){flag}", flush=True)
        if args.trace_seed is not None:
            doc = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["trace"] = {"seed": args.trace_seed, "correct": doc["correct"],
                              "attempted": doc["attempted"], "digest": doc["digest"],
                              "per_layer": {k: v["value"] for k, v in doc["metrics"].items()}}
            print(f"  {workload} traced seed {args.trace_seed}: overhead ratio "
                  f"{doc['metrics']['trace.overhead_ratio']['value']:.3f}", flush=True)
        result["workloads"][workload] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
