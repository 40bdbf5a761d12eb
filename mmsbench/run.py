"""Run one workload of the mmsfair benchmark and print its metrics.

    python3 mmsbench/run.py --workload solve-hard --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the package is imported from the
``src/`` directory next to this one, never from an installed copy, and the
run fails with exit code 2 when that source is missing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones;
both sets are listed in ``BENCHMARK.json``.  The lines before it give the
same figures for people, with the error rate and the digest of the outputs.
A schema-versioned record of the run, and in a traced run its spans, are
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Set-up is timed this many times per run, once here and the rest in fresh
# processes (an import can only be timed once per process); the median is
# reported.  Each is scaled to the reference pace measured just before and
# just after it.
SETUP_SAMPLES = 5


def _parse(argv):
    p = argparse.ArgumentParser(prog="mmsbench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _load_program() -> None:
    """Put this checkout's src/ first on the path, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "mmsfair", "__init__.py")):
        print(f"mmsbench: no package source at {os.path.relpath(SRC)}/mmsfair; "
              "run from the root of an mmsfair source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _setup_sample(args) -> dict:
    """Time import + input generation + warm-up in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds < 0:
        print("mmsbench: --seconds must be >= 0", file=sys.stderr)
        return 2
    _load_program()
    import reference
    pace_before = reference.pace()
    t0 = time.perf_counter()
    import bench
    import tracing

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"mmsbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    pool = bench.setup(workload, args.seed, OUT_DIR)
    here = {"measured_s": time.perf_counter() - t0}
    here["setup_s"] = (here["measured_s"] * reference.REF_S
                       / statistics.mean((pace_before, reference.pace())))
    if args.setup_only:
        print(json.dumps(here))
        return 0

    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if args.trace == 0:
        loop = bench.run_loop(workload, pool, seconds=args.seconds,
                              min_ops=workload.fixed_ops, out_dir=OUT_DIR)
        samples = [here] + [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        setup_s = statistics.median(s["setup_s"] for s in samples)
        metrics, beyond = bench.end_to_end(workload, loop, setup_s)
        measured = bench.measured(workload, loop)
        measured["setup_s"] = statistics.median(s["measured_s"] for s in samples)
        correct = loop.failed == 0
        doc = bench.result_doc(workload, args.seed, args.seconds, 0, loop, metrics, correct,
                               measured=measured, setup_samples=samples,
                               tail_percentile=workload.tail_pct, tail_samples_beyond=beyond,
                               samples={"latency_s": loop.latencies, "reference_s": loop.refs,
                                        "reference_at": loop.ref_at})
        notes = [f"latency_tail_ms is p{workload.tail_pct:g}, "
                 f"{beyond} of {loop.attempted} samples beyond it",
                 f"times are scaled to a reference kernel time of "
                 f"{reference.REF_S * 1e3:g} ms; it took a median "
                 f"{measured['reference_ms_median']:.4g} ms over "
                 f"{measured['reference_samples']} timings; as measured: "
                 + "  ".join(f"{k}={v:.6g}" for k, v in measured.items()
                             if not k.startswith("reference"))]
    else:
        plain, loop, tracer = bench.traced(workload, pool, OUT_DIR)
        ratio = loop.wall / plain.wall
        metrics = tracing.per_layer(tracer.spans, ratio)
        correct = loop.failed == 0 and plain.failed == 0 and plain.digest == loop.digest
        tracer.write(stem + "-spans.jsonl")
        doc = bench.result_doc(workload, args.seed, args.seconds, 1, loop, metrics, correct,
                               untraced_digest=plain.digest, spans=len(tracer.spans))
        notes = [f"{len(tracer.spans)} spans over {loop.attempted} ops written to "
                 f"{os.path.relpath(stem, ROOT)}-spans.jsonl"]
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {loop.attempted}  failed {loop.failed}  "
          f"error_rate {doc['error_rate']:g}  correct {str(correct).lower()}")
    print(f"digest {loop.digest} (outputs of the first {workload.fixed_ops} ops)")
    for line in notes + loop.errors:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
