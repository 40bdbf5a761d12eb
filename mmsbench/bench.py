"""Measurement: the closed loop, the traced run, and the metrics they give.

End-to-end metrics come from an untraced run: operations go back to back
until ``seconds`` have passed and at least the workload's ``fixed_ops`` are
done.  Between operations the reference kernel is timed (``reference``),
and every operation's time is reported scaled to the reference pace.  The
traced run does each of the ``fixed_ops`` operations twice, untraced and
traced, so its counts repeat for a seed and its overhead ratio compares the
same work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from mmsfair import MmsfairError

import reference
import tracing
from workloads import WORKLOADS, CheckFailed, Workload

SCHEMA = "mmsbench/1"

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Loop:
    """What one pass of the closed loop did."""

    latencies: list = field(default_factory=list)  # seconds, one per attempted op
    records: list = field(default_factory=list)    # outputs of the first fixed_ops ops
    errors: list = field(default_factory=list)     # first few failure messages
    refs: list = field(default_factory=list)       # reference kernel timings, seconds
    ref_at: list = field(default_factory=list)     # per op: index of the last ref before it
    work: int = 0                                  # instances solved by verified ops
    failed: int = 0
    wall: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list:
        """Op latencies at the reference pace (seconds)."""
        return reference.scaled(self.latencies, self.refs, self.ref_at)

    @property
    def digest(self) -> str:
        text = json.dumps(self.records, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@contextmanager
def processor_turns(workload: Workload):
    """Yield ``turn(i)``, which moves this thread to allowed processor i mod n.

    On a shared host other load slows one processor or another for seconds
    at a time, and the scheduler leaves a busy single-threaded process where
    it is, so whole runs read up to a third slower.  Taking the processors in
    turn, one op each, gives every run the average of all of them.  An op
    that starts threads keeps every processor, since threads inherit the
    affinity of the thread that starts them.  The affinity is restored on exit.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if workload.threaded or len(cpus) < 2:
        yield lambda i: None
        return
    try:
        yield lambda i: os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    finally:
        os.sched_setaffinity(0, cpus)


def setup(workload: Workload, seed: int, out_dir: str) -> list:
    """Generate the seed's inputs and run one warm-up op on a fixed input."""
    pool = workload.pool(seed)
    workload.op(workload.warm_input, out_dir=out_dir)
    return pool


def run_op(workload: Workload, loop: Loop, i: int, item, *, record: bool, out_dir: str,
           max_goods: Optional[int] = None, tracer: Optional[tracing.Tracer] = None) -> None:
    """Run and time operation ``i`` on ``item``, adding the outcome to ``loop``.

    A raised MmsfairError or a failed check counts as one failed op; it is
    not raised further.
    """
    t = perf_counter()
    try:
        if tracer is None:
            out, work = workload.op(item, max_goods=max_goods, out_dir=out_dir)
        else:
            with tracer.operation(i):
                out, work = workload.op(item, max_goods=max_goods, out_dir=out_dir)
    except (MmsfairError, CheckFailed) as exc:
        out, work = {"failed": type(exc).__name__}, 0
        loop.failed += 1
        if len(loop.errors) < 5:
            loop.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
    loop.latencies.append(perf_counter() - t)
    loop.work += work
    if record:
        loop.records.append(out)


# Seconds between reference kernel timings in the closed loop: about a
# tenth of the loop's time goes to the kernel.
REF_EVERY = 0.02


def run_loop(workload: Workload, pool: list, *, seconds: float, min_ops: int,
             out_dir: str, max_goods: Optional[int] = None) -> Loop:
    """Closed loop with one client: op i+1 starts when op i has returned.

    Stops once ``seconds`` have passed and ``min_ops`` ops are done; the
    outputs of the first ``min_ops`` are recorded for the digest.  Before an
    op, the reference kernel is timed if ``REF_EVERY`` seconds have passed
    since it last was, on the processor the op is about to run on.
    """
    loop = Loop()
    start = perf_counter()
    deadline = start + seconds
    last_ref = start - REF_EVERY
    i = 0
    with processor_turns(workload) as turn:
        while i < min_ops or perf_counter() < deadline:
            turn(i)
            if perf_counter() - last_ref >= REF_EVERY:
                loop.refs.append(reference.timed())
                last_ref = perf_counter()
            loop.ref_at.append(len(loop.refs) - 1)
            run_op(workload, loop, i, pool[i % len(pool)], record=i < min_ops,
                   out_dir=out_dir, max_goods=max_goods)
            i += 1
    loop.wall = perf_counter() - start
    return loop


def nearest_rank(sorted_values: list, pct: float) -> tuple:
    """(value at the pct-th percentile by nearest rank, samples beyond it)."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def timings(workload: Workload, latencies: list, work: int) -> tuple:
    """(throughput 1/s, p50 ms, tail ms, samples beyond the tail) of op latencies.

    Throughput is the work done per second spent in operations.
    """
    lat = sorted(latencies)
    p50, _ = nearest_rank(lat, 50.0)
    tail, beyond = nearest_rank(lat, workload.tail_pct)
    return work / sum(lat), p50 * 1e3, tail * 1e3, beyond


def end_to_end(workload: Workload, loop: Loop, setup_s: float) -> tuple:
    """(metrics, number of samples beyond the tail percentile).

    Times are at the reference pace; ``setup_s`` must be scaled already.
    """
    throughput, p50, tail, beyond = timings(workload, loop.scaled_latencies(), loop.work)
    values = {
        "throughput_ops_s": throughput,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}, beyond


def measured(workload: Workload, loop: Loop) -> dict:
    """The same timings as measured, unscaled, with the reference pace they were scaled by."""
    throughput, p50, tail, _ = timings(workload, loop.latencies, loop.work)
    return {"throughput_ops_s": throughput, "latency_p50_ms": p50, "latency_tail_ms": tail,
            "reference_ms_median": statistics.median(loop.refs) * 1e3,
            "reference_samples": len(loop.refs)}


def traced(workload: Workload, pool: list, out_dir: str,
           max_goods: Optional[int] = None, ops: Optional[int] = None) -> tuple:
    """Each of the fixed ops once untraced and once traced: (untraced, traced, tracer).

    The two runs of an op are back to back, in alternating order, so a drift
    in machine speed during the run falls on both sides of the overhead
    ratio alike.  Each loop's ``wall`` is the sum of its op latencies.
    """
    ops = workload.fixed_ops if ops is None else ops
    plain, spanned, tracer = Loop(), Loop(), tracing.Tracer()
    with processor_turns(workload) as turn:
        for i in range(ops):
            turn(i)
            item = pool[i % len(pool)]
            for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
                if with_spans:
                    with tracing.patched(tracer):
                        run_op(workload, spanned, i, item, record=True, out_dir=out_dir,
                               max_goods=max_goods, tracer=tracer)
                else:
                    run_op(workload, plain, i, item, record=True, out_dir=out_dir,
                           max_goods=max_goods)
    plain.wall, spanned.wall = sum(plain.latencies), sum(spanned.latencies)
    return plain, spanned, tracer


def result_doc(workload: Workload, seed: int, seconds: float, trace: int, loop: Loop,
               metrics: dict, correct: bool, **extra) -> dict:
    """The schema-versioned record of one run."""
    return {
        "schema": SCHEMA,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu_model()},
        "fixed_ops": workload.fixed_ops,
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "error_rate": loop.failed / loop.attempted,
        "errors": loop.errors,
        "digest": loop.digest,
        "metrics": metrics,
        **extra,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"

