"""The benchmark's workloads: seeded inputs, one operation each, and its check.

Every workload is a closed loop with one client.  Inputs are generated here,
from the workload seed, with this module's own generator, so a change to the
program's generators cannot change what is measured.  The program receives
only the generated instance documents (or, for ``cli-batch``, the seeds the
``bench`` command takes as its input).

An operation returns ``(record, work)``: ``record`` is the canonical form of
its outputs, hashed into the run's digest, and ``work`` is the number of
instances it solved.  It raises ``CheckFailed`` when an output is wrong; the
caller counts that, like any ``MmsfairError``, as one failed operation.

Functions of the program are looked up on their modules at call time
(``pipeline.approx_mms``, not a name bound at import), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from mmsfair import cli, core, harness, oracle, pipeline

# Instances per `mmsfair bench` call in cli-batch: one pass over its 30-cell
# grid (n in 2..4, m in n..12).
CLI_BATCH_COUNT = 30
# The bench command's thread pool, capped at the machine's processor count.
CLI_THREADS = min(2, len(os.sched_getaffinity(0)))


class CheckFailed(Exception):
    """An operation returned, but its output failed the benchmark's check."""


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``fixed_ops`` operations are completed by every run, however short: they
    are the ones digested and the ones the traced run measures, so both repeat
    exactly for a seed.  ``tail_pct`` is the percentile reported as
    ``latency_tail_ms``; at ``fixed_ops`` samples at least ten lie beyond it.
    """

    name: str
    pool: Callable[[int], list]
    op: Callable
    warm_input: object
    fixed_ops: int
    tail_pct: float
    threaded: bool = False  # the op starts threads of its own


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def instance_doc(rng: random.Random, n: int, m: int, bound: int, rational: bool) -> dict:
    """An instance document: integer values in [0, bound], or p/q with q in [1, bound]."""
    goods = [f"g{j}" for j in range(1, m + 1)]
    valuations = {}
    for a in range(n):
        if rational:
            row = {g: f"{rng.randint(0, bound)}/{rng.randint(1, bound)}" for g in goods}
        else:
            row = {g: rng.randint(0, bound) for g in goods}
        valuations[str(a)] = row
    return {"agents": n, "goods": goods, "dummies": [], "valuations": valuations}


# `mmsfair bench`'s grid: n in {2, 3, 4}, m from n to 12.
SMALL_GRID = [(n, m) for n in (2, 3, 4) for m in range(n, 13)]


def small_pool(seed: int, passes: int = 200) -> list:
    rng = _rng("solve-small", seed)
    return [instance_doc(rng, n, m, 100, False)
            for _ in range(passes) for n, m in SMALL_GRID]


def hard_pool(seed: int, size: int = 1000) -> list:
    rng = _rng("solve-hard", seed)
    return [instance_doc(rng, 4 if i % 2 == 0 else 5, 11, 1000, False)
            for i in range(size)]


def rational_pool(seed: int, size: int = 2000) -> list:
    rng = _rng("shares-rational", seed)
    return [instance_doc(rng, 3 if i % 2 == 0 else 4, 11, 100, True)
            for i in range(size)]


def cli_pool(seed: int, size: int = 2000) -> list:
    """Base seeds for successive bench calls; call j solves seeds base_j .. base_j+29."""
    rng = _rng("cli-batch", seed)
    start = rng.randrange(1 << 40)
    return [start + j * CLI_BATCH_COUNT for j in range(size)]


def _capacity(max_goods: Optional[int]) -> dict:
    return {} if max_goods is None else {"max_goods": max_goods}


def solve_op(doc: dict, max_goods: Optional[int] = None, out_dir: str = "") -> tuple:
    """instance_from_json -> alpha_for -> approx_mms -> to_json -> allocation_from_json -> verify."""
    cap = _capacity(max_goods)
    instance = core.instance_from_json(doc)
    choice = pipeline.alpha_for(instance.n, "improved")
    report = pipeline.approx_mms(instance, choice, **cap)
    out = report.to_json(instance)
    allocation = core.allocation_from_json(instance, out["allocation"])
    check = harness.verify(instance, allocation, choice.alpha, **cap)
    if not check.passed:
        raise CheckFailed(f"verified score {check.score} is below alpha {choice.alpha}")
    if core.format_value(check.score) != out["score"]:
        raise CheckFailed(f"reported score {out['score']} but verify scored {check.score}")
    shares = {str(a): core.format_value(mv) for a, (_, mv, _) in sorted(check.per_agent.items())}
    return {"score": out["score"], "allocation": out["allocation"], "mms": shares}, 1


def shares_op(doc: dict, max_goods: Optional[int] = None, out_dir: str = "") -> tuple:
    """instance_from_json -> instance_mms_all, then a witness check per agent.

    The check recomputes every cell value from the document's own numbers:
    the cells partition the goods into n parts, the smallest cell equals the
    reported share, and the share is at most total/n.
    """
    instance = core.instance_from_json(doc)
    results = oracle.instance_mms_all(instance, **_capacity(max_goods))
    n = doc["agents"]
    goods = set(doc["goods"]) | set(doc["dummies"])
    record = {}
    for a in range(n):
        row = {g: Fraction(v) for g, v in doc["valuations"][str(a)].items()}
        res = results[a]
        cells = [sorted(cell) for cell in res.partition]
        covered = [g for cell in cells for g in cell]
        if len(cells) != n or len(covered) != len(set(covered)) or set(covered) != goods:
            raise CheckFailed(f"agent {a}: witness is not a partition into {n} cells")
        low = min(sum((row[g] for g in cell), Fraction(0)) for cell in cells)
        if low != res.value:
            raise CheckFailed(f"agent {a}: witness minimum {low} != share {res.value}")
        if res.value * n > sum(row.values(), Fraction(0)):
            raise CheckFailed(f"agent {a}: share {res.value} exceeds total/n")
        record[str(a)] = {"mms": core.format_value(res.value), "partition": sorted(cells)}
    return record, 1


def cli_op(base_seed: int, max_goods: Optional[int] = None, out_dir: str = ".") -> tuple:
    """One `mmsfair bench` call through cli.main; its output file is read back and checked."""
    path = os.path.join(out_dir, f"cli-batch-{os.getpid()}.json")
    argv = ["bench", "--suite", "random", "--count", str(CLI_BATCH_COUNT),
            "--seed", str(base_seed), "--threads", str(CLI_THREADS), "--output", path]
    if max_goods is not None:
        argv += ["--max-goods", str(max_goods)]
    try:
        code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"mmsfair bench exited with {code}")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    finally:
        if os.path.exists(path):
            os.remove(path)
    if doc["failures"] != 0 or doc["count"] != CLI_BATCH_COUNT:
        raise CheckFailed(f"bench reported {doc['failures']} failures over {doc['count']}")
    if not all(r["ok"] for r in doc["results"]):
        raise CheckFailed("bench marked a result not ok without counting it")
    return [[r["id"], r["score"]] for r in doc["results"]], doc["count"]


# Why each workload exists is in BENCHMARK.json and README.md.  solve-hard
# and shares-rational use m = 11: with bigger instances a 30 s run holds too
# few operations, and its figures spread across seeds by more than the bounds
# allow.  fixed_ops is sized so that a run finishes them well within
# run_seconds at today's speed.
WORKLOADS = {
    w.name: w for w in (
        Workload(name="solve-small", pool=small_pool, op=solve_op,
                 warm_input=instance_doc(random.Random("warm"), 3, 7, 100, False),
                 fixed_ops=1000, tail_pct=99.0),
        Workload(name="solve-hard", pool=hard_pool, op=solve_op,
                 warm_input=instance_doc(random.Random("warm"), 3, 7, 100, False),
                 fixed_ops=150, tail_pct=90.0),
        Workload(name="shares-rational", pool=rational_pool, op=shares_op,
                 warm_input=instance_doc(random.Random("warm"), 3, 7, 100, True),
                 fixed_ops=200, tail_pct=95.0),
        Workload(name="cli-batch", pool=cli_pool, op=cli_op, warm_input=0,
                 fixed_ops=40, tail_pct=75.0, threaded=True),
    )
}
