"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest mmsbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import bench
import reference
import tracing
import workloads
from mmsfair import oracle

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path)


def _pool(workload, out_dir, seed=3):
    return bench.setup(workload, seed, out_dir)


def test_metric_and_workload_names_match_benchmark_json():
    assert list(bench.END_TO_END_UNITS.items()) == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert list(tracing.PER_LAYER_UNITS.items()) == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert list(bench.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_smoke_each_workload(name, out_dir):
    workload = bench.WORKLOADS[name]
    cpus = os.sched_getaffinity(0)
    loop = bench.run_loop(workload, _pool(workload, out_dir), seconds=0, min_ops=2, out_dir=out_dir)
    assert os.sched_getaffinity(0) == cpus  # processor turns are undone
    assert (loop.attempted, loop.failed) == (2, 0)
    assert len(loop.ref_at) == 2 and loop.refs and loop.ref_at[0] == 0
    assert loop.work == (workloads.CLI_BATCH_COUNT * 2 if name == "cli-batch" else 2)
    metrics, _ = bench.end_to_end(workload, loop, setup_s=0.5)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    assert os.listdir(out_dir) == []  # the bench command's output file is removed


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_repeats(name, out_dir):
    workload = bench.WORKLOADS[name]
    pool = _pool(workload, out_dir)
    plain, spanned, tracer = bench.traced(workload, pool, out_dir, ops=1)
    assert plain.digest == spanned.digest
    first = tracing.per_layer(tracer.spans, spanned.wall / plain.wall)
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    _, _, again = bench.traced(workload, pool, out_dir, ops=1)
    second = tracing.per_layer(again.spans, 1.0)
    for key in ("oracle.mms.calls", "oracle.mms.distinct", "transforms.reduce.rounds",
                "bagfill.runs", "core.codec.calls", "cli.bench.calls"):
        assert first[key] == second[key]
    assert first["oracle.mms.calls"]["value"] > 0
    assert first["cli.bench.calls"]["value"] == (1 if name == "cli-batch" else 0)
    # Wrappers are gone once the traced pass ends.
    assert not hasattr(oracle.mms, "__wrapped__")


def test_shares_rational_searches_are_all_distinct(out_dir):
    workload = bench.WORKLOADS["shares-rational"]
    _, _, tracer = bench.traced(workload, _pool(workload, out_dir), out_dir, ops=4)
    m = tracing.per_layer(tracer.spans, 1.0)
    assert m["oracle.mms.distinct_ratio"]["value"] == 1.0
    assert m["oracle.mms.self_s.base"]["value"] == pytest.approx(m["oracle.mms.self_s"]["value"])


@pytest.mark.parametrize("name", ["solve-small", "shares-rational", "cli-batch"])
def test_forced_failure_is_counted_not_raised(name, out_dir):
    # max_goods below every instance's size makes the oracle raise CapacityError.
    workload = bench.WORKLOADS[name]
    loop = bench.run_loop(workload, _pool(workload, out_dir), seconds=0, min_ops=2,
                          out_dir=out_dir, max_goods=1)
    assert (loop.attempted, loop.failed, loop.work) == (2, 2, 0)
    assert loop.failed / loop.attempted == 1.0
    assert loop.errors


def test_wrong_share_fails_the_witness_check(monkeypatch, out_dir):
    workload = bench.WORKLOADS["shares-rational"]
    pool = _pool(workload, out_dir)
    real = oracle.instance_mms_all

    def inflated(instance, **kwargs):
        return {a: oracle.MmsResult(r.value + Fraction(1, 7), r.partition)
                for a, r in real(instance, **kwargs).items()}

    monkeypatch.setattr(oracle, "instance_mms_all", inflated)
    loop = bench.run_loop(workload, pool, seconds=0, min_ops=1, out_dir=out_dir)
    assert loop.failed == 1 and "CheckFailed" in loop.errors[0]


def test_digest_depends_only_on_seed(out_dir):
    workload = bench.WORKLOADS["solve-small"]
    runs = [bench.run_loop(workload, workload.pool(seed), seconds=0, min_ops=5,
                           out_dir=out_dir).digest for seed in (4, 4, 5)]
    assert runs[0] == runs[1] != runs[2]


def test_times_are_scaled_by_the_mean_nearby_reference_pace():
    assert reference.kernel() == reference.EXPECTED
    half = reference.REF_S / 2
    assert reference.scaled([0.01, 0.03], [half, half], [0, 1]) == pytest.approx([0.02, 0.06])
    # Only timings within the window count: [1, 1, 4] * REF_S around index 1.
    refs = [reference.REF_S, reference.REF_S, 4 * reference.REF_S, 100 * reference.REF_S]
    assert reference.scaled([0.01], refs, [1], half_window=1) == pytest.approx([0.005])


def test_self_time_subtracts_the_union_of_children():
    spans = []
    for sid, (name, start, end, parent) in enumerate(
            [("cli.bench", 0.0, 10.0, None), ("harness.verify", 1.0, 4.0, 1),
             ("harness.verify", 2.0, 5.0, 1), ("oracle.mms", 2.5, 3.0, 2)], start=1):
        span = tracing.Span(sid, name, start, parent, None)
        span.end = end
        spans.append(span)
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(6.0)  # children overlap on [2, 4]
    assert own[2] == pytest.approx(2.5)


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "mmsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "mmsbench/run.py", "--workload", "solve-small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
