"""CLI commands, file schemas, and exit codes."""

import argparse
import dataclasses
import gc
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import mmsfair as mf
from mmsfair import cli, oracle, pipeline, transforms
from mmsfair.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_solve_verify_chain(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    out_file = tmp_path / "report.json"
    trace_file = tmp_path / "trace.json"
    alloc_file = tmp_path / "alloc.json"

    code, _, _ = _run(capsys, "gen", "tight", "--n", "3",
                      "--output", str(inst_file))
    assert code == 0
    doc = json.loads(inst_file.read_text())
    assert doc["agents"] == 3 and len(doc["goods"]) == 8

    code, _, _ = _run(capsys, "solve", "--input", str(inst_file),
                      "--alpha", "improved", "--output", str(out_file),
                      "--trace", str(trace_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["score"] == "4/5"
    assert report["alpha"]["alpha"] == "7/9"
    trace = json.loads(trace_file.read_text())
    assert trace["reductions"][0]["rule"] == "R2"
    assert all(e["event"] in ("fill", "assign") for e in trace["bagfill"])

    # n = 3 reduces to one agent before bag filling; n = 5 is the smallest
    # tight instance whose solve reaches it.
    big_file = tmp_path / "inst5.json"
    big_trace = tmp_path / "trace5.json"
    _run(capsys, "gen", "tight", "--n", "5", "--output", str(big_file))
    code, _, _ = _run(capsys, "solve", "--input", str(big_file),
                      "--alpha", "improved", "--output", str(tmp_path / "report5.json"),
                      "--trace", str(big_trace))
    assert code == 0
    events = json.loads(big_trace.read_text())["bagfill"]
    assert events
    assert all(e["event"] in ("fill", "assign") for e in events)

    alloc_file.write_text(json.dumps(report["allocation"]))
    code, out, _ = _run(capsys, "verify", "--input", str(inst_file),
                        "--allocation", str(alloc_file), "--alpha", "7/9")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["passed"] is True
    assert verdict["score"] == "4/5"

    code, out, _ = _run(capsys, "verify", "--input", str(inst_file),
                        "--allocation", str(alloc_file), "--alpha", "9/10")
    assert code == 0
    assert json.loads(out)["passed"] is False


def test_gen_random_and_mms_command(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    code, _, _ = _run(capsys, "gen", "random", "--n", "2", "--m", "5",
                      "--bound", "9", "--seed", "3", "--output", str(inst_file))
    assert code == 0

    code, out, _ = _run(capsys, "mms", "--input", str(inst_file))
    assert code == 0
    doc = json.loads(out)
    inst = mf.instance_from_json(json.loads(inst_file.read_text()))
    expected = mf.instance_mms_values(inst)
    assert doc["0"]["mms"] == mf.format_value(expected[0])
    assert doc["1"]["mms"] == mf.format_value(expected[1])

    code, out, _ = _run(capsys, "mms", "--input", str(inst_file), "--agent", "1")
    assert code == 0
    assert list(json.loads(out)) == ["1"]


def test_gen_writes_the_generators_documents(capsys):
    code, out, _ = _run(capsys, "gen", "random", "--n", "2", "--m", "4",
                        "--bound", "10", "--seed", "7")
    assert code == 0
    golden = Path(__file__).parent / "data" / "golden_uniform_int_n2_m4_b10_s7.json"
    assert out == golden.read_text(encoding="utf-8")

    code, out, _ = _run(capsys, "gen", "tight", "--n", "4")
    assert code == 0
    assert json.loads(out) == mf.instance_to_json(mf.gen_tight_example(4))


_OK_ROWS = {"0": {"g1": 1, "g2": 1}, "1": {"g1": 1, "g2": 1}}
_OK_INSTANCE = {"agents": 2, "goods": ["g1", "g2"], "valuations": _OK_ROWS}

# (instance document, allocation document or None, field the error names)
MALFORMED = [
    ({"agents": 2, "goods": ["g1"], "valuations": {"0": {"g1": 1}}}, None,
     "agent 1"),
    (dict(_OK_INSTANCE, valuations=dict(_OK_ROWS, **{"1": [1, 1]})), None,
     "valuations[1]"),
    (dict(_OK_INSTANCE, certificates={"x": [["g1"], ["g2"]]}), None,
     "certificates"),
    (dict(_OK_INSTANCE, goods=["g1", ["g2"]]), None, "goods"),
    ({"agents": 1, "goods": "ab", "valuations": {"0": {"a": 1, "b": 1}}}, None,
     "goods"),
    ({"agents": True, "goods": ["g1"], "valuations": {"0": {"g1": 1}}}, None,
     "agents"),
    (_OK_INSTANCE, {"0": [["g1"]], "1": ["g2"]}, "bundle for agent 0"),
    (_OK_INSTANCE, {"0": {"g1": True}, "1": ["g2"]}, "bundle for agent 0"),
    (_OK_INSTANCE, {"0": ["g1"], "1": ["g2"], "2": []}, "unknown agents"),
    ({"agents": 1, "goods": ["g1"], "valuations": {"0": {"g1": [1]}}}, None,
     "valuations[0][g1]"),
    ([1, 2], None, "instance JSON must be an object"),
    ({"agents": 1, "goods": ["g1"], "valuations": {"0": {"g1": "1e3"}}}, None,
     "valuations[0][g1]"),
    (dict(_OK_INSTANCE, certificates={"0": [["g1", "g2"]]}), None,
     "certificates[0]"),
    (dict(_OK_INSTANCE, valuations=dict(_OK_ROWS, **{"0": {"g1": 2, "g2": 1}}),
          certificates={"0": [["g1"], ["g2"]]}), None, "certificates[0]"),
    (dict(_OK_INSTANCE, certificates={"0": [["g1", "g1"], ["g2"]]}), None,
     "certificates[0] repeats id 'g1'"),
    (_OK_INSTANCE, {"0": ["g1", "g1"], "1": ["g2"]},
     "bundle for agent 0 repeats id 'g1'"),
    (dict(_OK_INSTANCE, valuations=dict(_OK_ROWS, **{"1" + "0" * 5000: {}})), None,
     "unknown agents"),
]


def test_exit_code_validation_error(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    alloc_file = tmp_path / "alloc.json"
    for instance, allocation, field in MALFORMED:
        inst_file.write_text(json.dumps(instance))
        if allocation is None:
            code, _, err = _run(capsys, "solve", "--input", str(inst_file))
        else:
            alloc_file.write_text(json.dumps(allocation))
            code, _, err = _run(capsys, "verify", "--input", str(inst_file),
                                "--allocation", str(alloc_file), "--alpha", "3/4")
        assert code == 2, (instance, allocation, err)
        assert err.startswith("error") and field in err, (instance, allocation, err)


def test_unreadable_json_exits_2(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    huge = b'{"agents": 1, "goods": ["g1"], "valuations": {"0": {"g1": 1' \
        + b"0" * 5000 + b"}}}"
    deep = b"[" * 200_000 + b"]" * 200_000
    for raw in (b"\xff\xfe{}", huge, deep):
        inst_file.write_bytes(raw)
        code, _, err = _run(capsys, "solve", "--input", str(inst_file))
        assert code == 2, (raw[:20], err)
        assert err.startswith("error") and str(inst_file) in err, err


def test_huge_agent_count_exits_2_naming_the_missing_row(tmp_path):
    # The child caps its own address space, so code that allocates per
    # declared agent fails fast there instead of exhausting the machine.
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps(
        {"agents": 10 ** 9, "goods": ["g1"], "valuations": {}}))
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
             "from mmsfair.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(mf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", child, "mms", "--input", str(inst_file)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2, proc.stderr
    assert "missing row for agent 0" in proc.stderr


def test_mms_rejects_an_unknown_agent_before_searching(tmp_path, capsys):
    inst_file = tmp_path / "big.json"
    _run(capsys, "gen", "random", "--n", "2", "--m", "21", "--bound", "5",
         "--seed", "1", "--output", str(inst_file))
    code, out, err = _run(capsys, "mms", "--input", str(inst_file), "--agent", "7")
    assert code == 2 and out == ""
    assert "unknown agent 7" in err


def test_mms_agent_searches_only_that_agents_share(tmp_path, capsys):
    # 22 goods is over the default search limit; only agent 0 is certified.
    goods = [f"g{j}" for j in range(1, 23)]
    doc = {"agents": 2, "goods": goods,
           "valuations": {"0": {g: 1 for g in goods},
                          "1": {g: (7 * j) % 11 + 1 for j, g in enumerate(goods)}},
           "certificates": {"0": [goods[:11], goods[11:]]}}
    inst_file = tmp_path / "half_certified.json"
    inst_file.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "mms", "--input", str(inst_file), "--agent", "0")
    assert code == 0, err
    shares = json.loads(out)
    assert list(shares) == ["0"] and shares["0"]["mms"] == "11/1"
    code, out, err = _run(capsys, "mms", "--input", str(inst_file), "--agent", "1")
    assert code == 3 and out == ""
    assert "capacity" in err


def test_exit_code_capacity_error(tmp_path, capsys):
    inst_file = tmp_path / "big.json"
    _run(capsys, "gen", "random", "--n", "2", "--m", "21", "--bound", "5",
         "--seed", "1", "--output", str(inst_file))
    code, _, err = _run(capsys, "solve", "--input", str(inst_file))
    assert code == 3
    assert "capacity" in err
    # an explicit higher limit clears it
    code, _, _ = _run(capsys, "solve", "--input", str(inst_file),
                      "--max-goods", "21")
    assert code == 0


def test_a_search_out_of_memory_exits_3_naming_max_goods(tmp_path, capsys, monkeypatch):
    inst_file = tmp_path / "inst.json"
    _run(capsys, "gen", "random", "--n", "2", "--m", "6", "--bound", "5",
         "--seed", "1", "--output", str(inst_file))

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(oracle, "_max_min_partition", out_of_memory)
    code, out, err = _run(capsys, "mms", "--input", str(inst_file))
    assert code == 3
    assert "--max-goods" in err and out == ""


def test_a_search_out_of_stack_exits_3_naming_max_goods(tmp_path, capsys):
    # 13, 4 and 14 plus 3,001 goods of 3 over 3 parts: the climb's probes
    # complete cells of about a thousand goods, a recursion level each.
    goods = [f"g{j}" for j in range(1, 3005)]
    row = {g: 3 for g in goods} | {"g1": 13, "g2": 4, "g3": 14}
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps(
        {"agents": 3, "goods": goods, "valuations": {a: row for a in ("0", "1", "2")}}))
    for command in ("mms", "solve"):
        code, out, err = _run(capsys, command, "--input", str(inst_file),
                              "--max-goods", "5000")
        assert code == 3, (command, err)
        assert "--max-goods" in err and "stack" in err and out == "", (command, err)


def test_a_floor_at_total_over_parts_solves_thousands_of_goods(tmp_path, capsys):
    # 3,000 unit goods over 2 parts: the floor is already total // parts, so
    # the climb makes no probe, and the witness is its packing: no search
    # completes a cell of 1,500 goods.
    goods = [f"g{j}" for j in range(1, 3001)]
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps(
        {"agents": 2, "goods": goods, "valuations": {a: {g: 1 for g in goods}
                                                     for a in ("0", "1")}}))
    code, out, err = _run(capsys, "mms", "--input", str(inst_file), "--max-goods", "5000")
    assert code == 0, err
    for share in json.loads(out).values():
        assert share["mms"] == "1500/1"
        cells = share["partition"]
        assert len(cells) == 2 and sorted(g for cell in cells for g in cell) == sorted(goods)
        assert [len(cell) for cell in cells] == [1500, 1500]
    code, out, err = _run(capsys, "solve", "--input", str(inst_file), "--max-goods", "5000")
    assert code == 0, err


def test_explicit_alpha_above_bound_rejected(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    _run(capsys, "gen", "tight", "--n", "3", "--output", str(inst_file))
    code, _, err = _run(capsys, "solve", "--input", str(inst_file),
                        "--alpha", "99/100")
    assert code == 2
    assert "guarantee" in err


def test_an_alpha_that_is_not_an_exact_rational_exits_2_naming_alpha(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    alloc_file = tmp_path / "alloc.json"
    _run(capsys, "gen", "tight", "--n", "3", "--output", str(inst_file))
    goods = json.loads(inst_file.read_text())["goods"]
    alloc_file.write_text(json.dumps({"0": goods, "1": [], "2": []}))
    for argv in (("solve", "--input", str(inst_file), "--alpha", "1.5"),
                 ("verify", "--input", str(inst_file), "--allocation", str(alloc_file),
                  "--alpha", "x")):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: alpha: "), (argv, err)


def test_missing_file_is_reported(capsys):
    code, _, err = _run(capsys, "solve", "--input", "/nonexistent.json")
    assert code == 2
    assert "error" in err


def test_bench_command(capsys):
    code, out, _ = _run(capsys, "bench", "--suite", "random",
                        "--count", "6", "--seed", "100", "--threads", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6
    assert doc["failures"] == 0
    assert [r["id"] for r in doc["results"]] == \
        sorted(r["id"] for r in doc["results"])
    assert all(r["ok"] for r in doc["results"])


def test_bench_solves_on_the_calling_thread_without_reverifying(monkeypatch, capsys):
    solved_on = []
    verified = []

    def approx_mms(*args, **kwargs):
        solved_on.append(threading.get_ident())
        return mf.approx_mms(*args, **kwargs)

    monkeypatch.setattr(cli, "approx_mms", approx_mms)
    monkeypatch.setattr(cli, "verify", lambda *args, **kwargs: verified.append(args))
    code, out, _ = _run(capsys, "bench", "--count", "4", "--seed", "5",
                        "--threads", "2")
    assert code == 0
    assert json.loads(out)["count"] == 4
    assert solved_on == [threading.get_ident()] * 4
    assert verified == []


def test_bench_cycles_through_the_30_cell_grid(capsys):
    grid = [(n, m) for n in (2, 3, 4) for m in range(n, 13)]
    assert len(grid) == 30
    code, out, _ = _run(capsys, "bench", "--count", "32", "--seed", "7")
    assert code == 0
    expected = [f"uniform-int-n{n}-m{m}-b100-s{7 + i}"
                for i, (n, m) in enumerate(grid + grid[:2])]
    assert expected[30] == "uniform-int-n2-m2-b100-s37"
    assert [r["id"] for r in json.loads(out)["results"]] == sorted(expected)


def _solve_trace(tmp_path, capsys, inst_file):
    trace_file = tmp_path / "trace.json"
    code, _, _ = _run(capsys, "solve", "--input", str(inst_file),
                      "--output", str(tmp_path / "report.json"),
                      "--trace", str(trace_file))
    assert code == 0
    return json.loads(trace_file.read_text())


def _exit_4_dump(capsys, inst_file, reason=""):
    """The JSON after the message line of a solve that must exit 4; the
    message must start with ``reason``."""
    code, out, err = _run(capsys, "solve", "--input", str(inst_file))
    assert code == 4 and out == "", err
    message, _, dump = err.partition("\n")
    assert message.startswith("internal invariant violated: " + reason), err
    doc = json.loads(dump)
    assert sorted(doc) == ["bagfill", "reductions"], doc
    assert doc["reductions"] and all(
        sorted(rec) == ["agent", "dummy", "pre_mms", "removed_goods", "rule"]
        for rec in doc["reductions"]), doc
    return doc


def test_share_drop_exits_4_with_the_trace_document(tmp_path, capsys, monkeypatch):
    inst_file = tmp_path / "inst.json"
    _run(capsys, "gen", "tight", "--n", "3", "--output", str(inst_file))
    trace = _solve_trace(tmp_path, capsys, inst_file)

    real = transforms.instance_mms_all

    def halved(*args, **kwargs):
        return {a: dataclasses.replace(r, value=r.value / 2)
                for a, r in real(*args, **kwargs).items()}

    monkeypatch.setattr(transforms, "instance_mms_all", halved)
    doc = _exit_4_dump(capsys, inst_file)
    # reduce raises right after its first reduction, before bag filling.
    assert doc == {"reductions": trace["reductions"][:1], "bagfill": []}


def _bag_filling_solve(tmp_path, capsys):
    """A ``gen tight --n 5`` file, which reaches bag filling, and its trace."""
    inst_file = tmp_path / "inst.json"
    _run(capsys, "gen", "tight", "--n", "5", "--output", str(inst_file))
    trace = _solve_trace(tmp_path, capsys, inst_file)
    assert trace["bagfill"], "the instance must reach bag filling"
    return inst_file, trace


def test_reducible_instance_before_bag_filling_exits_4(tmp_path, capsys, monkeypatch):
    inst_file, trace = _bag_filling_solve(tmp_path, capsys)

    # The irreducibility check finds a step where there is none.
    monkeypatch.setattr(pipeline, "apply_reduction",
                        lambda instance, alpha, values: (instance, None))
    doc = _exit_4_dump(capsys, inst_file)
    assert doc == {"reductions": trace["reductions"], "bagfill": []}


def test_too_few_goods_for_bag_filling_exits_4(tmp_path, capsys, monkeypatch):
    # Two agents with positive shares and 3 < 2n goods: reduce would take
    # an agent, so it is made to hand the instance back unreduced.
    inst_file = tmp_path / "inst.json"
    inst = mf.make_instance(2, ["g1", "g2", "g3"],
                            {a: {"g1": 2, "g2": 1, "g3": 1} for a in range(2)})
    inst_file.write_text(json.dumps(mf.instance_to_json(inst)))
    monkeypatch.setattr(pipeline, "reduce", lambda instance, alpha, shares, max_goods:
                        mf.ReductionLog(records=(), initial=instance, final=instance,
                                        shares=shares))
    monkeypatch.setattr(pipeline, "apply_reduction", lambda instance, alpha, values: None)
    code, out, err = _run(capsys, "solve", "--input", str(inst_file))
    assert code == 4 and out == "", err
    message, _, dump = err.partition("\n")
    assert message == "internal invariant violated: only 3 goods remain for 2 bags", err
    assert json.loads(dump) == {"reductions": [], "bagfill": []}


def test_unpinned_shares_after_normalizing_exit_4(tmp_path, capsys, monkeypatch):
    inst_file, trace = _bag_filling_solve(tmp_path, capsys)
    real = pipeline.instance_mms_values

    def doubled(*args, **kwargs):
        return {a: 2 * v for a, v in real(*args, **kwargs).items()}

    monkeypatch.setattr(pipeline, "instance_mms_values", doubled)
    doc = _exit_4_dump(capsys, inst_file, "normalization did not pin")
    assert doc == {"reductions": trace["reductions"], "bagfill": []}


def test_bag_filling_out_of_goods_exits_4(tmp_path, capsys, monkeypatch):
    inst_file, trace = _bag_filling_solve(tmp_path, capsys)
    real = pipeline.run_bag_fill
    monkeypatch.setattr(pipeline, "run_bag_fill", lambda *args: dataclasses.replace(
        real(*args), bundles=None))
    doc = _exit_4_dump(capsys, inst_file, "bag filling ran out of goods")
    assert doc == trace


def test_a_failed_final_check_exits_4(tmp_path, capsys, monkeypatch):
    inst_file, trace = _bag_filling_solve(tmp_path, capsys)
    real = pipeline.verify
    monkeypatch.setattr(pipeline, "verify", lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), passed=False))
    doc = _exit_4_dump(capsys, inst_file, "final score")
    assert doc == trace


def test_short_split_stops_the_share_climb(tmp_path, capsys, monkeypatch):
    # A split whose smallest cell does not beat the floor would make the
    # climb re-probe one threshold forever; the oracle raises instead.  On
    # [9, 1, 1] in 2 parts the floor is 2, so the first probe is at 3.
    def short_split(desc, parts, tau, seen):
        return [list(range(len(desc)))] + [[] for _ in range(parts - 1)]

    monkeypatch.setattr(oracle, "_covers", short_split)
    with pytest.raises(mf.InternalInvariantError, match=r"threshold 3 into 2 parts"):
        mf.mms({"a": 9, "b": 1, "c": 1}, 2, ["a", "b", "c"])
    inst_file = tmp_path / "inst.json"
    row = {"a": 9, "b": 1, "c": 1}
    inst_file.write_text(json.dumps({"agents": 2, "goods": list(row),
                                     "valuations": {"0": row, "1": row}}))
    code, out, err = _run(capsys, "mms", "--input", str(inst_file))
    assert code == 4 and out == ""
    assert err == ("internal invariant violated: _covers at threshold 3 into 2 "
                   "parts returned the cell [], which sums to only 0\n")


def test_gen_random_with_no_agents_exits_2(capsys):
    code, out, err = _run(capsys, "gen", "random", "--n", "0", "--m", "3",
                          "--bound", "5", "--seed", "1")
    assert code == 2 and out == ""
    assert err == "error: n must be at least 1, got 0\n"


def test_bench_rejects_unknown_suite(capsys):
    code, _, _ = _run(capsys, "bench", "--suite", "exotic",
                      "--count", "1", "--seed", "1")
    assert code == 2


def test_negative_limits_exit_2_naming_the_flag(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    _run(capsys, "gen", "tight", "--n", "3", "--output", str(inst_file))
    for command in ("solve", "mms"):
        code, out, err = _run(capsys, command, "--input", str(inst_file),
                              "--max-goods", "-1")
        assert code == 2 and out == "", (command, err)
        assert err.startswith("error") and "--max-goods" in err, (command, err)
    for count in ("-3", "0"):
        code, out, err = _run(capsys, "bench", "--count", count, "--seed", "1")
        assert code == 2 and out == "", (count, err)
        assert err.startswith("error") and "--count" in err, (count, err)


def test_main_builds_no_parser_per_call(tmp_path, capsys):
    def parsers():
        return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

    gc.collect()
    gc.disable()  # a per-call parser would otherwise be collected at random
    try:
        before = parsers()
        for seed in range(3):
            code, _, _ = _run(capsys, "gen", "random", "--n", "2", "--m", "3",
                              "--bound", "5", "--seed", str(seed),
                              "--output", str(tmp_path / f"{seed}.json"))
            assert code == 0
        assert parsers() == before
    finally:
        gc.enable()
