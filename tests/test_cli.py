"""CLI commands, file schemas, and exit codes."""

import json
import threading

import mmsfair as mf
from mmsfair import cli
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


_OK_ROWS = {"0": {"g1": 1, "g2": 1}, "1": {"g1": 1, "g2": 1}}
_OK_INSTANCE = {"agents": 2, "goods": ["g1", "g2"], "valuations": _OK_ROWS}

# (instance document, allocation document or None, field the error names)
MALFORMED = [
    ({"agents": 2, "goods": ["g1"], "valuations": {"0": {"g1": 1}}}, None,
     "agent 1"),
    (dict(_OK_INSTANCE, valuations=dict(_OK_ROWS, **{"1": [1, 1]})), None,
     "valuations['1']"),
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


def test_explicit_alpha_above_bound_rejected(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    _run(capsys, "gen", "tight", "--n", "3", "--output", str(inst_file))
    code, _, err = _run(capsys, "solve", "--input", str(inst_file),
                        "--alpha", "99/100")
    assert code == 2
    assert "guarantee" in err


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


def test_bench_rejects_unknown_suite(capsys):
    code, _, _ = _run(capsys, "bench", "--suite", "exotic",
                      "--count", "1", "--seed", "1")
    assert code == 2
