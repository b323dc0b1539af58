"""tools/gates.py, the byte-gate harness, runs on a small input and its
record survives the round trip, so it cannot rot between the changes that
use it."""

import importlib.util
import json
from pathlib import Path

import blab.verify

ROOT = Path(__file__).resolve().parent.parent


def _load_gates():
    spec = importlib.util.spec_from_file_location("gates", ROOT / "tools" / "gates.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gates = _load_gates()


def test_a_small_record_round_trips_and_equals_itself(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gates, "CENSUS_INPUTS", 2)
    monkeypatch.setattr(gates, "ORACLE_SEEDS", 2)
    # the 784-d check (about 5 s on 2 vCPUs) and the default verify suites (run in full by
    # test_acceptance) are left to the real record; small suites stand in
    monkeypatch.setattr(gates, "byte784", lambda work: {})
    monkeypatch.setitem(blab.verify.SUITES, "oracle", lambda: blab.verify.oracle_suite(nets=0))
    monkeypatch.setattr(blab.verify, "CLAIM_INSTANCES", 2)
    monkeypatch.setattr(blab.verify, "RATIO_SAMPLES", 10)
    monkeypatch.setattr(blab.verify, "GRADIENT_PAIRS", 1)
    out = tmp_path / "gates.json"
    assert gates.main(["run", str(out)]) == 0
    text = out.read_text()
    record = json.loads(text)
    assert json.dumps(record, indent=1) + "\n" == text
    assert sorted(record) == ["census/0", "census/1", "gen-data/csv", "oracle/1", "oracle/2",
                              "oracle/failing", "verify/claims", "verify/gradients",
                              "verify/oracle"]
    assert record["census/0"]["exit"] == record["census/1"]["exit"] == 0
    assert record["census/0"]["md5"] != record["census/1"]["md5"]
    assert record["oracle/failing"] == []
    capsys.readouterr()
    assert gates.main(["compare", str(out), str(out)]) == 0
    assert capsys.readouterr().out == ""
    # one moved digest and one missing entry are each named
    moved = dict(record, **{"census/1": dict(record["census/1"], md5="0" * 32)})
    del moved["oracle/2"]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(moved))
    assert gates.main(["compare", str(out), str(other)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["census/1", "oracle/2"]
    assert lines[2:] == ["2 of 9 entries differ"]
