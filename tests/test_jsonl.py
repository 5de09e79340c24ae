from __future__ import annotations

import json

import pytest

from graphsynth.jsonl import dumps, iter_jsonl, write_json, write_jsonl


def test_write_that_raises_halfway_keeps_the_earlier_file(tmp_path):
    target = tmp_path / "records.jsonl"
    write_jsonl(target, [{"n": 0}, {"n": 1}])
    before = target.read_bytes()

    def records():
        yield {"n": 10}
        raise RuntimeError("writer died")

    with pytest.raises(RuntimeError, match="writer died"):
        write_jsonl(target, records())
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    assert write_jsonl(target, [{"n": 2}]) == 1
    assert list(iter_jsonl(target)) == [{"n": 2}]
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


@pytest.mark.parametrize("indent", [None, 2])
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path, indent):
    obj = {
        "zeta": [0.1, -2.5e-310, 1e308, -0.0],
        "alpha": {"b": [3.141592653589793, 2.0 / 3.0], "a": {"n": 1, "x": [1e-7]}},
        "mid": [{"y": 0.5, "x": -1.25}, []],
    }
    target = tmp_path / "doc.json"
    write_json(target, obj, indent=indent)
    assert target.read_text(encoding="utf-8") == json.dumps(obj, sort_keys=True, indent=indent)


@pytest.mark.parametrize(
    "obj",
    [
        "naïve — ünïcode ☃ \U0001f600 \u2028",
        -0.0,
        1e-300,
        {"z": [1, [2.5, {"b": None, "a": True}], []], "é": {"y": -0.0, "x": "\u2014"}},
        [{"k": 1e-300}, [[], {}], "tab\tquote\""],
    ],
)
def test_dumps_equals_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, ensure_ascii=False)
