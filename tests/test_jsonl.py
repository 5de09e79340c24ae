from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsynth
from graphsynth import jsonl
from graphsynth.errors import FormatError
from graphsynth.jsonl import (
    checked,
    dumps,
    dumps_ascii,
    iter_jsonl,
    loads,
    write_json,
    write_jsonl,
)


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
        [math.nan, math.inf, -math.inf],
        {"big": 2**64 + 1, "neg": -(2**70)},
    ],
)
def test_dumps_equals_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, ensure_ascii=False)
    assert dumps_ascii(obj) == json.dumps(obj, sort_keys=True)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_both_encoders_equal_json_dumps_on_any_json_value(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, ensure_ascii=False)
    assert dumps_ascii(obj) == json.dumps(obj, sort_keys=True)


def test_the_encoders_without_the_c_accelerator_give_the_same_bytes(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    obj = {"z": ["naïve \u2028 ☃\x00", math.nan, -0.0, 2**64 + 1], "a": {"b": None, "c": True}}
    assert jsonl._sorted_encoder(ensure_ascii=False)(obj) == dumps(obj)
    assert jsonl._sorted_encoder(ensure_ascii=True)(obj) == dumps_ascii(obj)


@pytest.mark.parametrize(
    "text", ["", "{", "{} x", "[1,]", " {} ", "NaN", "\ufeff{}", "\x0c{}", "{}\u00a0", "\t[1]\r\n"]
)
def test_loads_equals_json_loads(text):
    try:
        expected = json.loads(text)
    except json.JSONDecodeError as e:
        with pytest.raises(json.JSONDecodeError) as raised:
            loads(text)
        assert raised.value.msg == e.msg
    else:
        assert repr(loads(text)) == repr(expected)


def test_the_next_write_removes_what_killed_writers_left(tmp_path):
    target = tmp_path / "records.jsonl"
    script = (
        "import os, signal, sys\n"
        "from graphsynth.jsonl import atomic_write\n"
        "with atomic_write(sys.argv[1]) as f:\n"
        "    f.write('{\"n\": 0}\\n' * 1000)\n"
        "    f.flush()\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    path = [str(Path(graphsynth.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for _ in range(3):
        killed = subprocess.run([sys.executable, "-c", script, str(target)], env=env)
        assert killed.returncode == -9
    assert [p.name for p in tmp_path.iterdir()] == [".records.jsonl.tmp"]
    write_jsonl(target, [{"n": 1}])
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]
    assert list(iter_jsonl(target)) == [{"n": 1}]


@pytest.mark.parametrize(
    "line, problem",
    [
        ("[1, 2]", "not a JSON object"),
        ('"text"', "not a JSON object"),
        ('{"a": 1}', "missing key(s) 'b', 'c'"),
    ],
)
def test_a_record_of_the_wrong_shape_is_a_format_error(tmp_path, line, problem):
    target = tmp_path / "records.jsonl"
    target.write_text('{"a": 1, "b": 2, "c": 3}\n\n' + line + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as e:
        list(iter_jsonl(target, "a", "b", "c"))
    assert str(e.value) == f"{target}, line 3: {problem}"


def test_an_undecodable_line_is_a_format_error_and_crlf_lines_load(tmp_path):
    target = tmp_path / "records.jsonl"
    target.write_bytes(b'{"a": 1}\r\n\r\n{"a": "\xc3\xa9"}\r\n{"a": 3}\xff\n')
    with pytest.raises(FormatError) as e:
        list(iter_jsonl(target, "a"))
    assert str(e.value).startswith(f"{target}, line 4: not valid UTF-8 (")
    target.write_bytes(target.read_bytes().replace(b"\xff", b""))
    assert list(iter_jsonl(target, "a")) == [{"a": 1}, {"a": "\u00e9"}, {"a": 3}]


@pytest.mark.parametrize(
    "value, kind, problem",
    [
        (5, str, "f 5 is not a string"),
        (None, str, "f None is not a string"),
        ("3", int, "f '3' is not an int"),
        (True, int, "f True is not an int"),
        ("c1", "chunk ids", "f 'c1' is not a list of chunk ids"),
        (["c1", 2], "path ids", "f ['c1', 2] is not a list of path ids"),
    ],
)
def test_checked_names_the_key_the_value_and_what_it_is_not(value, kind, problem):
    with pytest.raises(ValueError) as e:
        checked({"f": value}, "f", kind)
    assert str(e.value) == problem


def test_checked_returns_the_value_or_the_default_of_an_absent_key():
    rec = {"s": "x", "n": 0, "ids": ["a", "b"]}
    assert (checked(rec, "s"), checked(rec, "n", int)) == ("x", 0)
    assert checked(rec, "ids", "ids") is rec["ids"]
    assert checked(rec, "title", str, "") == ""
    with pytest.raises(KeyError):
        checked(rec, "title")
