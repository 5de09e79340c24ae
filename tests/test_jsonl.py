from __future__ import annotations

import pytest

from graphsynth.jsonl import iter_jsonl, write_jsonl


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
