"""Small JSON Lines helpers used by every stage's file interface."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
from pathlib import Path
from typing import IO, Any, Iterable, Iterator


def dumps(obj: Any) -> str:
    """Serialize one record deterministically (sorted keys, no ASCII escaping)."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def iter_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one JSON object per non-blank line."""
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                yield json.loads(line)


@contextlib.contextmanager
def atomic_write(path: str | Path, **open_kwargs) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` only once the block completes.

    The block writes to a temp file in the same directory, which
    ``os.replace`` moves over ``path`` when the block ends; if it raises, the
    temp file is removed and ``path`` keeps its earlier contents. So a crash
    mid-write never leaves a truncated artifact that looks finished.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    open_kwargs.setdefault("encoding", "utf-8")
    try:
        with open(tmp, "x", **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write records one per line, atomically; returns the number of lines written."""
    n = 0
    with atomic_write(path) as f:
        for rec in records:
            f.write(dumps(rec))
            f.write("\n")
            n += 1
    return n


def write_json(path: str | Path, obj: Any, **dump_kwargs) -> None:
    """Write one JSON document with sorted keys, atomically."""
    with atomic_write(path) as f:
        json.dump(obj, f, sort_keys=True, **dump_kwargs)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(65536), b""):
            h.update(block)
    return h.hexdigest()
