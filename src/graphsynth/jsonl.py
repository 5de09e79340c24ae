"""Small JSON Lines helpers used by every stage's file interface.

Every record passes through JSON, so the coders are built once, here, not
per call as in ``json.dumps``; they keep no per-call state, so threads share them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator

from .errors import FormatError


def _sorted_encoder(ensure_ascii: bool) -> Callable[[Any], str]:
    """``json.dumps(obj, sort_keys=True, ensure_ascii=ensure_ascii)``, built once."""
    proto = json.JSONEncoder(sort_keys=True, ensure_ascii=ensure_ascii)
    if (make := json.encoder.c_make_encoder) is None:
        return proto.encode
    escape = json.encoder.encode_basestring_ascii if ensure_ascii else json.encoder.encode_basestring
    # iterencode's arguments, but markers=None: records are trees, so no cycle check
    encode = make(None, proto.default, escape, None, ": ", ", ", True, False, True)
    return lambda obj: "".join(encode(obj, 0))


dumps = _sorted_encoder(ensure_ascii=False)  # for every artifact line
dumps_ascii = _sorted_encoder(ensure_ascii=True)
_raw_decode = json.JSONDecoder().raw_decode


def loads(text: str) -> Any:
    """``json.loads(text)`` for a ``str``; an error's ``msg`` is the same."""
    if text.startswith("\ufeff"):
        return json.loads(text)  # raises with json's own BOM message
    text = text.strip(" \t\n\r")
    obj, end = _raw_decode(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return obj


_REQUIRED = object()


def checked(rec: dict, key: str, kind: type | str = str, default: Any = _REQUIRED) -> Any:
    """``rec[key]``, or ``default`` if given and the key is absent, as ``kind``:
    ``str``, ``int``, or a noun such as ``"chunk ids"`` for a list of strings.

    A value of another type is a ``ValueError`` naming the key and the value.
    """
    value = rec[key] if default is _REQUIRED else rec.get(key, default)
    if type(value) is kind:
        return value
    if kind is str or kind is int:
        raise ValueError(f"{key} {value!r} is not {'a string' if kind is str else 'an int'}")
    if type(value) is not list or not all(type(x) is str for x in value):
        raise ValueError(f"{key} {value!r} is not a list of {kind}")
    return value


def iter_jsonl(
    path: str | Path, *keys: str, build: Callable[[dict], Any] | None = None
) -> Iterator:
    """Yield one JSON object per non-blank line, or what ``build`` makes of it.

    A line that is not UTF-8, not JSON, not an object, or lacks one of
    ``keys``, or whose object ``build`` rejects (with a ValueError or
    TypeError, or a KeyError for a key it lacks), is a ``FormatError``
    naming the file and line. Lines end at ``\n``; a ``\r`` before it is
    stripped with the other surrounding whitespace.
    """
    required = frozenset(keys)
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}, line {lineno}: not valid UTF-8 ({e})") from e
            if line:
                try:
                    rec = loads(line)
                except json.JSONDecodeError as e:
                    raise FormatError(f"{path}, line {lineno}: not valid JSON ({e.msg})") from e
                if type(rec) is not dict:
                    raise FormatError(f"{path}, line {lineno}: not a JSON object")
                if not rec.keys() >= required:
                    missing = ", ".join(repr(k) for k in sorted(required - rec.keys()))
                    raise FormatError(f"{path}, line {lineno}: missing key(s) {missing}")
                if build is not None:
                    try:
                        rec = build(rec)
                    except KeyError as e:
                        raise FormatError(f"{path}, line {lineno}: missing key(s) {e}") from e
                    except (TypeError, ValueError) as e:
                        raise FormatError(f"{path}, line {lineno}: {e}") from e
                yield rec


@contextlib.contextmanager
def atomic_write(path: str | Path, **open_kwargs) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` only once the block completes.

    The block writes to the temp file ``.<name>.tmp`` in the same directory,
    which ``os.replace`` moves over ``path`` when the block ends; if it
    raises, the temp file is removed and ``path`` keeps its earlier contents.
    So a crash mid-write never leaves a truncated artifact that looks
    finished, and the temp file of a writer that was killed is removed by
    the next write of ``path``. The temp name is fixed, so no two writers
    may target the same path at once.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    open_kwargs.setdefault("encoding", "utf-8")
    tmp.unlink(missing_ok=True)
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
    # One dumps call: json.dump streams through the pure-Python encoder.
    text = json.dumps(obj, sort_keys=True, **dump_kwargs)
    with atomic_write(path) as f:
        f.write(text)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(65536), b""):
            h.update(block)
    return h.hexdigest()
