"""Artifact files that are replaced whole or not at all.

Every CSV and JSON artifact is written by write_csv or write_json, except
model.json, which lda.save_model writes through atomic_writer: CSV is
comma-separated with CRLF line ends and floats (numpy's included) as
Python's shortest repr; JSON is UTF-8 with non-ASCII text kept as is.
JSON files are read whole by read_json_object, and model.json member by
member by parse_json_object where the compiled table parser loads.
"""

from __future__ import annotations

import csv
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_writer(path, newline: str | None = None):
    """Yield a UTF-8 text handle whose contents replace path when the block ends.

    The text goes to a temporary file beside path. Only if the block
    completes is that file flushed, synced to disk and renamed over path,
    so a crash leaves either the old contents or the new ones. A write
    that raises leaves the old file in place and no temporary file behind.
    The new file has the default mode, and a symlink at path is replaced
    by a regular file, not written through.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("w", encoding="utf-8", newline=newline) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def read_json_object(path, error) -> dict:
    """The JSON object in the UTF-8 file at path; anything else raises error(reason)."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"not JSON: {exc}") from None
    except RecursionError:
        raise error("nested deeper than the recursion limit") from None
    if not isinstance(payload, dict):
        raise error("not a JSON object")
    return payload


_SPACE = re.compile(rb"[ \t\n\r]*")


def parse_json_object(data: bytes, value_end, parsers: dict) -> dict | None:
    """The JSON object that the UTF-8 text data holds, parsed member by member; None where it cannot say.

    value_end(data, start) is the offset just past the value that starts at
    byte start, or -1, and each key and value is json.loads of its own text.
    A member named in parsers is parsed by parsers[name](data, start)
    instead, which returns (value, end), or None to decline. A duplicate
    key keeps its last value, as in json.load. None means that data is not
    a JSON object, or that a parser declined: the caller then reads the
    file with json.load, which gives the same object for any text this
    function accepts.
    """
    members = {}
    try:
        at = _SPACE.match(data).end()
        if data[at:at + 1] != b"{":
            return None
        at = _SPACE.match(data, at + 1).end()
        closed = data[at:at + 1] == b"}"
        while not closed:
            end = value_end(data, at)
            if end < 0:
                return None
            key = json.loads(data[at:end].decode("utf-8"))
            at = _SPACE.match(data, end).end()
            if not isinstance(key, str) or data[at:at + 1] != b":":
                return None
            at = _SPACE.match(data, at + 1).end()
            if key in parsers:
                parsed = parsers[key](data, at)
                if parsed is None:
                    return None
                members[key], end = parsed
            else:
                end = value_end(data, at)
                if end < 0:
                    return None
                members[key] = json.loads(data[at:end].decode("utf-8"))
            at = _SPACE.match(data, end).end()
            closed = data[at:at + 1] == b"}"
            if not closed:
                if data[at:at + 1] != b",":
                    return None
                at = _SPACE.match(data, at + 1).end()
    except (ValueError, RecursionError):  # JSONDecodeError and UnicodeDecodeError included
        return None
    return members if _SPACE.match(data, at + 1).end() == len(data) else None


def write_csv(path, header: list, rows) -> None:
    """Write a header row, then each row of rows, as one atomic CSV file."""
    with atomic_writer(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write payload as one atomic JSON file, indented by 2 and ending in a newline."""
    with atomic_writer(path) as handle:
        handle.write(json.dumps(payload, ensure_ascii=False, indent=2) + "\n")
