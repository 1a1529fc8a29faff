"""Artifact files that are replaced whole or not at all.

Every CSV and JSON artifact is written by write_csv or write_json, except
model.json, which lda.save_model writes through atomic_writer: CSV is
comma-separated with CRLF line ends and floats (numpy's included) as
Python's shortest repr; JSON is UTF-8 with non-ASCII text kept as is.
JSON files, model.json included, are read whole by read_json_object.
Every JSON text an input holds, a file or a corpus row or cell, is
decoded by decode_json.
"""

from __future__ import annotations

import csv
import json
import os
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


def decode_json(text: str, error, not_json: str = ""):
    """json.loads(text); text it rejects raises error(reason), a LextopicError, with no exception chained.

    The reason is not_json followed by the decoder's message, or "nested
    deeper than the recursion limit". A number of more digits than
    Python's integer string limit is a ValueError like any syntax error.
    Only the decode is caught, so the caller's own errors pass through.
    """
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError and the integer digit limit
        raise error(f"{not_json}{exc}") from None
    except RecursionError:
        raise error("nested deeper than the recursion limit") from None


def read_json_object(path, error) -> dict:
    """The JSON object in the UTF-8 file at path; anything else raises error(reason)."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"not JSON: {exc}") from None
    payload = decode_json(text, error, "not JSON: ")
    if not isinstance(payload, dict):
        raise error("not a JSON object")
    return payload


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
