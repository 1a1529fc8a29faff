"""Artifact files that are replaced whole or not at all."""

from __future__ import annotations

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
