"""Build and load the compiled JSONL reader in ``_jsonl.c``.

``corpus.load_corpus`` reads JSONL through it, and through its own text
loop where it is missing. ``_native`` compiles the library on first use
into a per-user cache, against this interpreter's headers. Its prefix is
``jsonl-``, the ABI tag and a digest of the include directory
(``jsonl-cpython-311-x86_64-linux-gnu-1a2b3c4d``), so another Python is
never served this one's build, and Pythons that share the cache, also
two installs of one ABI tag, do not delete each other's builds.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import sys
from pathlib import Path
from typing import Callable

from ._native import cache_dir, find_compiler, load_library

__all__ = ["load_reader"]

SOURCE = Path(__file__).with_name("_jsonl.c")
CFLAGS = ("-O2", "-shared", "-fPIC")


def load_reader() -> Callable | None:
    """read_block, or None (with one logged warning) if the reader cannot be built.

    ``read_block(block, final, shape)`` takes a bytes block and returns
    ``(items, consumed)``: one item for each line that ends in the block's
    first ``consumed`` bytes. With ``final`` true, the bytes after the last
    newline are a line too, and ``consumed`` is the block's length. An item
    is the ``LawRecord`` that ``corpus._record_from_mapping`` builds from
    the line's row, where the row has the common shape the reader builds
    records for; else the dict ``json.loads`` gives for the line, where it
    reads the line as an object; else the line's bytes with its newline.
    ``shape`` is ``corpus._record_shape``'s tuple: what records are built
    with, and one load's id set and law-type memo, which the reader reads
    and adds the ids of its records to.

    The reader parses each row into a slot for each member a record is read
    from, and builds the record from the slots, with no dict made. A row
    that parses but is outside the common shape is parsed again into the
    dict; a line that fails to parse is given back as bytes at once. The
    result is kept per cache directory and compiler, as
    ``_gibbs.load_kernels`` keeps its own.
    """
    return _load(cache_dir(), find_compiler())


def _prefix(include: Path) -> str:
    """The reader's prefix for the headers in include: the ABI tag and 8 hex digits of the sha256 of its path."""
    import sysconfig

    tag = sysconfig.get_config_var("SOABI") or sys.implementation.cache_tag
    return f"jsonl-{tag}-{hashlib.sha256(str(include).encode()).hexdigest()[:8]}"


@functools.cache
def _load(cache: Path, compiler: str | None) -> Callable | None:
    import sysconfig  # not at import time: only a JSONL load needs the headers

    include = Path(sysconfig.get_paths()["include"])
    library = load_library(
        ctypes.PyDLL, "compiled JSONL reader unavailable (%s); reading JSONL corpora as text", _prefix(include),
        SOURCE, (*CFLAGS, f"-I{include}"), cache, compiler, header=include / "Python.h",
    )
    if library is None:
        return None
    function = library.read_block
    function.argtypes = [ctypes.py_object, ctypes.c_int, ctypes.py_object]
    function.restype = ctypes.py_object
    return function
