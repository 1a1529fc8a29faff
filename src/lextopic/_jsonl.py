"""Build and load the compiled JSONL reader in ``_jsonl.c``.

``corpus.load_corpus`` reads JSONL through it, and through its own text
loop where it is missing. ``_native`` compiles the library on first use
into a per-user cache, against this interpreter's headers. Its prefix is
``jsonl-`` and the ABI tag (``jsonl-cpython-311-x86_64-linux-gnu``), and
its hash also covers the include directory, so another Python is never
served this one's build, and Pythons of different ABIs that share the
cache do not delete each other's builds.
"""

from __future__ import annotations

import ctypes
import functools
import sys
from pathlib import Path
from typing import Callable

from ._native import cache_dir, find_compiler, load_library

__all__ = ["load_reader"]

SOURCE = Path(__file__).with_name("_jsonl.c")
CFLAGS = ("-O2", "-shared", "-fPIC")


def load_reader() -> Callable | None:
    """read_block, or None (with one logged warning) if the reader cannot be built.

    ``read_block(block, final)`` takes a bytes block and returns
    ``(items, consumed)``: for each line that ends in the block's first
    ``consumed`` bytes, either the dict ``json.loads`` gives for it or,
    for a line outside the reader's subset, its bytes with its newline.
    With ``final`` true, the bytes after the last newline are a line too,
    and ``consumed`` is the block's length. The result is kept per cache
    directory and compiler, as ``_gibbs.load_kernels`` keeps its own.
    """
    return _load(cache_dir(), find_compiler())


@functools.cache
def _load(cache: Path, compiler: str | None) -> Callable | None:
    import sysconfig  # not at import time: only a JSONL load needs the headers

    include = Path(sysconfig.get_paths()["include"])
    library = load_library(
        ctypes.PyDLL, "compiled JSONL reader unavailable (%s); reading JSONL corpora as text",
        f"jsonl-{sysconfig.get_config_var('SOABI') or sys.implementation.cache_tag}", SOURCE,
        (*CFLAGS, f"-I{include}"), cache, compiler, header=include / "Python.h",
    )
    if library is None:
        return None
    function = library.read_block
    function.argtypes = [ctypes.py_object, ctypes.c_int]
    function.restype = ctypes.py_object
    return function
