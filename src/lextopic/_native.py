"""Compile lextopic's C sources on first use and load them with ctypes.

A library is compiled with the system C compiler into a per-user cache
(``$XDG_CACHE_HOME/lextopic``, else ``~/.cache/lextopic``). Its file name
is the library's prefix and the sha256 of its source and its compiler
flags, so an edited source is never served a stale build. It is written to
a temporary file and renamed into place, so concurrent first uses cannot
load a half-written library; the builds of the same prefix from other
sources or flags are then deleted.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
from pathlib import Path

__all__ = ["build", "cache_dir", "find_compiler", "load_library"]

# Hex digits of the sha256 in a build's name.
_DIGITS = 16


def find_compiler() -> str | None:
    return shutil.which("gcc") or shutil.which("cc")


def cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "lextopic"


def build(prefix: str, source: Path, flags, cache: Path, compiler: str | None, header: Path | None = None) -> Path:
    """Path of the compiled library, compiling it if the cache lacks it.

    The name is <prefix>-<16 hex digits of the sha256 of source's bytes
    and flags>.so. A header the source includes is checked before the
    compiler runs, and a compile that fails raises RuntimeError with the
    compiler's exit status and messages.
    subprocess and tempfile are imported only to compile, so a run that
    finds its library in the cache does not load them. After a compile,
    every other build named for this prefix is deleted where it can be;
    the .<prefix>-* temporary files of compiles still running, and the
    builds of other prefixes, are left alone, also where this prefix
    begins their names.
    """
    digest = hashlib.sha256(source.read_bytes() + "\0".join(flags).encode()).hexdigest()
    target = cache / f"{prefix}-{digest[:_DIGITS]}.so"
    if target.is_file():
        return target
    if compiler is None:
        raise FileNotFoundError("no C compiler (gcc or cc) on PATH")
    if header is not None and not header.is_file():
        raise FileNotFoundError(f"no {header.name} in {header.parent}")
    import subprocess
    import tempfile

    cache.mkdir(parents=True, exist_ok=True)
    handle, temporary = tempfile.mkstemp(dir=cache, prefix=f".{prefix}-", suffix=".so")
    os.close(handle)
    try:
        result = subprocess.run([compiler, *flags, "-o", temporary, str(source)], capture_output=True, text=True)
        if result.returncode:
            raise RuntimeError(f"the compiler exited with status {result.returncode}: {result.stderr.strip()}")
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    for stale in cache.glob(f"{prefix}-{'[0-9a-f]' * _DIGITS}.so"):
        if stale != target:
            with contextlib.suppress(OSError):
                stale.unlink()
    return target


def load_library(loader, warning: str, prefix: str, source: Path, flags, cache: Path, compiler: str | None,
                 header: Path | None = None):
    """The library that build gives, loaded by loader (ctypes.CDLL or ctypes.PyDLL).

    None if it cannot be built or loaded, after logging warning with the
    reason in its one %s.
    """
    try:
        return loader(str(build(prefix, source, flags, cache, compiler, header)))
    except (OSError, RuntimeError) as exc:
        import logging  # only a fallback logs, so a run that loads the library does not import it

        logging.getLogger(__name__).warning(warning, exc)
        return None
