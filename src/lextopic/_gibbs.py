"""Build and load the compiled kernels in ``_gibbs.c``: the Gibbs sweep and
the per-entry token probabilities of the log-likelihood.

The shared library is compiled on first use with the system C compiler
into a per-user cache (``$XDG_CACHE_HOME/lextopic``, else
``~/.cache/lextopic``). Its file name carries the sha256 of the source
and the compiler flags, so an edited source is never served a stale
build. It is written to a temporary file and renamed into place, so
concurrent first uses cannot load a half-written library.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["Kernels", "load_sweep"]

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_gibbs.c")
# -ffp-contract=off keeps the compiler from fusing multiply-adds, which
# would round differently from the Python references.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class Kernels(NamedTuple):
    sweep: Callable
    token_probs: Callable


def find_compiler() -> str | None:
    return shutil.which("gcc") or shutil.which("cc")


def _cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "lextopic"


def _build(cache_dir: Path, compiler: str | None) -> Path:
    """Path of the compiled library, compiling it if the cache lacks it."""
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source + "\0".join(CFLAGS).encode()).hexdigest()
    target = cache_dir / f"gibbs-{digest[:16]}.so"
    if target.is_file():
        return target
    if compiler is None:
        raise FileNotFoundError("no C compiler (gcc or cc) on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temporary = tempfile.mkstemp(dir=target.parent, prefix=".gibbs-", suffix=".so")
    os.close(handle)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-o", temporary, str(SOURCE)],
            check=True, capture_output=True, text=True,
        )
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    return target


def load_sweep() -> Kernels | None:
    """The compiled kernels, or None (with one logged warning) if they cannot be built.

    ``sweep`` takes (doc_ptr, tokens, z, n_dk, n_kw, n_k, uniforms, alpha,
    beta) and updates z and the three count tables in place, exactly as
    ``lda.gibbs_sweep`` would with the same uniforms. ``token_probs``
    takes (docs, terms, doc_topic, topic_word) and returns each entry's
    probability, bit for bit as ``lda._token_probs``. The sweep's term and
    topic indices must already be in range; ``token_probs`` checks its own.
    The result is kept per cache directory and compiler, so each pair is
    built, loaded and warned about once per process.
    """
    return _load(_cache_dir(), find_compiler())


@functools.cache
def _load(cache_dir: Path, compiler: str | None) -> Kernels | None:
    try:
        library = ctypes.CDLL(str(_build(cache_dir, compiler)))
    except subprocess.CalledProcessError as exc:
        logger.warning(
            "compiling the Gibbs sweep failed (exit status %s: %s); using the Python sweep and log-likelihood",
            exc.returncode, exc.stderr.strip(),
        )
        return None
    except (OSError, RuntimeError) as exc:
        logger.warning("compiled Gibbs sweep unavailable (%s); using the Python sweep and log-likelihood", exc)
        return None
    sweep_function = library.gibbs_sweep
    sweep_function.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 7 + [ctypes.c_double] * 2 + [ctypes.c_void_p]
    sweep_function.restype = None
    probs_function = library.token_probs
    probs_function.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 5
    probs_function.restype = None

    def sweep(doc_ptr, tokens, z, n_dk, n_kw, n_k, uniforms, alpha, beta) -> None:
        n_docs, n_topics = n_dk.shape
        n_terms = n_kw.shape[1]
        tables_ok = (
            n_kw.shape[0] == n_topics and n_k.shape == (n_topics,)
            and doc_ptr.shape == (n_docs + 1,) and doc_ptr[-1] == tokens.size
            and z.shape == tokens.shape == uniforms.shape
        )
        arrays_ok = all(
            array.dtype == np.int64 and array.flags.c_contiguous
            for array in (doc_ptr, tokens, z, n_dk, n_kw, n_k)
        ) and uniforms.dtype == np.float64 and uniforms.flags.c_contiguous
        if not (tables_ok and arrays_ok):
            raise ValueError("sweep arrays have inconsistent shapes, dtypes or layouts")
        weights = np.empty(n_topics)
        sweep_function(
            n_docs, n_topics, n_terms,
            doc_ptr.ctypes.data, tokens.ctypes.data, z.ctypes.data,
            n_dk.ctypes.data, n_kw.ctypes.data, n_k.ctypes.data, uniforms.ctypes.data,
            alpha, beta, weights.ctypes.data,
        )

    def token_probs(docs, terms, doc_topic, topic_word) -> np.ndarray:
        docs = np.ascontiguousarray(docs, dtype=np.int64)
        terms = np.ascontiguousarray(terms, dtype=np.int64)
        theta = np.ascontiguousarray(doc_topic, dtype=np.float64)
        # Transposed, so that each entry reads one contiguous row of each table.
        phi_t = np.ascontiguousarray(np.transpose(topic_word), dtype=np.float64)
        if not (docs.ndim == 1 and terms.shape == docs.shape and theta.ndim == phi_t.ndim == 2
                and theta.shape[1] == phi_t.shape[1]):
            raise ValueError("token probability arrays have inconsistent shapes")
        if docs.size and not (0 <= docs.min() and docs.max() < theta.shape[0]
                              and 0 <= terms.min() and terms.max() < phi_t.shape[0]):
            raise ValueError("token probability entries index past doc_topic or topic_word")
        out = np.empty(docs.size)
        probs_function(
            docs.size, theta.shape[1], docs.ctypes.data, terms.ctypes.data,
            theta.ctypes.data, phi_t.ctypes.data, out.ctypes.data,
        )
        return out

    return Kernels(sweep, token_probs)
